"""boxfuse benchmark: seeded synthetic scenes through synth, streaming fuse, eval and inverse.

Usage (from the repository root):

    python3 bench/run.py --workload stream-200 --seed 1 --seconds 17 --trace 0

One run builds its scene with ``boxfuse synth`` (several times; the median is
``setup_s``), then repeats, while another cycle fits in ``--seconds``, one cycle
of: a streaming pass over the detections (``iter_frames`` -> ``fuse_sequence``
-> ``frame_to_obj``/``dumps_line``, closed loop, one frame in flight),
``boxfuse eval`` and ``boxfuse inverse --model bicycle`` on the workload's
evaluation window. Times are probe-normalized (see probe.py) so that the
load of other tenants on a shared machine cancels. Outputs are checked on
every run. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
declares, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.

The program is imported from ``src/`` of the checkout this file sits in, and
nowhere else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one thread for numpy and any BLAS it loads, before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io as _stdio
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter

from probe import ProbeClock
from tracing import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent

PRESET = "waymo-default"
SETUP_REPEATS = 3
#: README quick-start detector noise, shared by every workload
NOISE = {"sigma_xy": 0.3, "drop_prob": 0.1, "burst_frames": 3, "burst_frac": 0.2}
DEFAULT_MIX = (0.63, 0.31, 0.05)
TURNING_MIX = (0.2, 0.3, 0.5)


@dataclass(frozen=True)
class Workload:
    """Generator parameters of one scene and the frames evaluated from it.

    mix is the stationary / straight / turning share of the vehicles. The
    evaluation window starts at the first frame with a full history window
    and spans eval_frames frames.
    """

    vehicles: int
    duration: float
    model: str
    mix: tuple[float, float, float]
    eval_frames: int
    frame_interval: float = 0.1

    def synth_args(self, seed: int) -> list[str]:
        args = [
            "--seed", str(seed), "--vehicles", str(self.vehicles),
            "--duration", repr(self.duration), "--interval", repr(self.frame_interval),
            "--model", self.model,
            "--stationary-frac", repr(self.mix[0]), "--straight-frac", repr(self.mix[1]),
            "--turning-frac", repr(self.mix[2]),
        ]
        for key, value in NOISE.items():
            args += ["--" + key.replace("_", "-"), repr(value)]
        return args


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    # many modest frames: per-box constant costs, and enough samples for p90
    "stream-200": Workload(200, 12.0, "cv", DEFAULT_MIX, eval_frames=21),
    # 4-5k-box dense sets per NMS call: growth of per-box cost with frame size
    "dense-1000": Workload(1000, 3.0, "cv", DEFAULT_MIX, eval_frames=2),
    # bicycle parameters in turns: eval all-pairs matching, inverse fits, the turning claim
    "turning-200": Workload(200, 4.0, "bicycle", TURNING_MIX, eval_frames=37),
}


def _import_program():
    """Import boxfuse from this checkout's src/, or exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "boxfuse" / "__init__.py").is_file():
        print(f"bench: no program sources at {src / 'boxfuse'}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import boxfuse

    if Path(boxfuse.__file__).resolve().parent != (src / "boxfuse").resolve():
        print(f"bench: imported boxfuse from {boxfuse.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    from boxfuse import cli, fusion, io

    return cli, fusion, io


class Checks:
    """Commands and output checks attempted and failed; each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.names: list[str] = []

    def check(self, ok: bool, name: str, detail: str = "") -> bool:
        self.names.append(name)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {name} {detail}".rstrip(), file=sys.stderr)
        return ok


# Outputs are read a line at a time and compared by digest, so that the
# benchmark's own buffers stay small beside the program's memory.

def _frame_lines(path: Path):
    """The frame lines of a JSONL file, without a leading meta line, one at a time."""
    with open(path, encoding="utf-8", newline="") as f:
        first = next(f, None)
        if first is not None and not first.startswith('{"meta"'):
            yield first
        yield from f


def _frame_digest(path: Path) -> str:
    """SHA-256 of the frame lines of a JSONL file."""
    digest = hashlib.sha256()
    for line in _frame_lines(path):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def _file_digest(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _write_frame_lines(dst: Path, src: Path, window: slice) -> None:
    """Copy the frame lines of src in window to dst."""
    with open(dst, "w", encoding="utf-8", newline="") as out:
        out.writelines(islice(_frame_lines(src), window.start, window.stop))


class Bench:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, program, workload: Workload, seed: int, seconds: float, tracer, work: Path) -> None:
        self.cli, self.fusion, self.io = program
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.cfg = self.fusion.PRESETS[PRESET]
        self.checks = Checks()
        self.clock = ProbeClock()
        self.gt = work / "gt.jsonl"
        self.det = work / "det.jsonl"
        # command name -> perf_counter span of each run of it
        self.command_spans: dict[str, list[tuple[float, float]]] = {}
        # traced run: (start, end, spans and counts) of each full-window frame
        self.frame_records: list[tuple[float, float, Counter]] = []

    def _phase(self, name: str):
        return self.tracer.in_phase(name) if self.tracer else contextlib.nullcontext()

    def _command(self, argv: list[str]) -> None:
        """Run one boxfuse command in-process, in the trace phase named after it."""
        name = argv[0]
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with self._phase(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            if self.tracer:
                rc = self.tracer.call("cli." + name, self.cli.main, (argv,))
            else:
                rc = self.cli.main(argv)
            end = perf_counter()
        self.command_spans.setdefault(name, []).append((start, end))
        if not self.checks.check(rc == 0, f"{name} exit code", f"rc={rc}: {err.getvalue().strip()}"):
            raise RuntimeError(f"boxfuse {name} failed")

    # -- setup -----------------------------------------------------------------

    def setup(self) -> None:
        for i in range(SETUP_REPEATS):
            gt, det = (self.gt, self.det) if i == 0 else (self.work / "gt2.jsonl", self.work / "det2.jsonl")
            self._command(["synth", "--output-gt", str(gt), "--output-det", str(det),
                           *self.workload.synth_args(self.seed)])
            if i == 0:
                first = (_file_digest(gt), _file_digest(det))
            else:
                self.checks.check((_file_digest(gt), _file_digest(det)) == first, "synth rerun byte-identical")
        self.n_frames = self.n_boxes = 0
        for frame in self.io.iter_frames(self.det):
            self.n_frames += 1
            self.n_boxes += len(frame.detections)
        start = self.cfg.n_history
        self.checks.check(self.n_frames >= start + self.workload.eval_frames, "scene covers the eval window")

    # -- streaming pass ----------------------------------------------------------

    def stream(self, src: Path, dst: Path) -> tuple[list[tuple[float, float]], tuple[float, float], int]:
        """Closed-loop io -> fusion -> io pass.

        Returns the perf_counter span of each frame with a full history
        window, the span of the whole pass and the number of frames written.
        """
        full = self.cfg.n_history
        frame_spans = []
        written = 0
        tracer = self.tracer
        start = perf_counter()
        with open(dst, "w", encoding="utf-8", newline="\n") as out:
            fused_frames = self.fusion.fuse_sequence(self.io.iter_frames(src), self.cfg)
            while True:
                if tracer:
                    tracer.frame = frame_record = Counter()
                t0 = perf_counter()
                fused = next(fused_frames, None)
                if fused is None:
                    break
                out.write(self.io.dumps_line(self.io.frame_to_obj(fused)) + "\n")
                t1 = perf_counter()
                if written >= full:
                    frame_spans.append((t0, t1))
                    if tracer:
                        self.frame_records.append((t0, t1, frame_record))
                written += 1
        end = perf_counter()
        if tracer:
            tracer.frame = None
        return frame_spans, (start, end), written

    # -- one run -----------------------------------------------------------------

    def run(self) -> tuple[dict, Checks]:
        with self.clock:
            return self._run()

    def _run(self) -> tuple[dict, Checks]:
        wl = self.workload
        self.setup()

        # warm-up outside the timed region: a short stream through the same path
        warm_in = self.work / "warm.jsonl"
        _write_frame_lines(warm_in, self.det, slice(0, self.cfg.n_history + 2))
        with self._phase("warmup"):
            self.stream(warm_in, self.work / "warm_out.jsonl")
        self.frame_records = []

        first = self.cfg.n_history
        window = slice(first, first + wl.eval_frames)
        gt_win, raw_win = self.work / "gt_win.jsonl", self.work / "raw_win.jsonl"
        _write_frame_lines(gt_win, self.gt, window)
        _write_frame_lines(raw_win, self.det, window)
        fused_win = self.work / "fused_win.jsonl"
        csv_path, inv_path = self.work / "report.csv", self.work / "inverse.jsonl"

        fused_path = self.work / "fused.jsonl"
        frame_spans, pass_spans = [], []
        first_fused = first_csv = None
        # the loop runs for --seconds of normalized time, so the number of
        # cycles depends on the program's speed and not on the machine's load
        timed_start = perf_counter()
        while True:
            cycle_start = perf_counter()
            with self._phase("stream"):
                frames, whole, written = self.stream(self.det, fused_path)
            frame_spans += frames
            pass_spans.append(whole)
            self.checks.check(written == self.n_frames, "one fused frame per input frame",
                              f"{written} != {self.n_frames}")
            fused_digest = _frame_digest(fused_path)
            if first_fused is None:
                first_fused = fused_digest
                _write_frame_lines(fused_win, fused_path, window)
            else:
                self.checks.check(fused_digest == first_fused, "streaming pass rerun byte-identical")

            self._command(["eval", "--gt", str(gt_win), "--raw", str(raw_win), "--fused", str(fused_win),
                           "--iou", "0.5", "--output", str(csv_path)])
            csv_bytes = csv_path.read_bytes()
            if first_csv is None:
                first_csv = csv_bytes
                ap = self._check_report(csv_bytes.decode("utf-8"))
            else:
                self.checks.check(csv_bytes == first_csv, "eval rerun byte-identical")

            self._command(["inverse", "--input", str(gt_win), "--output", str(inv_path),
                           "--model", "bicycle"])
            self._check_inverse(inv_path)

            now = perf_counter()
            if self.clock.seconds(timed_start, now) + self.clock.seconds(cycle_start, now) > self.seconds:
                break
        self.cycles = len(pass_spans)

        # untimed: the CLI fuse command must write the same frame lines
        cli_out = self.work / "cli_fused.jsonl"
        self._command(["fuse", "--input", str(self.det), "--output", str(cli_out), "--preset", PRESET])
        self.checks.check(_frame_digest(cli_out) == first_fused,
                          "streaming pass byte-identical to boxfuse fuse")

        seconds = self.clock.seconds
        latencies = [seconds(*span) * 1e3 for span in frame_spans]

        def command_s(name: str) -> float:
            return statistics.median(seconds(*span) for span in self.command_spans[name])

        metrics = {
            "setup_s": command_s("synth"),
            "frame_latency_p50_ms": statistics.median(latencies),
            "frame_latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "fuse_boxes_per_s": statistics.median(self.n_boxes / seconds(*span) for span in pass_spans),
            "eval_s": command_s("eval"),
            "inverse_s": command_s("inverse"),
            **ap,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics["ok_frac"] = 1.0 - self.checks.failed / self.checks.attempted
        metrics["latency_samples"] = len(latencies)
        return metrics, self.checks

    def speed(self, spans: list[tuple[float, float]]) -> float:
        """Normalized over wall time of the given spans, for times the tracer measured."""
        return sum(self.clock.seconds(*span) for span in spans) / sum(end - start for start, end in spans)

    def _check_report(self, text: str) -> dict:
        rows = {}
        for line in text.splitlines()[1:]:
            subset, metric, raw, fused, delta = line.split(",")
            rows[(subset, metric)] = (float(raw), float(fused), float(delta))
        complete = all(k in rows for k in (("all", "AP"), ("turning", "AP"), ("turning", "APH")))
        if not self.checks.check(complete, "eval CSV has the all and turning rows"):
            raise RuntimeError("eval CSV incomplete")
        self.checks.check(rows[("all", "AP")][2] > 0.0, "fusion raises AP on subset all",
                          f"delta {rows[('all', 'AP')][2]!r}")
        return {
            "ap_fused_all": rows[("all", "AP")][1],
            "ap_fused_turning": rows[("turning", "AP")][1],
            "aph_fused_turning": rows[("turning", "APH")][1],
            "ap_gain_all": rows[("all", "AP")][2],
            "ap_gain_turning": rows[("turning", "AP")][2],
            "aph_gain_turning": rows[("turning", "APH")][2],
        }

    def _check_inverse(self, path: Path) -> None:
        lines = boxes = bicycle = 0
        for line in _frame_lines(path):
            lines += 1
            boxes += line.count('"box":')
            bicycle += line.count('"model":"bicycle"')
        self.checks.check(lines == self.workload.eval_frames, "inverse writes every frame")
        self.checks.check(boxes == bicycle, "inverse attaches bicycle parameters to every box")


def layer_metrics(bench: Bench, e2e: dict) -> dict:
    """Per-layer metrics from the trace of one run, per pipeline execution.

    Span times are normalized like the end-to-end times: each frame's spans
    by that frame's normalized over wall time, each command's spans by the
    same ratio over all runs of the command.
    """
    t = bench.tracer
    frames = [(bench.speed([(start, end)]), rec) for start, end, rec in bench.frame_records]
    cycles = bench.cycles
    speed = {name: bench.speed(spans) for name, spans in bench.command_spans.items()}

    def per_frame(*names: str) -> float:
        return statistics.median(factor * sum(rec[n] for n in names) / 1e6 for factor, rec in frames)

    def per_run(phase: str, name: str) -> float:
        return t.counts[(phase, name)] / cycles

    def ms(phase: str, name: str, runs: int) -> float:
        return speed[phase] * t.total_ms(name, phase) / runs

    forwarded = per_run("stream", "forwarded_boxes")
    history_boxes = sum(t.history_frames.values())
    nms_out = t.counts[("stream", "nms_outputs")]
    iou_calls = t.calls("geometry.bev_iou", "eval") / cycles
    iou_useful = per_run("eval", "bev_iou_useful")
    bicycle_calls = t.calls("motion.inverse_bicycle", "synth") / SETUP_REPEATS + t.calls(
        "motion.inverse_bicycle", "inverse") / cycles
    bicycle_iters = t.counts[("synth", "inverse_bicycle_iterations")] / SETUP_REPEATS + t.counts[
        ("inverse", "inverse_bicycle_iterations")] / cycles
    m = {
        "io.parse_ms_per_frame": per_frame("io.iter_frames"),
        "io.serialize_ms_per_frame": per_frame("io.frame_to_obj", "io.dumps_line"),
        "io.bytes_read": bench.det.stat().st_size,
        "io.bytes_written": (bench.work / "fused.jsonl").stat().st_size,
        "fusion.forward_frame_ms_per_frame": per_frame("fusion.forward_frame"),
        "fusion.forwarded_boxes": forwarded,
        "fusion.history_boxes": history_boxes,
        "fusion.reforward_ratio": forwarded / history_boxes,
        "fusion.weighted_nms_ms_per_frame": per_frame("fusion.weighted_nms"),
        "fusion.dense_boxes_per_frame": statistics.median(rec["dense_boxes"] for _, rec in frames),
        "fusion.fused_boxes_per_frame": statistics.median(rec["nms_outputs"] for _, rec in frames),
        "fusion.merge_frac": t.counts[("stream", "merged_outputs")] / nms_out,
        "fusion.apply_score_strategy_ms_per_frame": per_frame("fusion.apply_score_strategy"),
        "fusion.history_only_kept": per_run("stream", "history_only_kept"),
        "fusion.history_floor_dropped": per_run("stream", "scored_outputs") - per_run("stream", "fused_outputs"),
        "fusion.fuse_frames_self_ms_per_frame": per_frame("self:fusion.fuse_frames"),
        "geometry.bev_iou_calls": iou_calls,
        "geometry.bev_iou_useful_calls": iou_useful,
        "geometry.bev_iou_useful_frac": iou_useful / iou_calls,
        "geometry.bev_iou_ms": ms("eval", "geometry.bev_iou", cycles),
    }
    for fn in ("match_frame", "filter_detections_to_subset", "average_precision", "split_motion_state"):
        m[f"evaluation.{fn}_ms"] = ms("eval", f"evaluation.{fn}", cycles)
        m[f"evaluation.{fn}_calls"] = t.calls(f"evaluation.{fn}", "eval") / cycles
    m["motion.estimate_params_from_track_ms"] = (
        ms("synth", "motion.estimate_params_from_track", SETUP_REPEATS)
        + ms("inverse", "motion.estimate_params_from_track", cycles)
    )
    m["motion.inverse_bicycle_calls"] = bicycle_calls
    m["motion.inverse_bicycle_iterations_mean"] = bicycle_iters / bicycle_calls
    m["synth.generate_mixed_scene_s"] = ms("synth", "synth.generate_mixed_scene", SETUP_REPEATS) / 1e3
    m["synth.corrupt_s"] = ms("synth", "synth.corrupt", SETUP_REPEATS) / 1e3
    for cmd in ("synth", "fuse", "eval", "inverse"):
        runs = len(bench.command_spans[cmd])
        m[f"cli.{cmd}.self_ms"] = speed[cmd] * t.self_ms(f"cli.{cmd}", cmd) / runs
    for name in ("setup_s", "frame_latency_p50_ms", "fuse_boxes_per_s", "eval_s", "inverse_s", "latency_samples"):
        m[f"traced.{name}"] = e2e[name]
    for name in ("ap_gain_all", "ap_gain_turning", "aph_gain_turning"):
        m[f"evaluation.{name}"] = e2e[name]
    return m


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Checks]:
    """Run one workload; return every metric it measured and the checks made."""
    program = _import_program()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"s{seed}-", dir=work_root))
    try:
        tracer = Tracer() if trace else None
        bench = Bench(program, workload, seed, seconds, tracer, work)
        with installed(tracer) if trace else contextlib.nullcontext():
            metrics, checks = bench.run()
        if trace:
            metrics.update(layer_metrics(bench, metrics))
        return metrics, checks
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, checks: Checks, trace: bool) -> str:
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("BOXFUSE_")]:
        del os.environ[key]  # the CLI reads these; the workload alone decides
    metrics, checks = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(result_line(metrics, checks, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
