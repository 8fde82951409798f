"""Print the SHA-256 of every output of the benchmark's workloads at seeds 1-3 as one JSON object.

Usage (from the repository root):

    python3 tools/output_digests.py > digests.json

For each workload of bench/run.py (its synth flags come from `WORKLOADS`)
and each seed, the commands run in process, in a temporary directory:

- `boxfuse synth`: the ground truth and the detections;
- `boxfuse fuse` of the detections under every preset of `fusion.PRESETS`,
  so weighted NMS is covered at each preset's IoU thresholds;
- `boxfuse eval` of the benchmark's preset: its text and CSV over the
  benchmark's evaluation window;
- `boxfuse inverse` of the ground truth under each motion model;
- `boxfuse inverse` of the detections under each motion model, whose noisy
  poses take multi-iteration bicycle fits and whose drops leave track gaps;
  when it exits 2, its error text is recorded in place of a digest;
- `boxfuse fuse` of the benchmark's preset over the unicycle `inverse` of
  the detections, when that exits 0, so fused rows of a model other than
  the workload's own are digested too.

Once, under `traj-compare`, it also records `boxfuse traj-compare` for every
`--gen-model` at the radii in `TRAJ_RADII` (a cv trajectory cannot turn, so
there the error text stands in place of a digest).

Every file is digested whole, meta line included. Each frame file is
digested a second time (key suffix `/frame_to_obj`) with every frame line
re-written by the dict writer, `dumps_line(frame_to_obj(frame_from_obj(...)))`,
so the writer the commands do not use is gated too. Two checkouts whose
outputs agree byte for byte print the same object, so a change that must
keep every output can be checked by comparing two files. Like the pinned
digests of the tests, the digests depend on numpy's SIMD kernels.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# straight, turning left at the default radius, turning right
TRAJ_RADII = ("0", "20", "-15")


def _load_bench():
    """bench/run.py as a module; its own imports (probe, tracing) resolve from bench/."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frame_file_digests(key: str, path: Path) -> dict[str, str]:
    """The digest of a frame file, and of the file with every frame line re-written by the dict writer."""
    from boxfuse.io import dumps_line, frame_from_obj, frame_to_obj

    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line if line.startswith('{"meta"') else
                 dumps_line(frame_to_obj(frame_from_obj(json.loads(line)))) + "\n" for line in fh]
    return {key: _digest(path.read_bytes()), f"{key}/frame_to_obj": _digest("".join(lines).encode("utf-8"))}


def _window(src: Path, dst: Path, window: slice) -> Path:
    """Write the frame lines of src in window to dst, leaving out the meta line."""
    with open(src, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith('{"meta"')]
    with open(dst, "w", encoding="utf-8", newline="") as out:
        out.writelines(islice(lines, window.start, window.stop))
    return dst


def _run(main, argv: list[str], data_error_ok: bool = False) -> str:
    """Run one command in process; return its standard output and raise unless it exits 0.

    With data_error_ok, an exit 2 returns "exit 2: " and the error text instead.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2 and data_error_ok:
        return "exit 2: " + err.getvalue()
    if code != 0:
        raise SystemExit(f"boxfuse {' '.join(argv)} exited {code}")
    return out.getvalue()


def workload_digests(main, models, presets, workload, preset: str, first: int, seed: int,
                     work: Path) -> dict[str, str]:
    gt, det = work / "gt.jsonl", work / "det.jsonl"
    _run(main, ["synth", "--output-gt", str(gt), "--output-det", str(det), *workload.synth_args(seed)])
    out = _frame_file_digests("synth-gt", gt) | _frame_file_digests("synth-det", det)
    for name in presets:
        fused = work / f"fused-{name}.jsonl"
        _run(main, ["fuse", "--input", str(det), "--output", str(fused), "--preset", name])
        out |= _frame_file_digests(f"fuse-{name}", fused)
    fused = work / f"fused-{preset}.jsonl"
    window = slice(first, first + workload.eval_frames)
    gt_win, raw_win, fused_win = (_window(path, work / f"{path.stem}-window.jsonl", window)
                                  for path in (gt, det, fused))
    csv = work / "report.csv"
    text = _run(main, ["eval", "--gt", str(gt_win), "--raw", str(raw_win), "--fused", str(fused_win),
                       "--iou", "0.5", "--output", str(csv)])
    out["eval-text"] = _digest(text.encode("utf-8"))
    out["eval-csv"] = _digest(csv.read_bytes())
    for model in models:
        for key, source in ((f"inverse-{model}", gt), (f"inverse-det-{model}", det)):
            inverse = work / f"{key}.jsonl"
            error = _run(main, ["inverse", "--input", str(source), "--output", str(inverse), "--model", model],
                         data_error_ok=source == det)
            out |= {key: error} if error else _frame_file_digests(key, inverse)
    # fused rows of a second model: the benchmark preset over the unicycle re-fit of the detections
    if not out["inverse-det-unicycle"].startswith("exit 2"):
        fused = work / "fused-inverse-det-unicycle.jsonl"
        _run(main, ["fuse", "--input", str(work / "inverse-det-unicycle.jsonl"), "--output", str(fused),
                    "--preset", preset])
        out |= _frame_file_digests("fuse-inverse-det-unicycle", fused)
    return out


def traj_compare_digests(main, models, work: Path) -> dict[str, str]:
    out, csv = {}, work / "traj.csv"
    for model in models:
        for radius in TRAJ_RADII:
            error = _run(main, ["traj-compare", "--gen-model", model, "--radius", radius, "--output", str(csv)],
                         data_error_ok=True)
            out[f"gen-{model}/radius-{radius}"] = error or _digest(csv.read_bytes())
    return out


def main() -> int:
    bench = _load_bench()
    sys.path.insert(0, str(ROOT / "src"))
    from boxfuse.cli import main as boxfuse_main
    from boxfuse.fusion import PRESETS
    from boxfuse.motion import MODEL_NAMES

    # the evaluation window starts at the first frame with a full history window
    first = PRESETS[bench.PRESET].n_history
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in bench.WORKLOADS.items():
            for seed in SEEDS:
                digests[f"{name}/seed-{seed}"] = workload_digests(
                    boxfuse_main, MODEL_NAMES, sorted(PRESETS), workload, bench.PRESET, first, seed, Path(tmp))
        digests["traj-compare"] = traj_compare_digests(boxfuse_main, MODEL_NAMES, Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
