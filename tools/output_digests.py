"""Print the SHA-256 of every output of the benchmark's workloads at seeds 1-3 as one JSON object.

Usage (from the repository root):

    python3 tools/output_digests.py > digests.json

For each workload of bench/run.py (its synth flags come from `WORKLOADS`)
and each seed, the commands run in process, in a temporary directory:

- `boxfuse synth`: the ground truth and the detections;
- `boxfuse fuse` of the detections under every preset of `fusion.PRESETS`,
  so weighted NMS is covered at each preset's IoU thresholds;
- `boxfuse eval` of the benchmark's preset: its text and CSV over the
  benchmark's evaluation window, at each IoU of `EVAL_IOUS`, and its error
  text when the fused window is cut one frame short or starts one frame late;
- `boxfuse inverse` of the ground truth under each motion model;
- `boxfuse inverse` of the detections under each motion model, whose noisy
  poses take multi-iteration bicycle fits and whose drops leave track gaps;
  when it exits 2, its error text is recorded in place of a digest;
- `boxfuse fuse` of the benchmark's preset over the unicycle `inverse` of
  the detections, when that exits 0, so fused rows of a model other than
  the workload's own are digested too.

Every workload's scene has an identity ego, so, per seed, `moving-ego/seed-S`
digests one scene seen from a turning ego (`EGO_MOTION`): 40 vehicles in the
`turning-200` mix, grouped as `boxfuse synth` groups them, over 2 s at 10 Hz.
Its ground truth is re-fitted under each motion model (`reattach_params`),
then corrupted with the benchmark's detector noise, in the order `boxfuse
synth` uses; the detections and `boxfuse fuse` of them under every preset
are digested (keys `<model>/det` and `<model>/fuse-<preset>`).

Once, under `traj-compare`, it also records `boxfuse traj-compare` for every
`--gen-model` at the radii in `TRAJ_RADII` (a cv trajectory cannot turn, so
there the error text stands in place of a digest).

Once, under `far-field`, it records the error text of commands whose values
leave float range: `boxfuse fuse` of a two-frame stream whose forward
overflows (key `fuse-forward`), `boxfuse inverse` under each motion
model of a track whose ego and box sit at x = `FAR` (keys `inverse-<model>`),
and `boxfuse synth` whose detector noise (key `synth-noise`) or whose
vehicle speeds (key `synth-speed`) overflow, as `SYNTH_OVERFLOWS` gives them.

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
import dataclasses
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
# below, at and above the subset filter's IoU of 0.5; 0.7 is the Waymo vehicle IoU;
# 0 keeps every pair that can overlap at all in the IoU tables
EVAL_IOUS = ("0", "0.3", "0.5", "0.7")
# straight, turning left at the default radius, turning right
TRAJ_RADII = ("0", "20", "-15")
# the moving-ego scene: the mix of this workload, and the ego's unicycle speed (m/s) and yaw rate (rad/s)
MOVING_EGO_WORKLOAD = "turning-200"
EGO_MOTION = (8.0, 0.3)
# a coordinate whose sum with itself overflows
FAR = 1.5e308
# synth flags whose noisy boxes, and whose generated poses, leave float range
SYNTH_OVERFLOWS = {
    "synth-noise": ["--vehicles", "5", "--seed", "1", "--sigma-xy", "1e308", "--duration", "0.5"],
    "synth-speed": ["--vehicles", "5", "--seed", "1", "--speed-min", "1e308", "--speed-max", "1.5e308",
                    "--duration", "2.0"],
}


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
    for iou in EVAL_IOUS:
        text = _run(main, ["eval", "--gt", str(gt_win), "--raw", str(raw_win), "--fused", str(fused_win),
                           "--iou", iou, "--output", str(csv)])
        # the keys of IoU 0.5 keep their names from before the other IoUs were added
        suffix = "" if iou == "0.5" else f"-iou-{iou}"
        out[f"eval-text{suffix}"] = _digest(text.encode("utf-8"))
        out[f"eval-csv{suffix}"] = _digest(csv.read_bytes())
    # misaligned fused windows: the error names the first frame that differs, past an end too
    for key, cut in (("short", slice(first, first + workload.eval_frames - 1)),
                     ("late", slice(first + 1, first + 1 + workload.eval_frames))):
        cut_win = _window(fused, work / f"fused-window-{key}.jsonl", cut)
        out[f"eval-error-fused-{key}"] = _run(main, ["eval", "--gt", str(gt_win), "--raw", str(raw_win),
                                                     "--fused", str(cut_win)], data_error_ok=True)
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


def moving_ego_digests(main, models, presets, workload, seed: int, work: Path) -> dict[str, str]:
    """The detections of a 40-vehicle scene of `workload`'s mix seen from a turning
    ego, re-fitted under each model, and their fused outputs under every preset."""
    from boxfuse import cli
    from boxfuse.io import write_frames
    from boxfuse.motion import Unicycle
    from boxfuse.synth import CorruptionSpec, corrupt, generate_mixed_scene, reattach_params

    scene = dataclasses.replace(workload, vehicles=40, duration=2.0)
    args = cli.build_parser().parse_args(["synth", "--output-gt", "-", "--output-det", "-",
                                          *scene.synth_args(seed)])
    # the noise flags that the benchmark gives; the others keep CorruptionSpec's defaults, as in synth
    noise = CorruptionSpec(**{field.name: getattr(args, field.name) for field in dataclasses.fields(CorruptionSpec)
                              if getattr(args, field.name, None) is not None})
    gt = generate_mixed_scene(cli._synth_groups(args, None), seed, ego_motion=Unicycle(*EGO_MOTION))
    out = {}
    for model in models:
        det = work / f"moving-ego-{model}.jsonl"
        write_frames(det, corrupt(reattach_params(gt, model), noise, seed))
        out |= _frame_file_digests(f"{model}/det", det)
        for name in presets:
            fused = work / f"moving-ego-{model}-fused-{name}.jsonl"
            _run(main, ["fuse", "--input", str(det), "--output", str(fused), "--preset", name])
            out |= _frame_file_digests(f"{model}/fuse-{name}", fused)
    return out


def traj_compare_digests(main, models, work: Path) -> dict[str, str]:
    out, csv = {}, work / "traj.csv"
    for model in models:
        for radius in TRAJ_RADII:
            error = _run(main, ["traj-compare", "--gen-model", model, "--radius", radius, "--output", str(csv)],
                         data_error_ok=True)
            out[f"gen-{model}/radius-{radius}"] = error or _digest(csv.read_bytes())
    return out


def far_field_errors(main, models, work: Path) -> dict[str, str]:
    """The error text of fuse and inverse on frames whose forwarded or world centres overflow, and of synth
    whose noise or speeds overflow."""
    from boxfuse.frames import Detection, Frame
    from boxfuse.geometry import Box3D, EgoPose
    from boxfuse.io import write_frames
    from boxfuse.motion import ConstantVelocity

    def det(x: float, vx: float) -> Detection:
        return Detection(Box3D(x, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0), 0.9, "vehicle", ConstantVelocity(vx, 0.0),
                         track_id=1)

    src, out = work / "far.jsonl", work / "far-out.jsonl"
    # the second box moves 1e308 m in the 1 s to the next frame
    write_frames(src, [Frame(0.0, EgoPose.identity(), [det(5.0, 0.0), det(1e308, 1e308)]),
                       Frame(1.0, EgoPose.identity(), [])])
    errors = {"fuse-forward": _run(main, ["fuse", "--input", str(src), "--output", str(out)], data_error_ok=True)}
    write_frames(src, [Frame(t, EgoPose(FAR, 0.0, 0.0), [det(FAR, 0.0)]) for t in (0.0, 0.1, 0.2)])
    for model in models:
        errors[f"inverse-{model}"] = _run(main, ["inverse", "--input", str(src), "--output", str(out),
                                                 "--model", model], data_error_ok=True)
    for key, flags in SYNTH_OVERFLOWS.items():
        errors[key] = _run(main, ["synth", "--output-gt", str(src), "--output-det", str(out), *flags],
                           data_error_ok=True)
    return errors


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
        for seed in SEEDS:
            digests[f"moving-ego/seed-{seed}"] = moving_ego_digests(
                boxfuse_main, MODEL_NAMES, sorted(PRESETS), bench.WORKLOADS[MOVING_EGO_WORKLOAD], seed, Path(tmp))
        digests["traj-compare"] = traj_compare_digests(boxfuse_main, MODEL_NAMES, Path(tmp))
        digests["far-field"] = far_field_errors(boxfuse_main, MODEL_NAMES, Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
