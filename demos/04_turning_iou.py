"""Turning-vehicle gains of each motion model at IoU 0.5 and 0.7, over eight seeds.

The paper says constant velocity fails on turning vehicles, and it reports
Waymo vehicle APH, whose IoU threshold is 0.7. This walk-through builds a
smaller scene like the benchmark's turning-200 workload: 40 vehicles, 20 %
stationary, 30 % straight and 50 % turning, 2 s at 10 Hz, with the
benchmark's detector noise. `boxfuse synth` attaches cv, unicycle or bicycle
parameters to the detections. Each stream is fused with the waymo-default
preset and evaluated over the frames that have a full history window, as the
benchmark does. Per seed, the demo prints the turning subset's ΔAP and ΔAPH
(fused minus raw) at both thresholds, and the models in order of ΔAPH at
0.7; then, per pair of models, on how many seeds the first gained more.
Last it checks the paper's claim: unless bicycle and unicycle both beat cv
in turning ΔAPH at IoU 0.7 on every seed, it exits with the per-seed table.
It checks nothing at IoU 0.5, nor bicycle against unicycle.

Run:  python3 demos/04_turning_iou.py
"""

import tempfile
from pathlib import Path

from boxfuse import PRESETS, evaluate_enhancement, fuse_sequence, read_frames
from boxfuse.cli import main

SEEDS = range(1, 9)
MODELS = ("cv", "unicycle", "bicycle")
IOUS = (0.5, 0.7)
SCENE = ["--vehicles", "40", "--duration", "2.0", "--interval", "0.1",
         "--stationary-frac", "0.2", "--straight-frac", "0.3", "--turning-frac", "0.5",
         "--sigma-xy", "0.3", "--drop-prob", "0.1", "--burst-frames", "3", "--burst-frac", "0.2"]
COLUMNS = [f"{metric}@{iou:g}" for iou in IOUS for metric in ("dAP", "dAPH")]
cfg = PRESETS["waymo-default"]


def turning_deltas(gt, det) -> list[float]:
    """ΔAP and ΔAPH of the turning subset at each IoU of IOUS, over the frames with a full history window."""
    fused = list(fuse_sequence(det, cfg))[cfg.n_history:]
    gt, det = gt[cfg.n_history:], det[cfg.n_history:]
    deltas = []
    for iou in IOUS:
        (row,) = [row for row in evaluate_enhancement(gt, det, fused, iou).rows if row.subset == "turning"]
        deltas += [row.delta_ap, row.delta_aph]
    return deltas


print(f"fusion: waymo-default, {cfg.n_history} history frames; scene: {' '.join(SCENE)}\n")
print(f"{'seed':>4} {'model':<9}" + "".join(f"{name:>10}" for name in COLUMNS))
results = {}
with tempfile.TemporaryDirectory() as tmp:
    gt_path, det_path = Path(tmp) / "gt.jsonl", Path(tmp) / "det.jsonl"
    for seed in SEEDS:
        for model in MODELS:
            argv = ["synth", "--output-gt", str(gt_path), "--output-det", str(det_path), "--seed", str(seed),
                    "--model", model, *SCENE]
            if main(argv) != 0:
                raise SystemExit(f"boxfuse synth failed: {argv}")
            results[seed, model] = turning_deltas(read_frames(gt_path), read_frames(det_path))
            print(f"{seed:>4} {model:<9}" + "".join(f"{value:>+10.4f}" for value in results[seed, model]))
        order = sorted(MODELS, key=lambda model: results[seed, model][-1], reverse=True)
        print(f"{'':>4} by dAPH@0.7: {' > '.join(order)}")

print(f"\nseeds (of {len(SEEDS)}) where the first model gained more than the second")
print(f"{'':<20}" + "".join(f"{name:>10}" for name in COLUMNS))
for first, second in (("bicycle", "cv"), ("unicycle", "cv"), ("bicycle", "unicycle")):
    wins = [sum(results[seed, first][k] > results[seed, second][k] for seed in SEEDS) for k in range(len(COLUMNS))]
    print(f"{first + ' > ' + second:<20}" + "".join(f"{count:>10}" for count in wins))

behind = [seed for seed in SEEDS if not min(results[seed, "bicycle"][-1], results[seed, "unicycle"][-1])
          > results[seed, "cv"][-1]]
if behind:
    table = [f"{'seed':>4}" + "".join(f"{model:>10}" for model in MODELS)]
    table += [f"{seed:>4}" + "".join(f"{results[seed, model][-1]:>+10.4f}" for model in MODELS) for seed in SEEDS]
    raise SystemExit(f"bicycle and unicycle must beat cv in turning dAPH@0.7 on every seed, not on {behind}:\n"
                     + "\n".join(table))
