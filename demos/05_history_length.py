"""Turning-vehicle gains of each motion model as the fusion history grows.

Demo 04 fixes the history at 4 frames. Here only `n_history` changes: 1, 2,
4 and 8 frames under the waymo-default preset, on a smaller scene in demo
04's mix (20 % stationary, 30 % straight, 50 % turning, 2 s at 10 Hz, with
the benchmark's detector noise). `boxfuse synth` attaches cv, unicycle or
bicycle parameters to the detections, and every history length is evaluated
over the same frames, those from the longest history's first full window on.
Per seed, the demo prints the turning subset's ΔAPH (fused minus raw) at IoU
0.7 for each model and history length, and the bicycle's gain over cv.

A longer history forwards boxes further, so the motion model matters more
there. Last it checks that on every seed the bicycle's gain over cv at 8
frames exceeds its gain at 2 frames, and exits with the per-seed gaps
otherwise. That held on each of seeds 1-8; the demo runs seeds 1-3.

Run:  python3 demos/05_history_length.py
"""

import dataclasses
import tempfile
from pathlib import Path

from boxfuse import PRESETS, evaluate_enhancement, fuse_sequence, read_frames
from boxfuse.cli import main

SEEDS = range(1, 4)
MODELS = ("cv", "unicycle", "bicycle")
HISTORIES = (1, 2, 4, 8)
IOU = 0.7
SCENE = ["--vehicles", "12", "--duration", "2.0", "--interval", "0.1",
         "--stationary-frac", "0.2", "--straight-frac", "0.3", "--turning-frac", "0.5",
         "--sigma-xy", "0.3", "--drop-prob", "0.1", "--burst-frames", "3", "--burst-frac", "0.2"]
base = PRESETS["waymo-default"]
first = max(HISTORIES)


def turning_daph(gt, det, n_history: int) -> float:
    """Turning ΔAPH at IOU of fusing det with n_history frames, over frames first onward."""
    fused = list(fuse_sequence(det, dataclasses.replace(base, n_history=n_history)))[first:]
    (row,) = [row for row in evaluate_enhancement(gt[first:], det[first:], fused, IOU).rows
              if row.subset == "turning"]
    return row.delta_aph


print(f"fusion: waymo-default but n_history; frames {first} on; scene: {' '.join(SCENE)}\n")
print(f"turning dAPH@{IOU:g}")
print(f"{'seed':>4} {'n_history':>9}" + "".join(f"{model:>10}" for model in MODELS) + f"{'bicycle-cv':>12}")
with tempfile.TemporaryDirectory() as tmp:
    gt_path, det_path = Path(tmp) / "gt.jsonl", Path(tmp) / "det.jsonl"
    gaps = {}
    for seed in SEEDS:
        gains = {}
        for model in MODELS:
            argv = ["synth", "--output-gt", str(gt_path), "--output-det", str(det_path), "--seed", str(seed),
                    "--model", model, *SCENE]
            if main(argv) != 0:
                raise SystemExit(f"boxfuse synth failed: {argv}")
            gt, det = read_frames(gt_path), read_frames(det_path)
            for n in HISTORIES:
                gains[model, n] = turning_daph(gt, det, n)
        for n in HISTORIES:
            gaps[seed, n] = gains["bicycle", n] - gains["cv", n]
            print(f"{seed:>4} {n:>9}" + "".join(f"{gains[model, n]:>+10.4f}" for model in MODELS)
                  + f"{gaps[seed, n]:>+12.4f}")

short = [seed for seed in SEEDS if not gaps[seed, 8] > gaps[seed, 2]]
if short:
    table = [f"{'seed':>4} {'gap n=2':>10} {'gap n=8':>10}"]
    table += [f"{seed:>4} {gaps[seed, 2]:>+10.4f} {gaps[seed, 8]:>+10.4f}" for seed in SEEDS]
    raise SystemExit(f"the bicycle - cv gap at n_history 8 must exceed the gap at 2 on every seed, not on {short}:\n"
                     + "\n".join(table))
