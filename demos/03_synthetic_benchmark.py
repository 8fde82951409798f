"""End-to-end benchmark on a synthetic scene, one run per motion model.

Generates a mixed scene (stationary / straight / turning vehicles), corrupts
it into detector-like output, fuses each stream with four history frames, and
prints the before/after metric table per motion model plus the motion-state
breakdown for the bicycle run.

Run:  python3 demos/03_synthetic_benchmark.py
"""

from boxfuse import (
    CorruptionSpec,
    PRESETS,
    TrajectorySpec,
    average_precision,
    corrupt,
    evaluate_enhancement,
    fuse_sequence,
    generate_mixed_scene,
    reattach_params,
)

SEED = 7

common = dict(duration=2.0, origin_span=150.0)
groups = [
    (TrajectorySpec(model="cv", speed_range=(0.0, 0.0), **common), 19),
    (TrajectorySpec(model="cv", speed_range=(6.0, 14.0), **common), 9),
    (TrajectorySpec(model="bicycle", speed_range=(8.0, 13.0), radius_range=(10.0, 20.0), **common), 2),
]
noise = CorruptionSpec(
    sigma_xy=0.25,
    sigma_yaw=0.05,
    sigma_speed=0.2,
    sigma_turn=0.01,
    drop_prob=0.1,
    burst_frames=3,
    burst_vehicle_frac=0.2,
)

gt = generate_mixed_scene(groups, SEED)
n_boxes = sum(len(f.detections) for f in gt)
print(f"scene: {sum(c for _, c in groups)} vehicles, {len(gt)} frames, {n_boxes} GT boxes")

cfg = PRESETS["waymo-default"]
print(f"fusion: {cfg.n_history} history frames, decay {cfg.weight_decay}, "
      f"IoU {cfg.iou_low}/{cfg.iou_high}\n")

print(f"{'model':<10} {'AP raw':>8} {'AP fused':>9} {'delta':>8}")
print("-" * 38)
last_run = None
for model in ("cv", "unicycle", "bicycle"):
    det = corrupt(reattach_params(gt, model), noise, SEED + 1)
    fused = list(fuse_sequence(det, cfg))
    raw_ap = average_precision(gt, det, 0.5).ap
    fused_ap = average_precision(gt, fused, 0.5).ap
    print(f"{model:<10} {raw_ap:>8.4f} {fused_ap:>9.4f} {fused_ap - raw_ap:>+8.4f}")
    last_run = (det, fused)

print("\nmotion-state breakdown for the bicycle run:")
det, fused = last_run
print(evaluate_enhancement(gt, det, fused, 0.5).to_text())
