"""Synthetic scenes: exact motion-model trajectories plus a detector-noise model.

Ground truth is sampled from the closed-form forward models, so generated
tracks satisfy the motion-module invariants by construction and the attached
per-frame motion parameters (recovered with the inverse models) equal the
generating ones on the noiseless data. Corruption adds Gaussian pose and
parameter noise, random per-frame drops, multi-frame occlusion bursts and
detector-style scores. Everything is deterministic under (spec, seed): the
random stream is Philox, split into per-vehicle and per-frame substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import Detection, Frame
from .geometry import Box3D, EgoPose, Pose, transform_box
from .motion import MotionParams, estimate_params_from_track, forward, model_class

PRNG_NAME = "philox"


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


@dataclass(frozen=True)
class TrajectorySpec:
    """Population spec for a group of vehicles sharing one motion pattern.

    radius_range None means straight motion (or standstill when the speed
    range is zero); otherwise turning radii are drawn uniformly and the turn
    direction is a random sign. Initial positions sit on a jittered lattice
    spanning origin_span so spawns keep min_spacing apart; headings are drawn
    from heading_range.
    """

    model: str = "bicycle"
    speed_range: tuple[float, float] = (6.0, 14.0)
    radius_range: tuple[float, float] | None = None
    rear_axle: float | None = None
    heading_range: tuple[float, float] = (-math.pi, math.pi)
    origin_span: float = 100.0
    min_spacing: float = 6.0
    duration: float = 2.0
    frame_interval: float = 0.1
    box_size: tuple[float, float, float] = (2.1, 4.7, 1.7)
    label: str = "vehicle"

    def __post_init__(self) -> None:
        model = model_class(self.model)
        if self.frame_interval <= 0.0:
            raise ValueError("frame_interval must be positive")
        if self.duration < self.frame_interval:
            raise ValueError("duration must cover at least one frame interval")
        if self.speed_range[1] < self.speed_range[0]:
            raise ValueError("speed_range must be (low, high)")
        if self.radius_range is not None:
            if not model.turns:
                raise ValueError(f"{self.model} trajectories cannot turn")
            if self.radius_range[0] <= 0.0 or self.radius_range[1] < self.radius_range[0]:
                raise ValueError("radius_range must be positive (low, high)")
        if self.rear_axle is not None and self.rear_axle <= 0.0:
            raise ValueError("rear_axle must be positive")
        if any(v <= 0.0 for v in self.box_size):
            raise ValueError("box_size must be positive")
        if self.origin_span < 0.0 or self.min_spacing < 0.0:
            raise ValueError("origin_span and min_spacing must be non-negative")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration / self.frame_interval)) + 1

    @property
    def rear_axle_or_default(self) -> float:
        # center of mass roughly midway along a wheelbase of half the body length
        return self.rear_axle if self.rear_axle is not None else self.box_size[1] / 4.0


@dataclass(frozen=True)
class CorruptionSpec:
    """Detector-noise model applied to ground-truth frames.

    Pose noise is additive Gaussian on (x, y) and yaw; motion-parameter noise
    is per component (sigma_speed on velocities, sigma_turn on yaw rate or
    slip). Detections drop independently with drop_prob per frame, and
    burst_vehicle_frac of the vehicles lose burst_frames consecutive frames
    entirely. Scores are Gaussian around score_mean, clipped to
    [score_floor, 0.999]. frame_drop_overrides / frame_score_scale override
    the drop probability or scale scores on selected frame indices.
    """

    sigma_xy: float = 0.0
    sigma_yaw: float = 0.0
    sigma_speed: float = 0.0
    sigma_turn: float = 0.0
    drop_prob: float = 0.0
    burst_frames: int = 0
    burst_vehicle_frac: float = 0.0
    score_mean: float = 0.85
    score_sigma: float = 0.05
    score_floor: float = 0.05
    frame_drop_overrides: tuple[tuple[int, float], ...] = ()
    frame_score_scale: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("sigma_xy", "sigma_yaw", "sigma_speed", "sigma_turn", "score_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        if not 0.0 <= self.burst_vehicle_frac <= 1.0:
            raise ValueError("burst_vehicle_frac must lie in [0, 1]")
        if self.burst_frames < 0:
            raise ValueError("burst_frames must be non-negative")
        if not 0.0 <= self.score_floor <= 1.0:
            raise ValueError("score_floor must lie in [0, 1]")
        for _, p in self.frame_drop_overrides:
            if not 0.0 <= p <= 1.0:
                raise ValueError("frame drop overrides must lie in [0, 1]")


def _lattice(n: int, span: float, spacing: float) -> tuple[list[tuple[float, float]], float]:
    """n slot centers on a centered square grid, plus the per-slot jitter amplitude."""
    side = max(1, math.ceil(math.sqrt(n)))
    if side > 1:
        pitch = max(spacing, span / (side - 1))
    else:
        pitch = max(spacing, span)
    offset = 0.5 * (side - 1)
    slots = []
    for row in range(side):
        for col in range(side):
            if len(slots) < n:
                slots.append(((col - offset) * pitch, (row - offset) * pitch))
    jitter = max(0.0, 0.5 * (pitch - spacing))
    return slots, jitter


@dataclass(frozen=True)
class _Vehicle:
    track_id: int
    spec: TrajectorySpec
    world_poses: tuple[Pose, ...]
    params: tuple[MotionParams, ...]


def _sample_vehicle(
    spec: TrajectorySpec,
    rng: np.random.Generator,
    slot: tuple[float, float],
    jitter: float,
    track_id: int,
    times: Sequence[float],
) -> _Vehicle:
    jx = float(rng.uniform(-1.0, 1.0)) * jitter
    jy = float(rng.uniform(-1.0, 1.0)) * jitter
    heading = float(rng.uniform(spec.heading_range[0], spec.heading_range[1]))
    speed = float(rng.uniform(spec.speed_range[0], spec.speed_range[1]))
    rear_axle = spec.rear_axle_or_default
    radius = None
    if spec.radius_range is not None:
        radius = float(rng.uniform(spec.radius_range[0], spec.radius_range[1]))
        radius = radius if int(rng.integers(0, 2)) else -radius
    gen = model_class(spec.model).from_motion(speed, heading, radius, rear_axle)
    p0 = Pose(slot[0] + jx, slot[1] + jy, heading)
    poses = tuple(gen.forward(p0, t) for t in times)
    attached = estimate_params_from_track(list(times), list(poses), spec.model, rear_axle=rear_axle)
    return _Vehicle(track_id, spec, poses, tuple(attached))


def _motion_in_ego(params: MotionParams, ego: EgoPose) -> MotionParams:
    """Rotate frame-dependent motion components into the ego frame."""
    return params.in_ego(ego)


def generate_mixed_scene(
    groups: Sequence[tuple[TrajectorySpec, int]],
    seed: int,
    *,
    ego_motion: MotionParams | None = None,
    track_id_start: int = 0,
) -> list[Frame]:
    """Ground-truth frames for several vehicle groups on a shared frame grid.

    All specs must agree on duration, frame interval, span and spacing. Every
    vehicle draws from its own Philox substream keyed by (group, index), so
    output is reproducible and independent of generation order. Scores are 1,
    track ids are sequential from track_id_start, and boxes are expressed in
    the (optionally moving) ego frame.
    """
    if not groups:
        raise ValueError("no vehicle groups")
    base = groups[0][0]
    for spec, count in groups:
        if count < 0:
            raise ValueError("vehicle counts must be non-negative")
        if (
            spec.duration != base.duration
            or spec.frame_interval != base.frame_interval
            or spec.origin_span != base.origin_span
            or spec.min_spacing != base.min_spacing
        ):
            raise ValueError("groups must share duration, frame_interval, origin_span, min_spacing")
    times = [i * base.frame_interval for i in range(base.n_frames)]
    if ego_motion is None:
        egos = [EgoPose.identity() for _ in times]
    else:
        ego_poses = [forward(Pose(0.0, 0.0, 0.0), ego_motion, t) for t in times]
        egos = [EgoPose(p.x, p.y, p.heading) for p in ego_poses]
    total = sum(count for _, count in groups)
    slots, jitter = _lattice(total, base.origin_span, base.min_spacing)
    vehicles: list[_Vehicle] = []
    track_id = track_id_start
    slot_index = 0
    for g, (spec, count) in enumerate(groups):
        for i in range(count):
            vehicles.append(
                _sample_vehicle(spec, _rng(seed, g, i), slots[slot_index], jitter, track_id, times)
            )
            track_id += 1
            slot_index += 1
    frames = []
    identity = EgoPose.identity()
    for k, t in enumerate(times):
        detections = []
        for veh in vehicles:
            pose = veh.world_poses[k]
            w, length, h = veh.spec.box_size
            world_box = Box3D(pose.x, pose.y, h / 2.0, w, length, h, pose.heading)
            detections.append(
                Detection(
                    box=transform_box(world_box, identity, egos[k]),
                    score=1.0,
                    label=veh.spec.label,
                    motion=_motion_in_ego(veh.params[k], egos[k]),
                    track_id=veh.track_id,
                )
            )
        frames.append(Frame(t, egos[k], detections))
    return frames


def generate_ground_truth(
    spec: TrajectorySpec,
    n_vehicles: int,
    seed: int,
    *,
    ego_motion: MotionParams | None = None,
    track_id_start: int = 0,
) -> list[Frame]:
    """Ground-truth frames for one vehicle group; see generate_mixed_scene."""
    return generate_mixed_scene(
        [(spec, n_vehicles)], seed, ego_motion=ego_motion, track_id_start=track_id_start
    )


def corrupt(frames: Sequence[Frame], spec: CorruptionSpec, seed: int) -> list[Frame]:
    """Simulate detector output from ground-truth frames.

    Per frame k the substream (seed, k+1) drives, for each detection in order,
    the draws (dx, dy, dyaw, two parameter components, score, drop). Pose and
    score noise therefore stay identical across runs that differ only in the
    attached motion-parameter variant. Burst occlusions pick their vehicles
    and start frames from substream (seed, 0).
    """
    n_frames = len(frames)
    bursts: dict[int, tuple[int, int]] = {}
    if spec.burst_vehicle_frac > 0.0 and spec.burst_frames > 0 and n_frames > 0:
        ids = sorted(
            {d.track_id for f in frames for d in f.detections if d.track_id is not None}
        )
        missing = any(d.track_id is None for f in frames for d in f.detections)
        if missing or not ids:
            raise ValueError("burst occlusions need track ids on every detection")
        rng = _rng(seed, 0)
        n_burst = int(round(spec.burst_vehicle_frac * len(ids)))
        chosen = rng.choice(len(ids), size=min(n_burst, len(ids)), replace=False)
        last_start = max(0, n_frames - spec.burst_frames)
        for idx in sorted(int(c) for c in chosen):
            start = int(rng.integers(0, last_start + 1))
            bursts[ids[idx]] = (start, start + spec.burst_frames)
    drop_overrides = dict(spec.frame_drop_overrides)
    score_scale = dict(spec.frame_score_scale)
    out = []
    for k, frame in enumerate(frames):
        rng = _rng(seed, k + 1)
        drop_prob = drop_overrides.get(k, spec.drop_prob)
        scale = score_scale.get(k, 1.0)
        kept = []
        for det in frame.detections:
            draws = rng.standard_normal(6)
            drop_u = float(rng.uniform())
            box = det.box
            if spec.sigma_xy > 0.0 or spec.sigma_yaw > 0.0:
                box = Box3D(
                    box.x + float(draws[0]) * spec.sigma_xy,
                    box.y + float(draws[1]) * spec.sigma_xy,
                    box.z,
                    box.w,
                    box.l,
                    box.h,
                    box.yaw + float(draws[2]) * spec.sigma_yaw,
                )
            motion = det.motion.noisy(float(draws[3]), float(draws[4]), spec.sigma_speed, spec.sigma_turn)
            score = spec.score_mean + float(draws[5]) * spec.score_sigma
            score = min(0.999, max(spec.score_floor, score)) * scale
            score = min(1.0, max(0.0, score))
            window = bursts.get(det.track_id)
            if window is not None and window[0] <= k < window[1]:
                continue
            if drop_u < drop_prob:
                continue
            kept.append(
                Detection(
                    box=box,
                    score=score,
                    label=det.label,
                    motion=motion,
                    track_id=det.track_id,
                )
            )
        out.append(Frame(frame.timestamp, frame.ego, kept))
    return out
