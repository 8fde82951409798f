"""Synthetic scenes: exact motion-model trajectories plus a detector-noise model.

Ground truth is sampled from the closed-form forward models, so generated
tracks satisfy the motion-module invariants by construction and the attached
per-frame motion parameters (recovered with the inverse models) equal the
generating ones on the noiseless data. Corruption adds Gaussian pose and
parameter noise, random per-frame drops, multi-frame occlusion bursts and
detector-style scores. Everything is deterministic under (spec, seed): the
random stream is Philox, split into per-vehicle and per-frame substreams.

Scenes are built as numpy columns, one frames.DetectionColumns per frame,
with no per-box objects: each vehicle draws its start and its motion once,
then every vehicle of a group is forwarded per frame time with the model's
`forward_columns`, re-fitted with `motion.estimate_param_columns`, moved
into the ego frame with `transform_columns` and `in_ego_columns`, and
corrupted with column operations over the per-detection draws. Every step
does the float operations of the frozen per-box references in tests/oracles.py
in the same order, and the scenes are checked against them to the bit.

`reattach_params` gives detections the parameters their tracks' poses give
under one motion model, as `boxfuse inverse` does. `boxfuse synth` attaches
its `--model` parameters with `reattach_scene_params`, which fits each track
once: generate_mixed_scene fits each group with its own model and arm from
the world poses, and a refit of a scene without ego motion sees the same
poses, times and lengths, so a track whose group already has the model and
the arm of the refit keeps its parameters, and only the others are fitted.
Within a fit, the bicycle inverse fits each distinct pose pair once, so a
stationary vehicle's repeated pairs share one Gauss-Newton fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .frames import MODEL_CODES, PARAM_WIDTH, DetectionColumns, Frame, model_groups, object_array, track_index
from .geometry import EgoPose, Pose, clamp_columns, normalize_angles, transform_columns
from .motion import (
    FitDivergence,
    ModelName,
    MotionParams,
    default_rear_axle,
    estimate_param_columns,
    estimate_params_from_track,
    forward,
    model_class,
    model_name,
    param_rows,
)
from .rules import require_field_types

# estimate_params_from_track is no longer called here, but the benchmark's
# per-layer tracing binds it in this module (bench/tracing.py).

PRNG_NAME = "philox"


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


@dataclass(frozen=True)
class TrajectorySpec:
    """Population spec for a group of vehicles sharing one motion pattern, each field of its annotated type.

    radius_range None means straight motion (or standstill when the speed
    range is zero); otherwise turning radii are drawn uniformly and the turn
    direction is a random sign. Initial positions sit on a jittered lattice
    spanning origin_span so spawns keep min_spacing apart; headings are drawn
    from heading_range. `require_field_types` enforces the annotations.
    """

    model: ModelName = "bicycle"
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
        require_field_types(self)
        # every check is written so that NaN fails it
        model = model_class(self.model)
        if not 0.0 < self.frame_interval < math.inf:
            raise ValueError("frame_interval must be positive and finite")
        if not self.frame_interval <= self.duration < math.inf:
            raise ValueError("duration must be finite and cover at least one frame interval")
        if not self.duration / self.frame_interval < math.inf:
            raise ValueError(f"n_frames overflows, got duration / frame_interval = {self.duration!r} / "
                             f"{self.frame_interval!r}")
        if not all(-math.inf < v < math.inf for v in self.speed_range):
            raise ValueError(f"speed_range must be finite, got {self.speed_range!r}")
        if not self.speed_range[0] <= self.speed_range[1]:
            raise ValueError(f"speed_range must have low <= high, got {self.speed_range!r}")
        if self.radius_range is not None:
            if not model.turns:
                raise ValueError(f"radius_range must be None, as {self.model} trajectories cannot turn, got "
                                 f"{self.radius_range!r}")
            if not all(0.0 < v < math.inf for v in self.radius_range):
                raise ValueError(f"radius_range must be positive and finite, got {self.radius_range!r}")
            if not self.radius_range[0] <= self.radius_range[1]:
                raise ValueError(f"radius_range must have low <= high, got {self.radius_range!r}")
        if self.rear_axle is not None and not 0.0 < self.rear_axle < math.inf:
            raise ValueError("rear_axle must be positive and finite")
        if not all(math.isfinite(v) for v in self.heading_range):
            raise ValueError("heading_range must be finite")
        if not all(0.0 < v < math.inf for v in self.box_size):
            raise ValueError("box_size must be positive and finite")
        if not (0.0 <= self.origin_span < math.inf and 0.0 <= self.min_spacing < math.inf):
            raise ValueError("origin_span and min_spacing must be finite and non-negative")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration / self.frame_interval)) + 1

    @property
    def rear_axle_or_default(self) -> float:
        return self.rear_axle if self.rear_axle is not None else default_rear_axle(self.box_size[1])


@dataclass(frozen=True)
class CorruptionSpec:
    """Detector-noise model applied to ground-truth frames, each field of its annotated type.

    Pose noise is additive Gaussian on (x, y) and yaw; motion-parameter noise
    is per component (sigma_speed on velocities, sigma_turn on yaw rate or
    slip). Detections drop independently with drop_prob per frame, and
    burst_vehicle_frac of the vehicles lose burst_frames consecutive frames
    entirely. Scores are Gaussian around score_mean, clipped to
    [score_floor, 0.999]. frame_drop_overrides / frame_score_scale override
    the drop probability or scale scores on selected frame indices, each
    index at most once. `require_field_types` enforces the annotations.
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
        require_field_types(self)
        # every check is written so that NaN fails it
        for name in ("sigma_xy", "sigma_yaw", "sigma_speed", "sigma_turn", "score_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not math.isfinite(self.score_mean):
            raise ValueError("score_mean must be finite")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        if not 0.0 <= self.burst_vehicle_frac <= 1.0:
            raise ValueError("burst_vehicle_frac must lie in [0, 1]")
        if self.burst_frames < 0:
            raise ValueError("burst_frames must be non-negative")
        if not 0.0 <= self.score_floor <= 1.0:
            raise ValueError("score_floor must lie in [0, 1]")
        # a negative frame index matches no frame, and corrupt would keep only the last value of a repeated one
        for name, accept, requirement in (("frame_drop_overrides", lambda p: 0.0 <= p <= 1.0, "lie in [0, 1]"),
                                          ("frame_score_scale", math.isfinite, "be finite")):
            frames = [frame for frame, _ in getattr(self, name)]
            for k, (frame, value) in enumerate(getattr(self, name)):
                if frame < 0:
                    raise ValueError(f"{name} frame indices must be non-negative integers, got {frame!r}")
                if frame in frames[:k]:
                    raise ValueError(f"{name} repeats frame index {frame!r}")
                if not accept(value):
                    raise ValueError(f"{name} values must {requirement}, got {value!r}")


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


def _sample_start(
    spec: TrajectorySpec, rng: np.random.Generator, slot: tuple[float, float], jitter: float
) -> tuple[Pose, MotionParams]:
    """One vehicle's start pose and generating motion, drawn from its own substream."""
    jx = float(rng.uniform(-1.0, 1.0)) * jitter
    jy = float(rng.uniform(-1.0, 1.0)) * jitter
    heading = float(rng.uniform(spec.heading_range[0], spec.heading_range[1]))
    speed = float(rng.uniform(spec.speed_range[0], spec.speed_range[1]))
    radius = None
    if spec.radius_range is not None:
        radius = float(rng.uniform(spec.radius_range[0], spec.radius_range[1]))
        radius = radius if int(rng.integers(0, 2)) else -radius
    gen = model_class(spec.model).from_motion(speed, heading, radius, spec.rear_axle_or_default)
    return Pose(slot[0] + jx, slot[1] + jy, heading), gen


def _group_tracks(spec: TrajectorySpec, starts: list[tuple[Pose, MotionParams]], times: list[float]):
    """One group's world poses and the parameters fitted from them, frame-major.

    Returns x, y and heading, each (frames, vehicles), and the parameters,
    (frames, vehicles, k) in the model's field order.
    """
    kind = model_class(spec.model)
    x0, y0, h0 = (np.array(v) for v in zip(*((p.x, p.y, p.heading) for p, _ in starts)))
    gen = param_rows(kind, [motion for _, motion in starts])
    shape = (len(times), len(starts))
    x, y, heading = np.empty(shape), np.empty(shape), np.empty(shape)
    for k, t in enumerate(times):
        x[k], y[k], heading[k] = kind.forward_columns(x0, y0, h0, gen, t)
    heading = normalize_angles(heading)
    # rows track by track for the fit, then back to frame-major
    attached = estimate_param_columns(
        np.tile(times, len(starts)), x.T.ravel(), y.T.ravel(), heading.T.ravel(),
        np.full(len(starts), len(times)), spec.model, spec.rear_axle_or_default,
    )
    return x, y, heading, attached.reshape(len(starts), len(times), -1).transpose(1, 0, 2)


def _motion_in_ego(params: MotionParams, ego: EgoPose) -> MotionParams:
    """Rotate frame-dependent motion components into the ego frame: one row of in_ego_columns."""
    kind = model_class(model_name(params))  # TypeError for anything but a model's parameters
    return kind(*kind.in_ego_columns(param_rows(kind, [params]), ego)[0].tolist())


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
    the (optionally moving) ego frame. Each frame's detections are columns.
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
    n_frames = len(times)
    x, y, yaw = np.empty((n_frames, total)), np.empty((n_frames, total)), np.empty((n_frames, total))
    params = np.zeros((n_frames, total, PARAM_WIDTH))
    z_and_size = np.empty((total, 4))
    labels: list[str] = []
    codes: list[int] = []
    start = 0
    for g, (spec, count) in enumerate(groups):
        if count == 0:
            continue
        starts = [_sample_start(spec, _rng(seed, g, i), slots[start + i], jitter) for i in range(count)]
        block = slice(start, start + count)
        kind = model_class(spec.model)
        x[:, block], y[:, block], yaw[:, block], params[:, block, : len(kind.json_keys)] = _group_tracks(
            spec, starts, times
        )
        w, length, h = spec.box_size
        z_and_size[block] = h / 2.0, w, length, h
        labels += [spec.label] * count
        codes += [MODEL_CODES[kind.name]] * count
        start += count
    label = object_array(labels)
    model = np.array(codes, dtype=np.int64)
    track_id = object_array(list(range(track_id_start, track_id_start + total)))
    identity = EgoPose.identity()
    frames = []
    for k, (t, ego) in enumerate(zip(times, egos)):
        boxes = np.empty((total, 7))
        boxes[:, 2:6] = z_and_size
        boxes[:, 0], boxes[:, 1], boxes[:, 6] = transform_columns(x[k], y[k], yaw[k], identity, ego)
        motion = params[k]
        for kind, rows in model_groups(model):
            width = len(kind.json_keys)
            motion[rows, :width] = kind.in_ego_columns(motion[rows, :width], ego)
        detections = DetectionColumns(boxes, np.ones(total), label, model, motion, np.full(total, math.nan),
                                      np.zeros(total, dtype=np.int64), track_id,
                                      np.ones(total, dtype=np.int64), np.ones(total, dtype=np.int64))
        frames.append(Frame(t, ego, detections))
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


def reattach_params(frames: Sequence[Frame], model: str, rear_axle: float | None = None) -> list[Frame]:
    """Replace every detection's motion parameters with those its track's poses give under `model`.

    Each track (frames.track_index) is fitted with estimate_param_columns from
    its world poses in frame order, with the arm rear_axle, or else
    default_rear_axle of its upper median box length, and the parameters are
    rotated into each frame's ego frame; every other column is kept. A track
    that cannot be fitted is named with the frame of its first row, in an
    error of the type its fit raised (a ValueError, or FitDivergence).
    """
    return _reattach(frames, model, rear_axle)


def reattach_scene_params(
    gt: Sequence[Frame], groups: Sequence[tuple[TrajectorySpec, int]], model: str, rear_axle: float | None = None
) -> list[Frame]:
    """reattach_params(gt, model, rear_axle) for gt = generate_mixed_scene(groups, seed), fitting each track once.

    A scene has one row per vehicle and frame in group order, so its k-th
    track is its k-th vehicle; see the module docstring.
    """
    plain = all(frame.ego == EgoPose.identity() for frame in gt)
    kept = [plain and spec.model == model
            and spec.rear_axle_or_default == (default_rear_axle(spec.box_size[1]) if rear_axle is None else rear_axle)
            for spec, _ in groups]
    return _reattach(gt, model, rear_axle, fit=~np.repeat(kept, [count for _, count in groups]))


def _reattach(frames: Sequence[Frame], model: str, rear_axle: float | None, fit: np.ndarray | None = None):
    """reattach_params fitting the tracks marked in `fit` (all when None); the others keep their rows."""
    if not frames:
        return []
    ids, track = track_index(frames)
    if fit is None:
        fit = np.ones(len(ids), dtype=bool)
    columns = [frame.detections for frame in frames]
    identity = EgoPose.identity()
    # a world centre that overflows fails the fit's rules, which name its track
    with np.errstate(over="ignore", invalid="ignore"):
        world = np.concatenate([np.stack(transform_columns(*cols.boxes[:, [0, 1, 6]].T, frame.ego, identity), axis=1)
                                for frame, cols in zip(frames, columns)])
    sizes = [len(cols) for cols in columns]
    times = np.repeat([frame.timestamp for frame in frames], sizes).astype(float)
    counts = np.bincount(track, minlength=len(ids))
    arm = rear_axle
    if arm is None:
        length = np.concatenate([cols.boxes[:, 4] for cols in columns])
        by_length = np.lexsort((length, track))
        arm = default_rear_axle(length[by_length[np.cumsum(counts) - counts + counts // 2]])[fit]
    kind = model_class(model)
    width = len(kind.json_keys)
    # the fitted rows, track by track, each track in frame order
    order = np.argsort(track, kind="stable")
    order = order[fit[track[order]]]
    x, y, yaw = world[order].T
    params = np.concatenate([cols.params for cols in columns])
    params[order] = 0.0
    try:
        params[order, :width] = estimate_param_columns(times[order], x, y, yaw, counts[fit], model, rear_axle=arm)
    except (ValueError, FitDivergence) as exc:
        if not hasattr(exc, "track"):
            raise
        failed = np.flatnonzero(fit)[exc.track]
        first_frame = np.searchsorted(np.cumsum(sizes), np.argmax(track == failed), side="right")
        message = f"track {ids[failed]!r}, first seen on frame {first_frame}: {exc}"
        if isinstance(exc, FitDivergence):
            raise FitDivergence(message, exc.best, exc.report) from None
        raise ValueError(message) from None
    split = np.cumsum(sizes)[:-1]
    out = []
    for frame, cols, rows, fitted in zip(frames, columns, np.split(params, split), np.split(fit[track], split)):
        rows[fitted, :width] = kind.in_ego_columns(rows[fitted, :width], frame.ego)
        out.append(Frame(frame.timestamp, frame.ego, replace(
            cols, model=np.full(len(cols), MODEL_CODES[model], dtype=np.int64), params=rows)))
    return out


def corrupt(frames: Sequence[Frame], spec: CorruptionSpec, seed: int) -> list[Frame]:
    """Simulate detector output from ground-truth frames.

    Per frame k the substream (seed, k+1) drives, for each detection in order,
    the draws (dx, dy, dyaw, two parameter components, score, drop). Pose and
    score noise therefore stay identical across runs that differ only in the
    attached motion-parameter variant. Burst occlusions pick their vehicles
    and start frames from substream (seed, 0).

    The draws are made one detection at a time, as standard_normal(6) and
    then one uniform double (`random()`, the same draw as `uniform()`), for
    dropped detections as well, since drawing a frame at once would change
    the stream. The noise, the burst windows and the drops are then applied
    to whole columns, and every noisy row, dropped or not, is checked as a
    Detection would be.
    """
    n_frames = len(frames)
    bursts: dict[int, tuple[int, int]] = {}
    if spec.burst_vehicle_frac > 0.0 and spec.burst_frames > 0 and n_frames > 0:
        ids = sorted(track_index(frames)[0])
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
        cols = frame.detections
        rng = _rng(seed, k + 1)
        n = len(cols)
        draws = np.empty((n, 6))
        drop_u = np.empty(n)
        for i in range(n):
            rng.standard_normal(out=draws[i])
            drop_u[i] = rng.random()
        boxes = cols.boxes.copy()
        if spec.sigma_xy > 0.0 or spec.sigma_yaw > 0.0:
            boxes[:, 0] += draws[:, 0] * spec.sigma_xy
            boxes[:, 1] += draws[:, 1] * spec.sigma_xy
            boxes[:, 6] += draws[:, 2] * spec.sigma_yaw
        params = np.zeros_like(cols.params)
        for kind, rows in cols.groups():
            params[rows, : len(kind.json_keys)] = kind.noisy_columns(
                cols.params_of(kind, rows), draws[rows, 3], draws[rows, 4], spec.sigma_speed, spec.sigma_turn
            )
        score = clamp_columns(spec.score_mean + draws[:, 5] * spec.score_sigma, spec.score_floor, 0.999)
        score = clamp_columns(score * score_scale.get(k, 1.0), 0.0, 1.0)
        noisy = DetectionColumns(boxes, score, cols.label, cols.model, params, np.full(n, math.nan),
                                 np.zeros(n, dtype=np.int64), cols.track_id, np.ones(n, dtype=np.int64),
                                 np.ones(n, dtype=np.int64))
        keep = ~(drop_u < drop_overrides.get(k, spec.drop_prob))
        hidden = {tid for tid, (first, stop) in bursts.items() if first <= k < stop}
        if hidden:
            keep &= np.array([tid not in hidden for tid in cols.track_id.tolist()], dtype=bool)
        out.append(Frame(frame.timestamp, frame.ego, noisy.take(keep)))
    return out
