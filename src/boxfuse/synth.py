"""Synthetic scenes: exact motion-model trajectories plus a detector-noise model.

Ground truth is sampled from the closed-form forward models, so generated
tracks satisfy the motion-module invariants by construction and the attached
per-frame motion parameters (recovered with the inverse models) equal the
generating ones on the noiseless data. Corruption adds Gaussian pose and
parameter noise, random per-frame drops, multi-frame occlusion bursts and
detector-style scores. Everything is deterministic under (spec, seed): the
random stream is Philox, split into per-vehicle and per-frame substreams.

A scene is one block of rows, frame-major, with no per-box objects (`Scene`,
a list of the frames that keeps the block): each vehicle draws its start
and its motion once, then every vehicle of a group is forwarded per frame
time with the model's `forward_columns`, re-fitted with
`motion.estimate_param_columns`, moved into the ego frame with
`transform_columns` and `in_ego_columns`, and corrupted with column
operations over the per-detection draws. generate_mixed_scene,
reattach_params and corrupt each compute their new columns over all rows
at once, under `np.errstate`, and check them once with
`frames.check_columns`: generated boxes and parameters, fitted and turned
parameters, and corrupt's noisy boxes and parameters, dropped rows
included. They take the block of a Scene they are given rather than joining
its frames again, and cut their frames out of their block as row slices;
reattach_params, given frames that are not a Scene, as `boxfuse inverse`
gives them, joins only the boxes and parameters and leaves each frame its
other columns. A failing row raises the ValueError of its
frame's own check, "detection k: <rule>" with k counted within its frame;
a fit error names its track and the frame of the track's first row. Every
step does the float operations of the frozen per-box references in
tests/oracles.py in the same order, and the scenes are checked against them
to the bit.

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

import contextlib
import math
from dataclasses import dataclass
from operator import is_
from typing import Sequence

import numpy as np

from .frames import (
    MODEL_CODES,
    PARAM_WIDTH,
    DetectionColumns,
    Frame,
    RowError,
    check_columns,
    model_groups,
    object_array,
    track_index,
)
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


def _group_tracks(spec: TrajectorySpec, starts: list[tuple[Pose, MotionParams]], times: list[float], first_id: int):
    """One group's world poses and the parameters fitted from them, frame-major.

    Returns x, y and heading, each (frames, vehicles), and the parameters,
    (frames, vehicles, k) in the model's field order. The group's vehicles
    have the track ids from first_id on, which a fit error names.
    """
    kind = model_class(spec.model)
    x0, y0, h0 = (np.array(v) for v in zip(*((p.x, p.y, p.heading) for p, _ in starts)))
    gen = param_rows(kind, [motion for _, motion in starts])
    shape = (len(times), len(starts))
    x, y, heading = np.empty(shape), np.empty(shape), np.empty(shape)
    # an overflowing pose fails the fit's rules, which name its track
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(times):
            x[k], y[k], heading[k] = kind.forward_columns(x0, y0, h0, gen, t)
    heading = normalize_angles(heading)
    # rows track by track for the fit, then back to frame-major
    try:
        attached = estimate_param_columns(
            np.tile(times, len(starts)), x.T.ravel(), y.T.ravel(), heading.T.ravel(),
            np.full(len(starts), len(times)), spec.model, spec.rear_axle_or_default,
        )
    except (ValueError, FitDivergence) as exc:
        if not hasattr(exc, "track"):
            raise
        raise _track_error(exc, first_id + exc.track, 0) from None
    return x, y, heading, attached.reshape(len(starts), len(times), -1).transpose(1, 0, 2)


def _track_error(exc: ValueError | FitDivergence, track_id, first_frame: int) -> ValueError | FitDivergence:
    """A track's fit error, of its type, naming the track and the frame of its first row."""
    message = f"track {track_id!r}, first seen on frame {first_frame}: {exc}"
    if isinstance(exc, FitDivergence):
        return FitDivergence(message, exc.best, exc.report)
    return ValueError(message)


class Scene(list):
    """Frames cut from one block of rows: a list of Frame that keeps the block.

    `rows` holds the detections of every frame, frame-major, and frame k is
    rows starts[k] to starts[k + 1], a row slice of the block (`take` of a
    slice) made without a new check, as the block was checked whole.
    """

    def __init__(self, stamps: Sequence[tuple[float, EgoPose]], rows: DetectionColumns, starts: np.ndarray) -> None:
        bounds = starts.tolist()
        super().__init__(Frame(t, ego, rows.take(slice(a, b))) for (t, ego), a, b in zip(stamps, bounds, bounds[1:]))
        self.rows = rows
        self.starts = starts
        self._cut = tuple(self)


def _scene(frames: Sequence[Frame]) -> Scene | None:
    """frames, when they are a Scene that still holds the frames cut from its block; else None."""
    if isinstance(frames, Scene) and len(frames) == len(frames._cut) and all(map(is_, frames, frames._cut)):
        return frames
    return None


def _columns(frames: Sequence[Frame], *names: str) -> tuple[np.ndarray, ...]:
    """The named detection columns of frames, frame-major, then the first row of each frame and the number of rows.

    A Scene gives its block's own columns; the columns of other frames are
    joined, only those named.
    """
    scene = _scene(frames)
    if scene is not None:
        return (*(getattr(scene.rows, name) for name in names), scene.starts)
    return (*(np.concatenate([getattr(frame.detections, name) for frame in frames]) for name in names),
            np.cumsum([0, *(len(frame.detections) for frame in frames)]))


def _frame_of(starts: np.ndarray, row) -> int:
    """The frame holding a row of a block."""
    return int(np.searchsorted(starts, row, side="right")) - 1


@contextlib.contextmanager
def _frame_rows(starts: np.ndarray):
    """A RowError raised in the block as the ValueError its frame's own check raises: the row counted in its frame."""
    try:
        yield
    except RowError as exc:
        raise ValueError(f"detection {exc.row - int(starts[_frame_of(starts, exc.row)])}: {exc.reason}") from None


def _moving(egos: Sequence[EgoPose], starts: np.ndarray) -> list[tuple[EgoPose, slice]]:
    """The ego of each frame seen from an ego other than the identity, with the slice of its rows in the block.

    Only their rows change with a change of frame to or from the identity, so
    only they are transformed, each with its frame's own ego.
    """
    identity = EgoPose.identity()
    bounds = starts.tolist()
    return [(ego, slice(a, b)) for ego, a, b in zip(egos, bounds, bounds[1:]) if ego != identity]


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
    the (optionally moving) ego frame. The frames are row slices of one
    block, checked once (a Scene): a box or parameter that leaves float range
    raises "detection k: <rule>" with k counted within its frame, and a track
    whose poses cannot be fitted is named as reattach_params names it.
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
    # the scene's rows, frame-major: vehicle v of frame k is row k * total + v
    boxes = np.empty((n_frames, total, 7))
    params = np.zeros((n_frames, total, PARAM_WIDTH))
    labels: list[str] = []
    codes: list[int] = []
    start = 0
    for g, (spec, count) in enumerate(groups):
        if count == 0:
            continue
        drawn = [_sample_start(spec, _rng(seed, g, i), slots[start + i], jitter) for i in range(count)]
        block = slice(start, start + count)
        kind = model_class(spec.model)
        boxes[:, block, 0], boxes[:, block, 1], boxes[:, block, 6], params[:, block, : len(kind.json_keys)] = (
            _group_tracks(spec, drawn, times, track_id_start + start))
        w, length, h = spec.box_size
        boxes[:, block, 2:6] = h / 2.0, w, length, h
        labels += [spec.label] * count
        codes += [MODEL_CODES[kind.name]] * count
        start += count
    n = n_frames * total
    boxes, params = boxes.reshape(n, 7), params.reshape(n, PARAM_WIDTH)
    model = np.tile(np.array(codes, dtype=np.int64), n_frames)
    starts = np.arange(n_frames + 1) * total
    identity = EgoPose.identity()
    groups_of = model_groups(model[:total])
    # an overflowing box or parameter fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for ego, seen in _moving(egos, starts):
            boxes[seen, 0], boxes[seen, 1], boxes[seen, 6] = transform_columns(
                boxes[seen, 0], boxes[seen, 1], boxes[seen, 6], identity, ego)
            motion = params[seen]
            for kind, members in groups_of:
                width = len(kind.json_keys)
                motion[members, :width] = kind.in_ego_columns(motion[members, :width], ego)
    with _frame_rows(starts):
        check_columns(boxes, model, params)
    # scores of 1, no weights and labels that the specs checked: every Detection rule holds
    track_id = object_array(list(range(track_id_start, track_id_start + total)))
    rows = DetectionColumns._derived(
        boxes, np.ones(n), np.tile(object_array(labels), n_frames), model, params, np.full(n, math.nan),
        np.zeros(n, dtype=np.int64), np.tile(track_id, n_frames), np.ones(n, dtype=np.int64),
        np.ones(n, dtype=np.int64))
    return Scene(list(zip(times, egos)), rows, starts)


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
    error of the type its fit raised (a ValueError, or FitDivergence). The
    new parameters of all frames are checked at once, and a turned one that
    leaves float range raises "detection k: <rule>", k counted within its
    frame. A Scene gives a Scene; other frames keep their own columns.
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
    boxes, old, starts = _columns(frames, "boxes", "params")
    ids, track = track_index(frames)
    if fit is None:
        fit = np.ones(len(ids), dtype=bool)
    counts = np.bincount(track, minlength=len(ids))
    arm = rear_axle
    if arm is None:
        by_length = np.lexsort((boxes[:, 4], track))
        arm = default_rear_axle(boxes[by_length[np.cumsum(counts) - counts + counts // 2], 4])[fit]
    world = boxes[:, [0, 1, 6]]
    # joined boxes and parameters are copies: free each once it is used, as the fit holds the most memory
    del boxes
    identity = EgoPose.identity()
    moving = _moving([frame.ego for frame in frames], starts)
    # a world centre that overflows fails the fit's rules, which name its track
    with np.errstate(over="ignore", invalid="ignore"):
        for ego, seen in moving:
            world[seen] = np.stack(transform_columns(*world[seen].T, ego, identity), axis=1)
    times = np.repeat([frame.timestamp for frame in frames], np.diff(starts)).astype(float)
    kind = model_class(model)
    width = len(kind.json_keys)
    # the fitted rows, track by track, each track in frame order
    order = np.argsort(track, kind="stable")
    order = order[fit[track[order]]]
    x, y, yaw = world[order].T
    fitted = fit[track]
    params = np.where(fitted[:, None], 0.0, old)
    del old
    try:
        params[order, :width] = estimate_param_columns(times[order], x, y, yaw, counts[fit], model, rear_axle=arm)
    except (ValueError, FitDivergence) as exc:
        if not hasattr(exc, "track"):
            raise
        failed = np.flatnonzero(fit)[exc.track]
        raise _track_error(exc, ids[failed], _frame_of(starts, np.argmax(track == failed))) from None
    # a turned parameter that overflows fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for ego, seen in moving:
            turned, turns = params[seen], fitted[seen]
            turned[turns, :width] = kind.in_ego_columns(turned[turns, :width], ego)
    codes = np.full(len(params), MODEL_CODES[model], dtype=np.int64)
    with _frame_rows(starts):
        check_columns(None, codes, params)
    scene = _scene(frames)
    if scene is not None:
        return Scene([(frame.timestamp, frame.ego) for frame in frames], scene.rows._with(model=codes, params=params),
                      starts)
    # frames of their own keep their other columns, so no second copy of the rows is made
    bounds = starts.tolist()
    return [Frame(frame.timestamp, frame.ego, frame.detections._with(model=codes[a:b], params=params[a:b]))
            for frame, a, b in zip(frames, bounds, bounds[1:])]


def _burst_hidden(frames: Sequence[Frame], spec: CorruptionSpec, seed: int, frame: np.ndarray) -> np.ndarray:
    """The rows that burst occlusions hide; frame[r] is the frame of row r.

    Substream (seed, 0) picks the vehicles, in the order of their track ids,
    and each one's first hidden frame.
    """
    ids, track = track_index(frames)
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rng = _rng(seed, 0)
    n_burst = int(round(spec.burst_vehicle_frac * len(ids)))
    chosen = rng.choice(len(ids), size=min(n_burst, len(ids)), replace=False)
    last_start = max(0, len(frames) - spec.burst_frames)
    first, stop = np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=np.int64)
    for idx in sorted(int(c) for c in chosen):
        first[by_id[idx]] = int(rng.integers(0, last_start + 1))
        stop[by_id[idx]] = first[by_id[idx]] + spec.burst_frames
    return (first[track] <= frame) & (frame < stop[track])


def _detector_draws(seed: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's six normal draws and its uniform drop draw, made one detection at a time from its frame's
    substream (seed, k + 1); frame k holds rows starts[k] to starts[k + 1]."""
    bounds = starts.tolist()
    draws = np.empty((bounds[-1], 6))
    drop_u = np.empty(bounds[-1])
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        rng = _rng(seed, k + 1)
        normal, uniform = rng.standard_normal, rng.random
        frame_u = []
        for row in draws[a:b]:
            normal(out=row)
            frame_u.append(uniform())
        drop_u[a:b] = frame_u
    return draws, drop_u


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
    to the columns of all frames at once. Every noisy row, dropped or not,
    goes through the box and motion tables at once (`check_columns`), and an
    error names the row within its frame; scores are clamped to [0, 1] and
    the other columns come from checked rows, so Detection's rules hold.
    """
    if not frames:
        return []
    boxes, old, model, label, track_id, starts = _columns(frames, "boxes", "params", "model", "label", "track_id")
    n_frames, n = len(frames), len(model)
    frame = np.repeat(np.arange(n_frames), np.diff(starts))
    keep = np.ones(n, dtype=bool)
    if spec.burst_vehicle_frac > 0.0 and spec.burst_frames > 0:
        keep = ~_burst_hidden(frames, spec, seed, frame)
    draws, drop_u = _detector_draws(seed, starts)
    drop_prob = dict(spec.frame_drop_overrides)
    keep &= ~(drop_u < np.array([drop_prob.get(k, spec.drop_prob) for k in range(n_frames)])[frame])
    del drop_u
    # an overflowing noisy value fails the check below; the scene-sized columns are made one after another
    with np.errstate(over="ignore", invalid="ignore"):
        params = np.zeros_like(old)
        for kind, members in model_groups(model):
            width = len(kind.json_keys)
            params[members, :width] = kind.noisy_columns(
                old[members, :width], draws[members, 3], draws[members, 4], spec.sigma_speed, spec.sigma_turn
            )
        score = clamp_columns(spec.score_mean + draws[:, 5] * spec.score_sigma, spec.score_floor, 0.999)
        scale = dict(spec.frame_score_scale)
        score = clamp_columns(score * np.array([scale.get(k, 1.0) for k in range(n_frames)])[frame], 0.0, 1.0)
        boxes = boxes.copy()
        if spec.sigma_xy > 0.0 or spec.sigma_yaw > 0.0:
            boxes[:, 0] += draws[:, 0] * spec.sigma_xy
            boxes[:, 1] += draws[:, 1] * spec.sigma_xy
            boxes[:, 6] += draws[:, 2] * spec.sigma_yaw
    # the draws take as much memory as the noisy boxes: free them before the kept rows are copied
    del draws
    with _frame_rows(starts):
        check_columns(boxes, model, params)
    boxes[:, 6] = normalize_angles(boxes[:, 6])
    # the kept rows, one column at a time, so that no two copies of the scene's noisy rows are held at once
    boxes = boxes[keep]
    params = params[keep]
    score = score[keep]
    m = len(score)
    kept = DetectionColumns._derived(boxes, score, label[keep], model[keep], params, np.full(m, math.nan),
                                     np.zeros(m, dtype=np.int64), track_id[keep], np.ones(m, dtype=np.int64),
                                     np.ones(m, dtype=np.int64))
    return Scene([(f.timestamp, f.ego) for f in frames], kept,
                 np.cumsum([0, *np.bincount(frame[keep], minlength=n_frames).tolist()]))
