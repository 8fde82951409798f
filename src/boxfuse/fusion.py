"""Sliding-window detection fusion: history forwarding, weighted NMS, score decay.

A detection frame is enhanced by forwarding the boxes of up to n_history
previous frames to its timestamp with each box's own motion parameters,
transforming them into its ego frame, and running weighted non-maximum
suppression over the dense overlapped set. Survivors are the confidence-
weighted averages of their merge clusters rather than argmax picks; clusters
containing no current-frame box ("history only") get their score reduced so
they cannot crowd out fresh detections.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .geometry import (
    Box3D,
    EgoPose,
    _corners,
    _iou_from_corners,
    candidate_pairs,
    circumradius,
    normalize_angle,
    transform_box,
)
from .motion import MotionParams, _wavg, forward_box

ScoreStrategy = Literal["decay", "divide"]


@dataclass(frozen=True)
class Detection:
    """One detected box with score, class label, motion parameters and fusion bookkeeping.

    weight is the decayed voting confidence, assigned when the detection
    enters a fusion run; frame_lag counts frame intervals behind the fusion
    target (bookkeeping only: a forwarded box has n_current 0 whatever its
    lag). On fused outputs n_fused counts merged member boxes and n_current the
    current-frame members among them; n_current == 0 means history only.
    """

    box: Box3D
    score: float
    label: str
    motion: MotionParams
    weight: float | None = None
    frame_lag: int = 0
    track_id: int | None = None
    n_fused: int = 1
    n_current: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        if self.frame_lag < 0:
            raise ValueError("frame_lag must be non-negative")
        if not self.label:
            raise ValueError("empty class label")
        if self.n_fused < 1:
            raise ValueError("n_fused must be at least 1")
        if self.n_current is None:
            object.__setattr__(self, "n_current", 1 if self.frame_lag == 0 else 0)

    @property
    def history_only(self) -> bool:
        return self.n_current == 0


@dataclass
class Frame:
    """Timestamped detection set with the recording sensor's global pose."""

    timestamp: float
    ego: EgoPose
    detections: list[Detection] = field(default_factory=list)


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for sliding-window weighted-NMS fusion.

    The defaults are the primary single-detector tuning: confidence decay 0.8
    per frame interval, merge and suppression IoU both 0.7, four history
    frames at a 0.1 s interval, "decay" scoring for history-only boxes.
    """

    n_history: int = 4
    weight_decay: float = 0.8
    iou_low: float = 0.7
    iou_high: float = 0.7
    frame_interval: float = 0.1
    score_strategy: ScoreStrategy = "decay"
    score_decay_factor: float = 0.6
    history_score_floor: float = 0.01

    def __post_init__(self) -> None:
        if self.n_history < 0:
            raise ValueError("n_history must be non-negative")
        if not 0.0 < self.weight_decay <= 1.0:
            raise ValueError("weight_decay must lie in (0, 1]")
        if not 0.0 <= self.iou_low <= 1.0 or not 0.0 <= self.iou_high <= 1.0:
            raise ValueError("IoU thresholds must lie in [0, 1]")
        if self.iou_high < self.iou_low:
            raise ValueError("iou_high must be at least iou_low")
        if self.frame_interval <= 0.0:
            raise ValueError("frame_interval must be positive")
        if self.score_strategy not in ("decay", "divide"):
            raise ValueError(f"unknown score strategy {self.score_strategy!r}")
        if not 0.0 < self.score_decay_factor <= 1.0:
            raise ValueError("score_decay_factor must lie in (0, 1]")
        if self.history_score_floor < 0.0:
            raise ValueError("history_score_floor must be non-negative")


#: Named configurations matching the published tunings.
PRESETS: dict[str, FusionConfig] = {
    "waymo-default": FusionConfig(),
    "nuscenes": FusionConfig(weight_decay=0.6, iou_low=0.2, iou_high=0.7),
    "multi-method": FusionConfig(weight_decay=0.8, iou_low=0.9, iou_high=0.9, score_strategy="divide"),
}


def decayed_weight(score: float, time_lag: float, cfg: FusionConfig) -> float:
    """Voting weight of a box observed time_lag seconds ago: score * d^(lag/interval)."""
    if time_lag < 0.0:
        raise ValueError("time_lag must be non-negative")
    return score * cfg.weight_decay ** (time_lag / cfg.frame_interval)


def forward_frame(
    frame: Frame, target_time: float, target_ego: EgoPose, cfg: FusionConfig
) -> list[Detection]:
    """Forward every detection of `frame` to a later target time and ego frame.

    Each box is advanced by its own motion parameters over the time gap, then
    re-expressed in the target ego coordinates. Weights are set to the decayed
    confidence; motion parameters are carried unchanged and frame_lag is the
    gap in frame intervals (rounded). Every output is a history box
    (n_current=0), even when the gap rounds to zero intervals.
    """
    dt = target_time - frame.timestamp
    if dt < 0.0:
        raise ValueError("target_time must not precede the frame timestamp")
    lag = int(round(dt / cfg.frame_interval))
    out = []
    for det in frame.detections:
        box = forward_box(det.box, det.motion, dt)
        box = transform_box(box, frame.ego, target_ego)
        out.append(
            replace(
                det,
                box=box,
                weight=decayed_weight(det.score, dt, cfg),
                frame_lag=lag,
                n_fused=1,
                n_current=0,
            )
        )
    return out


def _require_single_variant(detections: Iterable[Detection]) -> None:
    kinds = {type(d.motion) for d in detections}
    if len(kinds) > 1:
        names = sorted(k.__name__ for k in kinds)
        raise ValueError(f"mixed motion-parameter variants in one fusion run: {names}")


def _fuse_cluster(members: list[Detection]) -> Detection:
    """Weight-averaged merge of a cluster; members[0] is the seeding top box."""
    seed = members[0]
    if len(members) == 1:
        return seed
    weights = [d.weight for d in members]
    wsum = sum(weights)
    if wsum <= 0.0:
        # all-zero voting weights: fall back to a plain mean
        weights = [1.0] * len(members)
        wsum = float(len(members))

    ref_yaw = seed.box.yaw
    yaw = normalize_angle(
        ref_yaw + _wavg(weights, [normalize_angle(d.box.yaw - ref_yaw) for d in members], wsum)
    )
    box = Box3D(
        x=_wavg(weights, [d.box.x for d in members], wsum),
        y=_wavg(weights, [d.box.y for d in members], wsum),
        z=_wavg(weights, [d.box.z for d in members], wsum),
        w=_wavg(weights, [d.box.w for d in members], wsum),
        l=_wavg(weights, [d.box.l for d in members], wsum),
        h=_wavg(weights, [d.box.h for d in members], wsum),
        yaw=yaw,
    )
    score = min(1.0, max(0.0, _wavg(weights, [d.score for d in members], wsum)))
    weight = min(1.0, max(0.0, _wavg(weights, [d.weight for d in members], wsum)))
    return Detection(
        box=box,
        score=score,
        label=seed.label,
        motion=seed.motion.weighted_mean([d.motion for d in members], weights, wsum),
        weight=weight,
        frame_lag=min(d.frame_lag for d in members),
        track_id=seed.track_id,
        n_fused=sum(d.n_fused for d in members),
        n_current=sum(d.n_current for d in members),
    )


def _neighbours(dets: list[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """Circumcircle self-join of the boxes, as (bounds, neighbours).

    Box i's neighbours, itself included, are neighbours[bounds[i]:bounds[i + 1]]
    in ascending index.
    """
    cx = np.array([d.box.x for d in dets])
    cy = np.array([d.box.y for d in dets])
    radius = np.array([circumradius(d.box) for d in dets])
    rows, neighbours = candidate_pairs(cx, cy, radius, cx, cy, radius)
    return np.searchsorted(rows, np.arange(len(dets) + 1)), neighbours


def _nms_single_class(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    m = len(dets)
    order = sorted(range(m), key=lambda i: (-dets[i].weight, -dets[i].score, i))
    bounds, neighbours = _neighbours(dets)
    corners = [_corners(d.box) for d in dets]
    areas = [d.box.w * d.box.l for d in dets]
    alive = [True] * m
    out = []
    for seed in order:
        if not alive[seed]:
            continue
        members = [seed]
        removed = [seed]
        for j in neighbours[bounds[seed] : bounds[seed + 1]].tolist():
            if j == seed or not alive[j]:
                continue
            if dets[j].box == dets[seed].box:
                iou = 1.0
            else:
                iou = _iou_from_corners(corners[seed], areas[seed], corners[j], areas[j])
            if iou <= 0.0:
                continue
            if iou >= cfg.iou_high:
                members.append(j)
            if iou >= cfg.iou_low:
                removed.append(j)
        out.append(_fuse_cluster([dets[j] for j in members]))
        for j in removed:
            alive[j] = False
    return out


def weighted_nms(detections: Sequence[Detection], cfg: FusionConfig) -> list[Detection]:
    """Per-class weighted NMS over a dense detection set sharing one coordinate frame.

    Within each class label, detections are visited by descending voting
    weight (ties: higher raw score, then input order). The top box b merges
    every pool box with IoU(b, .) >= iou_high into a weight-averaged output
    (all box fields, score, weight and motion parameters; yaw and slip are
    averaged wrap-aware around b's values). Every pool box with
    IoU(b, .) >= iou_low is then dropped from the pool, so boxes falling in
    [iou_low, iou_high) are discarded without voting. Zero-IoU boxes never
    interact. Every detection must carry an assigned weight.
    """
    for d in detections:
        if d.weight is None:
            raise ValueError("weighted_nms requires every detection weight to be assigned")
    _require_single_variant(detections)
    out: list[Detection] = []
    for label in sorted({d.label for d in detections}):
        group = [d for d in detections if d.label == label]
        out.extend(_nms_single_class(group, cfg))
    return out


def apply_score_strategy(fused: Sequence[Detection], cfg: FusionConfig) -> list[Detection]:
    """Reduce the scores of fused boxes that contain no current-frame member.

    "decay" replaces the score with the fused voting weight; "divide" rescales
    it to score_decay_factor * score / max(n_history - n_fused, 1), so sparse
    history clusters are punished harder than well-supported ones. Boxes with
    a current-frame member are returned untouched.
    """
    out = []
    for det in fused:
        if det.n_current == 0:
            if cfg.score_strategy == "decay":
                new_score = det.weight if det.weight is not None else det.score
            else:
                new_score = cfg.score_decay_factor * det.score / max(cfg.n_history - det.n_fused, 1)
            det = replace(det, score=min(1.0, max(0.0, new_score)))
        out.append(det)
    return out


def fuse_frames(window: Sequence[Frame], cfg: FusionConfig) -> Frame:
    """Fuse a window of raw frames (oldest..current) into an enhanced current frame.

    History frames are forwarded to the current timestamp and ego, the current
    detections enter with weight equal to their raw score, and the dense set
    goes through weighted NMS plus the history score strategy. History-only
    outputs scoring below history_score_floor are dropped.
    """
    if not window:
        raise ValueError("empty frame window")
    if len(window) > cfg.n_history + 1:
        raise ValueError(f"window of {len(window)} frames exceeds n_history={cfg.n_history} + 1")
    for a, b in zip(window, window[1:]):
        if b.timestamp <= a.timestamp:
            raise ValueError("window timestamps must strictly increase")
    current = window[-1]
    dense: list[Detection] = []
    for frame in window[:-1]:
        dense.extend(forward_frame(frame, current.timestamp, current.ego, cfg))
    for det in current.detections:
        dense.append(replace(det, weight=det.score, frame_lag=0, n_fused=1, n_current=1))
    fused = apply_score_strategy(weighted_nms(dense, cfg), cfg)
    kept = [d for d in fused if d.n_current > 0 or d.score >= cfg.history_score_floor]
    return Frame(current.timestamp, current.ego, kept)


def sliding_windows(frames: Iterable[Frame], size: int) -> Iterator[list[Frame]]:
    """Yield each frame's trailing window of up to `size` frames, oldest first.

    Raises ValueError naming the 0-based index of the first offending frame
    unless timestamps strictly increase and every detection of the stream
    uses one motion model.
    """
    window: deque[Frame] = deque(maxlen=size)
    models: set[str] = set()
    for index, frame in enumerate(frames):
        if window and frame.timestamp <= window[-1].timestamp:
            raise ValueError(f"timestamps must strictly increase (frame {index})")
        models.update(d.motion.name for d in frame.detections)
        if len(models) > 1:
            raise ValueError(f"mixed motion models {sorted(models)} in one stream (frame {index})")
        window.append(frame)
        yield list(window)


def fuse_sequence(frames: Iterable[Frame], cfg: FusionConfig) -> Iterator[Frame]:
    """Fuse a frame stream with a sliding window of up to n_history + 1 raw frames.

    History always enters in raw (pre-fusion) form, so outputs for a given
    frame depend only on its trailing window; memory stays constant in the
    sequence length. Timestamps must strictly increase.
    """
    for window in sliding_windows(frames, cfg.n_history + 1):
        yield fuse_frames(window, cfg)
