"""Sliding-window detection fusion: history forwarding, weighted NMS, score decay.

A detection frame is enhanced by forwarding the boxes of up to n_history
previous frames to its timestamp with each box's own motion parameters,
transforming them into its ego frame, and running weighted non-maximum
suppression over the dense overlapped set. Survivors are the confidence-
weighted averages of their merge clusters rather than argmax picks; clusters
containing no current-frame box ("history only") get their score reduced so
they cannot crowd out fresh detections.

The whole path runs on the numpy columns of frames.DetectionColumns.
`forward_frame` forwards a whole frame at once; `weighted_nms` takes each
same-label pair that can reach iou_low once from `geometry.reachable_pairs`
(the overlap search that evaluation uses too), orients it by seed order,
takes its IoU from `geometry.pair_ious` and merges clusters with
per-cluster weighted sums; the score strategy and the history floor are
column operations. Every step does the float operations of the frozen
per-box references in tests/oracles.py in the same order, and outputs are
checked against them to the bit.

Trace contract: `fuse_frames` calls `forward_frame(frame, t, ego, cfg)` once
per history frame, then `weighted_nms(dense, cfg)` and
`apply_score_strategy(fused, cfg)`, each looked up as a module global, so a
wrapper bound at those names (as the benchmark's per-layer tracing binds
them, bench/tracing.py) sees every call. All three return
`DetectionColumns`, which support len() and iterate as Detections (with
n_fused and n_current); iterating builds every row's objects, so a wrapper
that iterates a result spends that time outside the wrapped call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence, get_args

import numpy as np

from .frames import MODEL_CLASSES, PARAM_WIDTH, Detection, DetectionColumns, Frame
from .geometry import (
    EgoPose,
    clamp_columns,
    normalize_angles,
    pair_ious,
    reachable_pairs,
    transform_columns,
)
from .rules import require_field_types

ScoreStrategy = Literal["decay", "divide"]
SCORE_STRATEGIES = get_args(ScoreStrategy)


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for sliding-window weighted-NMS fusion; `require_field_types` enforces each field's annotated type.

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
        require_field_types(self)
        # every check is written so that NaN fails it
        # sliding_windows holds n_history + 1 frames in a deque, whose length is a C ssize_t
        if not 0 <= self.n_history < 2**63 - 1:
            raise ValueError(f"n_history must lie in [0, {2**63 - 2}], got {self.n_history!r}")
        if not 0.0 < self.weight_decay <= 1.0:
            raise ValueError("weight_decay must lie in (0, 1]")
        for name in ("iou_low", "iou_high"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.iou_high < self.iou_low:
            raise ValueError("iou_high must be at least iou_low")
        if not 0.0 < self.frame_interval < math.inf:
            raise ValueError("frame_interval must be positive and finite")
        if not 0.0 < self.score_decay_factor <= 1.0:
            raise ValueError("score_decay_factor must lie in (0, 1]")
        if not 0.0 <= self.history_score_floor < math.inf:
            raise ValueError("history_score_floor must be finite and non-negative")


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
) -> DetectionColumns:
    """Forward every detection of `frame` to a later target time and ego frame.

    Each box is advanced by its own motion parameters over the time gap, then
    re-expressed in the target ego coordinates; all boxes of one model move at
    once, with the same float operations as transform_box(forward_box(...)).
    Motion parameters turn with the frame, as each model's in_ego_columns
    turns them by the yaw change (only a cv velocity changes). Weights are set
    to the decayed confidence and frame_lag is the gap in frame intervals
    (rounded). Every output is a history box (n_current=0), even when the gap
    rounds to zero intervals. Raises ValueError when a forwarded box or turned
    velocity is not finite or the lag does not fit in int64.
    """
    dt = target_time - frame.timestamp
    if dt < 0.0:
        raise ValueError("target_time must not precede the frame timestamp")
    cols = frame.detections
    boxes = cols.boxes.copy()
    x, y, yaw = boxes[:, 0], boxes[:, 1], boxes[:, 6]
    # overflow is caught by the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        if dt != 0.0 and len(cols):
            for model, rows in cols.groups():
                params = cols.params_of(model, rows)
                x[rows], y[rows], yaw[rows] = model.forward_columns(x[rows], y[rows], yaw[rows], params, dt)
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise ValueError("forwarded box centre is not finite")
            yaw[:] = normalize_angles(yaw)
        boxes[:, 0], boxes[:, 1], boxes[:, 6] = transform_columns(x, y, yaw, frame.ego, target_ego)
        if frame.ego.yaw != target_ego.yaw:
            turn = EgoPose(0.0, 0.0, target_ego.yaw - frame.ego.yaw)
            params = cols.params.copy()
            for model, rows in cols.groups():
                params[rows, : len(model.json_keys)] = model.in_ego_columns(cols.params_of(model, rows), turn)
            if not np.isfinite(params).all():
                raise ValueError("turned motion parameters are not finite")
            cols = cols._with(params=params)
    lag = dt / cfg.frame_interval
    if not lag < 2.0**63:
        raise ValueError(f"frame lag of {dt!r} s at frame_interval {cfg.frame_interval!r} s does not fit in int64")
    return cols.entering(boxes, decayed_weight(cols.score, dt, cfg), int(round(lag)), 0)


def _clustering_pairs(cols: DetectionColumns, label: np.ndarray, rank: np.ndarray, cfg: FusionConfig):
    """Pairs (i, j) that act in the greedy sweep, sorted by (i, j), and whether j merges.

    i and j share a label, i comes first in the seed order, and
    pair_ious(i, j), bev_iou's bits, is > 0 and >= iou_low. Orienting each
    reachable pair by rank and sorting gives the order the sweep depends on.
    """
    i, j = reachable_pairs(cols.boxes, label, cfg.iou_low)
    n = len(cols)
    keys = np.where(rank[i] < rank[j], i * n + j, j * n + i)
    keys.sort()
    i, j = np.divmod(keys, n)
    iou = pair_ious(cols.boxes, i, j)
    hit = (iou > 0.0) & (iou >= cfg.iou_low)
    return i[hit], j[hit], iou[hit] >= cfg.iou_high


def _sweep(order: np.ndarray, pair_i, pair_j, merges):
    """The greedy seed sweep over precomputed pairs.

    Returns the seeds in output order and, in visiting order, every merged
    member with the index of its seed's cluster.
    """
    n = len(order)
    first = np.searchsorted(pair_i, np.arange(n + 1)).tolist()
    pair_j = pair_j.tolist()
    merges = merges.tolist()
    alive = [True] * n
    seeds: list[int] = []
    members: list[int] = []
    member_cluster: list[int] = []
    for seed in order.tolist():
        if not alive[seed]:
            continue
        cluster = len(seeds)
        seeds.append(seed)
        for k in range(first[seed], first[seed + 1]):
            j = pair_j[k]
            if alive[j]:
                alive[j] = False
                if merges[k]:
                    members.append(j)
                    member_cluster.append(cluster)
    return np.array(seeds, dtype=np.int64), members, member_cluster


def _merge_clusters(cols: DetectionColumns, rows: np.ndarray, cluster: np.ndarray,
                    n_clusters: int) -> DetectionColumns:
    """Weight-averaged merges of clusters; the seed of each cluster supplies the reference.

    rows lists every member row and cluster[k] its cluster: the clusters'
    seeds come first, in cluster order, then the other members in visiting
    order. bincount adds from left to right, so every weighted sum adds the
    members in the order a Python sum over [seed, *members] would. The
    merged rows are checked like new Detections (ValueError).
    """
    if n_clusters == 0:
        return cols.take(rows)
    seeds = rows[:n_clusters]
    weights = cols.weight[rows]
    wsum = np.bincount(cluster, weights=weights, minlength=n_clusters)
    flat = wsum <= 0.0
    if flat.any():
        # all-zero voting weights: fall back to a plain mean
        weights = np.where(flat[cluster], 1.0, weights)
        wsum = np.where(flat, np.bincount(cluster, minlength=n_clusters).astype(float), wsum)

    def wavg(values: np.ndarray) -> np.ndarray:
        return np.bincount(cluster, weights=weights * values, minlength=n_clusters) / wsum

    boxes = cols.boxes[rows]
    ref_yaw = boxes[:n_clusters, 6]
    yaw = normalize_angles(ref_yaw + wavg(normalize_angles(boxes[:, 6] - ref_yaw[cluster])))
    merged = np.stack([wavg(boxes[:, k]) for k in range(6)] + [yaw], axis=1)
    score = clamp_columns(wavg(cols.score[rows]), 0.0, 1.0)
    weight = clamp_columns(wavg(cols.weight[rows]), 0.0, 1.0)
    frame_lag = np.full(n_clusters, np.iinfo(np.int64).max)
    np.minimum.at(frame_lag, cluster, cols.frame_lag[rows])
    n_fused = np.zeros(n_clusters, dtype=np.int64)
    np.add.at(n_fused, cluster, cols.n_fused[rows])
    n_current = np.zeros(n_clusters, dtype=np.int64)
    np.add.at(n_current, cluster, cols.n_current[rows])
    model = MODEL_CLASSES[cols.model[seeds[0]]]
    params = cols.params_of(model, rows)
    motion = np.zeros((n_clusters, PARAM_WIDTH))
    motion[:, : len(model.json_keys)] = model.merge_columns(params, params[:n_clusters], cluster, wavg)
    return DetectionColumns(merged, score, cols.label[seeds], cols.model[seeds], motion, weight, frame_lag,
                            cols.track_id[seeds], n_fused, n_current)


def weighted_nms(detections: Sequence[Detection], cfg: FusionConfig) -> DetectionColumns:
    """Per-class weighted NMS over a dense detection set sharing one coordinate frame.

    Within each class label, detections are visited by descending voting
    weight (ties: higher raw score, then input order). The top box b merges
    every pool box with IoU(b, .) >= iou_high into a weight-averaged output
    (all box fields, score, weight and motion parameters; yaw and slip are
    averaged wrap-aware around b's values). Every pool box with
    IoU(b, .) >= iou_low is then dropped from the pool, so boxes falling in
    [iou_low, iou_high) are discarded without voting. Zero-IoU boxes never
    interact. Every detection must carry an assigned weight.

    Labels are ordered by name and visited one after another. The IoU of every
    pair that can act is computed up front by geometry.pair_ious, so the
    greedy sweep only reads it; a single-box cluster comes back as its
    input row. Returns columns; a list of Detection is converted first.
    """
    cols = DetectionColumns.of(detections)
    if np.isnan(cols.weight).any():
        raise ValueError("weighted_nms requires every detection weight to be assigned")
    models = sorted(kind.name for kind, _ in cols.groups())
    if len(models) > 1:
        raise ValueError(f"mixed motion models {models} in one fusion run")
    n = len(cols)
    if n == 0:
        return cols
    labels = cols.label.tolist()
    code = {name: k for k, name in enumerate(sorted(set(labels)))}
    label = np.fromiter(map(code.__getitem__, labels), dtype=np.int64, count=n)
    order = np.lexsort((-cols.score, -cols.weight, label))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    seeds, members, member_cluster = _sweep(order, *_clustering_pairs(cols, label, rank, cfg))
    multi = np.bincount(np.array(member_cluster, dtype=np.int64), minlength=len(seeds)) > 0
    n_multi = int(multi.sum())
    # clusters numbered among the multi-box ones; their seeds lead the member rows
    renumber = np.cumsum(multi) - 1
    rows = np.concatenate([seeds[multi], np.array(members, dtype=np.int64)])
    cluster = np.concatenate([np.arange(n_multi), renumber[member_cluster]])
    singles = seeds[~multi]
    out = DetectionColumns.concat([_merge_clusters(cols, rows, cluster, n_multi), cols.take(singles)])
    # back to seed order: merged clusters first in out, then the singletons
    position = np.empty(len(seeds), dtype=np.int64)
    position[multi] = np.arange(n_multi)
    position[~multi] = n_multi + np.arange(len(singles))
    return out.take(position)


def apply_score_strategy(fused: Sequence[Detection], cfg: FusionConfig) -> DetectionColumns:
    """Reduce the scores of fused boxes that contain no current-frame member.

    "decay" replaces the score with the fused voting weight (the raw score
    when none is assigned); "divide" rescales it to
    score_decay_factor * score / max(n_history - n_fused, 1), so sparse
    history clusters are punished harder than well-supported ones. New scores
    are clamped to [0, 1]; boxes with a current-frame member keep theirs.
    Returns columns; a list of Detection is converted first.
    """
    cols = DetectionColumns.of(fused)
    if cfg.score_strategy == "decay":
        new = np.where(np.isnan(cols.weight), cols.score, cols.weight)
    else:
        new = cfg.score_decay_factor * cols.score / np.maximum(cfg.n_history - cols.n_fused, 1)
    return cols._with(score=np.where(cols.n_current == 0, clamp_columns(new, 0.0, 1.0), cols.score))


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
    parts = [forward_frame(frame, current.timestamp, current.ego, cfg) for frame in window[:-1]]
    cols = current.detections
    parts.append(cols.entering(cols.boxes, cols.score, 0, 1))
    fused = apply_score_strategy(weighted_nms(DetectionColumns.concat(parts), cfg), cfg)
    kept = fused.take((fused.n_current > 0) | (fused.score >= cfg.history_score_floor))
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
        models.update(kind.name for kind, _ in frame.detections.groups())
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
