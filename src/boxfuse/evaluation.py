"""Detection metrics: greedy IoU matching, average precision, motion-state splits.

AP follows the usual single-class protocol: detections are ranked by score
across the whole sequence, matched greedily per frame, and the area under the
interpolated precision-recall curve is accumulated over all points. The
ground-truth, raw and fused streams must share timestamps frame by frame, or
evaluation raises ValueError naming the first frame that differs. The
heading-weighted variant discounts each true positive by
max(0, 1 - |yaw error| / pi); it preserves the "heading error costs score"
behaviour of benchmark APH metrics without claiming comparability to them.

Motion-state subsets use the ground-truth motion parameters: a vehicle is
stationary below 0.1 m/s, turning above 1 m/s with a turning radius under
25 m, straight otherwise. The stricter turning predicate (speed > 5, radius
< 25) selects unambiguous turners for focused evaluation. Subset rows are
computed after filtering detections to those overlapping the subset ground
truth with IoU > 0.5; detections not matching the subset are excluded rather
than counted as false positives.

Evaluation runs on the columns that every frame holds, so `boxfuse eval`
builds no Detection. A frame's IoU table is read only at or above a floor:
the matching threshold, or for a report the smaller of it and the subset
filter's IoU. Its pairs come from geometry.reachable_pairs, the overlap
search that weighted NMS uses too, so it holds every same-label pair that
can reach the floor. A report makes one search per frame, of the ground
truth against the raw and fused detections together, and splits its pairs
into one table per stream. Each IoU comes from one call of the module global
`bev_iou(gt box, det box)` on Box3Ds built once per frame, raw pairs first,
so a wrapper bound at that name sees every call: the benchmark's per-layer
metrics count them, so clipping all pairs at once with geometry.pair_ious
waits for a benchmark that counts pairs instead. Matching returns index
arrays, and the score ranking, AP events and heading weights, subset
selection and per-track median speed and radius are array operations,
checked to the bit against the frozen per-detection references in
tests/oracles.py and statistics.median. A subset restricts only the
scores, yaws and IoU tables that it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple, Sequence

import numpy as np

from .frames import DetectionColumns, Frame, track_index
from .geometry import bev_iou, normalize_angles, reachable_pairs

#: IoU used to associate detections with a ground-truth subset.
SUBSET_FILTER_IOU = 0.5

STATIONARY_SPEED = 0.1
TURNING_SPEED = 1.0
TURNING_RADIUS = 25.0
STRICT_TURNING_SPEED = 5.0


@dataclass(frozen=True)
class MatchResult:
    """One-to-one frame matching: matched (gt, det, IoU) triples plus leftovers."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_det: tuple[int, ...]


class _Overlaps(NamedTuple):
    """IoU table of one frame at a floor.

    Same-label (detection index, ground-truth index, IoU) triples with
    IoU > 0, sorted by detection index, then ground-truth index: every pair
    with IoU >= the floor, and those below it that the IoU bound could not
    rule out.
    """

    det: np.ndarray
    gt: np.ndarray
    iou: np.ndarray


def _frame_overlaps(gt: DetectionColumns, dets: Sequence[DetectionColumns], floor: float) -> list[_Overlaps]:
    """IoU table of each detection set against one frame's ground truth, from one overlap search.

    The pairs are reachable_pairs of the sets, concatenated in order, against
    gt at the floor, so each table holds every pair of its set with
    IoU >= floor (> 0 at floor 0). The search decides each pair by its two
    boxes alone, so a set's table is the one a search of that set alone gives.
    bev_iou(gt box, det box) is called once per pair, set after set, each in
    table order.
    """
    starts = np.cumsum([0] + [len(det) for det in dets])
    boxes = np.concatenate([det.boxes for det in dets])
    label = np.concatenate([det.label for det in dets])
    det_index, gt_index = reachable_pairs(boxes, label, floor, gt.boxes, gt.label)
    gt_boxes = gt.box_objects()
    det_boxes = [box for det in dets for box in det.box_objects()]
    iou = np.array(
        [bev_iou(gt_boxes[gi], det_boxes[di]) for di, gi in zip(det_index.tolist(), gt_index.tolist())],
        dtype=float,
    )
    hit = iou > 0.0
    det_index, gt_index, iou = det_index[hit], gt_index[hit], iou[hit]
    cuts = np.searchsorted(det_index, starts).tolist()
    return [_Overlaps(det_index[lo:hi] - start, gt_index[lo:hi], iou[lo:hi])
            for start, lo, hi in zip(starts.tolist(), cuts, cuts[1:])]


def _require_aligned(*streams: Sequence[Frame]) -> None:
    """ValueError naming the first frame whose timestamps differ across the streams (None past an end)."""
    for index, stamps in enumerate(zip_longest(*([frame.timestamp for frame in frames] for frames in streams))):
        if len(set(stamps)) > 1:
            raise ValueError(f"sequences must align, frame {index} has timestamps {list(stamps)}")


def _require_iou_threshold(value: float) -> None:
    # zero-IoU pairs are never looked at, so they must never pass the threshold
    if not value >= 0.0:
        raise ValueError(f"IoU threshold must be non-negative, got {value!r}")
    # a match needs an IoU above the threshold, and no IoU exceeds 1
    if not value < 1.0:
        raise ValueError(f"IoU threshold must be below 1, got {value!r}")


def _greedy_match(
    score: np.ndarray, overlaps: _Overlaps, n_gt: int, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """match_frame of detections with these scores against n_gt ground-truth boxes, given their IoU table.

    Returns the matched ground-truth indices, detection indices and IoUs, in
    match order. The caller checks the threshold, and the table's floor is at
    most it.
    """
    bounds = np.searchsorted(overlaps.det, np.arange(len(score) + 1)).tolist()
    gt_index = overlaps.gt.tolist()
    ious = overlaps.iou.tolist()
    taken = [False] * n_gt
    matched = []
    # descending score, ties by input order
    for di in np.argsort(-score, kind="stable").tolist():
        best_k = -1
        best_iou = iou_threshold
        for k in range(bounds[di], bounds[di + 1]):
            if not taken[gt_index[k]] and ious[k] > best_iou:
                best_iou = ious[k]
                best_k = k
        if best_k >= 0:
            taken[gt_index[best_k]] = True
            matched.append(best_k)
    matched = np.array(matched, dtype=np.int64)
    return overlaps.gt[matched], overlaps.det[matched], overlaps.iou[matched]


def match_frame(gt: Frame, det: Frame, iou_threshold: float) -> MatchResult:
    """Greedy one-to-one matching of detections to ground truth in one frame.

    Detections are visited by descending score (ties by input order) and each
    takes the unmatched same-label ground-truth box of highest IoU (ties by
    input order), provided that IoU exceeds the threshold, which must be
    non-negative.
    """
    _require_iou_threshold(iou_threshold)
    gt_cols, det_cols = gt.detections, det.detections
    overlaps = _frame_overlaps(gt_cols, [det_cols], iou_threshold)[0]
    gt_index, det_index, iou = _greedy_match(det_cols.score, overlaps, len(gt_cols), iou_threshold)
    unmatched_gt, unmatched_det = np.ones(len(gt_cols), dtype=bool), np.ones(len(det_cols), dtype=bool)
    unmatched_gt[gt_index] = False
    unmatched_det[det_index] = False
    return MatchResult(tuple(zip(gt_index.tolist(), det_index.tolist(), iou.tolist())),
                       tuple(np.flatnonzero(unmatched_gt).tolist()), tuple(np.flatnonzero(unmatched_det).tolist()))


@dataclass(frozen=True)
class PRCurvePoint:
    threshold: float
    precision: float
    recall: float
    heading_precision: float


@dataclass(frozen=True)
class APResult:
    """Average precision and its heading-weighted analogue over a sequence."""

    ap: float
    aph: float
    curve: tuple[PRCurvePoint, ...]
    n_gt: int


def average_precision(
    gt_frames: Sequence[Frame], det_frames: Sequence[Frame], iou_threshold: float
) -> APResult:
    """Sequence AP / heading-weighted AP at one IoU threshold.

    Frames are matched independently; the ranked (score, hit, heading weight)
    events then form one global precision-recall curve whose all-point
    interpolated area is returned. Raises ValueError when the ground truth is
    empty.
    """
    _require_aligned(gt_frames, det_frames)
    events = []
    for gt, det in zip(gt_frames, det_frames):
        pairs = match_frame(gt, det, iou_threshold).pairs
        det_cols = det.detections
        events.append((det_cols.score, *_frame_events(gt.detections.boxes[:, 6], det_cols.boxes[:, 6],
                                                      [p[0] for p in pairs], [p[1] for p in pairs])))
    return _average_precision(sum(len(gt.detections) for gt in gt_frames), events, with_curve=True)


def _frame_events(gt_yaw: np.ndarray, det_yaw: np.ndarray, gt_index, det_index) -> tuple[np.ndarray, np.ndarray]:
    """Hit mask and heading weight of every detection of a frame, given the yaws and its matched index pairs.

    A hit weighs max(0, 1 - |yaw error| / pi), a miss 0.
    """
    hit = np.zeros(len(det_yaw), dtype=bool)
    weight = np.zeros(len(det_yaw))
    if len(det_index):
        left = 1.0 - np.abs(normalize_angles(det_yaw[det_index] - gt_yaw[gt_index])) / math.pi
        hit[det_index] = True
        weight[det_index] = np.where(left > 0.0, left, 0.0)
    return hit, weight


def _average_precision(
    n_gt: int, events: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], with_curve: bool
) -> APResult:
    """AP / heading-weighted AP of n_gt ground-truth boxes, from each frame's detection events.

    A frame's events are the score, hit mask and heading weight of each of
    its detections. The precision-recall curve is built only when with_curve
    is set, and is empty otherwise.
    """
    if n_gt == 0:
        raise ValueError("no ground-truth boxes to evaluate against")
    # ground truth is there, so there are frames
    score, hit, weight = (np.concatenate(column) for column in zip(*events))
    if len(score) == 0:
        return APResult(0.0, 0.0, (), n_gt)
    # descending score, ties in frame and detection order
    order = np.argsort(-score, kind="stable")
    tp = hit[order].astype(float)
    hw = weight[order]
    ranks = np.arange(1, len(score) + 1, dtype=float)
    cum_tp = np.cumsum(tp)
    precision = cum_tp / ranks
    heading_precision = np.cumsum(hw) / ranks
    recall = cum_tp / n_gt
    p_env = np.maximum.accumulate(precision[::-1])[::-1]
    h_env = np.maximum.accumulate(heading_precision[::-1])[::-1]
    d_recall = np.diff(np.concatenate(([0.0], recall)))
    ap = float(np.sum(d_recall * p_env))
    aph = float(np.sum(d_recall * h_env))
    curve = ()
    if with_curve:
        curve = tuple(map(PRCurvePoint, score[order].tolist(), precision.tolist(), recall.tolist(),
                          heading_precision.tolist()))
    return APResult(ap, aph, curve, n_gt)


def _medians(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """statistics.median of the values of each group 0 .. n_groups - 1, with its bits.

    Every group must hold a value. As statistics.median does, an odd count
    takes the middle of the sorted values and an even count (a + b) / 2 of
    the two middle ones.
    """
    values = values[np.lexsort((values, group))]
    count = np.bincount(group, minlength=n_groups)
    start = np.cumsum(count) - count
    upper = values[start + count // 2]
    lower = values[start + (count - 1) // 2]
    with np.errstate(over="ignore"):
        return np.where(count % 2 == 1, upper, (lower + upper) / 2)


def _track_motion_summary(gt_frames: Sequence[Frame]) -> dict[int, tuple[float, float]]:
    """Median speed and turning radius of each track's motion, tracks in order of first appearance."""
    ids, track = track_index(gt_frames)
    if not ids:
        return {}
    speeds, radii = [], []
    for frame in gt_frames:
        cols = frame.detections
        speed, radius = np.empty(len(cols)), np.empty(len(cols))
        for kind, rows in cols.groups():
            speed[rows], radius[rows] = kind.speed_radius_columns(cols.params_of(kind, rows))
        speeds.append(speed)
        radii.append(radius)
    medians = (_medians(track, np.concatenate(values), len(ids)).tolist() for values in (speeds, radii))
    return dict(zip(ids, zip(*medians)))


def split_motion_state(gt_frames: Sequence[Frame]) -> dict[int, str]:
    """Label every ground-truth vehicle stationary, straight or turning.

    Uses the per-track median speed and turning radius of the attached motion
    parameters. Every vehicle receives exactly one label.
    """
    labels = {}
    for tid, (speed, radius) in _track_motion_summary(gt_frames).items():
        if speed < STATIONARY_SPEED:
            labels[tid] = "stationary"
        elif speed > TURNING_SPEED and radius < TURNING_RADIUS:
            labels[tid] = "turning"
        else:
            labels[tid] = "straight"
    return labels


def strict_turning_tracks(gt_frames: Sequence[Frame]) -> set[int]:
    """Tracks satisfying the strict turning predicate: speed > 5 m/s, radius < 25 m."""
    return {
        tid
        for tid, (speed, radius) in _track_motion_summary(gt_frames).items()
        if speed > STRICT_TURNING_SPEED and radius < TURNING_RADIUS
    }


def _in_tracks(cols: DetectionColumns, track_ids: set[int]) -> np.ndarray:
    """Mask of the rows whose track is one of track_ids."""
    return np.array([tid in track_ids for tid in cols.track_id.tolist()], dtype=bool)


def gt_subset(gt_frames: Sequence[Frame], track_ids: set[int]) -> list[Frame]:
    """Ground truth restricted to the given tracks (frames and egos preserved)."""
    return [Frame(frame.timestamp, frame.ego, frame.detections.take(_in_tracks(frame.detections, track_ids)))
            for frame in gt_frames]


def filter_detections_to_subset(
    det_frames: Sequence[Frame],
    subset_gt: Sequence[Frame],
    min_iou: float = SUBSET_FILTER_IOU,
) -> list[Frame]:
    """Keep detections overlapping some subset ground-truth box with IoU > min_iou (>= 0)."""
    _require_iou_threshold(min_iou)
    _require_aligned(det_frames, subset_gt)
    out = []
    for det, gt in zip(det_frames, subset_gt):
        cols = det.detections
        overlaps = _frame_overlaps(gt.detections, [cols], min_iou)[0]
        keep = _overlapping(len(cols), overlaps, overlaps.iou > min_iou)
        out.append(Frame(det.timestamp, det.ego, cols.take(keep)))
    return out


def _overlapping(n_det: int, overlaps: _Overlaps, pair_mask: np.ndarray) -> np.ndarray:
    """Mask of the n_det detections that have at least one pair selected by pair_mask."""
    keep = np.zeros(n_det, dtype=bool)
    keep[overlaps.det[pair_mask]] = True
    return keep


def _subset_table(n_det: int, overlaps: _Overlaps, in_subset: np.ndarray) -> tuple[np.ndarray, _Overlaps]:
    """Which of a frame's n_det detections a ground-truth subset keeps, and the IoU table restricted to it.

    in_subset is the frame's mask of the subset's ground-truth rows.
    Detections are kept as by filter_detections_to_subset. The table holds
    the pairs of kept detections with subset rows; its detection indices are
    renumbered among the kept detections, its ground-truth indices are not.
    """
    pair_in_subset = in_subset[overlaps.gt]
    keep = _overlapping(n_det, overlaps, pair_in_subset & (overlaps.iou > SUBSET_FILTER_IOU))
    pair_kept = pair_in_subset & keep[overlaps.det]
    # a kept row's new index is the number of kept rows before it
    table = _Overlaps((np.cumsum(keep) - 1)[overlaps.det[pair_kept]], overlaps.gt[pair_kept], overlaps.iou[pair_kept])
    return keep, table


def _sequence_ap(
    gt_yaws: Sequence[np.ndarray],
    dets: Sequence[DetectionColumns],
    tables: Sequence[_Overlaps],
    in_subset: Sequence[np.ndarray] | None,
    iou_threshold: float,
) -> tuple[int, float, float]:
    """(n_gt, AP, APH) of a sequence from each frame's ground-truth yaws, detections and IoU table.

    in_subset None means every box. Otherwise it holds each frame's mask of a
    ground-truth subset, and the detections' scores, yaws and tables are
    restricted to the subset here.
    """
    n_gt = sum(map(len, gt_yaws)) if in_subset is None else sum(int(np.count_nonzero(mask)) for mask in in_subset)
    events = []
    for frame, (gt_yaw, det, table) in enumerate(zip(gt_yaws, dets, tables)):
        score, yaw = det.score, det.boxes[:, 6]
        if in_subset is not None:
            keep, table = _subset_table(len(score), table, in_subset[frame])
            score, yaw = score[keep], yaw[keep]
        gt_index, det_index, _ = _greedy_match(score, table, len(gt_yaw), iou_threshold)
        events.append((score, *_frame_events(gt_yaw, yaw, gt_index, det_index)))
    result = _average_precision(n_gt, events, with_curve=False)
    return n_gt, result.ap, result.aph


@dataclass(frozen=True)
class SubsetMetrics:
    subset: str
    n_gt: int
    ap_raw: float
    ap_fused: float
    aph_raw: float
    aph_fused: float

    @property
    def delta_ap(self) -> float:
        return self.ap_fused - self.ap_raw

    @property
    def delta_aph(self) -> float:
        return self.aph_fused - self.aph_raw


@dataclass(frozen=True)
class EnhancementReport:
    """Before/after metric table across motion-state subsets."""

    iou_threshold: float
    rows: tuple[SubsetMetrics, ...]
    notes: tuple[str, ...]

    def csv_rows(self) -> list[tuple[str, str, float, float, float]]:
        rows = []
        for r in self.rows:
            rows.append((r.subset, "AP", r.ap_raw, r.ap_fused, r.delta_ap))
            rows.append((r.subset, "APH", r.aph_raw, r.aph_fused, r.delta_aph))
        return rows

    def to_text(self) -> str:
        lines = [f"detection enhancement at IoU {self.iou_threshold:g}"]
        lines += [f"# {note}" for note in self.notes]
        header = f"{'subset':<12} {'n_gt':>6} {'AP raw':>9} {'AP fused':>9} {'dAP':>8} {'APH raw':>9} {'APH fused':>10} {'dAPH':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            lines.append(
                f"{r.subset:<12} {r.n_gt:>6} {r.ap_raw:>9.4f} {r.ap_fused:>9.4f} "
                f"{r.delta_ap:>+8.4f} {r.aph_raw:>9.4f} {r.aph_fused:>10.4f} {r.delta_aph:>+8.4f}"
            )
        return "\n".join(lines)


_REPORT_NOTES = (
    "subset rows evaluate detections pre-filtered to the subset ground truth "
    f"(IoU > {SUBSET_FILTER_IOU:g}); non-matching detections are excluded, not counted as FP",
    "APH is a heading-weighted analogue (TP weight 1 - |yaw error|/pi), "
    "not comparable to official benchmark tooling",
)


def evaluate_enhancement(
    gt_frames: Sequence[Frame],
    raw_frames: Sequence[Frame],
    fused_frames: Sequence[Frame],
    iou_threshold: float = 0.5,
) -> EnhancementReport:
    """AP / heading-weighted AP over {all, stationary, straight, turning}, raw vs fused.

    Subsets with no ground-truth vehicles are omitted from the table; ground
    truth with no boxes raises ValueError, as average_precision does.
    """
    _require_iou_threshold(iou_threshold)
    _require_aligned(gt_frames, raw_frames, fused_frames)
    labels = split_motion_state(gt_frames)
    gts, raws, fuseds = ([frame.detections for frame in frames] for frames in (gt_frames, raw_frames, fused_frames))
    # one overlap search per frame serves both streams, the all row and every
    # subset, so its tables hold the pairs that the matching and the subset
    # filter can read
    floor = min(iou_threshold, SUBSET_FILTER_IOU)
    tables = [_frame_overlaps(gt, [raw, fused], floor) for gt, raw, fused in zip(gts, raws, fuseds)]
    raw_tables, fused_tables = [table[0] for table in tables], [table[1] for table in tables]
    gt_yaws = [gt.boxes[:, 6] for gt in gts]
    rows = []
    for name in ("all", "stationary", "straight", "turning"):
        ids = set(labels) if name == "all" else {t for t, lab in labels.items() if lab == name}
        if not ids and name != "all":
            continue
        in_subset = None if name == "all" else [_in_tracks(gt, ids) for gt in gts]
        n_gt, ap_raw, aph_raw = _sequence_ap(gt_yaws, raws, raw_tables, in_subset, iou_threshold)
        _, ap_fused, aph_fused = _sequence_ap(gt_yaws, fuseds, fused_tables, in_subset, iou_threshold)
        rows.append(SubsetMetrics(name, n_gt, ap_raw, ap_fused, aph_raw, aph_fused))
    return EnhancementReport(iou_threshold, tuple(rows), _REPORT_NOTES)
