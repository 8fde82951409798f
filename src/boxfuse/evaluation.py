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
filter's IoU. Its pairs are the same-label candidate pairs
(geometry.candidate_pairs on box centres and circumradii) that the IoU bound
geometry.iou_can_reach keeps at that floor, so it holds every pair that can
reach the floor. Each IoU comes from one call of the module global
`bev_iou(gt box, det box)` on Box3Ds built once per frame, so a wrapper bound
at that name sees every call. The score ranking, AP events and heading
weights, subset selection and per-track median speed and radius are array
operations, checked to the bit against the frozen per-detection references
in tests/oracles.py and statistics.median. The IoU itself stays the scalar
`bev_iou`, one call per kept pair, because the benchmark's per-layer metrics
count those calls; clipping all pairs at once with geometry.clipped_iou
waits for a benchmark that counts pairs instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .frames import DetectionColumns, Frame, track_index
from .geometry import (Box3D, Footprints, bev_iou, candidate_pairs, circumradius_columns, iou_can_reach,
                       normalize_angles)

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


def _circles(cols: DetectionColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centre x, centre y and circumradius of every box."""
    boxes = cols.boxes
    return boxes[:, 0], boxes[:, 1], circumradius_columns(boxes[:, 3], boxes[:, 4])


def _frame_overlaps(
    gt: DetectionColumns, det: DetectionColumns, floor: float, gt_boxes: list[Box3D] | None = None
) -> _Overlaps:
    """IoU table of one frame, calling bev_iou(gt box, det box) once per same-label candidate pair it keeps.

    A pair is kept unless geometry.iou_can_reach proves its IoU below the
    floor, so the table holds every pair with IoU >= floor, and at a floor of
    0 every pair. The calls go in table order. gt_boxes are gt's Box3Ds when
    the caller has built them already.
    """
    gt_circles, det_circles = _circles(gt), _circles(det)
    det_index, gt_index = candidate_pairs(*det_circles, *gt_circles)
    keep = det.label[det_index] == gt.label[gt_index]
    gt_footprints = Footprints.of(gt.boxes, gt_circles[2]).take(gt_index[keep])
    det_footprints = Footprints.of(det.boxes, det_circles[2]).take(det_index[keep])
    keep[keep] = iou_can_reach(gt_footprints, det_footprints, floor)
    det_index, gt_index = det_index[keep], gt_index[keep]
    if gt_boxes is None:
        gt_boxes = gt.box_objects()
    det_boxes = det.box_objects()
    iou = np.array(
        [bev_iou(gt_boxes[gi], det_boxes[di]) for di, gi in zip(det_index.tolist(), gt_index.tolist())],
        dtype=float,
    )
    hit = iou > 0.0
    return _Overlaps(det_index[hit], gt_index[hit], iou[hit])


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


def _greedy_match(score: np.ndarray, overlaps: _Overlaps, n_gt: int, iou_threshold: float) -> MatchResult:
    """match_frame of detections with these scores against n_gt ground-truth boxes, given their IoU table.

    The caller checks the threshold, and the table's floor is at most it.
    """
    bounds = np.searchsorted(overlaps.det, np.arange(len(score) + 1)).tolist()
    gt_index = overlaps.gt.tolist()
    ious = overlaps.iou.tolist()
    taken = [False] * n_gt
    pairs = []
    unmatched_det = []
    # descending score, ties by input order
    for di in np.argsort(-score, kind="stable").tolist():
        best_gi = -1
        best_iou = iou_threshold
        for k in range(bounds[di], bounds[di + 1]):
            gi = gt_index[k]
            if not taken[gi] and ious[k] > best_iou:
                best_iou = ious[k]
                best_gi = gi
        if best_gi >= 0:
            taken[best_gi] = True
            pairs.append((best_gi, di, best_iou))
        else:
            unmatched_det.append(di)
    unmatched_gt = tuple(i for i, used in enumerate(taken) if not used)
    return MatchResult(tuple(pairs), unmatched_gt, tuple(sorted(unmatched_det)))


def match_frame(gt: Frame, det: Frame, iou_threshold: float) -> MatchResult:
    """Greedy one-to-one matching of detections to ground truth in one frame.

    Detections are visited by descending score (ties by input order) and each
    takes the unmatched same-label ground-truth box of highest IoU (ties by
    input order), provided that IoU exceeds the threshold, which must be
    non-negative.
    """
    _require_iou_threshold(iou_threshold)
    gt_cols, det_cols = gt.detections, det.detections
    overlaps = _frame_overlaps(gt_cols, det_cols, iou_threshold)
    return _greedy_match(det_cols.score, overlaps, len(gt_cols), iou_threshold)


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
    matches = (match_frame(gt, det, iou_threshold) for gt, det in zip(gt_frames, det_frames))
    return _average_precision([gt.detections for gt in gt_frames], [det.detections for det in det_frames],
                              matches, with_curve=True)


def _frame_events(
    gt: DetectionColumns, det: DetectionColumns, result: MatchResult
) -> tuple[np.ndarray, np.ndarray]:
    """Hit mask and heading weight of every detection of a frame, from its matches.

    A hit weighs max(0, 1 - |yaw error| / pi), a miss 0.
    """
    hit = np.zeros(len(det), dtype=bool)
    weight = np.zeros(len(det))
    if result.pairs:
        gi, di, _ = (np.array(column) for column in zip(*result.pairs))
        left = 1.0 - np.abs(normalize_angles(det.boxes[di, 6] - gt.boxes[gi, 6])) / math.pi
        hit[di] = True
        weight[di] = np.where(left > 0.0, left, 0.0)
    return hit, weight


def _average_precision(
    gts: Sequence[DetectionColumns],
    dets: Sequence[DetectionColumns],
    matches: Iterable[MatchResult],
    with_curve: bool,
) -> APResult:
    """AP / heading-weighted AP of aligned frames from their per-frame matches.

    The precision-recall curve is built only when with_curve is set, and is
    empty otherwise.
    """
    n_gt = sum(map(len, gts))
    if n_gt == 0:
        raise ValueError("no ground-truth boxes to evaluate against")
    hits, weights = zip(*map(_frame_events, gts, dets, matches))
    score = np.concatenate([det.score for det in dets])
    if len(score) == 0:
        return APResult(0.0, 0.0, (), n_gt)
    # descending score, ties in frame and detection order
    order = np.argsort(-score, kind="stable")
    tp = np.concatenate(hits)[order].astype(float)
    hw = np.concatenate(weights)[order]
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
        overlaps = _frame_overlaps(gt.detections, cols, min_iou)
        keep = _overlapping(len(cols), overlaps, overlaps.iou > min_iou)
        out.append(Frame(det.timestamp, det.ego, cols.take(keep)))
    return out


def _overlapping(n_det: int, overlaps: _Overlaps, pair_mask: np.ndarray) -> np.ndarray:
    """Mask of the n_det detections that have at least one pair selected by pair_mask."""
    keep = np.zeros(n_det, dtype=bool)
    keep[overlaps.det[pair_mask]] = True
    return keep


def _subset_detections(
    det: DetectionColumns, overlaps: _Overlaps, in_subset: np.ndarray
) -> tuple[DetectionColumns, _Overlaps]:
    """One frame's detections and IoU table restricted to the ground-truth rows in_subset.

    Detections are filtered as by filter_detections_to_subset, and the table
    is re-indexed to the kept detections and the subset's ground-truth rows,
    which keep their order.
    """
    pair_in_subset = in_subset[overlaps.gt]
    matched = pair_in_subset & (overlaps.iou > SUBSET_FILTER_IOU)
    keep = _overlapping(len(det), overlaps, matched)
    pair_kept = pair_in_subset & keep[overlaps.det]
    # a kept row's new index is the number of kept rows before it
    table = _Overlaps(
        (np.cumsum(keep) - 1)[overlaps.det[pair_kept]],
        (np.cumsum(in_subset) - 1)[overlaps.gt[pair_kept]],
        overlaps.iou[pair_kept],
    )
    return det.take(keep), table


def _sequence_ap(
    gts: Sequence[DetectionColumns],
    dets: Sequence[DetectionColumns],
    tables: Sequence[_Overlaps],
    in_subset: Sequence[np.ndarray] | None,
    iou_threshold: float,
) -> tuple[int, float, float]:
    """(n_gt, AP, APH) of a sequence from its per-frame IoU tables.

    in_subset None means every box. Otherwise gts are already restricted to
    a ground-truth subset, in_subset holds each full frame's mask of it, and
    detections and tables are restricted here.
    """
    if in_subset is not None:
        dets, tables = zip(*map(_subset_detections, dets, tables, in_subset))
    matches = (
        _greedy_match(det.score, table, len(gt), iou_threshold) for gt, det, table in zip(gts, dets, tables)
    )
    result = _average_precision(gts, dets, matches, with_curve=False)
    return result.n_gt, result.ap, result.aph


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
    # one IoU table per frame and stream serves the all row and every subset,
    # so it holds the pairs that the matching and the subset filter can read;
    # a frame's ground-truth boxes are built once for both streams
    floor = min(iou_threshold, SUBSET_FILTER_IOU)
    raw_tables, fused_tables = [], []
    for gt, raw, fused in zip(gts, raws, fuseds):
        boxes = gt.box_objects()
        raw_tables.append(_frame_overlaps(gt, raw, floor, boxes))
        fused_tables.append(_frame_overlaps(gt, fused, floor, boxes))
    rows = []
    for name in ("all", "stationary", "straight", "turning"):
        ids = set(labels) if name == "all" else {t for t, lab in labels.items() if lab == name}
        if not ids and name != "all":
            continue
        sub_gts, in_subset = gts, None
        if name != "all":
            in_subset = [_in_tracks(gt, ids) for gt in gts]
            sub_gts = list(map(DetectionColumns.take, gts, in_subset))
        n_gt, ap_raw, aph_raw = _sequence_ap(sub_gts, raws, raw_tables, in_subset, iou_threshold)
        _, ap_fused, aph_fused = _sequence_ap(sub_gts, fuseds, fused_tables, in_subset, iou_threshold)
        rows.append(SubsetMetrics(name, n_gt, ap_raw, ap_fused, aph_raw, aph_fused))
    return EnhancementReport(iou_threshold, tuple(rows), _REPORT_NOTES)
