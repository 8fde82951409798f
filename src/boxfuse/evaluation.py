"""Detection metrics: greedy IoU matching, average precision, motion-state splits.

AP follows the usual single-class protocol: detections are ranked by score
across the whole sequence, matched greedily per frame, and the area under the
interpolated precision-recall curve is accumulated over all points. The
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fusion import Frame
from .geometry import bev_iou, candidate_pairs, circumradius, normalize_angle

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
    """IoU table of one frame.

    Every same-label (detection index, ground-truth index, IoU) with IoU > 0,
    sorted by detection index, then ground-truth index.
    """

    det: np.ndarray
    gt: np.ndarray
    iou: np.ndarray


def _frame_overlaps(gt: Frame, det: Frame) -> _Overlaps:
    """IoU table of one frame, computing bev_iou(gt, det) only on candidate pairs."""
    gts = gt.detections
    dets = det.detections
    det_index, gt_index = candidate_pairs(
        [d.box.x for d in dets], [d.box.y for d in dets], [circumradius(d.box) for d in dets],
        [g.box.x for g in gts], [g.box.y for g in gts], [circumradius(g.box) for g in gts],
    )
    kept = []
    ious = []
    for k, (di, gi) in enumerate(zip(det_index.tolist(), gt_index.tolist())):
        g = gts[gi]
        d = dets[di]
        if g.label == d.label:
            iou = bev_iou(g.box, d.box)
            if iou > 0.0:
                kept.append(k)
                ious.append(iou)
    return _Overlaps(det_index[kept], gt_index[kept], np.array(ious, dtype=float))


def _require_iou_threshold(value: float) -> None:
    # zero-IoU pairs are never looked at, so they must never pass the threshold
    if not value >= 0.0:
        raise ValueError(f"IoU threshold must be non-negative, got {value!r}")


def _greedy_match(det: Frame, overlaps: _Overlaps, n_gt: int, iou_threshold: float) -> MatchResult:
    """match_frame of a frame with n_gt ground-truth boxes, given its IoU table."""
    _require_iou_threshold(iou_threshold)
    order = sorted(range(len(det.detections)), key=lambda i: (-det.detections[i].score, i))
    bounds = np.searchsorted(overlaps.det, np.arange(len(det.detections) + 1)).tolist()
    gt_index = overlaps.gt.tolist()
    ious = overlaps.iou.tolist()
    taken = [False] * n_gt
    pairs = []
    unmatched_det = []
    for di in order:
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
    return _greedy_match(det, _frame_overlaps(gt, det), len(gt.detections), iou_threshold)


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
    if len(gt_frames) != len(det_frames):
        raise ValueError("ground-truth and detection sequences must align")
    matches = (match_frame(gt, det, iou_threshold) for gt, det in zip(gt_frames, det_frames))
    return _average_precision(gt_frames, det_frames, matches)


def _average_precision(
    gt_frames: Sequence[Frame], det_frames: Sequence[Frame], matches: Iterable[MatchResult]
) -> APResult:
    """AP / heading-weighted AP of aligned frames from their per-frame matches."""
    n_gt = sum(len(f.detections) for f in gt_frames)
    if n_gt == 0:
        raise ValueError("no ground-truth boxes to evaluate against")
    events: list[tuple[float, bool, float]] = []
    for gt, det, result in zip(gt_frames, det_frames, matches):
        hit = {di: gi for gi, di, _ in result.pairs}
        for di, d in enumerate(det.detections):
            gi = hit.get(di)
            if gi is None:
                events.append((d.score, False, 0.0))
            else:
                err = abs(normalize_angle(d.box.yaw - gt.detections[gi].box.yaw))
                events.append((d.score, True, max(0.0, 1.0 - err / math.pi)))
    if not events:
        return APResult(0.0, 0.0, (), n_gt)
    events.sort(key=lambda e: -e[0])
    scores = np.array([e[0] for e in events])
    tp = np.array([e[1] for e in events], dtype=float)
    hw = np.array([e[2] for e in events])
    ranks = np.arange(1, len(events) + 1, dtype=float)
    cum_tp = np.cumsum(tp)
    precision = cum_tp / ranks
    heading_precision = np.cumsum(hw) / ranks
    recall = cum_tp / n_gt
    p_env = np.maximum.accumulate(precision[::-1])[::-1]
    h_env = np.maximum.accumulate(heading_precision[::-1])[::-1]
    d_recall = np.diff(np.concatenate(([0.0], recall)))
    ap = float(np.sum(d_recall * p_env))
    aph = float(np.sum(d_recall * h_env))
    curve = tuple(
        PRCurvePoint(float(s), float(p), float(r), float(hp))
        for s, p, r, hp in zip(scores, precision, recall, heading_precision)
    )
    return APResult(ap, aph, curve, n_gt)


def _track_motion_summary(gt_frames: Iterable[Frame]) -> dict[int, tuple[float, float]]:
    speeds: dict[int, list[float]] = {}
    radii: dict[int, list[float]] = {}
    for frame in gt_frames:
        for det in frame.detections:
            if det.track_id is None:
                raise ValueError("motion-state splits need track ids on ground truth")
            v, r = det.motion.speed_radius()
            speeds.setdefault(det.track_id, []).append(v)
            radii.setdefault(det.track_id, []).append(r)
    return {tid: (median(speeds[tid]), median(radii[tid])) for tid in speeds}


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


def gt_subset(gt_frames: Sequence[Frame], track_ids: set[int]) -> list[Frame]:
    """Ground truth restricted to the given tracks (frames and egos preserved)."""
    return [
        Frame(f.timestamp, f.ego, [d for d in f.detections if d.track_id in track_ids])
        for f in gt_frames
    ]


def filter_detections_to_subset(
    det_frames: Sequence[Frame],
    subset_gt: Sequence[Frame],
    min_iou: float = SUBSET_FILTER_IOU,
) -> list[Frame]:
    """Keep detections overlapping some subset ground-truth box with IoU > min_iou (>= 0)."""
    _require_iou_threshold(min_iou)
    out = []
    for det, gt in zip(det_frames, subset_gt):
        overlaps = _frame_overlaps(gt, det)
        keep = _overlapping(len(det.detections), overlaps, overlaps.iou > min_iou)
        out.append(Frame(det.timestamp, det.ego, _select(det.detections, keep)))
    return out


def _overlapping(n_det: int, overlaps: _Overlaps, pair_mask: np.ndarray) -> np.ndarray:
    """Mask of the n_det detections that have at least one pair selected by pair_mask."""
    keep = np.zeros(n_det, dtype=bool)
    keep[overlaps.det[pair_mask]] = True
    return keep


def _select(items: list, mask: np.ndarray) -> list:
    return [item for item, keep in zip(items, mask.tolist()) if keep]


def _subset_frame(
    gt: Frame, det: Frame, overlaps: _Overlaps, track_ids: set[int]
) -> tuple[Frame, Frame, _Overlaps]:
    """One frame restricted to a ground-truth subset, read from the full frame's IoU table.

    The subset ground truth keeps the full frame's boxes of those tracks in
    their order; detections are filtered as by filter_detections_to_subset,
    and the returned table is re-indexed to the subset frames.
    """
    in_subset = np.array([g.track_id in track_ids for g in gt.detections], dtype=bool)
    pair_in_subset = in_subset[overlaps.gt]
    matched = pair_in_subset & (overlaps.iou > SUBSET_FILTER_IOU)
    keep = _overlapping(len(det.detections), overlaps, matched)
    pair_kept = pair_in_subset & keep[overlaps.det]
    # a kept row's new index is the number of kept rows before it
    table = _Overlaps(
        (np.cumsum(keep) - 1)[overlaps.det[pair_kept]],
        (np.cumsum(in_subset) - 1)[overlaps.gt[pair_kept]],
        overlaps.iou[pair_kept],
    )
    sub_gt = Frame(gt.timestamp, gt.ego, _select(gt.detections, in_subset))
    return sub_gt, Frame(det.timestamp, det.ego, _select(det.detections, keep)), table


def _sequence_ap(
    gt_frames: Sequence[Frame],
    det_frames: Sequence[Frame],
    tables: Sequence[_Overlaps],
    track_ids: set[int] | None,
    iou_threshold: float,
) -> tuple[int, float, float]:
    """(n_gt, AP, APH) of a sequence from its per-frame IoU tables.

    track_ids None means every box; otherwise frames are restricted to that
    ground-truth subset. The precision-recall curve is dropped here, so a
    report holds at most one at a time.
    """
    if track_ids is not None:
        gt_frames, det_frames, tables = zip(
            *(_subset_frame(*frame, track_ids) for frame in zip(gt_frames, det_frames, tables))
        )
    matches = (
        _greedy_match(det, table, len(gt.detections), iou_threshold)
        for gt, det, table in zip(gt_frames, det_frames, tables)
    )
    result = _average_precision(gt_frames, det_frames, matches)
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

    Subsets with no ground-truth vehicles are omitted from the table.
    """
    if not (len(gt_frames) == len(raw_frames) == len(fused_frames)):
        raise ValueError("sequences must align")
    labels = split_motion_state(gt_frames)
    # one IoU table per frame and stream serves the all row and every subset
    raw_tables = [_frame_overlaps(gt, det) for gt, det in zip(gt_frames, raw_frames)]
    fused_tables = [_frame_overlaps(gt, det) for gt, det in zip(gt_frames, fused_frames)]
    all_ids = set(labels)
    rows = []
    for name in ("all", "stationary", "straight", "turning"):
        ids = all_ids if name == "all" else {t for t, lab in labels.items() if lab == name}
        if not ids:
            continue
        subset = None if name == "all" else ids
        n_gt, ap_raw, aph_raw = _sequence_ap(gt_frames, raw_frames, raw_tables, subset, iou_threshold)
        _, ap_fused, aph_fused = _sequence_ap(
            gt_frames, fused_frames, fused_tables, subset, iou_threshold
        )
        rows.append(SubsetMetrics(name, n_gt, ap_raw, ap_fused, aph_raw, aph_fused))
    return EnhancementReport(iou_threshold, tuple(rows), _REPORT_NOTES)
