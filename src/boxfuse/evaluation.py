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
from typing import Iterable, Sequence

import numpy as np

from .fusion import Frame
from .geometry import bev_iou, normalize_angle

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


def match_frame(gt: Frame, det: Frame, iou_threshold: float) -> MatchResult:
    """Greedy one-to-one matching of detections to ground truth in one frame.

    Detections are visited by descending score (ties by input order) and each
    takes the unmatched same-label ground-truth box of highest IoU, provided
    that IoU exceeds the threshold.
    """
    order = sorted(range(len(det.detections)), key=lambda i: (-det.detections[i].score, i))
    taken = [False] * len(gt.detections)
    pairs = []
    unmatched_det = []
    for di in order:
        d = det.detections[di]
        best_gi = -1
        best_iou = iou_threshold
        for gi, g in enumerate(gt.detections):
            if taken[gi] or g.label != d.label:
                continue
            iou = bev_iou(g.box, d.box)
            if iou > best_iou:
                best_iou = iou
                best_gi = gi
        if best_gi >= 0:
            taken[best_gi] = True
            pairs.append((best_gi, di, best_iou))
        else:
            unmatched_det.append(di)
    unmatched_gt = tuple(i for i, used in enumerate(taken) if not used)
    return MatchResult(tuple(pairs), unmatched_gt, tuple(sorted(unmatched_det)))


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
    n_gt = sum(len(f.detections) for f in gt_frames)
    if n_gt == 0:
        raise ValueError("no ground-truth boxes to evaluate against")
    events: list[tuple[float, bool, float]] = []
    for gt, det in zip(gt_frames, det_frames):
        result = match_frame(gt, det, iou_threshold)
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
    """Keep detections overlapping some subset ground-truth box with IoU > min_iou."""
    out = []
    for det, gt in zip(det_frames, subset_gt):
        kept = []
        for d in det.detections:
            for g in gt.detections:
                if g.label == d.label and bev_iou(g.box, d.box) > min_iou:
                    kept.append(d)
                    break
        out.append(Frame(det.timestamp, det.ego, kept))
    return out


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
    all_ids = set(labels)
    rows = []
    for name in ("all", "stationary", "straight", "turning"):
        ids = all_ids if name == "all" else {t for t, lab in labels.items() if lab == name}
        if not ids:
            continue
        sub_gt = gt_subset(gt_frames, ids)
        if name == "all":
            sub_raw: Sequence[Frame] = raw_frames
            sub_fused: Sequence[Frame] = fused_frames
        else:
            sub_raw = filter_detections_to_subset(raw_frames, sub_gt)
            sub_fused = filter_detections_to_subset(fused_frames, sub_gt)
        raw_res = average_precision(sub_gt, sub_raw, iou_threshold)
        fused_res = average_precision(sub_gt, sub_fused, iou_threshold)
        rows.append(
            SubsetMetrics(name, raw_res.n_gt, raw_res.ap, fused_res.ap, raw_res.aph, fused_res.aph)
        )
    return EnhancementReport(iou_threshold, tuple(rows), _REPORT_NOTES)
