"""Independent reference implementations used as test oracles.

Everything here is deliberately dumb and quadratic: the Monte-Carlo IoU
estimator, a brute-force weighted NMS that rescans the pool with bev_iou for
every seed, brute-force circle-overlap pairs, the all-pairs frame matcher,
subset filter and per-seed NMS distance scan that evaluation and fusion used
before their candidate-pair search (kept verbatim), and an O(n^2)
precision-recall enumeration for AP. The averaging
and bookkeeping logic is re-written from the contract, not shared with the
package internals.
"""

from __future__ import annotations

import math

import numpy as np

from boxfuse import Bicycle, ConstantVelocity, Detection, Frame, Unicycle, bev_iou, normalize_angle
from boxfuse.evaluation import SUBSET_FILTER_IOU, MatchResult
from boxfuse.fusion import _fuse_cluster
from boxfuse.geometry import Box3D, _corners, _iou_from_corners


def shoelace(points) -> float:
    total = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * abs(total)


def points_in_box(xs: np.ndarray, ys: np.ndarray, box: Box3D) -> np.ndarray:
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    dx = xs - box.x
    dy = ys - box.y
    along = c * dx + s * dy
    across = -s * dx + c * dy
    return (np.abs(along) <= box.l / 2) & (np.abs(across) <= box.w / 2)


def monte_carlo_iou(a: Box3D, b: Box3D, n: int = 1_000_000, seed: int = 0) -> float:
    """IoU estimated by uniform point sampling over the joint bounding box."""
    rng = np.random.default_rng(seed)
    all_x = []
    all_y = []
    for box in (a, b):
        r = 0.5 * math.hypot(box.w, box.l)
        all_x += [box.x - r, box.x + r]
        all_y += [box.y - r, box.y + r]
    xs = rng.uniform(min(all_x), max(all_x), n)
    ys = rng.uniform(min(all_y), max(all_y), n)
    in_a = points_in_box(xs, ys, a)
    in_b = points_in_box(xs, ys, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def _wavg(pairs) -> float:
    num = 0.0
    den = 0.0
    for weight, value in pairs:
        num += weight * value
        den += weight
    return num / den


def _fuse_members_reference(members: list[Detection]) -> Detection:
    seed = members[0]
    if len(members) == 1:
        return seed
    weights = [d.weight for d in members]
    if sum(weights) <= 0.0:
        weights = [1.0] * len(members)
    yaw = normalize_angle(
        seed.box.yaw
        + _wavg([(w, normalize_angle(d.box.yaw - seed.box.yaw)) for w, d in zip(weights, members)])
    )
    box = Box3D(
        _wavg([(w, d.box.x) for w, d in zip(weights, members)]),
        _wavg([(w, d.box.y) for w, d in zip(weights, members)]),
        _wavg([(w, d.box.z) for w, d in zip(weights, members)]),
        _wavg([(w, d.box.w) for w, d in zip(weights, members)]),
        _wavg([(w, d.box.l) for w, d in zip(weights, members)]),
        _wavg([(w, d.box.h) for w, d in zip(weights, members)]),
        yaw,
    )
    first = seed.motion
    if isinstance(first, ConstantVelocity):
        motion = ConstantVelocity(
            _wavg([(w, d.motion.vx) for w, d in zip(weights, members)]),
            _wavg([(w, d.motion.vy) for w, d in zip(weights, members)]),
        )
    elif isinstance(first, Unicycle):
        motion = Unicycle(
            _wavg([(w, d.motion.speed) for w, d in zip(weights, members)]),
            _wavg([(w, d.motion.yaw_rate) for w, d in zip(weights, members)]),
        )
    else:
        slip = first.slip + _wavg(
            [(w, normalize_angle(d.motion.slip - first.slip)) for w, d in zip(weights, members)]
        )
        slip = min(math.pi / 2, max(-math.pi / 2, slip))
        motion = Bicycle(
            _wavg([(w, d.motion.speed) for w, d in zip(weights, members)]),
            slip,
            _wavg([(w, d.motion.rear_axle) for w, d in zip(weights, members)]),
        )
    return Detection(
        box=box,
        score=min(1.0, max(0.0, _wavg([(w, d.score) for w, d in zip(weights, members)]))),
        label=seed.label,
        motion=motion,
        weight=min(1.0, max(0.0, _wavg([(w, d.weight) for w, d in zip(weights, members)]))),
        frame_lag=min(d.frame_lag for d in members),
        track_id=seed.track_id,
        n_fused=sum(d.n_fused for d in members),
        n_current=sum(d.n_current for d in members),
    )


def weighted_nms_reference(detections, cfg):
    """Quadratic reference weighted NMS; returns (outputs, n_discarded)."""
    outputs = []
    discarded = 0
    for label in sorted({d.label for d in detections}):
        pool = [(i, d) for i, d in enumerate(detections) if d.label == label]
        pool.sort(key=lambda item: (-item[1].weight, -item[1].score, item[0]))
        while pool:
            seed_index, seed = pool[0]
            members = [seed]
            survivors = []
            for i, d in pool[1:]:
                iou = bev_iou(seed.box, d.box)
                if iou > 0.0 and iou >= cfg.iou_high:
                    members.append(d)
                elif iou > 0.0 and iou >= cfg.iou_low:
                    discarded += 1
                else:
                    survivors.append((i, d))
            outputs.append(_fuse_members_reference(members))
            pool = survivors
    return outputs, discarded


def ap_reference(flags, heading_weights, n_gt: int) -> tuple[float, float]:
    """Brute-force all-point interpolated AP over score-sorted TP/FP flags."""
    n = len(flags)
    if n == 0:
        return 0.0, 0.0
    precisions = []
    recalls = []
    h_precisions = []
    for k in range(1, n + 1):
        tp = sum(1 for f in flags[:k] if f)
        hw = sum(w for f, w in zip(flags[:k], heading_weights[:k]) if f)
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
        h_precisions.append(hw / k)
    ap = 0.0
    aph = 0.0
    prev_recall = 0.0
    for k in range(n):
        ap += (recalls[k] - prev_recall) * max(precisions[k:])
        aph += (recalls[k] - prev_recall) * max(h_precisions[k:])
        prev_recall = recalls[k]
    return ap, aph


def candidate_pairs_reference(ax, ay, ar, bx, by, br) -> tuple[list[int], list[int]]:
    """Every (i, j) with (bx[j] - ax[i])**2 + (by[j] - ay[i])**2 < (ar[i] + br[j])**2, row by row."""
    ax, ay, ar, bx, by, br = (np.asarray(v, dtype=float) for v in (ax, ay, ar, bx, by, br))
    found_i = []
    found_j = []
    for i in range(len(ax)):
        for j in range(len(bx)):
            dx = bx[j] - ax[i]
            dy = by[j] - ay[i]
            reach = ar[i] + br[j]
            if dx * dx + dy * dy < reach * reach:
                found_i.append(i)
                found_j.append(j)
    return found_i, found_j


def match_frame_reference(gt: Frame, det: Frame, iou_threshold: float) -> MatchResult:
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


def filter_detections_to_subset_reference(
    det_frames,
    subset_gt,
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


def nms_single_class_scan(dets, cfg) -> list[Detection]:
    """Single-class weighted NMS finding each seed's neighbours by a scan over all boxes."""
    m = len(dets)
    order = sorted(range(m), key=lambda i: (-dets[i].weight, -dets[i].score, i))
    cx = np.array([d.box.x for d in dets])
    cy = np.array([d.box.y for d in dets])
    radius = np.array([0.5 * math.hypot(d.box.w, d.box.l) for d in dets])
    corners = [_corners(d.box) for d in dets]
    areas = [d.box.w * d.box.l for d in dets]
    alive = np.ones(m, dtype=bool)
    out = []
    for seed in order:
        if not alive[seed]:
            continue
        dx = cx - cx[seed]
        dy = cy - cy[seed]
        reach = radius + radius[seed]
        near = alive & (dx * dx + dy * dy < reach * reach)
        members = [seed]
        removed = [seed]
        for j in np.flatnonzero(near):
            j = int(j)
            if j == seed:
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
        alive[np.array(removed)] = False
    return out
