"""Independent reference implementations used as test oracles.

Everything here is deliberately dumb and quadratic: the Monte-Carlo IoU
estimator, a brute-force weighted NMS that rescans the pool with bev_iou for
every seed, brute-force circle-overlap pairs, the all-pairs frame matcher,
subset filter and per-seed NMS distance scan that evaluation and fusion used
before their candidate-pair search (kept verbatim, with the scalar cluster
merge fusion used before its columnar merge), the per-Detection frame
stream used before the columnar frames (`stream_reference`), the per-box
scene generation, corruption and track re-estimation used before the
columnar scenes (kept verbatim; a scene without vehicles may now take
bursts), each motion model's per-pose rules and the per-box forward and ego
transform (kept verbatim, as functions), the bicycle Gauss-Newton fit as it was when
every iteration took np.linalg.cond of its normal matrix
(`inverse_bicycle_reference`, kept verbatim), and an O(n^2) precision-recall
enumeration for AP. The averaging and bookkeeping logic is re-written from the contract,
not shared with the package internals.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from boxfuse import (
    Bicycle,
    ConstantVelocity,
    Detection,
    EgoPose,
    Frame,
    Unicycle,
    bev_iou,
    decayed_weight,
    normalize_angle,
)
from boxfuse.evaluation import SUBSET_FILTER_IOU, MatchResult
from boxfuse.motion import (
    HALF_PI,
    FitDivergence,
    FitReport,
    MotionParams,
    _bicycle_jacobian,
    _bicycle_residual,
    _bicycle_seeds,
    model_class,
)
from boxfuse.geometry import Box3D, Pose, _corners, _iou_from_corners
from boxfuse.synth import CorruptionSpec, TrajectorySpec, _lattice, _rng
import boxfuse.motion as motion_module


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


def _footprint(box) -> tuple[float, ...]:
    return box.x, box.y, box.w, box.l, box.yaw


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
            # identical footprints have IoU 1, as in bev_iou
            if _footprint(dets[j].box) == _footprint(dets[seed].box):
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


# The scalar cluster merge of fusion._fuse_cluster and the models'
# weighted_mean methods, frozen as they were before the columnar merge; only
# the helper names differ.


def _scan_wavg(weights, values: list[float], wsum: float) -> float:
    return sum(w * v for w, v in zip(weights, values)) / wsum


def _scan_motion_mean(ref, members: list, weights: list[float], wsum: float):
    if isinstance(ref, ConstantVelocity):
        return ConstantVelocity(
            _scan_wavg(weights, [p.vx for p in members], wsum),
            _scan_wavg(weights, [p.vy for p in members], wsum),
        )
    if isinstance(ref, Unicycle):
        return Unicycle(
            _scan_wavg(weights, [p.speed for p in members], wsum),
            _scan_wavg(weights, [p.yaw_rate for p in members], wsum),
        )
    slip = ref.slip + _scan_wavg(weights, [normalize_angle(p.slip - ref.slip) for p in members], wsum)
    return Bicycle(
        _scan_wavg(weights, [p.speed for p in members], wsum),
        min(HALF_PI, max(-HALF_PI, slip)),
        _scan_wavg(weights, [p.rear_axle for p in members], wsum),
    )


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
        ref_yaw + _scan_wavg(weights, [normalize_angle(d.box.yaw - ref_yaw) for d in members], wsum)
    )
    box = Box3D(
        x=_scan_wavg(weights, [d.box.x for d in members], wsum),
        y=_scan_wavg(weights, [d.box.y for d in members], wsum),
        z=_scan_wavg(weights, [d.box.z for d in members], wsum),
        w=_scan_wavg(weights, [d.box.w for d in members], wsum),
        l=_scan_wavg(weights, [d.box.l for d in members], wsum),
        h=_scan_wavg(weights, [d.box.h for d in members], wsum),
        yaw=yaw,
    )
    score = min(1.0, max(0.0, _scan_wavg(weights, [d.score for d in members], wsum)))
    weight = min(1.0, max(0.0, _scan_wavg(weights, [d.weight for d in members], wsum)))
    return Detection(
        box=box,
        score=score,
        label=seed.label,
        motion=_scan_motion_mean(seed.motion, [d.motion for d in members], weights, wsum),
        weight=weight,
        frame_lag=min(d.frame_lag for d in members),
        track_id=seed.track_id,
        n_fused=sum(d.n_fused for d in members),
        n_current=sum(d.n_current for d in members),
    )


# --- per-pose motion rules --------------------------------------------------
# Each motion model's per-pose forward, speed_radius, in_ego and inverse, and
# motion.forward_box, geometry.transform_box and synth._motion_in_ego, as they
# were before the models stated each rule once, over columns: kept verbatim
# (renamed, the methods as functions of the parameters) as references for the
# one-row calls that replaced them.


def _sinc_reference(z: float) -> float:
    if abs(z) < 1e-2:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def forward_reference(pose: Pose, params, t: float) -> Pose:
    if isinstance(params, ConstantVelocity):
        return Pose(pose.x + params.vx * t, pose.y + params.vy * t, pose.heading)
    if isinstance(params, Unicycle):
        dphi = params.yaw_rate * t
        half = 0.5 * dphi
        chord = params.speed * t * _sinc_reference(half)
        mean = pose.heading + half
    elif isinstance(params, Bicycle):
        dphi = params.speed * math.sin(params.slip) / params.rear_axle * t
        half = 0.5 * dphi
        chord = params.speed * t * _sinc_reference(half)
        mean = pose.heading + params.slip + half
    else:
        raise TypeError(f"unknown motion parameters {type(params).__name__}")
    return Pose(pose.x + chord * math.cos(mean), pose.y + chord * math.sin(mean), normalize_angle(pose.heading + dphi))


def forward_box_reference(box: Box3D, params, t: float) -> Box3D:
    if t == 0.0:
        return box
    return box.with_bev_pose(forward_reference(box.bev_pose, params, t))


def transform_box_reference(box: Box3D, src: EgoPose, dst: EgoPose) -> Box3D:
    if src == dst:
        return box
    cs = math.cos(src.yaw)
    ss = math.sin(src.yaw)
    gx = src.x + cs * box.x - ss * box.y
    gy = src.y + ss * box.x + cs * box.y
    cd = math.cos(dst.yaw)
    sd = math.sin(dst.yaw)
    rx = gx - dst.x
    ry = gy - dst.y
    return dataclasses.replace(
        box,
        x=cd * rx + sd * ry,
        y=-sd * rx + cd * ry,
        yaw=normalize_angle(box.yaw + src.yaw - dst.yaw),
    )


def motion_in_ego_reference(params, ego: EgoPose):
    if isinstance(params, ConstantVelocity) and ego.yaw != 0.0:
        c = math.cos(ego.yaw)
        s = math.sin(ego.yaw)
        return ConstantVelocity(c * params.vx + s * params.vy, -s * params.vx + c * params.vy)
    return params


def speed_radius_reference(params) -> tuple[float, float]:
    if isinstance(params, ConstantVelocity):
        return math.hypot(params.vx, params.vy), math.inf
    if isinstance(params, Unicycle):
        rate = abs(params.yaw_rate)
        return abs(params.speed), math.inf if rate < 1e-9 else abs(params.speed) / rate
    s = abs(math.sin(params.slip))
    return abs(params.speed), math.inf if s < 1e-9 else params.rear_axle / s


def inverse_cv_reference(p0: Pose, pt: Pose, t: float) -> ConstantVelocity:
    """Finite-difference velocity estimate from a pose pair over gap t."""
    if t == 0.0:
        raise ValueError("zero time gap")
    return ConstantVelocity((pt.x - p0.x) / t, (pt.y - p0.y) / t)


def inverse_unicycle_reference(p0: Pose, pt: Pose, t: float) -> Unicycle:
    """Closed-form unicycle estimate from a pose pair over gap t.

    Yaw rate is the wrapped heading change over t; speed is the chord velocity
    projected on the initial heading, scaled by dphi/sin(dphi). Exact on any
    pair produced by the unicycle forward model with |heading change| < pi.
    """
    if t == 0.0:
        raise ValueError("zero time gap")
    dphi = normalize_angle(pt.heading - p0.heading)
    # a half turn either way wraps to +pi; there the chord says nothing about speed
    if dphi == math.pi:
        raise ValueError("heading change of pi is ambiguous for the unicycle inverse")
    vx = (pt.x - p0.x) / t
    vy = (pt.y - p0.y) / t
    along = vx * math.cos(p0.heading) + vy * math.sin(p0.heading)
    return Unicycle(along / _sinc_reference(dphi), dphi / t)


def inverse_reference(model: str, p0: Pose, pt: Pose, t: float, rear_axle: float | None = None):
    """The pose-pair inverse of the model named `model`. The bicycle's calls
    motion.inverse_bicycle, looked up at call time, so a wrapper bound there sees it."""
    if model == "cv":
        return inverse_cv_reference(p0, pt, t)
    if model == "unicycle":
        return inverse_unicycle_reference(p0, pt, t)
    if rear_axle is None or not rear_axle > 0.0:
        raise ValueError("bicycle estimation needs a positive rear_axle")
    return motion_module.inverse_bicycle(p0, pt, t, rear_axle)[0]


# The per-Detection frame stream as it was before the columnar frames: the
# parser, score strategy, history floor and serializer are frozen copies of
# io.frame_from_obj, fusion.apply_score_strategy, the floor filter of
# fusion.fuse_frames and io.frame_to_obj; the forward is the per-pose
# transform_box_reference(forward_box_reference(...)) and the NMS the
# per-seed scan above.

_REF_PARAMS = {
    "cv": lambda obj: ConstantVelocity(float(obj["vx"]), float(obj["vy"])),
    "unicycle": lambda obj: Unicycle(float(obj["v"]), float(obj["omega"])),
    "bicycle": lambda obj: Bicycle(float(obj["v"]), float(obj["beta"]), float(obj["l_r"])),
}


def _ref_motion_to_obj(motion) -> dict:
    if isinstance(motion, ConstantVelocity):
        return {"model": "cv", "vx": motion.vx, "vy": motion.vy}
    if isinstance(motion, Unicycle):
        return {"model": "unicycle", "v": motion.speed, "omega": motion.yaw_rate}
    return {"model": "bicycle", "v": motion.speed, "beta": motion.slip, "l_r": motion.rear_axle}


def _ref_detection_from_obj(obj: dict) -> Detection:
    box = obj["box"]
    if len(box) != 7:
        raise ValueError(f"box must have 7 values, got {len(box)}")
    frame_lag = int(obj.get("frame_lag", 0))
    n_current = obj.get("n_current")
    return Detection(
        box=Box3D.from_array(box),
        score=float(obj["score"]),
        label=str(obj["class"]),
        motion=_REF_PARAMS[obj["motion"]["model"]](obj["motion"]),
        weight=None if obj.get("weight") is None else float(obj["weight"]),
        frame_lag=frame_lag,
        track_id=None if obj.get("track_id") is None else int(obj["track_id"]),
        n_fused=int(obj.get("n_fused", 1)),
        n_current=None if n_current is None else int(n_current),
    )


def _ref_frame_from_obj(obj: dict) -> Frame:
    ego = obj["ego"]
    timestamp = float(obj["timestamp"])
    if not math.isfinite(timestamp):
        raise ValueError(f"non-finite timestamp {timestamp!r}")
    return Frame(
        timestamp,
        EgoPose(float(ego["x"]), float(ego["y"]), float(ego["yaw"])),
        [_ref_detection_from_obj(d) for d in obj["detections"]],
    )


def _ref_detection_to_obj(det: Detection) -> dict:
    obj: dict = {
        "box": det.box.to_array(),
        "score": det.score,
        "class": det.label,
        "motion": _ref_motion_to_obj(det.motion),
    }
    if det.track_id is not None:
        obj["track_id"] = det.track_id
    if det.weight is not None:
        obj["weight"] = det.weight
    if det.frame_lag != 0:
        obj["frame_lag"] = det.frame_lag
    if det.n_fused != 1:
        obj["n_fused"] = det.n_fused
    if det.n_current != (1 if det.frame_lag == 0 else 0):
        obj["n_current"] = det.n_current
    return obj


def ref_dumps_frame(frame: Frame) -> str:
    """One frame line as the per-Detection serializer wrote it."""
    obj = {
        "timestamp": frame.timestamp,
        "ego": {"x": frame.ego.x, "y": frame.ego.y, "yaw": frame.ego.yaw},
        "detections": [_ref_detection_to_obj(d) for d in frame.detections],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _ref_apply_score_strategy(fused, cfg) -> list[Detection]:
    out = []
    for det in fused:
        if det.n_current == 0:
            if cfg.score_strategy == "decay":
                new_score = det.weight if det.weight is not None else det.score
            else:
                new_score = cfg.score_decay_factor * det.score / max(cfg.n_history - det.n_fused, 1)
            det = Detection(det.box, min(1.0, max(0.0, new_score)), det.label, det.motion, det.weight,
                            det.frame_lag, det.track_id, det.n_fused, det.n_current)
        out.append(det)
    return out


def stream_reference(lines: list[str], cfg) -> list[str]:
    """Fused frame lines of a stream of frame lines, one Detection at a time."""
    frames = [_ref_frame_from_obj(json.loads(line)) for line in lines]
    out = []
    for k, current in enumerate(frames):
        dense = []
        for frame in frames[max(0, k - cfg.n_history) : k]:
            dt = current.timestamp - frame.timestamp
            lag = int(round(dt / cfg.frame_interval))
            # the motion parameters turn with the frame, as the boxes do
            turn = EgoPose(0.0, 0.0, current.ego.yaw - frame.ego.yaw)
            for d in frame.detections:
                box = transform_box_reference(forward_box_reference(d.box, d.motion, dt), frame.ego, current.ego)
                dense.append(Detection(box, d.score, d.label, motion_in_ego_reference(d.motion, turn),
                                       decayed_weight(d.score, dt, cfg), lag, d.track_id, 1, 0))
        dense += [Detection(d.box, d.score, d.label, d.motion, d.score, 0, d.track_id, 1, 1)
                  for d in current.detections]
        fused = []
        for label in sorted({d.label for d in dense}):
            fused += nms_single_class_scan([d for d in dense if d.label == label], cfg)
        fused = _ref_apply_score_strategy(fused, cfg)
        kept = [d for d in fused if d.n_current > 0 or d.score >= cfg.history_score_floor]
        out.append(ref_dumps_frame(Frame(current.timestamp, current.ego, kept)))
    return out


# --- per-box scene generation and re-estimation ----------------------------
# synth.generate_mixed_scene, synth.corrupt, synth.reattach_params and
# motion.estimate_params_from_track as they were before scenes became columns,
# kept verbatim (renamed) as references for the columnar versions: one Box3D,
# Detection and motion object per box, and a pose-pair fit per pose.


@dataclass(frozen=True)
class _Vehicle:
    track_id: int
    spec: TrajectorySpec
    world_poses: tuple[Pose, ...]
    params: tuple[MotionParams, ...]


def _sample_vehicle_reference(
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
    poses = tuple(forward_reference(p0, gen, t) for t in times)
    attached = estimate_params_from_track_reference(list(times), list(poses), spec.model, rear_axle=rear_axle)
    return _Vehicle(track_id, spec, poses, tuple(attached))


def generate_mixed_scene_reference(
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
        ego_poses = [forward_reference(Pose(0.0, 0.0, 0.0), ego_motion, t) for t in times]
        egos = [EgoPose(p.x, p.y, p.heading) for p in ego_poses]
    total = sum(count for _, count in groups)
    slots, jitter = _lattice(total, base.origin_span, base.min_spacing)
    vehicles: list[_Vehicle] = []
    track_id = track_id_start
    slot_index = 0
    for g, (spec, count) in enumerate(groups):
        for i in range(count):
            vehicles.append(
                _sample_vehicle_reference(spec, _rng(seed, g, i), slots[slot_index], jitter, track_id, times)
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
                    box=transform_box_reference(world_box, identity, egos[k]),
                    score=1.0,
                    label=veh.spec.label,
                    motion=motion_in_ego_reference(veh.params[k], egos[k]),
                    track_id=veh.track_id,
                )
            )
        frames.append(Frame(t, egos[k], detections))
    return frames


def _ref_noisy(motion, n1: float, n2: float, sigma_speed: float, sigma_turn: float):
    """Detector noise on one motion: a frozen copy of the per-model `noisy` methods."""
    if isinstance(motion, ConstantVelocity):
        return ConstantVelocity(motion.vx + n1 * sigma_speed, motion.vy + n2 * sigma_speed)
    if isinstance(motion, Unicycle):
        return Unicycle(motion.speed + n1 * sigma_speed, motion.yaw_rate + n2 * sigma_turn)
    slip = min(HALF_PI, max(-HALF_PI, motion.slip + n2 * sigma_turn))
    return Bicycle(motion.speed + n1 * sigma_speed, slip, motion.rear_axle)


def corrupt_reference(frames: Sequence[Frame], spec: CorruptionSpec, seed: int) -> list[Frame]:
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
        if any(d.track_id is None for f in frames for d in f.detections):
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
            motion = _ref_noisy(det.motion, float(draws[3]), float(draws[4]), spec.sigma_speed, spec.sigma_turn)
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


def reattach_params_reference(frames: list[Frame], model: str, rear_axle: float | None) -> list[Frame]:
    """Replace every detection's motion parameters using the track inverse models.

    A track too short to fit, seen twice at one time, or whose fit fails is
    named with the frame of its first row, as synth.reattach_params names it;
    a failed fit keeps its error's type.
    """
    identity = EgoPose.identity()
    tracks: dict[int, list[tuple[int, int]]] = {}
    for fi, frame in enumerate(frames):
        for di, det in enumerate(frame.detections):
            if det.track_id is None:
                raise ValueError(f"missing track_id on frame {fi}, detection {di}")
            tracks.setdefault(det.track_id, []).append((fi, di))
    new_params: dict[tuple[int, int], object] = {}
    for tid, locs in tracks.items():
        times = []
        poses = []
        for fi, di in locs:
            det = frames[fi].detections[di]
            world = transform_box_reference(det.box, frames[fi].ego, identity)
            times.append(frames[fi].timestamp)
            poses.append(Pose(world.x, world.y, world.yaw))
        arm = rear_axle
        if arm is None:
            lengths = sorted(frames[fi].detections[di].box.l for fi, di in locs)
            arm = lengths[len(lengths) // 2] / 4.0
        where = f"track {tid!r}, first seen on frame {locs[0][0]}"
        try:
            estimates = estimate_params_from_track_reference(times, poses, model, rear_axle=arm)
        except FitDivergence as exc:
            raise FitDivergence(f"{where}: {exc}", exc.best, exc.report) from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for (fi, di), params in zip(locs, estimates):
            new_params[(fi, di)] = params
    out = []
    for fi, frame in enumerate(frames):
        dets = [
            dataclasses.replace(
                det, motion=motion_in_ego_reference(new_params[(fi, di)], frame.ego)
            )
            for di, det in enumerate(frame.detections)
        ]
        out.append(Frame(frame.timestamp, frame.ego, dets))
    return out


def estimate_params_from_track_reference(
    times: Sequence[float],
    poses: Sequence[Pose],
    model: str,
    rear_axle: float | None = None,
) -> list[MotionParams]:
    """Per-pose motion parameters estimated from a time-ordered track.

    Interior poses use the straddling pair (i-1, i+1); the endpoints fall back
    to their single adjacent pair. `model` names the inverse (a key of
    MODELS); the bicycle inverse additionally needs the fixed rear_axle arm,
    which the other models ignore.
    """
    if len(times) != len(poses):
        raise ValueError("times and poses must have equal length")
    n = len(poses)
    if n < 2:
        raise ValueError("need at least two poses")
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise ValueError("timestamps must strictly increase")
    out: list[MotionParams] = []
    for i in range(n):
        j0, j1 = max(i - 1, 0), min(i + 1, n - 1)
        out.append(inverse_reference(model, poses[j0], poses[j1], times[j1] - times[j0], rear_axle))
    return out


def inverse_bicycle_reference(
    p0: Pose,
    pt: Pose,
    t: float,
    rear_axle: float,
    init: Bicycle | None = None,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> tuple[Bicycle, FitReport]:
    """Estimate bicycle (speed, slip) from a pose pair by Gauss-Newton.

    rear_axle is held fixed; only speed and slip are optimized. Unless `init`
    is given, the solve starts from the lowest-loss candidate among the direct
    chord inversions and a unicycle-projected estimate. Each update solves the
    2x2 normal equations (damped when ill-conditioned), clamps slip to
    [-pi/2, pi/2], and halves the step while it increases the loss. Iteration
    stops once the loss improvement drops below `tol`; exceeding `max_iter`
    raises FitDivergence carrying the best iterate.
    """
    if t == 0.0:
        raise ValueError("zero time gap")
    if rear_axle <= 0.0:
        raise ValueError("rear_axle must be positive")
    if init is not None:
        seeds = [(init.speed, init.slip)]
    else:
        seeds = _bicycle_seeds(p0, pt, t, rear_axle)
    scored = []
    for cand_speed, cand_slip in seeds:
        cand_slip = min(HALF_PI, max(-HALF_PI, cand_slip))
        cand_r = _bicycle_residual(p0, pt, t, cand_speed, cand_slip, rear_axle)
        scored.append((0.5 * float(cand_r @ cand_r), cand_speed, cand_slip, cand_r))
    # among near-tied losses prefer the slowest motion: a pose pair cannot
    # tell the minimal interpretation from one with extra winding
    min_loss = min(s[0] for s in scored)
    cutoff = min_loss + 1e-9 + 1e-6 * min_loss
    loss, speed, slip, r = min(
        (s for s in scored if s[0] <= cutoff), key=lambda s: abs(s[1])
    )
    best_speed, best_slip, best_loss = speed, slip, loss
    for iteration in range(1, max_iter + 1):
        jac = _bicycle_jacobian(p0, t, speed, slip, rear_axle)
        normal = jac.T @ jac
        grad = jac.T @ r
        if not np.isfinite(normal).all() or np.linalg.cond(normal) > 1e12:
            normal = normal + 1e-6 * max(float(np.trace(normal)), 1e-6) * np.eye(2)
        try:
            step = np.linalg.solve(normal, grad)
        except np.linalg.LinAlgError:
            normal = normal + 1e-6 * max(float(np.trace(normal)), 1e-6) * np.eye(2)
            step = np.linalg.solve(normal, grad)
        prev_loss = loss
        scale = 1.0
        while True:
            cand_speed = speed - scale * float(step[0])
            cand_slip = min(HALF_PI, max(-HALF_PI, slip - scale * float(step[1])))
            cand_r = _bicycle_residual(p0, pt, t, cand_speed, cand_slip, rear_axle)
            cand_loss = 0.5 * float(cand_r @ cand_r)
            if cand_loss <= prev_loss:
                break
            if scale < 1e-6:
                # no step length improves: stay put and let the loop terminate
                cand_speed, cand_slip, cand_r, cand_loss = speed, slip, r, loss
                break
            scale *= 0.5
        speed, slip, r, loss = cand_speed, cand_slip, cand_r, cand_loss
        if loss < best_loss:
            best_speed, best_slip, best_loss = speed, slip, loss
        if prev_loss - loss < tol:
            return Bicycle(speed, slip, rear_axle), FitReport(iteration, loss, True)
    raise FitDivergence(
        f"no convergence after {max_iter} iterations (loss {best_loss:.3e})",
        Bicycle(best_speed, best_slip, rear_axle),
        FitReport(max_iter, best_loss, False),
    )
