from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    Detection,
    EgoPose,
    Frame,
    FusionConfig,
    PRESETS,
    Unicycle,
    apply_score_strategy,
    bev_iou,
    decayed_weight,
    forward_box,
    forward_frame,
    fuse_frames,
    fuse_sequence,
    normalize_angle,
    sliding_windows,
    transform_box,
    weighted_nms,
)
from boxfuse import fusion, geometry
from boxfuse.frames import DetectionColumns

from boxfuse.motion import HALF_PI
from oracles import motion_in_ego_reference, nms_single_class_scan, weighted_nms_reference

CFG = FusionConfig()


def make_det(x=0.0, y=0.0, yaw=0.0, score=0.9, weight=None, label="vehicle",
             motion=None, frame_lag=0, w=2.0, l=4.0):
    return Detection(
        box=Box3D(x, y, 0.8, w, l, 1.6, yaw),
        score=score,
        label=label,
        motion=motion if motion is not None else ConstantVelocity(0.0, 0.0),
        weight=weight,
        frame_lag=frame_lag,
    )


def random_scene(rng, n_boxes: int, n_classes: int = 3, motion_model: str = "unicycle"):
    """Clustered random detections with assigned weights; clusters overlap heavily."""
    dets = []
    n_clusters = max(1, n_boxes // 3)
    centers = rng.uniform(-40, 40, size=(n_clusters, 2))
    yaws = rng.uniform(-math.pi, math.pi, size=n_clusters)
    for _ in range(n_boxes):
        c = rng.integers(0, n_clusters)
        score = float(rng.uniform(0.05, 1.0))
        lag = int(rng.integers(0, 5))
        if motion_model == "unicycle":
            motion = Unicycle(float(rng.uniform(-15, 15)), float(rng.uniform(-1, 1)))
        else:
            motion = Bicycle(float(rng.uniform(-15, 15)), float(rng.uniform(-0.4, 0.4)),
                             float(rng.uniform(1, 3)))
        dets.append(
            Detection(
                box=Box3D(
                    float(centers[c, 0] + rng.normal(0, 0.3)),
                    float(centers[c, 1] + rng.normal(0, 0.3)),
                    float(rng.uniform(0, 1.5)),
                    float(rng.uniform(1.9, 2.3)),
                    float(rng.uniform(4.2, 5.0)),
                    float(rng.uniform(1.4, 1.8)),
                    float(yaws[c] + rng.normal(0, 0.08)),
                ),
                score=score,
                label=f"class{int(rng.integers(0, n_classes))}",
                motion=motion,
                weight=decayed_weight(score, lag * CFG.frame_interval, CFG),
                frame_lag=lag,
            )
        )
    return dets


def assert_detections_close(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    key = lambda d: (d.label, d.box.x, d.box.y, d.box.yaw)
    for a, b in zip(sorted(got, key=key), sorted(expected, key=key)):
        assert a.label == b.label
        for name in ("x", "y", "z", "w", "l", "h", "yaw"):
            assert getattr(a.box, name) == pytest.approx(getattr(b.box, name), abs=tol)
        assert a.score == pytest.approx(b.score, abs=tol)
        assert a.weight == pytest.approx(b.weight, abs=tol)
        assert a.n_fused == b.n_fused
        assert a.n_current == b.n_current
        assert a.frame_lag == b.frame_lag
        assert type(a.motion) is type(b.motion)


COORD = st.floats(-200.0, 200.0)
# yaws anywhere, and piled up next to the +-pi seam
YAW = st.floats(-math.pi, math.pi) | st.sampled_from(
    [math.pi, -math.pi + 1e-15, math.pi - 1e-12, -math.pi + 1e-9, math.nextafter(-math.pi, 0.0)]
)


@st.composite
def motion_near_edges(draw, model: str, dt: float):
    """Motion parameters of `model`, often with half-turns next to _sinc's switch at
    |z| = 1e-2 and bicycle slips next to +-pi/2."""
    speed = draw(st.floats(-20.0, 20.0))
    if model == "cv":
        return ConstantVelocity(speed, draw(st.floats(-20.0, 20.0)))
    edge = draw(st.sampled_from([-1.0, 1.0])) * 1e-2 * (1.0 + draw(st.sampled_from([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])))
    near_switch = dt > 0.0 and draw(st.booleans())
    if model == "unicycle":
        rate = 2.0 * edge / dt if near_switch else draw(st.floats(-2.0, 2.0))
        return Unicycle(speed, rate)
    slip = draw(st.floats(-HALF_PI, HALF_PI) | st.sampled_from(
        [HALF_PI, -HALF_PI, math.nextafter(HALF_PI, 0.0), -HALF_PI + 1e-12, 0.3]))
    rear_axle = draw(st.floats(0.5, 3.0))
    if near_switch and abs(math.sin(slip)) > 0.1:
        # speed * sin(slip) / rear_axle * dt / 2 lands next to 1e-2
        speed = 2.0 * edge * rear_axle / (math.sin(slip) * dt)
    return Bicycle(speed, slip, rear_axle)


def crowded_scene(seed: int, n_boxes: int, n_labels: int, model: str, offset, ties: bool):
    """Tight clusters of near-duplicate boxes around `offset`, plus exact duplicates.

    With `ties`, scores and weights come from a three-value set that includes
    a zero weight, so seeds tie and all-zero clusters occur.
    """
    rng = np.random.default_rng(seed)
    n_clusters = max(1, n_boxes // 4)
    centres = np.asarray(offset) + rng.uniform(-8.0, 8.0, size=(n_clusters, 2))
    yaws = rng.uniform(-math.pi, math.pi, size=n_clusters)
    dets = []
    for _ in range(n_boxes):
        c = int(rng.integers(n_clusters))
        if ties:
            score, weight = float(rng.choice([0.4, 0.8])), float(rng.choice([0.0, 0.4, 0.8]))
        else:
            score = float(rng.uniform(0.05, 1.0))
            weight = score * float(rng.uniform(0.3, 1.0))
        if model == "cv":
            motion = ConstantVelocity(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)))
        elif model == "unicycle":
            motion = Unicycle(float(rng.uniform(-15, 15)), float(rng.uniform(-1, 1)))
        else:
            slip = float(rng.choice([-HALF_PI, HALF_PI, rng.uniform(-HALF_PI, HALF_PI)]))
            motion = Bicycle(float(rng.uniform(-15, 15)), slip, float(rng.uniform(1, 3)))
        lag = int(rng.integers(0, 3))
        dets.append(
            Detection(
                box=Box3D(
                    float(centres[c, 0] + rng.normal(0, 0.3)),
                    float(centres[c, 1] + rng.normal(0, 0.3)),
                    float(rng.uniform(0, 1.5)),
                    float(rng.uniform(1.9, 2.3)),
                    float(rng.uniform(4.2, 5.0)),
                    float(rng.uniform(1.4, 1.8)),
                    float(yaws[c] + rng.normal(0, 0.1)),
                ),
                score=score,
                label=f"class{int(rng.integers(n_labels))}",
                motion=motion,
                weight=weight,
                frame_lag=lag,
                n_current=int(lag == 0),
            )
        )
    dets += [dets[int(k)] for k in rng.integers(0, len(dets), size=n_boxes // 5)]
    return dets


def per_seed_scan(dets, cfg) -> list[Detection]:
    """nms_single_class_scan label by label, in label order: weighted_nms to the bit."""
    out = []
    for label in sorted({d.label for d in dets}):
        out += nms_single_class_scan([d for d in dets if d.label == label], cfg)
    return out


NMS_CONFIGS = [PRESETS[name] for name in sorted(PRESETS)] + [
    FusionConfig(iou_low=0.0, iou_high=0.5),
    FusionConfig(iou_low=1.0, iou_high=1.0),
]
OFFSET = st.sampled_from([0.0, 1e5, -1e5]) | st.floats(-1e5, 1e5)


class TestDecayedWeight:
    def test_current_frame_undecayed(self):
        assert decayed_weight(0.9, 0.0, CFG) == 0.9

    def test_one_interval(self):
        assert decayed_weight(1.0, CFG.frame_interval, CFG) == pytest.approx(0.8)

    def test_two_intervals(self):
        assert decayed_weight(0.5, 2 * CFG.frame_interval, CFG) == pytest.approx(0.32)

    def test_monotone_and_multiplicative(self):
        lags = np.linspace(0, 1, 11)
        weights = [decayed_weight(1.0, float(t), CFG) for t in lags]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        for t in lags:
            assert decayed_weight(0.37, float(t), CFG) == pytest.approx(
                0.37 * decayed_weight(1.0, float(t), CFG)
            )

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            decayed_weight(0.5, -0.1, CFG)


class TestForwardFrame:
    def test_zero_gap_unchanged(self):
        frame = Frame(1.0, EgoPose.identity(), [make_det(score=0.7)])
        out = forward_frame(frame, 1.0, EgoPose.identity(), CFG)
        assert out[0].box == frame.detections[0].box
        assert out[0].weight == 0.7
        assert out[0].frame_lag == 0

    def test_cv_advance_with_decay(self):
        frame = Frame(0.0, EgoPose.identity(), [make_det(score=0.9, motion=ConstantVelocity(10, 0))])
        out = forward_frame(frame, 0.1, EgoPose.identity(), CFG)
        assert out[0].box.x == pytest.approx(1.0)
        assert out[0].weight == pytest.approx(0.9 * 0.8)
        assert out[0].frame_lag == 1
        assert out[0].motion == ConstantVelocity(10, 0)

    def test_matches_composed_forward_and_transform(self):
        motion = Bicycle(9.0, 0.12, 1.2)
        det = make_det(x=3, y=-2, yaw=0.4, score=0.8, motion=motion)
        src_ego = EgoPose(1.0, 2.0, 0.3)
        dst_ego = EgoPose(2.5, 1.0, 0.55)
        frame = Frame(0.0, src_ego, [det])
        out = forward_frame(frame, 0.3, dst_ego, CFG)
        expect = transform_box(forward_box(det.box, motion, 0.3), src_ego, dst_ego)
        assert out[0].box == expect
        assert out[0].weight == pytest.approx(0.8 * 0.8 ** 3)

    def test_backward_target_rejected(self):
        frame = Frame(1.0, EgoPose.identity(), [])
        with pytest.raises(ValueError):
            forward_frame(frame, 0.5, EgoPose.identity(), CFG)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_forward_box_then_transform_box(self, data):
        models = st.sampled_from(["cv", "unicycle", "bicycle"])
        model = data.draw(models, label="model")
        # a frame may also mix models; each box then draws its own
        mixed = data.draw(st.booleans(), label="mixed")
        dt = data.draw(st.sampled_from([0.0, 0.05, 0.1, 0.4]) | st.floats(1e-3, 3.0), label="dt")
        src = EgoPose(*data.draw(st.tuples(COORD, COORD, YAW), label="src"))
        dst = data.draw(st.just(src) | st.builds(EgoPose, COORD, COORD, YAW), label="dst")
        dets = [
            make_det(x=data.draw(COORD), y=data.draw(COORD), yaw=data.draw(YAW),
                     score=data.draw(st.floats(0.0, 1.0)),
                     motion=data.draw(motion_near_edges(data.draw(models) if mixed else model, dt)))
            for _ in range(data.draw(st.integers(1, 6), label="boxes"))
        ]
        frame = Frame(0.0, src, dets)
        out = forward_frame(frame, dt, dst, CFG)
        assert len(out) == len(dets)
        for k, det in enumerate(dets):
            assert out[k].box == transform_box(forward_box(det.box, det.motion, dt), src, dst)
            assert out[k].weight == decayed_weight(det.score, dt, CFG)
            # a cv velocity turns into the target frame; the other models' parameters do not change
            motion = motion_in_ego_reference(det.motion, EgoPose(0.0, 0.0, dst.yaw - src.yaw))
            assert (out[k].motion, out[k].n_current) == (motion, 0)

    def test_ego_turn_turns_a_cv_velocity_into_the_target_frame(self):
        # a car at world (10, 0) drives along +x at 10 m/s while the ego turns from yaw 0 to 0.5 rad
        cv = make_det(x=10.0, motion=ConstantVelocity(10.0, 0.0))
        others = [make_det(x=-10.0, motion=Unicycle(10.0, 0.3)), make_det(y=10.0, motion=Bicycle(10.0, 0.1, 1.2))]
        target = EgoPose(0.0, 0.0, 0.5)
        out = forward_frame(Frame(0.0, EgoPose.identity(), [cv, *others]), 0.1, target, CFG)
        assert [out[0].box.x, out[0].box.y] == pytest.approx([9.6534, -5.2737], abs=1e-4)
        assert [out[0].motion.vx, out[0].motion.vy] == pytest.approx([8.7758, -4.7943], abs=1e-4)
        assert [d.motion for d in out[1:]] == [d.motion for d in others]
        # a history-only output of fusion carries the turned velocity too
        (fused,) = fuse_frames([Frame(0.0, EgoPose.identity(), [cv]), Frame(0.1, target, [])], CFG).detections
        assert fused.n_current == 0 and fused.motion == out[0].motion

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case,message", [("forward", "x must be finite, got inf"),
                                              ("transform", "x must be finite, got inf"),
                                              ("turn", "vx must be finite, got inf")])
    def test_overflow_to_infinity_rejected(self, case, message):
        t = 10.0
        if case == "forward":
            det, ego = make_det(x=1e308, motion=ConstantVelocity(1e308, 0.0)), EgoPose.identity()
        elif case == "transform":
            det, ego = make_det(x=1.5e308, motion=ConstantVelocity(0.0, 0.0)), EgoPose(1.5e308, 0.0, 0.0)
        else:
            # the velocity turned by 45 degrees into the target frame overflows
            det, ego, t = make_det(motion=ConstantVelocity(1.5e308, 1.5e308)), EgoPose(0.0, 0.0, -math.pi / 4), 1e-300
        frame = Frame(0.0, ego, [make_det(x=5.0), det])
        # the forwarded rows go through the box and motion tables, which name the row
        with pytest.raises(ValueError) as err:
            forward_frame(frame, t, EgoPose.identity(), CFG)
        assert str(err.value) == f"detection 1: {message}"


class TestWeightedNms:
    def test_singleton_passthrough(self):
        det = make_det(score=0.8, weight=0.8)
        out = weighted_nms([det], CFG)
        assert len(out) == 1
        assert out[0].box == det.box
        assert out[0].score == 0.8
        assert out[0].n_fused == 1

    def test_coincident_pair_fuses_to_weighted_score(self):
        d1 = make_det(score=0.8, weight=0.8)
        d2 = make_det(score=0.4, weight=0.4)
        out = weighted_nms([d1, d2], CFG)
        assert len(out) == 1
        assert out[0].score == pytest.approx(2 / 3, abs=1e-12)
        assert out[0].box.x == pytest.approx(0.0, abs=1e-12)
        assert out[0].box.l == pytest.approx(4.0, abs=1e-12)
        assert out[0].n_fused == 2

    def test_disjoint_pair_untouched(self):
        d1 = make_det(x=0.0, w=1.0, l=1.0, score=0.8, weight=0.8)
        d2 = make_det(x=1.0, w=1.0, l=1.0, score=0.4, weight=0.4)
        out = weighted_nms([d1, d2], CFG)
        assert len(out) == 2

    def test_discard_band(self):
        # unit squares shifted by 1/3 have IoU exactly 0.5: inside [0.3, 0.8)
        cfg = FusionConfig(iou_low=0.3, iou_high=0.8)
        d1 = make_det(x=0.0, w=1.0, l=1.0, score=0.9, weight=0.9)
        d2 = make_det(x=1 / 3, w=1.0, l=1.0, score=0.5, weight=0.5)
        assert bev_iou(d1.box, d2.box) == pytest.approx(0.5, abs=1e-12)
        out = weighted_nms([d1, d2], cfg)
        assert len(out) == 1
        assert out[0].box.x == 0.0
        assert out[0].n_fused == 1

    def test_at_merge_threshold_is_fused(self):
        cfg = FusionConfig(iou_low=0.3, iou_high=0.5)
        d1 = make_det(x=0.0, w=1.0, l=1.0, score=0.9, weight=0.9)
        d2 = make_det(x=1 / 3, w=1.0, l=1.0, score=0.5, weight=0.5)
        out = weighted_nms([d1, d2], cfg)
        assert len(out) == 1
        assert out[0].n_fused == 2

    def test_unassigned_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_nms([make_det()], CFG)

    def test_mixed_variants_rejected(self):
        d1 = make_det(weight=0.5)
        d2 = make_det(x=30, weight=0.5, motion=Unicycle(1, 0))
        with pytest.raises(ValueError, match=r"mixed motion models \['cv', 'unicycle'\] in one fusion run"):
            weighted_nms([d1, d2], CFG)

    def test_identical_footprints_merge_at_iou_one(self):
        # clipping this footprint by itself gives just under 1; like bev_iou,
        # NMS gives equal footprints IoU 1 whatever their z and h
        d1 = make_det(x=-19.5, y=21.8, yaw=-0.5, w=2.0, l=3.9, score=0.8, weight=0.8)
        d2 = replace(d1, box=replace(d1.box, z=0.9), score=0.6, weight=0.6)
        cfg = FusionConfig(iou_low=1.0, iou_high=1.0)
        out = weighted_nms([d1, d2], cfg)
        expected, _ = weighted_nms_reference([d1, d2], cfg)
        assert len(out) == 1 and out[0].n_fused == 2
        assert list(out) == expected == per_seed_scan([d1, d2], cfg)

    def test_idempotent_on_identical_copies(self):
        base = make_det(x=2, y=-1, yaw=0.6, score=0.7)
        copies = [replace(base, weight=w, score=s)
                  for w, s in ((0.7, 0.7), (0.5, 0.5), (0.3, 0.3))]
        out = weighted_nms(copies, CFG)
        assert len(out) == 1
        for name in ("x", "y", "z", "w", "l", "h", "yaw"):
            assert getattr(out[0].box, name) == pytest.approx(getattr(base.box, name), abs=1e-12)
        expect_score = sum(w * w for w in (0.7, 0.5, 0.3)) / 1.5
        assert out[0].score == pytest.approx(expect_score, abs=1e-12)

    def test_yaw_fused_across_pi_seam(self):
        d1 = make_det(yaw=math.pi - 0.05, score=0.8, weight=0.8)
        d2 = make_det(yaw=-math.pi + 0.05, score=0.8, weight=0.8)
        out = weighted_nms([d1, d2], CFG)
        assert len(out) == 1
        assert abs(out[0].box.yaw) == pytest.approx(math.pi, abs=1e-9)

    def test_matches_reference_on_random_scenes(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            dets = random_scene(rng, int(rng.integers(1, 51)))
            got = weighted_nms(dets, CFG)
            expected, _ = weighted_nms_reference(dets, CFG)
            assert_detections_close(got, expected)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_equals_per_seed_scan_exactly(self, preset):
        cfg = PRESETS[preset]
        rng = np.random.default_rng(22)
        for _ in range(15):
            dets = random_scene(rng, int(rng.integers(1, 80)), n_classes=2)
            dets += [dets[int(k)] for k in rng.integers(0, len(dets), size=3)]  # identical boxes
            assert weighted_nms(dets, cfg) == per_seed_scan(dets, cfg)

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_pair_chunks_change_no_bit(self, monkeypatch, chunk):
        # chunk edges fall inside the bounded pairs and inside the clipped
        # survivors; at iou_low 0.0 the bound keeps every pair
        rng = np.random.default_rng(24)
        scenes = []
        for _ in range(6):
            dets = random_scene(rng, int(rng.integers(2, 60)), n_classes=2)
            scenes.append(dets + [dets[int(k)] for k in rng.integers(0, len(dets), size=3)])
        cfgs = [FusionConfig(iou_low=low, iou_high=max(low, 0.7)) for low in (0.0, 0.2, 0.7, 0.9)]
        unchunked = [[weighted_nms(dets, cfg) for dets in scenes] for cfg in cfgs]
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        for cfg, outputs in zip(cfgs, unchunked):
            for dets, expected in zip(scenes, outputs):
                got = weighted_nms(dets, cfg)
                assert got == expected
                assert got == per_seed_scan(dets, cfg)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_boxes=st.integers(1, 40),
        n_labels=st.integers(1, 2),
        model=st.sampled_from(["cv", "unicycle", "bicycle"]),
        offset=st.tuples(OFFSET, OFFSET),
        ties=st.booleans(),
        cfg=st.sampled_from(NMS_CONFIGS),
    )
    def test_equals_per_seed_scan_on_crowded_scenes(self, seed, n_boxes, n_labels, model, offset, ties, cfg):
        dets = crowded_scene(seed, n_boxes, n_labels, model, offset, ties)
        got = weighted_nms(dets, cfg)
        assert got == per_seed_scan(dets, cfg)
        if cfg.iou_low == cfg.iou_high:
            assert sum(d.n_fused for d in got) == len(dets)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_boxes=st.integers(1, 40),
        n_labels=st.integers(1, 2),
        model=st.sampled_from(["cv", "unicycle", "bicycle"]),
        offset=st.tuples(OFFSET, OFFSET),
        cfg=st.sampled_from(NMS_CONFIGS),
        shuffle=st.integers(0, 2**32 - 1),
    )
    def test_permuted_input_gives_the_same_outputs(self, seed, n_boxes, n_labels, model, offset, cfg, shuffle):
        # with distinct weights and scores the seed order ignores input order;
        # merge sums may add the members in another order, hence the tolerance
        dets = crowded_scene(seed, n_boxes, n_labels, model, offset, ties=False)[:n_boxes]
        assume(len({d.weight for d in dets}) == len({d.score for d in dets}) == len(dets))
        permuted = [dets[k] for k in np.random.default_rng(shuffle).permutation(len(dets))]
        got, expected = weighted_nms(permuted, cfg), weighted_nms(dets, cfg)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert (a.label, a.n_fused, a.n_current, a.frame_lag, a.track_id) == (
                b.label, b.n_fused, b.n_current, b.frame_lag, b.track_id)
            for name in ("x", "y", "z", "w", "l", "h"):
                assert getattr(a.box, name) == pytest.approx(getattr(b.box, name), abs=1e-9)
            assert abs(normalize_angle(a.box.yaw - b.box.yaw)) <= 1e-9
            assert (a.score, a.weight) == pytest.approx((b.score, b.weight), abs=1e-9)
            assert dataclasses.astuple(a.motion) == pytest.approx(dataclasses.astuple(b.motion), abs=1e-9)

    def test_outputs_mutually_below_iou_low(self, monkeypatch):
        # the sweep guarantees the property exactly for its seeds; fused
        # outputs are cluster means and may end up closer than their seeds, so
        # spread clusters are checked on the seeds the sweep returns, while
        # pose-identical clusters (fused output == seed box) are checked on
        # the outputs
        sweep = fusion._sweep
        seen = []

        def spy(*args):
            seen.append(sweep(*args))
            return seen[-1]

        monkeypatch.setattr(fusion, "_sweep", spy)
        rng = np.random.default_rng(22)
        for _ in range(10):
            dets = random_scene(rng, 40)
            weighted_nms(dets, CFG)
            seeds = [dets[k] for k in seen.pop()[0].tolist()]
            assert len(seeds) > 1
            for i in range(len(seeds)):
                for j in range(i + 1, len(seeds)):
                    if seeds[i].label == seeds[j].label:
                        assert bev_iou(seeds[i].box, seeds[j].box) < CFG.iou_low
        for _ in range(10):
            dets = []
            for _ in range(12):
                x = float(rng.uniform(-10, 10))
                y = float(rng.uniform(-10, 10))
                yaw = float(rng.uniform(-math.pi, math.pi))
                for _ in range(int(rng.integers(1, 4))):
                    s = float(rng.uniform(0.2, 1.0))
                    dets.append(make_det(x=x, y=y, yaw=yaw, score=s, weight=s))
            out = weighted_nms(dets, CFG)
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    assert bev_iou(out[i].box, out[j].box) <= CFG.iou_low + 1e-9

    def test_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            dets = random_scene(rng, 40)
            out = weighted_nms(dets, CFG)
            _, discarded_ref = weighted_nms_reference(dets, CFG)
            assert sum(d.n_fused for d in out) + discarded_ref == len(dets)
            # empty discard band accounts for every input in some cluster
            cfg = FusionConfig(iou_low=0.7, iou_high=0.7)
            out_eq = weighted_nms(dets, cfg)
            assert sum(d.n_fused for d in out_eq) == len(dets)


class TestApplyScoreStrategy:
    def test_decay_takes_fused_weight(self):
        det = replace(make_det(score=0.8, weight=0.45, frame_lag=2), n_current=0)
        out = apply_score_strategy([det], FusionConfig(score_strategy="decay"))
        assert out[0].score == pytest.approx(0.45)

    def test_divide_formula(self):
        det = replace(make_det(score=0.8, weight=0.45, frame_lag=2), n_current=0, n_fused=1)
        cfg = FusionConfig(n_history=4, score_strategy="divide", score_decay_factor=0.6)
        out = apply_score_strategy([det], cfg)
        assert out[0].score == pytest.approx(0.6 * 0.8 / 3, abs=1e-12)

    def test_divide_clamps_denominator(self):
        det = replace(make_det(score=0.8, weight=0.45, frame_lag=1), n_current=0, n_fused=4)
        cfg = FusionConfig(n_history=4, score_strategy="divide", score_decay_factor=0.6)
        out = apply_score_strategy([det], cfg)
        assert out[0].score == pytest.approx(0.6 * 0.8, abs=1e-12)

    def test_decay_without_a_weight_keeps_the_score(self):
        det = replace(make_det(score=0.8, frame_lag=2), n_current=0)
        out = apply_score_strategy([det], FusionConfig(score_strategy="decay"))
        assert out[0].score == 0.8 and out[0].weight is None

    def test_current_members_untouched(self):
        det = replace(make_det(score=0.8, weight=0.7), n_current=1, n_fused=3)
        out = apply_score_strategy([det], FusionConfig())
        assert out[0].score == 0.8

    def test_never_exceeds_pre_strategy_score(self):
        rng = np.random.default_rng(24)
        for strategy in ("decay", "divide"):
            cfg = FusionConfig(score_strategy=strategy)
            for _ in range(50):
                score = float(rng.uniform(0.01, 1.0))
                lag = int(rng.integers(1, 5))
                weight = decayed_weight(score, lag * cfg.frame_interval, cfg)
                det = replace(make_det(score=score, weight=weight, frame_lag=lag),
                              n_current=0, n_fused=int(rng.integers(1, 5)))
                out = apply_score_strategy([det], cfg)
                assert out[0].score <= score + 1e-12


class TestFuseFrames:
    def test_single_frame_window_equals_plain_nms(self):
        rng = np.random.default_rng(25)
        dets = [
            replace(d, weight=None, frame_lag=0, n_current=None)
            for d in random_scene(rng, 20)
        ]
        frame = Frame(0.0, EgoPose.identity(), dets)
        fused = fuse_frames([frame], CFG)
        direct = weighted_nms([replace(d, weight=d.score) for d in dets], CFG)
        assert_detections_close(fused.detections, direct)

    def test_covering_recovers_missed_object(self):
        motion = ConstantVelocity(10.0, 0.0)
        frames = [
            Frame(0.1 * i, EgoPose.identity(),
                  [make_det(x=1.0 * i, score=0.9, motion=motion)])
            for i in range(4)
        ]
        frames.append(Frame(0.4, EgoPose.identity(), []))
        fused = fuse_frames(frames, CFG)
        assert len(fused.detections) == 1
        out = fused.detections[0]
        assert out.history_only
        # every history box extrapolates to x = 4; score is the fused decayed weight
        assert out.box.x == pytest.approx(4.0, abs=1e-9)
        weights = [0.9 * 0.8 ** (4 - i) for i in range(4)]
        expect_score = sum(w * w for w in weights) / sum(weights)
        assert out.score == pytest.approx(expect_score, abs=1e-12)
        assert out.n_fused == 4 and out.n_current == 0

    def test_current_box_pulled_toward_history_consensus(self):
        motion = ConstantVelocity(0.0, 0.0)
        history = [
            Frame(0.1 * i, EgoPose.identity(), [make_det(x=0.0, score=0.9, motion=motion)])
            for i in range(4)
        ]
        current = Frame(0.4, EgoPose.identity(), [make_det(x=0.5, score=0.9, motion=motion)])
        fused = fuse_frames(history + [current], CFG)
        assert len(fused.detections) == 1
        weights = [0.9 * 0.8 ** (4 - i) for i in range(4)] + [0.9]
        xs = [0.0, 0.0, 0.0, 0.0, 0.5]
        expect_x = sum(w * x for w, x in zip(weights, xs)) / sum(weights)
        assert fused.detections[0].box.x == pytest.approx(expect_x, abs=1e-12)
        assert 0.0 < fused.detections[0].box.x < 0.5

    def test_static_scene_is_fixed_point(self):
        dets = [make_det(x=5 * i, score=0.8) for i in range(3)]
        frames = [Frame(0.1 * i, EgoPose.identity(), [replace(d) for d in dets]) for i in range(5)]
        fused = fuse_frames(frames, CFG)
        assert len(fused.detections) == 3
        for out, src in zip(sorted(fused.detections, key=lambda d: d.box.x), dets):
            for name in ("x", "y", "z", "w", "l", "h", "yaw"):
                assert getattr(out.box, name) == pytest.approx(getattr(src.box, name), abs=1e-12)

    def test_history_floor_drops_stale_boxes(self):
        cfg = FusionConfig(history_score_floor=0.5)
        frames = [
            Frame(0.0, EgoPose.identity(), [make_det(score=0.6, motion=ConstantVelocity(0, 0))]),
            Frame(0.4, EgoPose.identity(), []),
        ]
        fused = fuse_frames(frames, cfg)
        assert fused.detections == []

    def test_history_floor_keeps_a_score_at_the_floor(self):
        frames = [
            Frame(0.0, EgoPose.identity(), [make_det(score=0.6, motion=ConstantVelocity(0, 0))]),
            Frame(0.4, EgoPose.identity(), []),
        ]
        floor = decayed_weight(0.6, 0.4, CFG)
        (kept,) = fuse_frames(frames, FusionConfig(history_score_floor=floor)).detections
        assert kept.score == floor
        assert fuse_frames(frames, FusionConfig(history_score_floor=math.nextafter(floor, 1.0))).detections == []

    def test_window_validation(self):
        frame = Frame(0.0, EgoPose.identity(), [])
        with pytest.raises(ValueError):
            fuse_frames([], CFG)
        with pytest.raises(ValueError):
            fuse_frames([Frame(0.1 * i, EgoPose.identity(), []) for i in range(6)], CFG)
        with pytest.raises(ValueError):
            fuse_frames([frame, Frame(0.0, EgoPose.identity(), [])], CFG)


class TestFuseSequence:
    def test_single_frame(self):
        frame = Frame(0.0, EgoPose.identity(), [make_det(score=0.9)])
        out = list(fuse_sequence([frame], CFG))
        assert len(out) == 1
        assert out[0].detections[0].score == 0.9

    def test_warmup_uses_available_history(self):
        frames = [Frame(0.1 * i, EgoPose.identity(), [make_det(score=0.9)]) for i in range(8)]
        out = list(fuse_sequence(frames, CFG))
        assert [d.n_fused for f in out for d in f.detections] == [1, 2, 3, 4, 5, 5, 5, 5]

    def test_referential_transparency(self):
        rng = np.random.default_rng(26)
        frames = []
        for i in range(60):
            dets = [
                make_det(
                    x=float(rng.uniform(-20, 20)),
                    y=float(rng.uniform(-20, 20)),
                    score=float(rng.uniform(0.3, 1.0)),
                    motion=ConstantVelocity(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
                )
                for _ in range(4)
            ]
            frames.append(Frame(0.1 * i, EgoPose.identity(), dets))
        streamed = list(fuse_sequence(frames, CFG))
        for i, got in enumerate(streamed):
            window = frames[max(0, i - CFG.n_history): i + 1]
            independent = fuse_frames(window, CFG)
            assert_detections_close(got.detections, independent.detections, tol=1e-12)

    def test_non_monotone_rejected(self):
        frames = [Frame(0.1, EgoPose.identity(), []), Frame(0.1, EgoPose.identity(), [])]
        with pytest.raises(ValueError):
            list(fuse_sequence(frames, CFG))

    def test_non_monotone_error_names_the_frame(self):
        frames = [Frame(t, EgoPose.identity(), []) for t in (0.0, 0.1, 0.2, 0.15)]
        with pytest.raises(ValueError, match=r"\(frame 3\)"):
            list(sliding_windows(frames, 3))

    def test_mixed_models_error_names_the_first_mixed_frame(self):
        cv = [make_det(x=10.0 * k) for k in range(3)]
        mixed = list(cv)
        mixed[1] = replace(cv[1], motion=Unicycle(5.0, 0.1))
        frames = [Frame(0.1 * i, EgoPose.identity(), mixed if i == 2 else list(cv)) for i in range(4)]
        with pytest.raises(ValueError, match=r"mixed motion models \['cv', 'unicycle'\].*\(frame 2\)"):
            list(fuse_sequence(frames, CFG))
        # a frame that is mixed on its own fails at its own index
        with pytest.raises(ValueError, match=r"\(frame 0\)"):
            list(sliding_windows(frames[2:], 3))

    def test_a_vote_from_before_a_long_gap_still_counts(self):
        # windows are bounded by frame count only: the decay and the history
        # floor are the only age bound, so a box 1.5 s old still comes out
        frames = [Frame(t, EgoPose.identity(), [make_det(x=10.0, score=0.9)] if t == 0.0 else [])
                  for t in (0.0, 0.1, 0.2, 0.3, 1.5)]
        cfg = PRESETS["waymo-default"]
        last = list(fuse_sequence(frames, cfg))[-1]
        assert len(last.detections) == 1
        kept = last.detections[0]
        assert kept.frame_lag == 15 and kept.history_only
        assert kept.score == pytest.approx(0.9 * cfg.weight_decay ** 15)
        assert kept.score == pytest.approx(0.032, abs=5e-4)
        assert kept.score > cfg.history_score_floor
        assert kept.box.x == 10.0

    def test_sliding_windows_trail_each_frame(self):
        frames = [Frame(0.1 * i, EgoPose.identity(), []) for i in range(5)]
        got = [[f.timestamp for f in w] for w in sliding_windows(frames, 3)]
        assert got == [[0.0], [0.0, 0.1], [0.0, 0.1, 0.2], [0.1, 0.2, 0.30000000000000004],
                       [0.2, 0.30000000000000004, 0.4]]


class TestHistoryIdentity:
    def test_history_box_at_20hz_is_history_only(self):
        # 0.05 s is half the 0.1 s interval, so the lag rounds to 0; the box is history anyway
        old = Frame(0.0, EgoPose.identity(), [make_det(x=0.0, score=0.9)])
        current = Frame(0.05, EgoPose.identity(), [make_det(x=40.0, score=0.8)])
        forwarded = forward_frame(old, current.timestamp, current.ego, CFG)
        assert forwarded[0].frame_lag == 0 and forwarded[0].n_current == 0
        out = fuse_frames([old, current], CFG)
        lone = [d for d in out.detections if d.box.x < 20.0]
        assert len(lone) == 1
        assert lone[0].history_only
        assert lone[0].score == pytest.approx(decayed_weight(0.9, 0.05, CFG))
        assert lone[0].score < 0.9
        fresh = [d for d in out.detections if d.box.x >= 20.0]
        assert [(d.n_current, d.score) for d in fresh] == [(1, 0.8)]


def _moved(ego: EgoPose, angle: float, shift: tuple[float, float]) -> EgoPose:
    """ego after one global rotation by angle about the origin, then a shift."""
    c, s = math.cos(angle), math.sin(angle)
    return EgoPose(c * ego.x - s * ego.y + shift[0], s * ego.x + c * ego.y + shift[1], ego.yaw + angle)


def separated_window(seed: int, model: str) -> list[Frame]:
    """Five frames of objects 15 m apart, each seen with centimetre noise, so clusters are far from
    every IoU threshold; boxes and motion are in each frame's ego coordinates."""
    rng = np.random.default_rng(seed)
    objects = [(15.0 * (k % 3), 15.0 * (k // 3), float(rng.uniform(-math.pi, math.pi))) for k in range(5)]
    frames = []
    for i in range(5):
        ego = EgoPose(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(-0.1, 0.1)))
        dets = []
        for x, y, yaw in objects:
            if rng.uniform() < 0.2:
                continue
            world = Box3D(x + float(rng.normal(0, 0.01)), y + float(rng.normal(0, 0.01)), 0.8, 2.0, 4.5, 1.6,
                          yaw + float(rng.normal(0, 0.005)))
            speed = float(rng.uniform(-0.3, 0.3))
            motion = {"cv": ConstantVelocity(speed, -speed), "unicycle": Unicycle(speed, 0.2),
                      "bicycle": Bicycle(speed, 0.3, 1.2)}[model]
            dets.append(Detection(transform_box(world, EgoPose.identity(), ego), float(rng.uniform(0.3, 1.0)),
                                  "car", motion, track_id=len(dets)))
        frames.append(Frame(0.1 * i, ego, dets))
    return frames


class TestRigidTransform:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["cv", "unicycle", "bicycle"]),
           angle=st.floats(-math.pi, math.pi), shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_global_rigid_transform_of_every_ego_leaves_the_output(self, seed, model, angle, shift):
        window = separated_window(seed, model)
        moved = [Frame(f.timestamp, _moved(f.ego, angle, shift), f.detections) for f in window]
        got = fuse_frames(moved, CFG).detections
        expected = fuse_frames(window, CFG).detections
        assert len(got) == len(expected) > 0
        for a, b in zip(got, expected):
            assert (a.label, a.track_id, a.n_fused, a.n_current, a.frame_lag) == (
                b.label, b.track_id, b.n_fused, b.n_current, b.frame_lag)
            for name in ("x", "y", "z", "w", "l", "h"):
                assert getattr(a.box, name) == pytest.approx(getattr(b.box, name), abs=1e-9)
            assert abs(normalize_angle(a.box.yaw - b.box.yaw)) <= 1e-9
            assert a.score == pytest.approx(b.score, abs=1e-9)
            assert a.weight == pytest.approx(b.weight, abs=1e-9)
            for name in (f.name for f in dataclasses.fields(a.motion)):
                assert getattr(a.motion, name) == pytest.approx(getattr(b.motion, name), abs=1e-9)


NOT_PYTHON_INTS = [2.5, 2.7, 2.0, True, "a", 3.5, np.int64(3)]


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}={value!r}")
    for field in ("frame_lag", "track_id", "n_fused", "n_current") for value in NOT_PYTHON_INTS
] + [pytest.param("frame_lag", None, id="frame_lag=None"), pytest.param("n_fused", None, id="n_fused=None")])
def test_integer_fields_of_a_detection_take_python_ints_only(field, value):
    with pytest.raises(ValueError) as err:
        replace(make_det(), **{field: value})
    assert str(err.value) == f"{field} must be an integer, got {value!r}"


class TestDetectionColumns:
    def rows(self):
        return [make_det(x=5.0 * k, score=0.2 * k + 0.1, weight=0.1 * k,
                         motion=(ConstantVelocity(1.0, 2.0), Unicycle(3.0, 0.1), Bicycle(2.0, 0.2, 1.1))[k % 3])
                for k in range(5)]

    def test_equals_any_sequence_of_equal_detections(self):
        dets = self.rows()
        cols = DetectionColumns.of(dets)
        assert cols == dets and dets == cols and cols == tuple(dets) and cols == DetectionColumns.of(dets)
        assert cols != dets[:-1] and cols != dets[::-1] and cols != "text"
        assert DetectionColumns.of([]) == []
        assert list(cols) == dets and cols[-1] == dets[-1] and cols[1:3] == dets[1:3]
        with pytest.raises(IndexError):
            cols[5]

    def test_is_immutable(self):
        cols = DetectionColumns.of(self.rows())
        with pytest.raises(ValueError):
            cols.boxes[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cols.score = cols.score
        with pytest.raises(TypeError):
            hash(cols)

    @pytest.mark.parametrize("column, row, value, message", [
        ("score", 3, 1.5, "score must lie in [0, 1], got 1.5"),
        ("weight", 2, -0.1, "weight must lie in [0, 1], got -0.1"),
        ("frame_lag", 1, -1, "frame_lag must be non-negative"),
        ("n_fused", 4, 0, "n_fused must be at least 1"),
        ("n_current", 1, -1, "n_current must lie in [0, n_fused], got -1 with n_fused 1"),
        ("n_current", 3, 2, "n_current must lie in [0, n_fused], got 2 with n_fused 1"),
        ("label", 0, "", "empty class label"),
        ("label", 1, None, "label must be a string, got None"),
        ("label", 4, 0, "label must be a string, got 0"),
        ("boxes", 3, (1.0, 2.0, 0.5, 0.0, 4.0, 1.0, 0.0), "box dimensions must be strictly positive"),
        ("boxes", 2, (1.0, 2.0, 0.5, 1e-4, 1e-3, 1.0, 0.0), f"degenerate BEV footprint: w*l = {1e-4 * 1e-3!r}"),
        ("boxes", 1, (math.nan, 2.0, 0.5, 2.0, 4.0, 1.0, 0.0), "x must be finite, got nan"),
        ("boxes", 0, (1.0, 2.0, 0.5, 2.0, 4.0, 1.0, math.inf), "angle must be finite, got inf"),
        ("params", 2, (1.0, 2.0, 1.1), "slip must lie in [-pi/2, pi/2], got 2.0"),
        ("params", 2, (1.0, 0.2, 0.0), "rear_axle must be positive"),
        ("params", 0, (math.inf, 0.0, 0.0), "vx must be finite, got inf"),
        ("track_id", 1, True, "track_id must be an integer, got True"),
        ("track_id", 3, np.int64(3), f"track_id must be an integer, got {np.int64(3)!r}"),
        ("track_id", 2, 3.0, "track_id must be an integer, got 3.0"),
    ])
    def test_construction_makes_every_row_check(self, column, row, value, message):
        cols = DetectionColumns.of(self.rows())
        values = getattr(cols, column).copy()
        values[row] = value
        fields = {f.name: getattr(cols, f.name) for f in dataclasses.fields(cols)}
        with pytest.raises(ValueError) as err:
            DetectionColumns(**{**fields, column: values})
        # the message of the row's own constructors, after the first offending row
        assert str(err.value) == f"detection {row}: {message}"

    @pytest.mark.parametrize("faults, message", [
        ({"boxes": (math.nan, 2.0, 0.5, 2.0, 4.0, 1.0, 0.0), "params": (2.0, 2.0, 1.1)}, "x must be finite, got nan"),
        ({"params": (2.0, 2.0, 1.1), "score": 1.5}, "slip must lie in [-pi/2, pi/2], got 2.0"),
        ({"score": 1.5, "label": ""}, "score must lie in [0, 1], got 1.5"),
    ])
    def test_a_row_with_several_faults_names_the_first_in_construction_order(self, faults, message):
        cols = DetectionColumns.of(self.rows())
        fields = {f.name: getattr(cols, f.name).copy() for f in dataclasses.fields(cols)}
        for column, value in faults.items():
            fields[column][2] = value
        with pytest.raises(ValueError) as err:
            DetectionColumns(**fields)
        assert str(err.value) == f"detection 2: {message}"

    @pytest.mark.parametrize("column", ["frame_lag", "n_fused", "n_current"])
    def test_construction_takes_integer_columns_only(self, column):
        cols = DetectionColumns.of(self.rows())
        fields = {f.name: getattr(cols, f.name) for f in dataclasses.fields(cols)}
        values = fields[column].astype(float)
        with pytest.raises(ValueError) as err:
            DetectionColumns(**{**fields, column: values})
        assert str(err.value) == f"detection 0: {column} must be an integer, got {values.tolist()[0]!r}"

    @pytest.mark.parametrize("n_fused, n_current", [(1, -1), (1, 2), (3, 4)])
    def test_a_detection_counts_at_most_its_members_as_current(self, n_fused, n_current):
        with pytest.raises(ValueError, match=r"n_current must lie in \[0, n_fused\]"):
            dataclasses.replace(make_det(), n_fused=n_fused, n_current=n_current)
        assert dataclasses.replace(make_det(), n_fused=n_fused, n_current=n_fused).n_current == n_fused

    def test_construction_wraps_yaws(self):
        cols = DetectionColumns.of(self.rows())
        boxes = cols.boxes.copy()
        boxes[:, 6] = [4.0, -4.0, math.pi, -math.pi, 0.5]
        fields = {f.name: getattr(cols, f.name) for f in dataclasses.fields(cols)}
        wrapped = DetectionColumns(**{**fields, "boxes": boxes})
        assert [d.box.yaw for d in wrapped] == [normalize_angle(a) for a in (4.0, -4.0, math.pi, -math.pi, 0.5)]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_merged_outputs_are_checked(self):
        # the weighted mean of two finite centres overflows
        dets = [make_det(x=1.5e308, score=0.9, weight=0.9), make_det(x=1.5e308, score=0.8, weight=0.8)]
        with pytest.raises(ValueError, match=r"^detection 0: x must be finite, got inf$"):
            weighted_nms(dets, CFG)

    def test_fusion_steps_take_lists_and_return_columns(self):
        dets = [replace(d, motion=ConstantVelocity(1.0, 2.0)) for d in self.rows()]
        fused = weighted_nms(dets, CFG)
        assert isinstance(fused, DetectionColumns) and fused == weighted_nms(DetectionColumns.of(dets), CFG)
        scored = apply_score_strategy(list(fused), CFG)
        assert isinstance(scored, DetectionColumns) and scored == apply_score_strategy(fused, CFG)
        frame = fuse_frames([Frame(0.0, EgoPose.identity(), dets)], CFG)
        assert isinstance(frame.detections, DetectionColumns)


class TestPresets:
    def test_table_values(self):
        assert PRESETS["waymo-default"] == FusionConfig(
            weight_decay=0.8, iou_low=0.7, iou_high=0.7, score_strategy="decay"
        )
        assert PRESETS["nuscenes"].weight_decay == 0.6
        assert PRESETS["nuscenes"].iou_low == 0.2
        assert PRESETS["nuscenes"].iou_high == 0.7
        assert PRESETS["multi-method"].iou_low == 0.9
        assert PRESETS["multi-method"].iou_high == 0.9
        assert PRESETS["multi-method"].score_strategy == "divide"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(iou_low=0.8, iou_high=0.7)
        with pytest.raises(ValueError):
            FusionConfig(weight_decay=0.0)
        with pytest.raises(ValueError):
            FusionConfig(score_strategy="other")

    @pytest.mark.parametrize("field,value,message", [
        ("frame_interval", math.nan, "frame_interval must be positive and finite"),
        ("frame_interval", math.inf, "frame_interval must be positive and finite"),
        ("frame_interval", 0.0, "frame_interval must be positive and finite"),
        ("history_score_floor", math.nan, "history_score_floor must be finite and non-negative"),
        ("history_score_floor", math.inf, "history_score_floor must be finite and non-negative"),
        ("history_score_floor", -0.1, "history_score_floor must be finite and non-negative"),
        # a window length is a Python int, as Detection's integer fields are
        ("n_history", 2.5, "n_history must be an integer, got 2.5"),
        ("n_history", True, "n_history must be an integer, got True"),
        ("n_history", np.int64(4), f"n_history must be an integer, got {np.int64(4)!r}"),
        # a float field takes a Python int or float: a bool is no JSON number, a numpy float no JSON value
        ("weight_decay", True, "weight_decay must be a number, got True"),
        ("iou_high", True, "iou_high must be a number, got True"),
        ("frame_interval", True, "frame_interval must be a number, got True"),
        ("weight_decay", np.float32(0.5), f"weight_decay must be a number, got {np.float32(0.5)!r}"),
        ("history_score_floor", np.float64(0.1), f"history_score_floor must be a number, got {np.float64(0.1)!r}"),
    ])
    def test_interval_and_floor_must_be_finite(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FusionConfig(**{field: value})
