from __future__ import annotations

import math
import statistics
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boxfuse import evaluation
from boxfuse.frames import DetectionColumns
from boxfuse.geometry import Footprints, bev_iou, circumradius, iou_can_reach
from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    Detection,
    EgoPose,
    Frame,
    TrajectorySpec,
    Unicycle,
    average_precision,
    evaluate_enhancement,
    filter_detections_to_subset,
    generate_mixed_scene,
    gt_subset,
    match_frame,
    normalize_angle,
    split_motion_state,
    strict_turning_tracks,
)

from boxfuse.cli import main
from boxfuse.io import iter_frames, read_frames
from oracles import ap_reference, filter_detections_to_subset_reference, match_frame_reference
from test_synth import PINNED_SCENE_FLAGS, run_synth


def det(x=0.0, y=0.0, yaw=0.0, score=0.9, label="vehicle", track_id=None, motion=None):
    return Detection(
        box=Box3D(x, y, 0.8, 2.0, 4.6, 1.6, yaw),
        score=score,
        label=label,
        motion=motion if motion is not None else ConstantVelocity(0, 0),
        track_id=track_id,
    )


def frame(dets, t=0.0):
    return Frame(t, EgoPose.identity(), list(dets))


def scripted_scene():
    """2 frames x 10 GT; 7 TPs per frame with yaw offsets, 3 misses, 2 FPs."""
    rng = np.random.default_rng(31)
    gt_frames = []
    det_frames = []
    for fi in range(2):
        gts = []
        dets = []
        for i in range(10):
            x, y = 12.0 * i, 15.0 * fi
            yaw = float(rng.uniform(-math.pi, math.pi))
            gts.append(det(x, y, yaw, score=1.0, track_id=fi * 10 + i))
            if i < 7:
                dets.append(
                    det(x + 0.3, y - 0.2, yaw + 0.1 * (i % 3), score=float(rng.uniform(0.3, 0.99)))
                )
        for j in range(2):
            dets.append(det(200 + 30 * j, -50.0 * fi, 0.0, score=float(rng.uniform(0.3, 0.99))))
        gt_frames.append(frame(gts, 0.1 * fi))
        det_frames.append(frame(dets, 0.1 * fi))
    return gt_frames, det_frames


class TestMatchFrame:
    def test_identical_all_matched(self):
        gts = [det(12 * i, track_id=i) for i in range(5)]
        result = match_frame(frame(gts), frame(gts), 0.5)
        assert len(result.pairs) == 5
        assert all(iou == 1.0 for _, _, iou in result.pairs)
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()

    def test_empty_detections(self):
        gts = [det(12 * i) for i in range(3)]
        result = match_frame(frame(gts), frame([]), 0.5)
        assert result.pairs == ()
        assert result.unmatched_gt == (0, 1, 2)

    def test_greedy_score_order(self):
        gt = frame([det(0.0)])
        contested = frame([det(0.2, score=0.6), det(-0.2, score=0.9)])
        result = match_frame(gt, contested, 0.5)
        assert len(result.pairs) == 1
        assert result.pairs[0][1] == 1  # higher-score detection wins
        assert result.unmatched_det == (0,)

    def test_threshold_respected(self):
        gt = frame([det(0.0)])
        far = frame([det(3.5)])
        result = match_frame(gt, far, 0.5)
        assert result.pairs == ()

    def test_one_to_one(self):
        rng = np.random.default_rng(32)
        gts = [det(6 * i) for i in range(6)]
        dets = [det(6 * i + float(rng.uniform(-0.5, 0.5)), score=float(rng.uniform(0.2, 1)))
                for i in range(6) for _ in range(2)]
        result = match_frame(frame(gts), frame(dets), 0.5)
        matched_gt = [g for g, _, _ in result.pairs]
        matched_det = [d for _, d, _ in result.pairs]
        assert len(set(matched_gt)) == len(matched_gt)
        assert len(set(matched_det)) == len(matched_det)

    def test_label_aware(self):
        gt = frame([det(0.0, label="vehicle")])
        wrong = frame([det(0.0, label="cyclist")])
        assert match_frame(gt, wrong, 0.5).pairs == ()


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [det(12 * i, score=1.0) for i in range(5)]
        res = average_precision([frame(gts)], [frame(gts)], 0.5)
        assert res.ap == 1.0
        assert res.aph == 1.0

    def test_opposite_heading_zeroes_aph(self):
        gts = [det(12 * i, yaw=0.0) for i in range(4)]
        flipped = [det(12 * i, yaw=math.pi) for i in range(4)]
        res = average_precision([frame(gts)], [frame(flipped)], 0.5)
        assert res.ap == 1.0
        assert res.aph == pytest.approx(0.0, abs=1e-12)

    def test_scripted_scene_frozen_oracle(self):
        # frozen from the brute-force PR enumeration of this exact scene
        gt_frames, det_frames = scripted_scene()
        res = average_precision(gt_frames, det_frames, 0.5)
        assert res.ap == pytest.approx(0.6029411764705882, abs=1e-12)
        assert res.aph == pytest.approx(0.5852780984725464, abs=1e-12)

    def test_matches_live_oracle(self):
        gt_frames, det_frames = scripted_scene()
        res = average_precision(gt_frames, det_frames, 0.5)
        events = []
        for gt, dd in zip(gt_frames, det_frames):
            m = match_frame(gt, dd, 0.5)
            hit = {di: gi for gi, di, _ in m.pairs}
            for di, d in enumerate(dd.detections):
                gi = hit.get(di)
                if gi is None:
                    events.append((d.score, False, 0.0))
                else:
                    err = abs(normalize_angle(d.box.yaw - gt.detections[gi].box.yaw))
                    events.append((d.score, True, max(0.0, 1 - err / math.pi)))
        events.sort(key=lambda e: -e[0])
        ap, aph = ap_reference([e[1] for e in events], [e[2] for e in events], res.n_gt)
        assert res.ap == pytest.approx(ap, abs=1e-12)
        assert res.aph == pytest.approx(aph, abs=1e-12)

    def test_aph_never_exceeds_ap(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            gts = [det(10 * i, yaw=float(rng.uniform(-math.pi, math.pi))) for i in range(8)]
            dets = [
                det(10 * i + float(rng.uniform(-1, 1)),
                    yaw=float(rng.uniform(-math.pi, math.pi)),
                    score=float(rng.uniform(0.1, 1)))
                for i in range(8) if rng.uniform() > 0.2
            ]
            res = average_precision([frame(gts)], [frame(dets)], 0.5)
            assert res.aph <= res.ap + 1e-12

    def test_monotonicity_smoke(self):
        gt_frames, det_frames = scripted_scene()
        base = average_precision(gt_frames, det_frames, 0.5).ap
        # removing a TP never increases AP
        fewer = [frame(f.detections[1:], f.timestamp) for f in det_frames]
        assert average_precision(gt_frames, fewer, 0.5).ap <= base + 1e-12
        # adding a top-scoring FP never increases AP
        spiked = [
            frame(list(f.detections) + [det(500.0, score=0.999)], f.timestamp)
            for f in det_frames
        ]
        assert average_precision(gt_frames, spiked, 0.5).ap <= base + 1e-12

    def test_no_gt_rejected(self):
        with pytest.raises(ValueError):
            average_precision([frame([])], [frame([det()])], 0.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            average_precision([frame([det()])], [], 0.5)

    def test_recall_non_increasing_with_threshold(self):
        gt_frames, det_frames = scripted_scene()
        res = average_precision(gt_frames, det_frames, 0.5)
        recalls = [p.recall for p in res.curve]          # descending score order
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))


class TestSplitMotionState:
    def test_stationary(self):
        frames = [frame([det(track_id=0, motion=ConstantVelocity(0, 0))])]
        assert split_motion_state(frames) == {0: "stationary"}

    def test_turning_thresholds(self):
        frames = [frame([det(track_id=0, motion=Unicycle(10.0, 0.5))])]
        assert split_motion_state(frames) == {0: "turning"}
        assert strict_turning_tracks(frames) == {0}

    def test_large_radius_is_straight(self):
        frames = [frame([det(track_id=0, motion=Unicycle(10.0, 0.01))])]
        assert split_motion_state(frames) == {0: "straight"}

    def test_bicycle_radius_rule(self):
        # radius = rear_axle / sin(slip) = 1.2 / sin(0.06) ~ 20 m
        frames = [frame([det(track_id=0, motion=Bicycle(10.0, 0.06, 1.2))])]
        assert split_motion_state(frames) == {0: "turning"}

    def test_slow_turner_not_strict(self):
        frames = [frame([det(track_id=0, motion=Unicycle(2.0, 0.5))])]
        assert split_motion_state(frames) == {0: "turning"}
        assert strict_turning_tracks(frames) == set()

    def test_exhaustive_and_deterministic(self):
        specs = [
            (TrajectorySpec(model="cv", speed_range=(0.0, 0.0), duration=0.5), 3),
            (TrajectorySpec(model="cv", duration=0.5), 3),
            (TrajectorySpec(model="bicycle", radius_range=(12, 20), duration=0.5), 3),
        ]
        frames = generate_mixed_scene(specs, seed=17)
        labels = split_motion_state(frames)
        assert len(labels) == 9
        assert set(labels.values()) == {"stationary", "straight", "turning"}
        assert labels == split_motion_state(frames)

    def test_missing_track_id_rejected(self):
        with pytest.raises(ValueError):
            split_motion_state([frame([det()])])


class TestEvaluateEnhancement:
    @staticmethod
    def scene():
        specs = [
            (TrajectorySpec(model="cv", speed_range=(0.0, 0.0), duration=0.5), 4),
            (TrajectorySpec(model="cv", duration=0.5), 3),
            (TrajectorySpec(model="bicycle", radius_range=(12, 20), duration=0.5), 2),
        ]
        return generate_mixed_scene(specs, seed=19)

    def test_identical_streams_zero_delta(self):
        gt = self.scene()
        report = evaluate_enhancement(gt, gt, gt, 0.5)
        subsets = {r.subset for r in report.rows}
        assert subsets == {"all", "stationary", "straight", "turning"}
        for row in report.rows:
            assert row.delta_ap == 0.0
            assert row.delta_aph == 0.0
            assert row.ap_raw == pytest.approx(1.0, abs=1e-12)

    def test_subset_filter_excludes_far_detections(self):
        from dataclasses import replace

        gt = self.scene()
        # corrupt one stream by adding a far false positive that outranks the TPs
        noisy = [
            Frame(
                f.timestamp,
                f.ego,
                [replace(d, score=0.9) for d in f.detections] + [det(500.0, score=0.99)],
            )
            for f in gt
        ]
        report = evaluate_enhancement(gt, noisy, gt, 0.5)
        by_subset = {r.subset: r for r in report.rows}
        # the FP hurts "all" but is filtered out of every subset row
        assert by_subset["all"].ap_raw < 0.999
        assert by_subset["stationary"].ap_raw == pytest.approx(1.0, abs=1e-12)
        assert by_subset["turning"].ap_raw == pytest.approx(1.0, abs=1e-12)

    def test_csv_rows_shape(self):
        gt = self.scene()
        report = evaluate_enhancement(gt, gt, gt, 0.5)
        rows = report.csv_rows()
        assert len(rows) == 2 * len(report.rows)
        assert {r[1] for r in rows} == {"AP", "APH"}
        text = report.to_text()
        assert "subset" in text and "turning" in text

    def test_empty_subsets_omitted(self):
        specs = [(TrajectorySpec(model="cv", speed_range=(0.0, 0.0), duration=0.5), 3)]
        gt = generate_mixed_scene(specs, seed=20)
        report = evaluate_enhancement(gt, gt, gt, 0.5)
        assert {r.subset for r in report.rows} == {"all", "stationary"}

    @pytest.mark.parametrize("n_frames", [0, 2])
    def test_ground_truth_without_boxes_is_rejected(self, n_frames):
        gt = [frame([], t=0.1 * k) for k in range(n_frames)]
        dets = [frame([det(1.0 * k)], t=0.1 * k) for k in range(n_frames)]
        with pytest.raises(ValueError, match="^no ground-truth boxes to evaluate against$"):
            evaluate_enhancement(gt, dets, dets, 0.5)


class TestAlignment:
    ENTRY_POINTS = {
        "average_precision": lambda gt, det: average_precision(gt, det, 0.5),
        "filter_detections_to_subset": lambda gt, det: filter_detections_to_subset(det, gt),
        "evaluate_enhancement": lambda gt, det: evaluate_enhancement(gt, det, det, 0.5),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_stream_cut_one_frame_late_is_rejected(self, name):
        gt = TestEvaluateEnhancement.scene()
        late = gt[1:] + gt[-1:]
        with pytest.raises(ValueError, match=r"frame 0 has timestamps \[0\.\d+, 0\.\d+"):
            self.ENTRY_POINTS[name](gt, late)
        with pytest.raises(ValueError, match="must align"):
            self.ENTRY_POINTS[name](gt, gt[:-1])


# motions whose tracks land in each motion-state subset
SUBSET_MOTIONS = (ConstantVelocity(0.0, 0.0), ConstantVelocity(8.0, 0.0), Unicycle(10.0, 0.5))


def crowded_scene(seed: int, n_frames: int = 3, n_gt: int = 24):
    """Two labels on a tight grid: neighbours overlap, scores tie, some boxes are identical.

    Two ground-truth tracks repeat the footprints of two others. Detections
    are jittered copies of the ground truth (some exact), exact
    duplicates of other detections, relabelled copies and far false positives.
    """
    rng = np.random.default_rng(seed)
    labels = ("car", "truck")
    gt_frames, det_frames = [], []
    tracks = [(int(rng.integers(0, 2)), int(rng.integers(0, 3))) for _ in range(n_gt)]
    for fi in range(n_frames):
        gts = []
        for tid, (lab, mot) in enumerate(tracks):
            x, y = 3.0 * (tid % 6) + 0.2 * fi, 2.5 * (tid // 6)
            gts.append(det(x, y, float(rng.uniform(-0.3, 0.3)), score=1.0, label=labels[lab],
                           track_id=tid, motion=SUBSET_MOTIONS[mot]))
        # two more tracks on the footprints of the first two: exact IoU ties between gt boxes
        gts += [Detection(box=g.box, score=1.0, label=g.label, motion=g.motion, track_id=n_gt + k)
                for k, g in enumerate(gts[:2])]
        dets = []
        for g in gts:
            roll = rng.uniform()
            score = float(rng.choice([0.5, 0.7, 0.9, float(rng.uniform(0.1, 1.0))]))
            if roll < 0.15:
                continue
            if roll < 0.3:
                box = g.box
            else:
                box = Box3D(g.box.x + float(rng.normal(0, 0.6)), g.box.y + float(rng.normal(0, 0.6)),
                            0.8, 2.0, 4.6, 1.6, g.box.yaw + float(rng.normal(0, 0.2)))
            label = g.label if rng.uniform() < 0.9 else labels[1 - labels.index(g.label)]
            dets.append(Detection(box=box, score=score, label=label, motion=g.motion))
        dets += [dets[int(k)] for k in rng.integers(0, len(dets), size=4)]
        dets += [det(200.0 + 10 * k, score=0.9, label=labels[k % 2]) for k in range(2)]
        order = rng.permutation(len(dets))
        gt_frames.append(frame(gts, 0.1 * fi))
        det_frames.append(frame([dets[int(k)] for k in order], 0.1 * fi))
    return gt_frames, det_frames


class TestAgainstAllPairsReference:
    @pytest.mark.parametrize("seed", range(6))
    # 0.9 is the highest: a threshold of 1 or more is rejected (test_threshold_of_one_or_more_rejected)
    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.7, 0.9])
    def test_match_frame(self, seed, threshold):
        gt_frames, det_frames = crowded_scene(seed)
        for gt, dd in zip(gt_frames, det_frames):
            assert match_frame(gt, dd, threshold) == match_frame_reference(gt, dd, threshold)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_iou", [0.0, 0.5, 0.7])
    def test_filter_detections_to_subset(self, seed, min_iou):
        gt_frames, det_frames = crowded_scene(seed)
        subset = gt_subset(gt_frames, set(range(0, 24, 3)))
        assert filter_detections_to_subset(det_frames, subset, min_iou) == (
            filter_detections_to_subset_reference(det_frames, subset, min_iou)
        )

    @pytest.mark.parametrize("seed", range(6))
    # thresholds below, at and above the subset filter's IoU
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_evaluate_enhancement_rows(self, seed, threshold, monkeypatch):
        gt_frames, raw_frames = crowded_scene(seed)
        _, fused_frames = crowded_scene(seed + 100)
        report = evaluate_enhancement(gt_frames, raw_frames, fused_frames, threshold)
        # the report as the all-pairs evaluation built it: the same AP
        # accumulation, fed by the reference matcher and subset filter
        monkeypatch.setattr(evaluation, "match_frame", match_frame_reference)
        labels = split_motion_state(gt_frames)
        rows = []
        for name in ("all", "stationary", "straight", "turning"):
            ids = set(labels) if name == "all" else {t for t, lab in labels.items() if lab == name}
            if not ids:
                continue
            sub_gt = gt_subset(gt_frames, ids)
            results = []
            for stream in (raw_frames, fused_frames):
                if name != "all":
                    stream = filter_detections_to_subset_reference(stream, sub_gt)
                results.append(evaluation.average_precision(sub_gt, stream, threshold))
            raw, fused = results
            rows.append(evaluation.SubsetMetrics(name, raw.n_gt, raw.ap, fused.ap, raw.aph, fused.aph))
        assert len(rows) == 4
        assert report.rows == tuple(rows)

    @pytest.mark.parametrize("threshold", [-0.1, math.nan])
    def test_negative_or_nan_threshold_rejected(self, threshold, monkeypatch):
        gt_frames, det_frames = crowded_scene(0, n_frames=1)
        calls = []
        monkeypatch.setattr(evaluation, "bev_iou", lambda a, b: calls.append((a, b)))
        with pytest.raises(ValueError, match="non-negative"):
            match_frame(gt_frames[0], det_frames[0], threshold)
        with pytest.raises(ValueError, match="non-negative"):
            filter_detections_to_subset(det_frames, gt_frames, threshold)
        with pytest.raises(ValueError, match="non-negative"):
            evaluate_enhancement(gt_frames, det_frames, det_frames, threshold)
        assert calls == []

    @pytest.mark.parametrize("threshold", [1.0, 1.5, math.inf])
    def test_threshold_of_one_or_more_rejected(self, threshold, monkeypatch):
        # no IoU exceeds 1, so such a threshold would match nothing and read as AP 0
        gt_frames, det_frames = crowded_scene(0, n_frames=1)
        calls = []
        monkeypatch.setattr(evaluation, "bev_iou", lambda a, b: calls.append((a, b)))
        with pytest.raises(ValueError, match="below 1"):
            match_frame(gt_frames[0], det_frames[0], threshold)
        with pytest.raises(ValueError, match="below 1"):
            filter_detections_to_subset(det_frames, gt_frames, threshold)
        with pytest.raises(ValueError, match="below 1"):
            evaluate_enhancement(gt_frames, det_frames, det_frames, threshold)
        assert calls == []


def bound_keeps(a: Box3D, b: Box3D, floor: float) -> bool:
    """Whether geometry.iou_can_reach keeps the pair (a, b) at floor."""
    a_fp, b_fp = (Footprints.of(np.array([box.to_array()]), np.array([circumradius(box)])) for box in (a, b))
    return bool(iou_can_reach(a_fp, b_fp, floor)[0])


def as_columns(frames):
    return [Frame(f.timestamp, f.ego, DetectionColumns.of(f.detections)) for f in frames]


class TestColumns:
    @pytest.mark.parametrize("seed", range(4))
    def test_lists_and_columns_give_equal_results(self, seed):
        gt_frames, raw_frames = crowded_scene(seed)
        _, fused_frames = crowded_scene(seed + 100)
        gt_cols, raw_cols, fused_cols = map(as_columns, (gt_frames, raw_frames, fused_frames))
        assert evaluate_enhancement(gt_cols, raw_cols, fused_cols) == (
            evaluate_enhancement(gt_frames, raw_frames, fused_frames))
        for gt, det, gt_c, det_c in zip(gt_frames, raw_frames, gt_cols, raw_cols):
            assert match_frame(gt_c, det_c, 0.5) == match_frame(gt, det, 0.5)
        assert average_precision(gt_cols, fused_cols, 0.5) == average_precision(gt_frames, fused_frames, 0.5)
        ids = set(range(0, 24, 3))
        assert filter_detections_to_subset(raw_cols, gt_subset(gt_cols, ids)) == (
            filter_detections_to_subset(raw_frames, gt_subset(gt_frames, ids)))
        assert split_motion_state(gt_cols) == split_motion_state(gt_frames)

    @pytest.mark.parametrize("seed", range(3))
    def test_bev_iou_called_once_per_same_label_candidate_pair_gt_first(self, seed, monkeypatch):
        gt_frames, raw_frames = crowded_scene(seed)
        _, fused_frames = crowded_scene(seed + 100)
        calls = Counter()
        bev_iou = evaluation.bev_iou

        def counting(a, b):
            calls[(tuple(a.to_array()), tuple(b.to_array()))] += 1
            return bev_iou(a, b)

        monkeypatch.setattr(evaluation, "bev_iou", counting)
        evaluate_enhancement(gt_frames, raw_frames, fused_frames, 0.5)
        # the same-label candidate pairs that the IoU bound keeps at 0.5, gt first
        expected, reaching = Counter(), set()
        for stream in (raw_frames, fused_frames):
            for gt, dd in zip(gt_frames, stream):
                for g in gt.detections:
                    for d in dd.detections:
                        dx, dy = g.box.x - d.box.x, g.box.y - d.box.y
                        reach = circumradius(d.box) + circumradius(g.box)
                        if g.label != d.label:
                            continue
                        key = (tuple(g.box.to_array()), tuple(d.box.to_array()))
                        if dx * dx + dy * dy < reach * reach and bound_keeps(g.box, d.box, 0.5):
                            expected[key] += 1
                        if bev_iou(g.box, d.box) >= 0.5:
                            reaching.add(key)
        assert sum(expected.values()) > 0
        assert calls == expected
        assert reaching and reaching <= set(calls)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), floor=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.0, 1.0)))
    def test_a_floored_table_holds_every_pair_at_or_above_its_floor(self, seed, floor):
        gt_frames, det_frames = crowded_scene(seed, n_frames=1)
        gt, det = gt_frames[0].detections, det_frames[0].detections
        # every same-label pair with IoU > 0, from all pairs
        gt_boxes, det_boxes = gt.box_objects(), det.box_objects()
        full = {(di, gi, bev_iou(g, d)) for di, d in enumerate(det_boxes) for gi, g in enumerate(gt_boxes)
                if det.label[di] == gt.label[gi] and bev_iou(g, d) > 0.0}

        def table(floor):
            return set(zip(*(column.tolist() for column in evaluation._frame_overlaps(gt, [det], floor)[0])))

        floored = table(floor)
        assert table(0.0) == full
        assert floored <= full
        assert {pair for pair in full if pair[2] >= floor} <= floored

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), floor=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           empty=st.sampled_from([None, "gt", "raw", "fused"]))
    def test_one_search_gives_each_set_the_table_of_its_own(self, seed, floor, empty):
        gt_frames, raw_frames = crowded_scene(seed, n_frames=1)
        _, fused_frames = crowded_scene(seed + 1, n_frames=1)
        sets = {name: frames[0].detections for name, frames in
                (("gt", gt_frames), ("raw", raw_frames), ("fused", fused_frames))}
        if empty is not None:
            sets[empty] = sets[empty][:0]
        gt, raw, fused = sets.values()
        calls = []
        bev_iou = evaluation.bev_iou

        def recording(a, b):
            calls.append((tuple(a.to_array()), tuple(b.to_array())))
            return bev_iou(a, b)

        evaluation.bev_iou = recording
        try:
            shared = evaluation._frame_overlaps(gt, [raw, fused], floor)
            shared_calls, calls[:] = calls[:], []
            alone = [evaluation._frame_overlaps(gt, [dets], floor)[0] for dets in (raw, fused)]
        finally:
            evaluation.bev_iou = bev_iou
        # raw pairs first, then fused pairs, each set's in its table order
        assert shared_calls == calls
        assert len(shared) == 2
        for got, want in zip(shared, alone):
            for got_column, want_column in zip(got, want):
                assert got_column.dtype == want_column.dtype
                assert np.array_equal(got_column, want_column)

    # speeds and radii: non-negative, radii possibly infinite
    @given(groups=st.lists(st.tuples(st.integers(0, 4), st.floats(min_value=0.0)), min_size=1))
    def test_track_medians_equal_statistics_median(self, groups):
        tracks = sorted({g for g, _ in groups})
        code = {g: k for k, g in enumerate(tracks)}
        got = evaluation._medians(np.array([code[g] for g, _ in groups], dtype=np.int64),
                                  np.array([v for _, v in groups], dtype=float), len(tracks))
        assert got.tolist() == [statistics.median([v for g, v in groups if g == t]) for t in tracks]

    def test_track_medians_of_even_counts_average_the_middle_pair(self):
        values = np.array([3.0, 0.1, 7.0, math.inf, 0.2, 0.3])
        got = evaluation._medians(np.array([0, 0, 1, 1, 1, 1]), values, 2)
        assert got.tolist() == [statistics.median([3.0, 0.1]), statistics.median([7.0, math.inf, 0.2, 0.3])]
        assert got.tolist() == [(0.1 + 3.0) / 2, (0.3 + 7.0) / 2]


def distinct_scene(rng, n_frames: int = 2, n_gt: int = 12):
    """Two labels, overlapping neighbours, up to two detections contending for each
    ground-truth box; continuous jitter makes scores and IoUs distinct."""
    labels = ("car", "truck")
    tracks = [(int(rng.integers(0, 2)), int(rng.integers(0, 3))) for _ in range(n_gt)]
    gt_frames, raw_frames, fused_frames = [], [], []
    for fi in range(n_frames):
        gts = [det(3.0 * (tid % 4) + float(rng.normal(0, 0.05)), 2.5 * (tid // 4) + float(rng.normal(0, 0.05)),
                   float(rng.uniform(-0.3, 0.3)), score=1.0, label=labels[lab], track_id=tid,
                   motion=SUBSET_MOTIONS[mot]) for tid, (lab, mot) in enumerate(tracks)]
        streams = []
        for _ in range(2):
            dets = [det(g.box.x + float(rng.normal(0, 0.6)), g.box.y + float(rng.normal(0, 0.6)),
                        g.box.yaw + float(rng.normal(0, 0.2)), score=float(rng.uniform(0.05, 1.0)),
                        label=g.label if rng.uniform() < 0.9 else labels[1 - labels.index(g.label)])
                    for g in gts for _ in range(int(rng.integers(0, 3)))]
            dets += [det(float(rng.uniform(100, 200)), float(rng.uniform(100, 200)),
                         score=float(rng.uniform(0.05, 1.0)), label=labels[k % 2]) for k in range(2)]
            streams.append(frame(dets, 0.1 * fi))
        gt_frames.append(frame(gts, 0.1 * fi))
        raw_frames.append(streams[0])
        fused_frames.append(streams[1])
    return gt_frames, raw_frames, fused_frames


class TestPermutation:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuting_each_frames_detections_leaves_the_rows(self, seed, data):
        gt_frames, raw_frames, fused_frames = distinct_scene(np.random.default_rng(seed))
        scores = [d.score for stream in (raw_frames, fused_frames) for f in stream for d in f.detections]
        assume(len(set(scores)) == len(scores))
        for stream in (raw_frames, fused_frames):
            for gt, dd in zip(gt_frames, stream):
                for d in dd.detections:
                    ious = [evaluation.bev_iou(g.box, d.box) for g in gt.detections if g.label == d.label]
                    positive = [iou for iou in ious if iou > 0.0]
                    assume(len(set(positive)) == len(positive))

        def permuted(stream):
            return [frame([f.detections[k] for k in data.draw(st.permutations(range(len(f.detections))))],
                          f.timestamp) for f in stream]

        report = evaluate_enhancement(gt_frames, raw_frames, fused_frames, 0.5)
        assert len(report.rows) > 1
        shuffled = evaluate_enhancement(gt_frames, permuted(raw_frames), permuted(fused_frames), 0.5)
        assert shuffled.rows == report.rows


def one_shot(frames):
    """The frames as a generator, which can be iterated only once."""
    return (f for f in frames)


def fresh_copies(frames, refs: list, alive: list):
    """Yield a new Frame with new DetectionColumns per frame, keeping a weak reference to each.

    Before yielding frame k, append to alive the indices of the earlier
    copies whose Frame or DetectionColumns is still alive.
    """
    for f in frames:
        alive.append([j for j, (frame_ref, cols_ref) in enumerate(refs)
                      if frame_ref() is not None or cols_ref() is not None])
        copy = Frame(f.timestamp, f.ego, f.detections.take(np.arange(len(f.detections))))
        refs.append((weakref.ref(copy), weakref.ref(copy.detections)))
        yield copy


class TestStreaming:
    """evaluate_enhancement consumes raw and fused once, frame by frame, and keeps no evaluated frame."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_one_shot_generators_give_the_report_of_lists_on_crowded_scenes(self, seed, threshold):
        gt_frames, raw_frames = crowded_scene(seed)
        _, fused_frames = crowded_scene(seed + 100)
        report = evaluate_enhancement(gt_frames, raw_frames, fused_frames, threshold)
        assert evaluate_enhancement(gt_frames, one_shot(raw_frames), one_shot(fused_frames), threshold) == report

    @pytest.mark.parametrize("model", ["cv", "bicycle"])
    def test_one_shot_generators_give_the_report_of_lists_on_the_pinned_scene(self, tmp_path, model):
        gt, det = run_synth(tmp_path, "--model", model, *PINNED_SCENE_FLAGS)
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(fused), "--preset", "waymo-default"]) == 0
        gt_frames, raw_frames, fused_frames = map(read_frames, (gt, det, fused))
        report = evaluate_enhancement(gt_frames, raw_frames, fused_frames)
        assert len(report.rows) == 4
        assert evaluate_enhancement(gt_frames, one_shot(raw_frames), one_shot(fused_frames)) == report
        assert evaluate_enhancement(gt_frames, iter_frames(det), iter_frames(fused)) == report

    def test_a_frame_is_released_before_the_frame_two_after_it_is_read(self):
        gt_frames, raw_frames = crowded_scene(0, n_frames=6)
        _, fused_frames = crowded_scene(100, n_frames=6)
        raw_refs, raw_alive, fused_refs, fused_alive = [], [], [], []
        report = evaluate_enhancement(gt_frames, fresh_copies(raw_frames, raw_refs, raw_alive),
                                      fresh_copies(fused_frames, fused_refs, fused_alive))
        assert report == evaluate_enhancement(gt_frames, raw_frames, fused_frames)
        for alive in (raw_alive, fused_alive):
            assert len(alive) == 6
            # when frame k is requested, only frame k - 1 may still be held
            assert all(set(held) <= {k - 1} for k, held in enumerate(alive))

    def test_misalignment_found_mid_stream_keeps_its_message(self):
        gt = TestEvaluateEnhancement.scene()
        stamps = [f.timestamp for f in gt]
        last = len(gt) - 1
        cases = [
            (gt[:-1], f"frame {last} has timestamps [{stamps[last]!r}, {stamps[last]!r}, None]"),
            (gt[1:] + gt[-1:], f"frame 0 has timestamps [{stamps[0]!r}, {stamps[0]!r}, {stamps[1]!r}]"),
            (gt + gt[-1:], f"frame {last + 1} has timestamps [None, None, {stamps[last]!r}]"),
        ]
        for fused, where in cases:
            with pytest.raises(ValueError) as excinfo:
                evaluate_enhancement(gt, one_shot(gt), one_shot(fused))
            assert str(excinfo.value) == f"sequences must align, {where}"
