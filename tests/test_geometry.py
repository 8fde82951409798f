from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxfuse import Box3D, EgoPose, Pose, bev_iou, normalize_angle, transform_box
from boxfuse import geometry
from boxfuse.geometry import (_CELL_SLACK, _MAX_GRID_CELLS, Footprints, candidate_pairs, circumradius,
                              circumradius_columns, clipped_iou, corner_columns, iou_can_reach, pair_ious,
                              reachable_pairs)

from oracles import candidate_pairs_reference, monte_carlo_iou, shoelace

# intersection of a 2x2 square with its 45-degree rotation is a regular
# octagon of area 8*(sqrt(2)-1); IoU works out to exactly sqrt(2)/2
ROTATED_SQUARE_IOU = math.sqrt(2.0) / 2.0


def random_box(rng) -> Box3D:
    return Box3D(
        x=rng.uniform(-30, 30),
        y=rng.uniform(-30, 30),
        z=rng.uniform(-1, 1),
        w=rng.uniform(1.5, 2.6),
        l=rng.uniform(3.5, 5.5),
        h=rng.uniform(1.2, 2.0),
        yaw=rng.uniform(-math.pi, math.pi),
    )


class TestNormalizeAngle:
    def test_identity(self):
        assert normalize_angle(0.0) == 0.0

    def test_modular(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_boundary_maps_to_closed_end(self):
        assert normalize_angle(-math.pi) == math.pi
        assert normalize_angle(math.pi) == math.pi

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(1)
        for a in rng.uniform(-40, 40, 500):
            once = normalize_angle(float(a))
            assert normalize_angle(once) == once
            assert -math.pi < once <= math.pi

    def test_congruent_mod_two_pi(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-40, 40, 200):
            wrapped = normalize_angle(float(a))
            k = (a - wrapped) / (2 * math.pi)
            assert abs(k - round(k)) < 1e-9

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normalize_angle(math.nan)
        with pytest.raises(ValueError):
            normalize_angle(math.inf)


class TestBox3D:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, -1, 4, 1.5, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1e-4, 1e-3, 1.5, 0)  # footprint below 1e-6 m^2

    def test_yaw_normalized(self):
        assert Box3D(0, 0, 0, 2, 4, 1.5, 3 * math.pi).yaw == pytest.approx(math.pi)

    def test_array_roundtrip(self):
        box = Box3D(1, 2, 3, 2, 4, 1.5, 0.3)
        assert Box3D.from_array(box.to_array()) == box


def bev_corners(box: Box3D) -> np.ndarray:
    """The (4, 2) corners of one box's BEV footprint: one row of corner_columns."""
    xs, ys = corner_columns(*(np.array([value]) for value in (box.x, box.y, box.w, box.l, box.yaw)))
    return np.stack([xs[0], ys[0]], axis=1)


class TestBevCorners:
    def test_axis_aligned(self):
        got = bev_corners(Box3D(0, 0, 0, 2, 4, 1, 0))
        assert sorted(map(tuple, got.tolist())) == [(-2, -1), (-2, 1), (2, -1), (2, 1)]

    def test_quarter_turn_swaps_extents(self):
        got = bev_corners(Box3D(0, 0, 0, 2, 4, 1, math.pi / 2))
        expect = [(-1, -2), (-1, 2), (1, -2), (1, 2)]
        assert np.allclose(sorted(map(tuple, got.tolist())), expect, atol=1e-12)

    def test_rotation_matrix_oracle(self):
        yaw = math.pi / 4
        base = bev_corners(Box3D(0, 0, 0, 2, 4, 1, 0))
        c, s = math.cos(yaw), math.sin(yaw)
        expect = base @ np.array([[c, s], [-s, c]])
        got = bev_corners(Box3D(0, 0, 0, 2, 4, 1, yaw))
        assert np.allclose(got, expect, atol=1e-12)

    def test_counter_clockwise(self):
        corners = bev_corners(Box3D(1, -2, 0, 2, 4, 1, 0.7)).tolist()
        signed = sum(
            corners[i][0] * corners[(i + 1) % 4][1] - corners[(i + 1) % 4][0] * corners[i][1]
            for i in range(4)
        )
        assert signed > 0

    def test_shoelace_area_equals_w_l(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            box = random_box(rng)
            assert shoelace(bev_corners(box).tolist()) == pytest.approx(box.w * box.l, abs=1e-12, rel=1e-12)


class TestBevIou:
    def test_identical(self):
        box = Box3D(3, -1, 0, 2, 4, 1.5, 0.4)
        assert bev_iou(box, box) == 1.0

    def test_disjoint(self):
        a = Box3D(0, 0, 0, 2, 4, 1.5, 0.0)
        b = Box3D(100, 0, 0, 2, 4, 1.5, 0.7)
        assert bev_iou(a, b) == 0.0

    def test_shifted_unit_squares(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert bev_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_rotated_square_analytic_and_monte_carlo(self):
        a = Box3D(0, 0, 0, 2, 2, 1, 0)
        b = Box3D(0, 0, 0, 2, 2, 1, math.pi / 4)
        got = bev_iou(a, b)
        assert got == pytest.approx(ROTATED_SQUARE_IOU, abs=1e-12)
        assert got == pytest.approx(monte_carlo_iou(a, b, n=1_000_000, seed=11), abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = random_box(rng)
            b = replace(a, x=a.x + rng.uniform(-3, 3), y=a.y + rng.uniform(-3, 3),
                        yaw=rng.uniform(-math.pi, math.pi))
            assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-12)

    @given(
        ax=st.floats(-30.0, 30.0), ay=st.floats(-30.0, 30.0),
        dx=st.floats(-3.0, 3.0), dy=st.floats(-3.0, 3.0),
        yaw_a=st.floats(-math.pi, math.pi), yaw_b=st.floats(-math.pi, math.pi),
        size_a=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 6.0)),
        size_b=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 6.0)),
    )
    def test_symmetric_up_to_rounding(self, ax, ay, dx, dy, yaw_a, yaw_b, size_a, size_b):
        # the clip order differs between the two calls, so only the bits differ
        a = Box3D(ax, ay, 0.0, *size_a, 1.5, yaw_a)
        b = Box3D(ax + dx, ay + dy, 0.0, *size_b, 1.5, yaw_b)
        assert abs(bev_iou(a, b) - bev_iou(b, a)) <= 1e-12

    def test_rigid_invariance(self):
        rng = np.random.default_rng(5)
        src = EgoPose.identity()
        for _ in range(100):
            a = random_box(rng)
            b = replace(a, x=a.x + rng.uniform(-3, 3), y=a.y + rng.uniform(-3, 3),
                        yaw=rng.uniform(-math.pi, math.pi))
            dst = EgoPose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))
            before = bev_iou(a, b)
            after = bev_iou(transform_box(a, src, dst), transform_box(b, src, dst))
            assert after == pytest.approx(before, abs=1e-9)

    def test_degenerate_rejected(self):
        box = Box3D(0, 0, 0, 2, 4, 1.5, 0)
        with pytest.raises(ValueError):
            replace(box, w=1e-4, l=1e-3)


class TestTransformBox:
    def test_identity(self):
        box = Box3D(1, 2, 0.5, 2, 4, 1.5, 0.3)
        ego = EgoPose(5, -3, 0.7)
        assert transform_box(box, ego, ego) == box

    def test_pure_translation(self):
        box = Box3D(0, 0, 0, 2, 4, 1.5, 0.0)
        moved = transform_box(box, EgoPose.identity(), EgoPose(1, 0, 0))
        assert (moved.x, moved.y, moved.yaw) == pytest.approx((-1.0, 0.0, 0.0))

    def test_quarter_turn_matches_matrix_compose(self):
        # frozen from a 2x2 rotation-matrix composition of the same transform
        box = Box3D(3.0, 1.0, 0.5, 2.0, 4.5, 1.6, 0.3)
        moved = transform_box(box, EgoPose.identity(), EgoPose(0, 0, math.pi / 2))
        assert moved.x == pytest.approx(1.0, abs=1e-12)
        assert moved.y == pytest.approx(-3.0, abs=1e-12)
        assert moved.yaw == pytest.approx(0.3 - math.pi / 2, abs=1e-12)
        assert (moved.z, moved.w, moved.l, moved.h) == (0.5, 2.0, 4.5, 1.6)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            box = random_box(rng)
            a = EgoPose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))
            b = EgoPose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))
            back = transform_box(transform_box(box, a, b), b, a)
            for name in ("x", "y", "z", "w", "l", "h"):
                assert getattr(back, name) == pytest.approx(getattr(box, name), abs=1e-9)
            assert normalize_angle(back.yaw - box.yaw) == pytest.approx(0.0, abs=1e-9)


# coordinates from a short list produce duplicates and exact ties on cell edges
COORD = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 5.0, -5.0]), st.floats(-20.0, 20.0))
RADIUS = st.one_of(st.sampled_from([0.0, 0.5, 2.5]), st.floats(0.0, 8.0))
POINTS = st.lists(st.tuples(COORD, COORD, RADIUS), max_size=25)


def _columns(points, offset):
    xs = [p[0] + offset for p in points]
    ys = [p[1] - offset for p in points]
    return xs, ys, [p[2] for p in points]


class TestCandidatePairs:
    @settings(max_examples=300)
    @given(a=POINTS, b=POINTS, offset=st.sampled_from([0.0, 1e5, -1e5]))
    def test_equals_brute_force(self, a, b, offset):
        args = (*_columns(a, offset), *_columns(b, offset))
        i, j = candidate_pairs(*args)
        ref_i, ref_j = candidate_pairs_reference(*args)
        assert i.tolist() == ref_i
        assert j.tolist() == ref_j

    @given(points=st.lists(st.tuples(COORD, COORD, st.floats(0.1, 8.0)), min_size=1, max_size=25))
    def test_self_join_is_symmetric_and_reflexive(self, points):
        xs, ys, rs = _columns(points, 0.0)
        i, j = candidate_pairs(xs, ys, rs, xs, ys, rs)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert set(pairs) == {(q, p) for p, q in pairs}
        assert all((k, k) in set(pairs) for k in range(len(points)))

    def test_single_box_and_empty_side(self):
        i, j = candidate_pairs([1.0], [2.0], [1.0], [1.5], [2.0], [1.0])
        assert (i.tolist(), j.tolist()) == ([0], [0])
        for args in (([], [], [], [1.0], [2.0], [1.0]), ([1.0], [2.0], [1.0], [], [], [])):
            i, j = candidate_pairs(*args)
            assert i.dtype == j.dtype == np.int64 and len(i) == len(j) == 0

    @settings(max_examples=300)
    @given(points=POINTS, offset=st.sampled_from([0.0, 1e5, -1e5]))
    def test_self_join_equals_brute_force_pairs_below_the_diagonal(self, points, offset):
        args = _columns(points, offset)
        i, j = candidate_pairs(*args)
        assert i.dtype == j.dtype == np.int64
        ref_i, ref_j = candidate_pairs_reference(*args, *args)
        # sorted() keeps repeats, so each pair must come exactly once, as i < j
        assert sorted(zip(i.tolist(), j.tolist())) == [(p, q) for p, q in zip(ref_i, ref_j) if p < q]

    def test_self_join_finds_pairs_across_every_neighbour_cell(self):
        # dense enough that overlapping pairs straddle every cell edge and corner
        rng = np.random.default_rng(7)
        xs, ys = rng.uniform(-15.0, 15.0, size=(2, 300))
        rs = rng.uniform(0.5, 1.5, size=300)
        i, j = candidate_pairs(xs, ys, rs)
        ref_i, ref_j = candidate_pairs_reference(xs, ys, rs, xs, ys, rs)
        assert sorted(zip(i.tolist(), j.tolist())) == [(p, q) for p, q in zip(ref_i, ref_j) if p < q]

    def test_pairs_across_a_capped_grid(self):
        # clusters spread over 1e7 m: the cell is the span over the cell cap,
        # not the radius sum, so each cell holds many overlapping circles
        rng = np.random.default_rng(8)
        centres = rng.uniform(0.0, 1e7, size=(2, 15))

        def clusters(n):
            xy = centres[:, rng.integers(0, 15, size=n)] + rng.normal(0.0, 2.0, size=(2, n))
            return xy[0], xy[1], rng.uniform(0.5, 3.0, n)

        a, b = clusters(150), clusters(150)
        span = max(np.ptp(np.concatenate([a[0], b[0]])), np.ptp(np.concatenate([a[1], b[1]])))
        assert span / _MAX_GRID_CELLS > 2.0 * max(a[2].max(), b[2].max()) * _CELL_SLACK
        i, j = candidate_pairs(*a, *b)
        ref_i, ref_j = candidate_pairs_reference(*a, *b)
        assert len(ref_i) > 150 and (i.tolist(), j.tolist()) == (ref_i, ref_j)
        i, j = candidate_pairs(*a)
        ref_i, ref_j = candidate_pairs_reference(*a, *a)
        assert sorted(zip(i.tolist(), j.tolist())) == [(p, q) for p, q in zip(ref_i, ref_j) if p < q]

    def test_self_join_of_no_point_or_one_point_is_empty(self):
        for args in (([], [], []), ([1.0], [2.0], [1.0])):
            i, j = candidate_pairs(*args)
            assert i.dtype == j.dtype == np.int64 and len(i) == len(j) == 0

    def test_covers_every_overlapping_box_pair(self):
        rng = np.random.default_rng(6)
        boxes = [random_box(rng) for _ in range(150)]
        xs = [b.x for b in boxes]
        ys = [b.y for b in boxes]
        rs = [circumradius(b) for b in boxes]
        found = set(zip(*(v.tolist() for v in candidate_pairs(xs, ys, rs, xs, ys, rs))))
        overlapping = {
            (p, q) for p in range(150) for q in range(150) if bev_iou(boxes[p], boxes[q]) > 0.0
        }
        assert overlapping and overlapping <= found


def footprints(*boxes: Box3D) -> Footprints:
    rows = np.array([box.to_array() for box in boxes])
    return Footprints.of(rows, circumradius_columns(rows[:, 3], rows[:, 4]))


def clipped(a: Box3D, b: Box3D) -> float:
    """clipped_iou of a's footprint clipped by b's."""
    (ax, ay), (bx, by) = (corner_columns(*(np.array([v]) for v in (box.x, box.y, box.w, box.l, box.yaw)))
                          for box in (a, b))
    return float(clipped_iou(ax, ay, np.array([a.w * a.l]), bx, by, np.array([b.w * b.l]))[0])


CENTRE = st.one_of(st.sampled_from([0.0, 1e5, -1e5]), st.floats(-1e5, 1e5))
SIZE = st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
YAW = st.floats(-math.pi, math.pi)


class TestIouBound:
    @settings(max_examples=400, deadline=None)
    @given(
        centre=st.tuples(CENTRE, CENTRE), size_a=SIZE, size_b=SIZE, yaw_a=YAW, yaw_b=YAW,
        # b's centre at a fraction of the circumradius sum from a's, in any direction
        reach=st.floats(0.0, 1.0, exclude_max=True), direction=YAW, identical=st.booleans(),
        floor=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_never_drops_a_pair_whose_iou_reaches_the_floor(self, centre, size_a, size_b, yaw_a, yaw_b, reach,
                                                             direction, identical, floor):
        a = Box3D(*centre, 0.0, *size_a, 1.5, yaw_a)
        if identical:
            b = replace(a, z=1.0, h=2.0)
        else:
            distance = reach * (circumradius(a) + 0.5 * math.hypot(*size_b))
            b = Box3D(a.x + distance * math.cos(direction), a.y + distance * math.sin(direction), 0.0, *size_b, 1.5,
                      yaw_b)
        fa, fb = footprints(a), footprints(b)
        keeps = iou_can_reach(fa, fb, floor)
        assert keeps.tolist() == iou_can_reach(fb, fa, floor).tolist()
        ious = [bev_iou(a, b), bev_iou(b, a), clipped(a, b), clipped(b, a)]
        if max(ious) >= floor:
            assert keeps.tolist() == [True], ious

    def test_drops_pairs_that_cannot_reach_the_floor_and_keeps_every_pair_at_floor_zero(self):
        a = Box3D(0.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0)
        # side by side, circumcircles overlapping: IoU 1/7
        b = replace(a, y=1.5)
        assert bev_iou(a, b) == pytest.approx(1 / 7)
        both = footprints(a, a), footprints(b, a)
        assert iou_can_reach(*both, 0.5).tolist() == [False, True]
        assert iou_can_reach(*both, 0.0).tolist() == [True, True]
        assert iou_can_reach(*both, 0.1).tolist() == [True, True]

    def test_keeps_a_pair_whose_bound_is_nan(self):
        a = footprints(Box3D(0.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0))
        far = a._replace(x=np.array([math.inf]), magnitude=np.array([math.inf]))
        for floor in (0.0, 0.5):
            assert iou_can_reach(a, far, floor).tolist() == iou_can_reach(far, a, floor).tolist() == [True]

    def test_keeps_every_pair_at_floor_zero(self):
        a = footprints(Box3D(0.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0))
        far = a._replace(x=np.array([1e300]), magnitude=np.array([1e300]))
        huge = a._replace(area=np.array([math.inf]))
        for other in (far, huge):
            for floor in (0.0, -0.0):
                assert iou_can_reach(a, other, floor).tolist() == iou_can_reach(other, a, floor).tolist() == [True]


def crowded_rows(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random boxes as rows and an object column of two labels. A fifth of the boxes
    (at least one when n > 1) copy an earlier box: half of those its footprint with another
    z and h, the other half with their centre and yaw moved a little."""
    rows = np.array([random_box(rng).to_array() for _ in range(n)]).reshape(n, 7)
    rows[:, :2] /= 3.0
    for m, k in enumerate(rng.integers(1, max(n, 2), size=max(n // 5, n > 1)).tolist()):
        rows[k] = rows[int(rng.integers(0, k))]
        rows[k, [2, 5]] += 0.5
        if m % 2:
            rows[k, [0, 1, 6]] += rng.normal(0.0, 0.2, size=3)
    rows[:, 6] = geometry.normalize_angles(rows[:, 6])
    return rows, np.array(["car", "truck"], dtype=object)[rng.integers(0, 2, size=n)]


class TestOverlapSearch:
    def test_pair_ious_are_bev_ious_with_i_first(self):
        rng = np.random.default_rng(31)
        rows, _ = crowded_rows(rng, 120)
        boxes = [Box3D(*row) for row in rows.tolist()]
        i, j = rng.integers(0, 120, size=(2, 4000))
        identical = np.nonzero((rows[:, None, [0, 1, 3, 4, 6]] == rows[None, :, [0, 1, 3, 4, 6]]).all(axis=2))
        i, j = np.concatenate([i, *identical]), np.concatenate([j, *identical[::-1]])
        ious = pair_ious(rows, i, j).tolist()
        assert ious == [bev_iou(boxes[p], boxes[q]) for p, q in zip(i.tolist(), j.tolist())]
        assert len(identical[0]) > 120 and 0.0 < min(iou for iou in ious if iou > 0.0) < 0.5

    @pytest.mark.parametrize("floor", [0.0, 0.2, 0.5, 0.7])
    def test_self_join_holds_each_pair_that_reaches_the_floor_once(self, floor):
        rng = np.random.default_rng(32)
        rows, label = crowded_rows(rng, 150)
        boxes = [Box3D(*row) for row in rows.tolist()]
        i, j = reachable_pairs(rows, label, floor)
        assert i.dtype == j.dtype == np.int64
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(set(pairs)) == len(pairs) and all(p < q and label[p] == label[q] for p, q in pairs)
        # bev_iou in either order, which may differ in the last bits
        reaching = {(p, q) for p in range(150) for q in range(p + 1, 150) if label[p] == label[q]
                    and max(bev_iou(boxes[p], boxes[q]), bev_iou(boxes[q], boxes[p])) >= max(floor, 5e-324)}
        assert len(reaching) > 10 and reaching <= set(pairs)
        assert floor == 0.0 or len(pairs) < len(reachable_pairs(rows, label, 0.0)[0])

    @pytest.mark.parametrize("chunk", [5, 2048])
    def test_cross_join_is_the_sorted_bounded_same_label_candidate_pairs(self, monkeypatch, chunk):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(33)
        for n_a, n_b in [(0, 5), (5, 0), (1, 1), *rng.integers(2, 90, size=(12, 2)).tolist()]:
            (a, a_label), (b, b_label) = crowded_rows(rng, n_a), crowded_rows(rng, n_b)
            for floor in (0.0, 0.3, 0.5, 0.7):
                i, j = reachable_pairs(a, a_label, floor, b, b_label)
                ra, rb = (circumradius_columns(rows[:, 3], rows[:, 4]) for rows in (a, b))
                ref_i, ref_j = candidate_pairs(a[:, 0], a[:, 1], ra, b[:, 0], b[:, 1], rb)
                same = a_label[ref_i] == b_label[ref_j]
                ref_i, ref_j = ref_i[same], ref_j[same]
                keep = iou_can_reach(Footprints.of(a, ra).take(ref_i), Footprints.of(b, rb).take(ref_j), floor)
                pairs = list(zip(i.tolist(), j.tolist()))
                assert pairs == list(zip(ref_i[keep].tolist(), ref_j[keep].tolist())) == sorted(pairs)
