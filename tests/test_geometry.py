from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxfuse import Box3D, EgoPose, Pose, bev_corners, bev_iou, normalize_angle, transform_box
from boxfuse.geometry import _CELL_SLACK, _MAX_GRID_CELLS, candidate_pairs, circumradius

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
