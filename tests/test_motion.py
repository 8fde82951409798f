from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    FitDivergence,
    Pose,
    Unicycle,
    estimate_params_from_track,
    forward,
    forward_bicycle,
    forward_box,
    forward_cv,
    forward_unicycle,
    inverse_bicycle,
    inverse_cv,
    inverse_unicycle,
    normalize_angle,
    numeric_forward,
    numeric_forward_batch,
)
from boxfuse import motion
from boxfuse.motion import HALF_PI
from oracles import inverse_bicycle_reference, inverse_unicycle_reference


def pose_close(a: Pose, b: Pose, tol: float) -> None:
    assert a.x == pytest.approx(b.x, abs=tol)
    assert a.y == pytest.approx(b.y, abs=tol)
    assert abs(normalize_angle(a.heading - b.heading)) < tol


def random_pose(rng) -> Pose:
    return Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-math.pi, math.pi))


def random_params(rng, model: str):
    if model == "cv":
        return ConstantVelocity(rng.uniform(-15, 15), rng.uniform(-15, 15))
    if model == "unicycle":
        return Unicycle(rng.uniform(-15, 15), rng.uniform(-1, 1))
    return Bicycle(rng.uniform(-15, 15), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))


class TestForwardCv:
    def test_basic(self):
        assert forward_cv(Pose(0, 0, 0), ConstantVelocity(2, 0), 0.5) == Pose(1, 0, 0)

    def test_zero_time(self):
        p = Pose(3, -1, 0.8)
        assert forward_cv(p, ConstantVelocity(5, -2), 0.0) == p

    def test_linear_displacement(self):
        got = forward_cv(Pose(1, 1, math.pi / 3), ConstantVelocity(-1, 2), 2.0)
        assert got == Pose(-1, 5, math.pi / 3)


class TestForwardUnicycle:
    def test_quarter_circle(self):
        got = forward_unicycle(Pose(0, 0, 0), Unicycle(math.pi, math.pi / 2), 1.0)
        pose_close(got, Pose(2, 2, math.pi / 2), 1e-12)

    def test_straight_limit(self):
        got = forward_unicycle(Pose(0, 0, 0), Unicycle(3, 0), 2.0)
        assert got == Pose(6, 0, 0)

    def test_against_rk4_frozen(self):
        # RK4(step 1e-4) of the same draw gives (4.057485296530677, -0.3097837307101792)
        got = forward_unicycle(Pose(1, -2, 0.4), Unicycle(5.0, 0.3), 0.7)
        assert got.x == pytest.approx(4.057485296530677, abs=1e-6)
        assert got.y == pytest.approx(-0.3097837307101792, abs=1e-6)
        assert got.heading == pytest.approx(0.61, abs=1e-12)
        live = numeric_forward(Pose(1, -2, 0.4), Unicycle(5.0, 0.3), 0.7, step=1e-4)
        pose_close(got, live, 1e-6)

    def test_matches_textbook_arc_form(self):
        # same value as the speed/rate arc expression wherever that is defined
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_pose(rng)
            v = rng.uniform(-15, 15)
            w = math.copysign(rng.uniform(1e-6, 1.0), rng.uniform(-1, 1))
            t = rng.uniform(-1, 1)
            got = forward_unicycle(p, Unicycle(v, w), t)
            phi_t = p.heading + w * t
            x = p.x + v / w * (math.sin(phi_t) - math.sin(p.heading))
            y = p.y + v / w * (math.cos(p.heading) - math.cos(phi_t))
            assert got.x == pytest.approx(x, abs=1e-9)
            assert got.y == pytest.approx(y, abs=1e-9)

    def test_continuous_through_zero_rate(self):
        # no branch jump anywhere near the old straight-motion switch
        p = Pose(2, -3, 1.1)
        for w in (0.0, 1e-9, 1e-6, 1.0000001e-6, -1e-6, 1e-5):
            closed = forward_unicycle(p, Unicycle(12.0, w), 1.0)
            oracle = numeric_forward(p, Unicycle(12.0, w), 1.0, step=1e-4)
            pose_close(closed, oracle, 1e-9)
        a = forward_unicycle(p, Unicycle(12.0, 1e-6), 1.0)
        b = forward_unicycle(p, Unicycle(12.0, 1e-6 * (1 + 1e-9)), 1.0)
        assert math.hypot(a.x - b.x, a.y - b.y) < 1e-8


class TestForwardBicycle:
    def test_zero_slip_moves_along_heading(self):
        got = forward_bicycle(Pose(0, 0, math.pi / 2), Bicycle(4, 0, 1.7), 1.0)
        pose_close(got, Pose(0, 4, math.pi / 2), 1e-12)

    def test_zero_time(self):
        p = Pose(1, 2, -0.5)
        assert forward_bicycle(p, Bicycle(4, 0.2, 1.2), 0.0) == p

    def test_half_turn_case(self):
        # exact closed form: (sqrt(3)-1, sqrt(3)+1, pi/2); RK4 agrees
        got = forward_bicycle(Pose(0, 0, 0), Bicycle(1.0, math.pi / 6, 1.0), math.pi)
        assert got.x == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
        assert got.y == pytest.approx(math.sqrt(3) + 1, abs=1e-12)
        assert got.heading == pytest.approx(math.pi / 2, abs=1e-12)
        live = numeric_forward(Pose(0, 0, 0), Bicycle(1.0, math.pi / 6, 1.0), math.pi, step=1e-4)
        pose_close(got, live, 1e-6)

    def test_heading_rate_is_speed_sin_slip_over_arm(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_pose(rng)
            params = random_params(rng, "bicycle")
            dt = 1e-6
            dphi = normalize_angle(forward_bicycle(p, params, dt).heading - p.heading)
            rate = params.speed * math.sin(params.slip) / params.rear_axle
            assert dphi / dt == pytest.approx(rate, abs=1e-6)

    def test_continuous_through_zero_slip(self):
        p = Pose(-1, 4, -2.0)
        for b in (0.0, 1e-9, 1e-6, -1e-6, 1e-5):
            closed = forward_bicycle(p, Bicycle(12.0, b, 1.5), 1.0)
            oracle = numeric_forward(p, Bicycle(12.0, b, 1.5), 1.0, step=1e-4)
            pose_close(closed, oracle, 1e-9)


class TestForwardDispatch:
    def test_cv_dispatch(self):
        p = Pose(0, 0, 0.3)
        params = ConstantVelocity(1, 2)
        assert forward(p, params, 0.7) == forward_cv(p, params, 0.7)

    def test_models_agree_when_straight(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_pose(rng)
            v = rng.uniform(-15, 15)
            t = rng.uniform(-1, 1)
            cv = forward(p, ConstantVelocity(v * math.cos(p.heading), v * math.sin(p.heading)), t)
            uni = forward(p, Unicycle(v, 0.0), t)
            bic = forward(p, Bicycle(v, 0.0, 1.3), t)
            pose_close(cv, uni, 1e-9)
            pose_close(uni, bic, 1e-12)

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError):
            forward(Pose(0, 0, 0), object(), 1.0)


class TestForwardBox:
    def test_zero_time_identity(self):
        box = Box3D(1, 2, 0.5, 2, 4, 1.5, 0.3)
        assert forward_box(box, Unicycle(5, 0.4), 0.0) is box

    def test_cv_advance(self):
        box = Box3D(0, 0, 0.5, 2, 4, 1.5, 0.0)
        moved = forward_box(box, ConstantVelocity(1, 0), 1.0)
        assert moved == Box3D(1, 0, 0.5, 2, 4, 1.5, 0.0)

    def test_equals_pose_forward(self):
        rng = np.random.default_rng(10)
        box = Box3D(3, -2, 0.7, 2.1, 4.7, 1.7, 0.9)
        params = random_params(rng, "bicycle")
        moved = forward_box(box, params, 0.4)
        pose = forward(Pose(box.x, box.y, box.yaw), params, 0.4)
        assert (moved.x, moved.y, moved.yaw) == (pose.x, pose.y, pose.heading)
        assert (moved.z, moved.w, moved.l, moved.h) == (box.z, box.w, box.l, box.h)


class TestSemigroup:
    @pytest.mark.parametrize("model", ["cv", "unicycle", "bicycle"])
    def test_compose(self, model):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_pose(rng)
            params = random_params(rng, model)
            t1 = rng.uniform(-1, 1)
            t2 = rng.uniform(-1, 1)
            two_step = forward(forward(p, params, t1), params, t2)
            one_step = forward(p, params, t1 + t2)
            pose_close(two_step, one_step, 1e-9)


class TestClosedFormVsOracle:
    @pytest.mark.parametrize("model", ["cv", "unicycle", "bicycle"])
    def test_sample(self, model):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_pose(rng)
            params = random_params(rng, model)
            t = rng.uniform(-1, 1)
            pose_close(forward(p, params, t), numeric_forward(p, params, t, step=1e-4), 1e-6)


class TestInverseCv:
    def test_basic(self):
        got = inverse_cv(Pose(0, 0, 0), Pose(1, 0, 0), 1.0)
        assert got == ConstantVelocity(1, 0)

    def test_stationary(self):
        p = Pose(2, 3, 0.4)
        assert inverse_cv(p, p, 0.5) == ConstantVelocity(0, 0)

    def test_roundtrip_exact(self):
        p = Pose(1, -1, 0.2)
        params = ConstantVelocity(-3.5, 2.25)
        assert inverse_cv(p, forward_cv(p, params, 0.25), 0.25) == params

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            inverse_cv(Pose(0, 0, 0), Pose(1, 0, 0), 0.0)


class TestInverseUnicycle:
    def test_straight(self):
        got = inverse_unicycle(Pose(0, 0, 0), Pose(2, 0, 0), 1.0)
        assert got.speed == pytest.approx(2.0)
        assert got.yaw_rate == 0.0

    def test_quarter_circle_roundtrip(self):
        params = Unicycle(math.pi, math.pi / 2)
        pt = forward_unicycle(Pose(0, 0, 0), params, 1.0)
        got = inverse_unicycle(Pose(0, 0, 0), pt, 1.0)
        assert got.speed == pytest.approx(params.speed, abs=1e-9)
        assert got.yaw_rate == pytest.approx(params.yaw_rate, abs=1e-9)

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            p = random_pose(rng)
            params = Unicycle(rng.uniform(-15, 15), rng.uniform(-1, 1))
            t = rng.uniform(0.05, 1.0)
            got = inverse_unicycle(p, forward_unicycle(p, params, t), t)
            worst = max(worst, abs(got.speed - params.speed), abs(got.yaw_rate - params.yaw_rate))
        assert worst < 1e-8

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            inverse_unicycle(Pose(0, 0, 0), Pose(1, 0, 0), 0.0)


class TestInverseBicycle:
    def test_straight_forces_zero_slip(self):
        params, report = inverse_bicycle(Pose(0, 0, 0), Pose(3, 0, 0), 1.0, rear_axle=1.7)
        assert report.converged
        assert params.speed == pytest.approx(3.0, abs=1e-9)
        assert params.slip == pytest.approx(0.0, abs=1e-9)

    def test_half_turn_roundtrip(self):
        truth = Bicycle(1.0, math.pi / 6, 1.0)
        pt = forward_bicycle(Pose(0, 0, 0), truth, math.pi)
        params, report = inverse_bicycle(Pose(0, 0, 0), pt, math.pi, rear_axle=1.0)
        assert report.converged
        assert params.speed == pytest.approx(truth.speed, abs=1e-5)
        assert params.slip == pytest.approx(truth.slip, abs=1e-5)

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(14)
        iterations = []
        worst = 0.0
        for _ in range(100):
            p = random_pose(rng)
            truth = Bicycle(rng.uniform(1, 15), rng.uniform(-0.4, 0.4), rng.uniform(1, 3))
            t = rng.uniform(0.1, 1.0)
            pt = forward_bicycle(p, truth, t)
            params, report = inverse_bicycle(p, pt, t, rear_axle=truth.rear_axle)
            assert report.converged
            iterations.append(report.iterations)
            worst = max(worst, abs(params.speed - truth.speed), abs(params.slip - truth.slip))
        assert worst < 1e-4
        assert sorted(iterations)[len(iterations) // 2] <= 10

    def test_explicit_init_used(self):
        truth = Bicycle(8.0, 0.1, 1.5)
        pt = forward_bicycle(Pose(0, 0, 0), truth, 0.2)
        params, report = inverse_bicycle(
            Pose(0, 0, 0), pt, 0.2, rear_axle=1.5, init=Bicycle(7.5, 0.05, 1.5)
        )
        assert report.converged
        assert params.speed == pytest.approx(8.0, abs=1e-5)

    def test_divergence_carries_best(self):
        pt = forward_bicycle(Pose(0, 0, 0), Bicycle(8.0, 0.2, 1.5), 0.5)
        with pytest.raises(FitDivergence) as err:
            inverse_bicycle(
                Pose(0, 0, 0), pt, 0.5, rear_axle=1.5, init=Bicycle(-14, 1.2, 1.5), max_iter=1
            )
        assert isinstance(err.value.best, Bicycle)
        assert not err.value.report.converged

    def test_a_half_turn_fits_without_the_public_inverses(self, monkeypatch):
        # the unicycle inverse rejects a half turn; as the fit's seed it is only a poor start
        def public_inverse(*args):
            raise AssertionError("the bicycle fit called a public inverse")

        monkeypatch.setattr(motion, "inverse_cv", public_inverse)
        monkeypatch.setattr(motion, "inverse_unicycle", public_inverse)
        params, report = inverse_bicycle(Pose(0, 0, 0), Pose(1, 0.5, math.pi), 0.1, 1.0)
        assert report.converged
        assert params.rear_axle == 1.0 and abs(params.slip) <= HALF_PI

    def test_zero_gap_and_bad_arm_rejected(self):
        with pytest.raises(ValueError):
            inverse_bicycle(Pose(0, 0, 0), Pose(1, 0, 0), 0.0, rear_axle=1.0)
        with pytest.raises(ValueError):
            inverse_bicycle(Pose(0, 0, 0), Pose(1, 0, 0), 1.0, rear_axle=0.0)


class TestEstimateFromTrack:
    def test_straight_line_cv(self):
        times = [0.0, 0.1, 0.2]
        poses = [Pose(0, 0, 0), Pose(1, 0, 0), Pose(2, 0, 0)]
        got = estimate_params_from_track(times, poses, "cv")
        assert got[1] == ConstantVelocity(10.0, 0.0)
        assert got[0] == got[2] == ConstantVelocity(10.0, 0.0)

    def test_unicycle_track(self):
        truth = Unicycle(8.0, 0.5)
        times = [0.0, 0.1, 0.2]
        poses = [forward(Pose(0, 0, 0.3), truth, t) for t in times]
        got = estimate_params_from_track(times, poses, "unicycle")
        for params in got:
            assert params.speed == pytest.approx(8.0, abs=1e-6)
            assert params.yaw_rate == pytest.approx(0.5, abs=1e-6)

    def test_bicycle_track(self):
        truth = Bicycle(9.0, 0.08, 1.2)
        times = [0.0, 0.1, 0.2, 0.3]
        poses = [forward(Pose(0, 0, -0.2), truth, t) for t in times]
        got = estimate_params_from_track(times, poses, "bicycle", rear_axle=1.2)
        for params in got:
            assert params.speed == pytest.approx(9.0, abs=1e-4)
            assert params.slip == pytest.approx(0.08, abs=1e-4)

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError):
            estimate_params_from_track(
                [0.0, 0.0, 0.1], [Pose(0, 0, 0)] * 3, "cv"
            )

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            estimate_params_from_track([0.0], [Pose(0, 0, 0)], "cv")


class TestNumericForward:
    def test_cv_exact_any_step(self):
        got = numeric_forward(Pose(0, 0, 0.5), ConstantVelocity(3, -4), 0.37, step=0.05)
        assert got.x == pytest.approx(3 * 0.37, abs=1e-12)
        assert got.y == pytest.approx(-4 * 0.37, abs=1e-12)

    def test_quarter_circle_oracle_self_check(self):
        got = numeric_forward(Pose(0, 0, 0), Unicycle(math.pi, math.pi / 2), 1.0, step=1e-4)
        pose_close(got, Pose(2, 2, math.pi / 2), 1e-8)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            numeric_forward(Pose(0, 0, 0), ConstantVelocity(1, 0), 1.0, step=0.0)

    @pytest.mark.parametrize("model", ["cv", "unicycle", "bicycle"])
    def test_batch_matches_scalar(self, model):
        rng = np.random.default_rng(15)
        poses = []
        params = []
        ts = []
        for _ in range(5):
            poses.append(random_pose(rng))
            params.append(random_params(rng, model))
            ts.append(rng.uniform(-1, 1))
        cols = {
            "cv": lambda m: (m.vx, m.vy),
            "unicycle": lambda m: (m.speed, m.yaw_rate),
            "bicycle": lambda m: (m.speed, m.slip, m.rear_axle),
        }[model]
        batch = numeric_forward_batch(
            np.array([(p.x, p.y, p.heading) for p in poses]),
            model,
            np.array([cols(m) for m in params]),
            np.array(ts),
            step=1e-3,
        )
        for row, p, m, t in zip(batch, poses, params, ts):
            scalar = numeric_forward(p, m, t, step=1e-3)
            assert row[0] == pytest.approx(scalar.x, abs=1e-9)
            assert row[1] == pytest.approx(scalar.y, abs=1e-9)
            assert normalize_angle(row[2] - scalar.heading) == pytest.approx(0.0, abs=1e-9)


def fit_outcome(fit, *args, **kwargs):
    """A fit's (Bicycle, FitReport), or the type, message, best iterate and report of its error."""
    try:
        return fit(*args, **kwargs)
    except FitDivergence as exc:
        return FitDivergence, str(exc), exc.best, exc.report
    except ValueError as exc:
        return ValueError, str(exc)


NEAR_PI = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0)]),
    st.floats(math.pi - 1e-6, math.pi),
    st.floats(-math.pi, -math.pi + 1e-6),
)
FIT_POSE = st.builds(Pose, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), NEAR_PI)
GAP = st.one_of(st.floats(1e-3, 2.0), st.floats(10.0, 1e4), st.floats(-2.0, -1e-3), st.just(0.0))


@st.composite
def fit_pairs(draw):
    """A start pose and an end pose: identical, moved by a chord below 1e-9 m or
    up to a few mm, moved by a bicycle (perhaps with noise), or independent."""
    p0 = draw(FIT_POSE)
    kind = draw(st.sampled_from(["identical", "tiny chord", "bicycle", "independent"]))
    if kind == "identical":
        return p0, p0
    if kind == "tiny chord":
        chord = 10.0 ** draw(st.floats(-15.0, -2.5))
        angle = draw(st.floats(-math.pi, math.pi))
        return p0, Pose(p0.x + chord * math.cos(angle), p0.y + chord * math.sin(angle), draw(NEAR_PI))
    if kind == "bicycle":
        gen = Bicycle(draw(st.floats(-30.0, 30.0)), draw(st.floats(-HALF_PI, HALF_PI)), draw(st.floats(0.3, 3.0)))
        end = forward(p0, gen, draw(st.floats(1e-3, 2.0)))
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3]))
        return p0, Pose(end.x + noise, end.y - noise, normalize_angle(end.heading + noise))
    return p0, draw(FIT_POSE)


@settings(max_examples=400, deadline=None)
@given(pair=fit_pairs(), t=GAP, arm=st.floats(0.3, 3.0), max_iter=st.sampled_from([50, 2]),
       init=st.none() | st.builds(Bicycle, st.floats(-20.0, 20.0), st.floats(-HALF_PI, HALF_PI), st.just(1.0)))
def test_bicycle_fit_equals_the_frozen_fit(pair, t, arm, max_iter, init):
    """The fit that settles its conditioning check without an SVD keeps every bit of the one that did not."""
    got = fit_outcome(inverse_bicycle, *pair, t, arm, init=init, max_iter=max_iter)
    event(got[0].__name__ if type(got[0]) is type else "fit")
    assert got == fit_outcome(inverse_bicycle_reference, *pair, t, arm, init=init, max_iter=max_iter)


def exact_ill_conditioned(normal) -> bool:
    return not np.isfinite(normal).all() or np.linalg.cond(normal) > 1e12


@st.composite
def normal_matrices(draw):
    """J^T J of a 3x2 Jacobian J whose columns span 16 decades: random, with a
    zero column, collinear or nearly so, or with non-finite entries in J or in J^T J."""
    jac = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))).reshape(3, 2)
    jac *= 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2)))
    kind = draw(st.sampled_from(["random", "zero column", "collinear", "near collinear", "non-finite J",
                                 "non-finite normal"]))
    event(kind)
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    if kind == "zero column":
        jac[:, draw(st.integers(0, 1))] = 0.0
    elif kind in ("collinear", "near collinear"):
        residual = 10.0 ** draw(st.floats(-17.0, -3.0)) if kind == "near collinear" else 0.0
        jac[:, 1] = jac[:, 0] * draw(st.floats(-1e3, 1e3)) + jac[:, 1] * residual
    elif kind == "non-finite J":
        jac[draw(st.integers(0, 2)), draw(st.integers(0, 1))] = draw(bad)
    with np.errstate(all="ignore"):
        normal = jac.T @ jac
    if kind == "non-finite normal":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        normal[i, j] = draw(bad)
        if draw(st.booleans()):
            normal[j, i] = normal[i, j]
    return normal


@settings(max_examples=1000, deadline=None)
@given(normal=normal_matrices())
def test_conditioning_gate_decides_as_the_svd(normal):
    assert motion._ill_conditioned(normal) == exact_ill_conditioned(normal)


@pytest.mark.parametrize("normal,expected", [
    (np.array([[2.0, 0.3], [0.3, 1.0]]), False),
    (np.array([[0.04, 0.0], [0.0, 0.0]]), True),  # a standstill: the slip column is zero
    (np.array([[1.0, 1.0], [1.0, 1.0]]), True),
])
def test_conditioning_gate_settles_clear_cases_without_an_svd(monkeypatch, normal, expected):
    def no_svd(*args):
        raise AssertionError("the SVD was taken")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    assert motion._ill_conditioned(normal) is expected


SEED_POSE = st.builds(Pose, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                     st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi))


@settings(max_examples=300, deadline=None)
@given(p0=SEED_POSE, p1=SEED_POSE, t=st.floats(1e-3, 2.0), arm=st.floats(0.3, 3.0))
def test_the_unicycle_seed_is_the_unicycle_inverse(p0, p1, t, arm):
    try:
        uni = inverse_unicycle_reference(p0, p1, t)
    except ValueError:
        event("half turn")
        return
    slip = math.asin(min(1.0, max(-1.0, uni.yaw_rate * arm / uni.speed))) if abs(uni.speed) > 0.1 else 0.0
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(motion._bicycle_seeds(p0, p1, t, arm)[-1]) == repr((uni.speed, slip))


@pytest.mark.parametrize("arm", [0.0, -1.0, math.nan])
def test_bicycle_fit_rejects_an_arm_that_is_not_positive(arm):
    with pytest.raises(ValueError, match="rear_axle must be positive"):
        inverse_bicycle(Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0), 0.1, arm)
