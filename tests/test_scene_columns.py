"""Columnar scene generation and re-estimation against the frozen per-box references.

generate_mixed_scene, corrupt and reattach_params build numpy columns
with no per-box objects; tests/oracles.py keeps the per-box versions they
replaced, and reattach_scene_params must equal reattach_params. Both must write the same frame lines, byte for byte, and raise the
same errors. The column forms of the motion models must equal their scalar
forms by ==, and the per-pose entry points, one-row calls of the column
forms, must equal the per-pose references bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    CorruptionSpec,
    Detection,
    EgoPose,
    FitDivergence,
    Frame,
    Pose,
    TrajectorySpec,
    Unicycle,
    corrupt,
    forward,
    forward_box,
    generate_mixed_scene,
    inverse_cv,
    inverse_unicycle,
    motion,
    reattach_params,
    transform_box,
)
from boxfuse.geometry import normalize_angle
from boxfuse.io import dumps_line, frame_to_obj
from boxfuse.motion import HALF_PI, MODELS, estimate_param_columns, estimate_params_from_track
from boxfuse.synth import _motion_in_ego, reattach_scene_params
from oracles import (
    corrupt_reference,
    estimate_params_from_track_reference,
    forward_box_reference,
    forward_reference,
    generate_mixed_scene_reference,
    inverse_reference,
    motion_in_ego_reference,
    reattach_params_reference,
    ref_dumps_frame,
    transform_box_reference,
)

MODEL_NAMES = sorted(MODELS)


def lines(frames) -> list[str]:
    return [dumps_line(frame_to_obj(frame)) for frame in frames]


def outcome(call, serialize):
    """The serialized result of call(), or the type and message of the error it raises."""
    try:
        return serialize(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@st.composite
def scenes(draw):
    common = dict(duration=draw(st.sampled_from([0.1, 0.2, 0.5])), frame_interval=0.1,
                  origin_span=draw(st.sampled_from([0.0, 30.0])), min_spacing=6.0)
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        model = draw(st.sampled_from(MODEL_NAMES))
        spec = TrajectorySpec(
            model=model,
            speed_range=draw(st.sampled_from([(0.0, 0.0), (2.0, 14.0), (-5.0, 5.0)])),
            radius_range=(8.0, 25.0) if model != "cv" and draw(st.booleans()) else None,
            rear_axle=draw(st.sampled_from([None, 1.3])),
            heading_range=draw(st.sampled_from([(-math.pi, math.pi), (0.0, 2.0 * math.pi)])),
            **common,
        )
        groups.append((spec, draw(st.integers(0, 4))))
    ego = draw(st.sampled_from([None, ConstantVelocity(3.0, -1.0), Unicycle(5.0, 0.4), Bicycle(6.0, 0.2, 1.2)]))
    return groups, ego


@st.composite
def corruptions(draw, n_frames: int):
    frames = st.integers(0, n_frames - 1)
    return CorruptionSpec(
        sigma_xy=draw(st.sampled_from([0.0, 0.3])),
        sigma_yaw=draw(st.sampled_from([0.0, 0.1, 2.0])),
        sigma_speed=draw(st.sampled_from([0.0, 0.5])),
        sigma_turn=draw(st.sampled_from([0.0, 0.05, 5.0])),
        drop_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        burst_frames=draw(st.integers(0, 3)),
        burst_vehicle_frac=draw(st.sampled_from([0.0, 0.5, 1.0])),
        score_mean=draw(st.floats(0.0, 1.2)),
        score_sigma=draw(st.sampled_from([0.0, 0.2, 1.0])),
        # a frame index is named at most once per override field
        frame_drop_overrides=tuple(draw(st.lists(st.tuples(frames, st.sampled_from([0.0, 0.5, 1.0])),
                                                 max_size=2, unique_by=lambda pair: pair[0]))),
        frame_score_scale=tuple(draw(st.lists(st.tuples(frames, st.sampled_from([0.0, 0.5, 3.0])), max_size=2,
                                              unique_by=lambda pair: pair[0]))),
    )


@settings(max_examples=60, deadline=None)
@given(scene=scenes(), seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODEL_NAMES),
       rear_axle=st.sampled_from([None, 1.1]), data=st.data())
def test_columnar_scene_writes_the_reference_lines(scene, seed, model, rear_axle, data):
    groups, ego = scene
    gt = generate_mixed_scene(groups, seed, ego_motion=ego, track_id_start=3)
    ref_gt = generate_mixed_scene_reference(groups, seed, ego_motion=ego, track_id_start=3)
    assert lines(gt) == [ref_dumps_frame(f) for f in ref_gt]

    base = reattach_params(gt, model, rear_axle)
    ref_base = reattach_params_reference(ref_gt, model, rear_axle)
    assert lines(base) == [ref_dumps_frame(f) for f in ref_base]
    assert lines(reattach_scene_params(gt, groups, model, rear_axle)) == lines(base)

    noise = data.draw(corruptions(len(gt)), label="noise")
    det = outcome(lambda: corrupt(base, noise, seed), list)
    expected = outcome(lambda: corrupt_reference(ref_base, noise, seed), lambda out: [ref_dumps_frame(f) for f in out])
    if type(det) is tuple:
        assert det == expected
        return
    assert lines(det) == expected

    # re-estimation from detections: track gaps, short tracks, perhaps a
    # repeated frame (a track seen twice at one time) or a missing track id
    frames = list(det)
    if data.draw(st.booleans(), label="repeat a frame"):
        frames.append(frames[data.draw(st.integers(0, len(frames) - 1))])
    filled = [k for k, frame in enumerate(frames) if len(frame.detections)]
    if filled and data.draw(st.booleans(), label="drop a track id"):
        k = data.draw(st.sampled_from(filled))
        rows = list(frames[k].detections)
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = dataclasses.replace(rows[i], track_id=None)
        frames[k] = Frame(frames[k].timestamp, frames[k].ego, rows)
    refit = data.draw(st.sampled_from(MODEL_NAMES), label="refit model")
    got = outcome(lambda: reattach_params(frames, refit, rear_axle), lines)
    event(f"refit: {got[1].split(': ')[-1].split(' on ')[0] if type(got) is tuple else 'written'}")
    assert got == outcome(lambda: reattach_params_reference(frames, refit, rear_axle),
                          lambda out: [ref_dumps_frame(f) for f in out])


POSE = st.builds(Pose, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-math.pi, math.pi))


def pose_columns(poses):
    return tuple(np.array([getattr(p, name) for p in poses]) for name in ("x", "y", "heading"))


SPEED = st.floats(-30.0, 30.0)
# straight rates and slips, and ones near the sinc series cut-off, as well as any
RATE = st.sampled_from([0.0, -0.0, 1e-9, 5e-3, -2e-2]) | st.floats(-3.0, 3.0)
SLIP = st.sampled_from([0.0, -0.0, 1e-9, HALF_PI, -HALF_PI]) | st.floats(-HALF_PI, HALF_PI)
MOTION = (st.builds(ConstantVelocity, SPEED, SPEED) | st.builds(Unicycle, SPEED, RATE)
          | st.builds(Bicycle, SPEED, SLIP, st.floats(0.3, 3.0)))
COORD = st.floats(-100.0, 100.0)
YAW = st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-10.0, 10.0)
BOX = st.builds(Box3D, COORD, COORD, st.floats(-2.0, 2.0), st.floats(0.5, 3.0), st.floats(0.5, 6.0),
                st.floats(0.5, 3.0), YAW)
EGO = st.builds(EgoPose, COORD, COORD, YAW)


@settings(max_examples=400, deadline=None)
@given(pose=POSE, params=MOTION, t=st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0), box=BOX, src=EGO, dst=EGO)
def test_one_row_paths_equal_the_per_pose_references(pose, params, t, box, src, dst):
    # repr tells -0.0 from 0.0 and names the class, so equal reprs are equal bits
    expected = repr(forward_reference(pose, params, t))
    assert repr(forward(pose, params, t)) == expected
    assert repr(forward_box(box, params, t)) == repr(forward_box_reference(box, params, t))
    assert repr(transform_box(box, src, dst)) == repr(transform_box_reference(box, src, dst))
    assert repr(transform_box(box, src, src)) == repr(box)
    assert repr(_motion_in_ego(params, dst)) == repr(motion_in_ego_reference(params, dst))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("box,src", [
    (Box3D(1.5e308, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0), EgoPose(1.5e308, 0.0, 0.0)),
    (Box3D(0.0, 1.5e308, 0.0, 2.0, 4.0, 1.5, 0.0), EgoPose(0.0, 1.5e308, 0.0)),
    (Box3D(1.5e308, 1.5e308, 0.0, 2.0, 4.0, 1.5, 0.0), EgoPose(0.0, 0.0, math.pi / 4)),
])
def test_an_overflowing_transform_raises_what_the_reference_raises(box, src):
    # the box's own rule rejects the centre, so the column path and the reference agree on the message
    with pytest.raises(ValueError) as expected:
        transform_box_reference(box, src, EgoPose.identity())
    with pytest.raises(ValueError) as err:
        transform_box(box, src, EgoPose.identity())
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith(("x must be finite", "y must be finite"))


@pytest.mark.parametrize("call", [lambda p: forward(Pose(0.0, 0.0, 0.0), p, 1.0),
                                  lambda p: forward_box(Box3D(0.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0), p, 1.0),
                                  lambda p: _motion_in_ego(p, EgoPose(0.0, 0.0, 0.5))])
@pytest.mark.parametrize("params", [object(), (1.0, 2.0)])
def test_one_row_paths_reject_what_is_not_a_model(call, params):
    with pytest.raises(TypeError, match="unknown motion parameters"):
        call(params)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(MODEL_NAMES),
       pairs=st.lists(st.tuples(POSE, POSE, st.floats(1e-3, 2.0), st.floats(0.5, 3.0)), min_size=1, max_size=5))
def test_inverse_columns_equal_the_scalar_inverse(model, pairs):
    kind = MODELS[model]
    p0, p1, dt, arm = zip(*pairs)
    expected = outcome(lambda: [inverse_reference(model, *pair) for pair in pairs],
                       lambda fits: [dataclasses.astuple(fit) for fit in fits])
    got = outcome(lambda: kind.inverse_columns(*pose_columns(p0), *pose_columns(p1), np.array(dt), np.array(arm)),
                  lambda rows: [tuple(row) for row in rows.tolist()])
    assert got == expected


@pytest.mark.parametrize("model,start,end,dt,arm,message", [
    ("cv", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, None, "zero time gap"),
    ("unicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, None, "zero time gap"),
    ("bicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.2, "zero time gap"),
    ("unicycle", (0.0, 0.0, 0.0), (1.0, 0.0, math.pi), 0.1, None, "ambiguous"),
    ("unicycle", (0.0, 0.0, -0.5 * math.pi), (1.0, 0.0, 0.5 * math.pi), 0.1, None, "ambiguous"),
    ("unicycle", (2.0, 1.0, 0.5 * math.pi), (1.0, 0.0, -0.5 * math.pi), 0.1, None, "ambiguous"),
    ("bicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.1, None, "positive rear_axle"),
    ("bicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.1, 0.0, "positive rear_axle"),
    ("bicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.1, -1.0, "positive rear_axle"),
    ("bicycle", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.1, math.nan, "positive rear_axle"),
])
def test_inverse_columns_raise_like_the_scalar_inverse(model, start, end, dt, arm, message):
    kind = MODELS[model]
    with pytest.raises(ValueError, match=message):
        inverse_reference(model, Pose(*start), Pose(*end), dt, arm)
    with pytest.raises(ValueError, match=message):
        kind.inverse_columns(*(np.array([v]) for v in (*start, *end, dt)), None if arm is None else np.array([arm]))


# zero gaps of both signs, gaps whose ratios overflow (a subnormal one among them), and any
GAP = st.sampled_from([0.0, -0.0, 1e-320, -5e-324, 1e-300]) | st.floats(-2.0, 2.0)
# coordinates whose differences overflow, and any
WIDE = st.sampled_from([1.7e308, -1.7e308]) | st.floats(-100.0, 100.0)


@settings(max_examples=400, deadline=None)
@given(p0=st.builds(Pose, WIDE, WIDE, YAW), p1=st.builds(Pose, WIDE, WIDE, YAW),
       turn=st.sampled_from([None, None, None, math.pi, -math.pi]), t=GAP)
def test_one_row_inverses_equal_the_frozen_scalar_inverses(p0, p1, turn, t):
    if turn is not None:
        p1 = Pose(p1.x, p1.y, p0.heading + turn)
    for model, one_row in (("cv", inverse_cv), ("unicycle", inverse_unicycle)):
        kind = MODELS[model]
        # repr tells -0.0 from 0.0 and names the class, so equal reprs are equal bits
        expected = outcome(lambda: inverse_reference(model, p0, p1, t), repr)
        assert outcome(lambda: one_row(p0, p1, t), repr) == expected
        with np.errstate(over="ignore", invalid="ignore"):
            rows = outcome(lambda: kind.inverse_columns(*pose_columns([p0]), *pose_columns([p1]), np.array([t])),
                           lambda rows: rows)
        event(f"{model}: {'fit' if type(expected) is str else expected[1].split(',')[0]}")
        if type(rows) is tuple:
            assert rows == expected
        elif np.isfinite(rows).all():
            assert repr(kind(*rows[0].tolist())) == expected
        else:
            # the columns leave the finiteness check to the class that takes their rows
            assert expected[0] is ValueError and "must be finite" in expected[1]


def counted_fits(monkeypatch, fit=None):
    """The input tuples of every motion.inverse_bicycle call, with `fit` (the real fit by default) behind it."""
    fit = fit or motion.inverse_bicycle
    calls = []

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(motion, "inverse_bicycle", counted)
    return calls


def test_bicycle_fits_go_through_the_module_function_and_diverge_per_pair(monkeypatch):
    real = motion.inverse_bicycle
    calls = counted_fits(monkeypatch, lambda *args: real(*args, max_iter=1))
    exact = Bicycle(8.0, 0.1, 1.2)
    start = Pose(0.0, 0.0, 0.3)
    diverging = Pose(1.0, 0.4, 0.9)
    # an exact pair converges at once; a pair no bicycle explains needs more steps
    with pytest.raises(FitDivergence) as scalar:
        motion.inverse_bicycle(start, diverging, 0.1, 1.2)
    ends = [forward(start, exact, 0.1), diverging]
    with pytest.raises(FitDivergence) as columns:
        Bicycle.inverse_columns(*pose_columns([start, start]), *pose_columns(ends), np.array([0.1, 0.1]), 1.2)
    assert str(columns.value) == str(scalar.value)
    assert (columns.value.best, columns.value.report) == (scalar.value.best, scalar.value.report)
    assert [pair[1] for pair in calls] == [diverging, *ends]


def test_each_distinct_pair_is_fitted_once(monkeypatch):
    calls = counted_fits(monkeypatch)
    gen = Bicycle(9.0, 0.15, 1.2)
    tracks = []
    for n, start in zip((2, 3, 4, 2), (Pose(0.0, 0.0, 0.0), Pose(5.0, 1.0, 2.0), Pose(-3.0, 4.0, -2.5), Pose(1.0, 1.0, 1.0))):
        times = [0.1 * k for k in range(n)]
        tracks.append((times, [forward(start, gen, t) for t in times]))
    times = [t for track_times, _ in tracks for t in track_times]
    poses = [p for _, track_poses in tracks for p in track_poses]
    rows = estimate_param_columns(times, *pose_columns(poses), [len(t) for t, _ in tracks], "bicycle", 1.2)
    assert len(calls) == 1 + 3 + 4 + 1
    calls.clear()
    expected = [fit for track in tracks for fit in estimate_params_from_track_reference(*track, "bicycle", 1.2)]
    assert len(calls) == 2 + 3 + 4 + 2
    assert [Bicycle(*row) for row in rows.tolist()] == expected


def test_repeated_pairs_are_fitted_once_in_order_of_first_occurrence(monkeypatch):
    start, gen = Pose(1.0, 2.0, 0.4), Bicycle(7.0, -0.1, 1.3)
    ends = [forward(start, gen, t) for t in (0.1, 0.2, 0.3)]
    # first seen in the order 1, 0, 2, which is not the order of their bits
    p1 = [ends[k] for k in (1, 0, 1, 2, 0, 1)]
    expected = [inverse_reference("bicycle", start, end, 0.1, 1.3) for end in p1]
    calls = counted_fits(monkeypatch)
    rows = Bicycle.inverse_columns(*pose_columns([start] * len(p1)), *pose_columns(p1), np.full(len(p1), 0.1), 1.3)
    assert [call[1] for call in calls] == [ends[1], ends[0], ends[2]]
    assert [Bicycle(*row) for row in rows.tolist()] == expected


def test_a_zero_heading_of_either_sign_is_its_own_pair(monkeypatch):
    # equal as values, so only the bits tell the two pairs apart
    starts = [Pose(0.0, 0.0, 0.0), Pose(0.0, 0.0, -0.0), Pose(0.0, 0.0, 0.0)]
    end = Pose(0.9, 0.05, 0.02)
    calls = counted_fits(monkeypatch)
    rows = Bicycle.inverse_columns(*pose_columns(starts), *pose_columns([end] * 3), np.full(3, 0.1), 1.2)
    assert [math.copysign(1.0, call[0].heading) for call in calls] == [1.0, -1.0]
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert [repr(Bicycle(*row)) for row in rows.tolist()] == [
        repr(inverse_reference("bicycle", p0, end, 0.1, 1.2)) for p0 in starts]


def test_a_failing_pair_repeated_in_a_later_track_names_the_earlier_track(monkeypatch):
    real = motion.inverse_bicycle
    bad = Pose(9.0, 0.0, 0.0)

    def fails_on_bad(p0, pt, t, rear_axle):
        if bad in (p0, pt):
            raise ValueError("no fit")
        return real(p0, pt, t, rear_axle)

    good = [Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0), Pose(2.0, 0.0, 0.0)]
    failing = [Pose(8.0, 0.0, 0.0), bad]
    calls = counted_fits(monkeypatch, fails_on_bad)
    poses = good + failing + good + failing
    with pytest.raises(ValueError, match="no fit") as raised:
        estimate_param_columns([0.0, 0.1, 0.2, 0.0, 0.1] * 2, *pose_columns(poses), [3, 2, 3, 2], "bicycle", 1.2)
    assert (raised.value.track, raised.value.pair) == (1, 3)
    # the good track's three pairs, then the failing pair, which both of its rows share
    assert len(calls) == 4


# The bicycle fit builds its Poses unchecked when one check of the pose columns
# shows them finite with headings in (-pi, pi]; every other column takes Pose's checks.


def test_a_nan_x_still_meets_the_pose_check_and_names_its_track():
    x, y, heading = pose_columns([Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0)] * 2)
    x[2] = math.nan
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$") as raised:
        estimate_param_columns([0.0, 0.1] * 2, x, y, heading, [2, 2], "bicycle", 1.2)
    assert raised.value.track == 1


@pytest.mark.parametrize("unwrapped", [3.5, -math.pi, 7.0])
def test_an_unwrapped_heading_fits_as_its_wrapped_value(unwrapped):
    # the bicycle's Pose wraps each heading; the unicycle wraps only their difference, to other bits
    x, y = np.array([0.0, 0.9, 1.7]), np.array([0.0, 0.1, 0.3])
    wrapped = normalize_angle(unwrapped)
    args = [0.0, 0.1, 0.2], x, y
    got = estimate_param_columns(*args, np.array([3.0, unwrapped, 3.1]), [3], "bicycle", 1.2)
    expected = estimate_param_columns(*args, np.array([3.0, wrapped, 3.1]), [3], "bicycle", 1.2)
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(got.tolist()) == repr(expected.tolist())


def test_a_heading_of_pi_fits_as_the_reference():
    poses = [Pose(0.0, 0.0, math.pi), Pose(-0.8, 0.05, math.pi), Pose(-1.7, 0.1, 3.0)]
    times = [0.0, 0.1, 0.2]
    expected = [repr(fit) for fit in estimate_params_from_track_reference(times, poses, "bicycle", 1.2)]
    rows = estimate_param_columns(times, *pose_columns(poses), [3], "bicycle", 1.2)
    assert [repr(Bicycle(*row)) for row in rows.tolist()] == expected
    frames = [Frame(t, EgoPose.identity(), [Detection(Box3D(p.x, p.y, 0.0, 2.0, 4.8, 1.6, p.heading), 0.9, "car",
                                                      ConstantVelocity(0.0, 0.0), track_id=3)])
              for t, p in zip(times, poses)]
    # the default arm is a quarter of the box length: 4.8 / 4 = 1.2
    assert [repr(frame.detections[0].motion) for frame in reattach_params(frames, "bicycle")] == expected


@st.composite
def stationary_tracks(draw):
    """Tracks of 2-8 poses that often stay put, at gaps that often repeat, and perhaps a repeated track."""
    heading = st.sampled_from([0.0, -0.0]) | st.floats(-math.pi, math.pi)
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        poses = [Pose(draw(COORD), draw(COORD), draw(heading))]
        times = [draw(st.sampled_from([0.0, 0.5, 100.0]))]
        for _ in range(draw(st.integers(1, 7))):
            prev = poses[-1]
            if not draw(st.booleans()):
                step = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-0.3, 0.3)))
                prev = Pose(prev.x + step[0], prev.y + step[1], normalize_angle(prev.heading + step[2]))
            poses.append(prev)
            times.append(times[-1] + draw(st.sampled_from([0.1, 0.1, 0.2])))
        tracks.append((times, poses))
    if draw(st.booleans()):
        tracks.append(draw(st.sampled_from(tracks)))
    return tracks


@settings(max_examples=150, deadline=None)
@given(tracks=stationary_tracks())
def test_stationary_runs_fit_like_the_per_track_reference(tracks):
    expected = []
    for k, (times, poses) in enumerate(tracks):
        try:
            expected += [repr(fit) for fit in estimate_params_from_track_reference(times, poses, "bicycle", 1.2)]
        except (ValueError, FitDivergence) as exc:
            expected = type(exc), str(exc), k
            break
    times = [t for track_times, _ in tracks for t in track_times]
    poses = [p for _, track_poses in tracks for p in track_poses]
    try:
        rows = estimate_param_columns(times, *pose_columns(poses), [len(t) for t, _ in tracks], "bicycle", 1.2)
    except (ValueError, FitDivergence) as exc:
        got = type(exc), str(exc), exc.track
    else:
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        got = [repr(Bicycle(*row)) for row in rows.tolist()]
    event("fitted" if type(got) is list else "raised")
    assert got == expected


@pytest.mark.parametrize("times,message", [
    ([0.0], "need at least two poses"),
    ([], "need at least two poses"),
    ([0.0, 0.1, 0.1], "timestamps must strictly increase"),
    ([0.0, 0.2, 0.1], "timestamps must strictly increase"),
])
def test_track_checks_keep_their_messages(times, message):
    poses = [Pose(float(k), 0.0, 0.0) for k in range(len(times))]
    with pytest.raises(ValueError, match=message):
        estimate_params_from_track_reference(times, poses, "cv")
    with pytest.raises(ValueError, match=message):
        estimate_params_from_track(times, poses, "cv")
    # a faulty track after a good one raises the same
    good = [Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match=message):
        estimate_param_columns([0.0, 0.1, *times], *pose_columns(good + poses), [2, len(times)], "cv")


# A stage checks the new rows of the whole scene at once, and an error names the
# first failing row as its frame's own check would: within its frame. The frozen
# references build a row's Box3D or motion before its Detection, so they raise
# the bare rule message; each case also shows that the reference reaches that
# row first, by running it on the scene cut just before and just after the row.


def cut_after(frames, frame, rows):
    """frames up to `frame`, keeping only the first `rows` detections of that frame."""
    last = frames[frame]
    return [*frames[:frame], Frame(last.timestamp, last.ego, list(last.detections)[:rows])]


def far_box(x: float, t: float, ego: EgoPose = EgoPose.identity()) -> Box3D:
    return transform_box_reference(Box3D(x, x, 0.8, 2.0, 4.5, 1.6, 0.25 + t), EgoPose.identity(), ego)


@pytest.mark.filterwarnings("error")
def test_a_corruption_overflowing_in_a_later_frame_names_the_row_in_its_frame():
    # noise of up to about 5e307 m keeps boxes near the origin finite, and pushes some of the boxes at
    # +-1.75e308 out of float range: at seed 1 the first of them is row 2 of frame 1, row 5 of the scene
    near = [Detection(Box3D(float(k), 0.0, 0.8, 2.0, 4.5, 1.6, 0.0), 0.9, "car", ConstantVelocity(1.0, 0.0),
                      track_id=k) for k in range(3)]
    far = [Detection(Box3D(x, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0), 0.9, "car", ConstantVelocity(1.0, 0.0), track_id=k)
           for k, x in enumerate((0.0, 1.75e308, -1.75e308, 1.75e308))]
    frames = [Frame(0.0, EgoPose.identity(), near), Frame(0.1, EgoPose.identity(), far)]
    spec = CorruptionSpec(sigma_xy=1e307)
    with pytest.raises(ValueError) as expected:
        corrupt_reference(cut_after(frames, 1, 3), spec, 1)
    corrupt_reference(cut_after(frames, 1, 2), spec, 1)
    with pytest.raises(ValueError) as raised:
        corrupt(frames, spec, 1)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"detection 2: {expected.value}" == "detection 2: x must be finite, got -inf"


@pytest.mark.filterwarnings("error")
def test_a_scene_overflowing_in_a_later_frame_names_the_row_in_its_frame():
    # the ego backs away at 1e308 m/s while the second group drives off at 1e308 m/s, so from t = 0.9 s
    # their distance leaves float range; its first vehicle is row 2 of frame 9, row 20 of the scene
    common = dict(model="cv", heading_range=(0.0, 0.0), origin_span=10.0, duration=1.0, frame_interval=0.1)
    groups = [(TrajectorySpec(speed_range=(0.0, 0.0), **common), 2),
              (TrajectorySpec(speed_range=(1e308, 1e308), **common), 2)]
    ego = ConstantVelocity(-1e308, 0.0)
    with pytest.raises(ValueError) as expected:
        generate_mixed_scene_reference(groups, 1, ego_motion=ego)
    # the frames up to t = 0.8 s stay in range, as do the stationary group's rows of frame 9
    generate_mixed_scene_reference([(replace(spec, duration=0.8), count) for spec, count in groups], 1, ego_motion=ego)
    generate_mixed_scene_reference(groups[:1], 1, ego_motion=ego)
    with pytest.raises(ValueError) as raised:
        generate_mixed_scene(groups, 1, ego_motion=ego)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"detection 2: {expected.value}" == "detection 2: x must be finite, got inf"


@pytest.mark.filterwarnings("error")
def test_a_refit_overflowing_in_a_later_frame_names_the_row_in_its_frame():
    # track 2 moves at 1.5e308 m/s along x and y; turned into the frames of an ego at yaw -pi/4 its
    # velocity leaves float range, so row 1 of frame 1, row 3 of the scene, is the first to fail
    turned = EgoPose(0.0, 0.0, -math.pi / 4)
    frames = []
    for k, ego in enumerate((EgoPose.identity(), turned, turned)):
        t = 0.1 * k
        frames.append(Frame(t, ego, [
            Detection(far_box(float(k), t, ego), 0.9, "car", ConstantVelocity(0.0, 0.0), track_id=1),
            Detection(far_box(1.5e307 * k, t, ego), 0.9, "car", ConstantVelocity(0.0, 0.0), track_id=2)]))
    with pytest.raises(ValueError) as expected:
        reattach_params_reference(frames, "cv", None)
    # track 1 is slow, and frame 0 is seen from the identity, which turns nothing
    reattach_params_reference([Frame(f.timestamp, f.ego, list(f.detections)[:1]) for f in frames], "cv", None)
    with pytest.raises(ValueError) as raised:
        reattach_params(frames, "cv")
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"detection 1: {expected.value}" == "detection 1: vy must be finite, got inf"
