"""The motion-model registry: every model in MODELS serializes, and the CLI offers exactly MODELS."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from boxfuse import Box3D, Detection, EgoPose, Frame, Pose, forward, model_name
from boxfuse.cli import build_parser
from boxfuse.io import dumps_line, frame_from_obj, frame_to_obj
from boxfuse.motion import HALF_PI, MODEL_NAMES, MODELS, MotionParams, model_class, param_rows
from oracles import speed_radius_reference

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# fields with a narrower valid range than "any finite float"
FIELD_VALUES = {
    "slip": st.floats(min_value=-HALF_PI, max_value=HALF_PI),
    "rear_axle": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
}


def params_of(cls):
    fields = {f.name: FIELD_VALUES.get(f.name, FINITE) for f in dataclasses.fields(cls)}
    return st.builds(cls, **fields)


@pytest.mark.parametrize("name", list(MODELS))
@given(data=st.data())
def test_json_roundtrip_every_model(name, data):
    params = data.draw(params_of(MODELS[name]))
    det = Detection(box=Box3D(1.0, 2.0, 0.5, 2.0, 4.0, 1.5, 0.3), score=0.5, label="car", motion=params)
    frame = Frame(0.0, EgoPose.identity(), [det])
    back = frame_from_obj(json.loads(dumps_line(frame_to_obj(frame))))
    assert back.detections == [det]
    assert model_name(params) == name


@pytest.mark.parametrize("name", list(MODELS))
def test_json_keys_name_every_field_in_field_order(name):
    cls = MODELS[name]
    assert list(cls.json_keys) == [f.name for f in dataclasses.fields(cls)]
    assert len(set(cls.json_keys.values()) | {"model"}) == len(cls.json_keys) + 1


@pytest.mark.parametrize("name", list(MODELS))
@given(data=st.data())
def test_speed_radius_columns_equal_the_scalar_form(name, data):
    cls = MODELS[name]
    # straight rows (zero rate or slip) and rows near the straight cut-off too
    near_zero = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2e-9, 1e-300])
    fields = {f.name: st.one_of(near_zero, FIELD_VALUES.get(f.name, FINITE)) if f.name in ("yaw_rate", "slip")
              else FIELD_VALUES.get(f.name, FINITE) for f in dataclasses.fields(cls)}
    motions = data.draw(st.lists(st.builds(cls, **fields), max_size=8))
    speed, radius = cls.speed_radius_columns(param_rows(cls, motions))
    assert list(zip(speed.tolist(), radius.tolist())) == [speed_radius_reference(m) for m in motions]


#: The rules MotionParams states once, and the ones each model restates because it differs there.
SHARED_RULES = ("turns", "__post_init__", "range_rules", "merge_columns", "in_ego_columns")
RESTATED = {"cv": {"turns", "in_ego_columns"}, "unicycle": set(), "bicycle": {"range_rules", "merge_columns"}}


@pytest.mark.parametrize("name", list(MODELS))
def test_every_model_restates_only_where_it_differs_from_the_base(name):
    cls = MODELS[name]
    assert isinstance(MotionParams, type) and issubclass(cls, MotionParams)
    assert {rule for rule in SHARED_RULES if rule in vars(cls)} == RESTATED[name]
    # one value-rule table per model, which rows and columns both check: each field finite, then the range rules
    assert not hasattr(cls, "invalid_columns")
    assert cls.rules[len(cls.json_keys):] == cls.range_rules


def _subcommand_choices(command: str, dest: str):
    subparsers = build_parser()._subparsers._group_actions[0]
    action = next(a for a in subparsers.choices[command]._actions if a.dest == dest)
    return action.choices


@pytest.mark.parametrize("command,dest", [("synth", "model"), ("inverse", "model"),
                                          ("traj-compare", "gen_model")])
def test_cli_model_choices_are_the_registry(command, dest):
    assert tuple(_subcommand_choices(command, dest)) == tuple(MODELS) == MODEL_NAMES


def test_unknown_model_name_rejected():
    with pytest.raises(ValueError, match="unknown motion model"):
        model_class("kalman")


@pytest.mark.parametrize("name", list(MODELS))
def test_straight_construction_agrees_across_models(name):
    # every model built for straight motion along a heading drives the same line
    params = MODELS[name].from_motion(7.0, 0.6, None, 1.2)
    got = forward(Pose(1.0, -2.0, 0.6), params, 0.5)
    assert got.x == pytest.approx(1.0 + 3.5 * math.cos(0.6), abs=1e-12)
    assert got.y == pytest.approx(-2.0 + 3.5 * math.sin(0.6), abs=1e-12)
    assert speed_radius_reference(params) == (pytest.approx(7.0), math.inf)


@pytest.mark.parametrize("name", [n for n in MODELS if MODELS[n].turns])
def test_turning_construction_has_the_requested_radius(name):
    for radius in (15.0, -15.0):
        params = MODELS[name].from_motion(8.0, 0.0, radius, 1.2)
        speed, got_radius = speed_radius_reference(params)
        assert speed == pytest.approx(8.0)
        assert got_radius == pytest.approx(15.0)
        # positive radius turns left
        assert math.copysign(1.0, forward(Pose(0, 0, 0), params, 0.5).heading) == math.copysign(1.0, radius)
