"""One type rule for every config field: the annotations of FusionConfig, TrajectorySpec and CorruptionSpec.

Each constructor runs rules.require_field_types over its fields first, and
`--config` and `--spec` values go through rules.require_type with the same
annotations, so a Python caller and a file meet the same rule and the same words.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxfuse.cli import _json_fields, _tuples
from boxfuse.fusion import FusionConfig
from boxfuse.rules import _type_text, field_types, require_type
from boxfuse.synth import CorruptionSpec, TrajectorySpec

CONFIGS = (FusionConfig, TrajectorySpec, CorruptionSpec)
FIELDS = [(cls, field.name) for cls in CONFIGS for field in dataclasses.fields(cls)]
HUGE = 10**400


def rejection(call) -> str | None:
    """The message of the ValueError that call() raises, or None when it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


# (case, class, field, value): each constructed, or failed later than construction, before the one rule
DEFECTS = [
    ("int label", TrajectorySpec, "label", 5),
    ("empty label", TrajectorySpec, "label", ""),
    ("list model", TrajectorySpec, "model", ["cv"]),
    ("three speeds", TrajectorySpec, "speed_range", (1.0, 2.0, 3.0)),
    ("two box sides", TrajectorySpec, "box_size", (2.0, 4.0)),
    ("interval beyond float range", FusionConfig, "frame_interval", HUGE),
    ("score mean beyond float range", CorruptionSpec, "score_mean", HUGE),
    ("bool drop override", CorruptionSpec, "frame_drop_overrides", ((1, True),)),
    ("bool score scale", CorruptionSpec, "frame_score_scale", ((0, False),)),
    ("override without a value", CorruptionSpec, "frame_drop_overrides", ((1,),)),
]


@pytest.mark.parametrize("cls,field,value", [case[1:] for case in DEFECTS], ids=[case[0] for case in DEFECTS])
def test_defects_fail_at_construction_naming_their_field(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        cls(**{field: value})


@pytest.mark.parametrize("value,hint,accepted", [
    (1, int, True), (True, int, False), (np.int64(1), int, False), (1.0, int, False),
    (1, float, True), (1.5, float, True), (float("nan"), float, True), (False, float, False),
    (np.float64(1.5), float, False), ("1.5", float, False),
    ("a", str, True), ("", str, False), (None, str, False),
    (None, float | None, True), (0.5, float | None, True), ("x", float | None, False),
    ((1, 2.5), tuple[int, float], True), ([1, 2.5], tuple[int, float], False), ((1,), tuple[int, float], False),
    ((), tuple[tuple[int, float], ...], True), (((1, 0.5), (2, 1)), tuple[tuple[int, float], ...], True),
    (((1, 0.5), (2, None)), tuple[tuple[int, float], ...], False),
])
def test_rule(value, hint, accepted):
    message = rejection(lambda: require_type("x", value, hint))
    assert message is None if accepted else message == f"x must be {_type_text(hint)}, got {value!r}"


def test_rule_names_the_number_beyond_float_range_and_its_field():
    assert rejection(lambda: require_type("x", (1.0, -HUGE), tuple[float, float])) == \
        f"x must fit in a float, got {-HUGE}"
    assert rejection(lambda: require_type("x", 2**1023, float)) is None


def test_rule_words():
    assert _type_text(field_types(FusionConfig)["score_strategy"]) == "one of decay, divide"
    # None means unset, so a message leaves it out
    assert _type_text(field_types(TrajectorySpec)["rear_axle"]) == "a number"
    assert _type_text(field_types(TrajectorySpec)["radius_range"]) == "a tuple (a number, a number)"
    assert _type_text(field_types(CorruptionSpec)["frame_drop_overrides"]) == \
        "a tuple (a tuple (an integer, a number), ...)"


@pytest.mark.parametrize("cls", CONFIGS, ids=[cls.__name__ for cls in CONFIGS])
def test_every_default_passes_its_own_annotation(cls):
    # a field whose hint the rule does not support fails here, with KeyError, not in a user's hands
    default = cls()
    for name, hint in field_types(cls).items():
        require_type(name, getattr(default, name), hint)
        assert _type_text(hint)


def test_hints_are_resolved_once_per_class():
    assert field_types(FusionConfig) is field_types(FusionConfig)
    assert list(field_types(CorruptionSpec)) == [field.name for field in dataclasses.fields(CorruptionSpec)]


@pytest.mark.parametrize("name", ["frame_drop_overrides", "frame_score_scale"])
def test_a_repeated_frame_index_is_rejected(name):
    for value in (((1, 0.0), (1, 1.0)), ((1, 1.0), (2, 0.5), (1, 1.0))):
        with pytest.raises(ValueError, match=f"^{name} repeats frame index 1$"):
            CorruptionSpec(**{name: value})
    CorruptionSpec(**{name: ((1, 0.0), (2, 1.0))})


# JSON-shaped values: what json.loads can give, plus the names the string fields know
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([HUGE, -HUGE, 2**1024])
                | st.floats() | st.sampled_from(["", "cv", "bicycle", "decay", "divide", "x"]))
NUMBERS = st.integers(-3, 5) | st.floats() | st.sampled_from([True, HUGE])
# and the shapes of the tuple fields, so that their accepted values are drawn too
JSON_VALUES = (st.recursive(JSON_SCALARS, lambda children: st.lists(children, max_size=4), max_leaves=8)
               | st.lists(NUMBERS, min_size=2, max_size=3)
               | st.lists(st.lists(NUMBERS, min_size=1, max_size=3), max_size=3))
RULE_MESSAGE = r" must (be (an integer|a number|a non-empty string|one of |a tuple \()|fit in a float), got "


@pytest.mark.parametrize("cls,name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_constructor_rejects_a_type_exactly_when_a_file_does(cls, name, value):
    where = "--config" if cls is FusionConfig else "--spec"
    file_error = rejection(lambda: _json_fields(cls, {name: value}, where))
    # only a ValueError may come out, never a TypeError or OverflowError
    constructor_error = rejection(lambda: cls(**{name: _tuples(value)}))
    if file_error is not None:
        key = f"{where}: key {name!r}"
        assert file_error.startswith(key + " ")
        assert constructor_error == name + file_error[len(key):]
    else:
        assert constructor_error is None or not re.match(re.escape(name) + RULE_MESSAGE, constructor_error)
