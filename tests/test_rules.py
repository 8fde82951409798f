"""One statement of each detection rule: the row constructors and DetectionColumns check the same tables.

Box3D, the motion models and Detection each hold a table of value rules,
which a row object checks on construction and DetectionColumns over whole
columns; the two forms accept the same rows and raise the same message.
A Frame's timestamp rule and a detection's label rule hold for every frame
the writer and reader pass. Columns of other than row types (a float or
bool frame_lag, a numpy integer track id or numpy string label) raise the
message of their first row whose Detection fails.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxfuse import Box3D, ConstantVelocity, Detection, EgoPose, Frame
from boxfuse.frames import MODEL_CODES, PARAM_WIDTH, DetectionColumns, RowError, object_array
from boxfuse.io import FrameFormatError, read_frames, write_frames
from boxfuse.motion import MODELS

EDGE = [0, -0.0, 1e-300, 0.1, 1, 1.5, -1, math.inf, -math.inf, math.nan, 1e308]
# values of the wrong type for the label and the integer fields
ODD = [None, "", 5, True]


# a valid value of every field; a row draws edge values for a few fields and keeps these in the others
VALID = {"box": (1.0, 2.0, 0.5, 2.0, 4.0, 1.5, 0.3), "score": 0.5, "label": "car", "weight": None, "frame_lag": 0,
         "track_id": 7, "n_fused": 1, "n_current": None,
         "params": {"cv": (1.0, 2.0), "unicycle": (3.0, 0.1), "bicycle": (2.0, 0.2, 1.1)}}
# each field that takes an edge value, with the values it takes: a float field the edge values (a weight None
# too), the label and the integer fields the odd ones as well
SLOTS = {**{("box", k): EDGE for k in range(7)}, **{("params", k): EDGE for k in range(3)},
         "score": EDGE, "weight": [*EDGE, None], "label": [*ODD, 0, 1.5, math.nan],
         **{name: [*EDGE, *ODD] for name in ("frame_lag", "track_id", "n_fused", "n_current")}}


@st.composite
def row_values(draw):
    model = draw(st.sampled_from(list(MODELS)))
    values = {**VALID, "model": model, "box": list(VALID["box"]), "params": list(VALID["params"][model])}
    for slot in draw(st.sets(st.sampled_from(list(SLOTS)), max_size=3)):
        value = draw(st.sampled_from(SLOTS[slot]))
        if isinstance(slot, tuple):
            name, k = slot
            if k < len(values[name]):
                values[name][k] = value
        else:
            values[slot] = value
    return values


def build_row(values: dict) -> Detection:
    """The row form, from the values its columns hold: floats for the float fields, None for a NaN weight."""
    weight = values["weight"]
    return Detection(
        Box3D(*map(float, values["box"])),
        float(values["score"]),
        values["label"],
        MODELS[values["model"]](*map(float, values["params"])),
        None if weight is None or weight != weight else float(weight),
        values["frame_lag"],
        values["track_id"],
        values["n_fused"],
        values["n_current"],
    )


def build_columns(rows: list[dict]) -> DetectionColumns:
    """The column form: an integer field is an int64 column when every value is an int, else an object column."""
    n = len(rows)

    def integers(values):
        return np.array(values, dtype=np.int64) if all(type(v) is int for v in values) else object_array(values)

    params = np.zeros((n, PARAM_WIDTH))
    for k, row in enumerate(rows):
        params[k, : len(row["params"])] = row["params"]
    # an unset n_current is held as its value; an unassigned weight as NaN
    n_current = [(1 if row["frame_lag"] == 0 and type(row["frame_lag"]) is int else 0)
                 if row["n_current"] is None else row["n_current"] for row in rows]
    return DetectionColumns(
        np.array([row["box"] for row in rows], dtype=float).reshape(n, 7),
        np.array([row["score"] for row in rows], dtype=float),
        object_array([row["label"] for row in rows]),
        np.array([MODEL_CODES[row["model"]] for row in rows], dtype=np.int64),
        params,
        np.array([math.nan if row["weight"] is None else row["weight"] for row in rows], dtype=float),
        integers([row["frame_lag"] for row in rows]),
        object_array([row["track_id"] for row in rows]),
        integers([row["n_fused"] for row in rows]),
        integers(n_current),
    )


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(row_values(), min_size=1, max_size=3))
def test_rows_and_columns_accept_the_same_rows_with_the_same_messages(rows):
    built, expected = [], None
    for k, values in enumerate(rows):
        try:
            built.append(build_row(values))
        except ValueError as exc:
            expected = f"detection {k}: {exc}"
            break
    if expected is None:
        assert build_columns(rows) == built
    else:
        with pytest.raises(ValueError) as err:
            build_columns(rows)
        assert str(err.value) == expected


def test_a_nan_weight_is_unassigned_in_columns_and_rejected_by_a_row():
    det = Detection(Box3D(1.0, 2.0, 0.5, 2.0, 4.0, 1.5, 0.3), 0.5, "car", ConstantVelocity(1.0, 2.0))
    cols = DetectionColumns.of([det])
    assert math.isnan(cols.weight[0]) and cols[0].weight is None
    with pytest.raises(ValueError, match=r"^weight must lie in \[0, 1\], got nan$"):
        dataclasses.replace(det, weight=math.nan)


def two_rows() -> DetectionColumns:
    det = Detection(Box3D(1.0, 2.0, 0.5, 2.0, 4.0, 1.5, 0.3), 0.5, "car", ConstantVelocity(1.0, 2.0), track_id=7)
    return DetectionColumns.of([det, dataclasses.replace(det, track_id=8)])


# columns that only hand-built columns hold: a float64 or bool frame_lag, an np.int64 track id, an np.str_ label
@pytest.mark.parametrize("name, column, row", [
    ("frame_lag", np.array([0.0, 1.0]), 0),
    ("frame_lag", np.array([False, True]), 0),
    ("track_id", object_array([7, np.int64(8)]), 1),
    ("label", object_array(["car", np.str_("car")]), 1),
])
def test_columns_of_other_types_raise_what_their_first_failing_row_raises(name, column, row):
    cols = two_rows()
    with pytest.raises(ValueError) as expected:
        dataclasses.replace(cols[row], **{name: column.tolist()[row]})
    with pytest.raises(RowError) as err:
        dataclasses.replace(cols, **{name: column})
    assert str(err.value) == f"detection {row}: {expected.value}" and err.value.row == row


@pytest.mark.parametrize("name", ["frame_lag", "n_fused", "n_current"])
def test_an_object_column_of_python_ints_is_not_an_integer_column(name):
    cols = two_rows()
    with pytest.raises(ValueError) as err:
        dataclasses.replace(cols, **{name: object_array(getattr(cols, name).tolist())})
    assert str(err.value) == f"{name} must be an integer column, got dtype object"


LABELS = st.one_of(st.text(max_size=4), st.integers(-2, 6), st.none(), st.booleans(), st.just(b"car"))


@settings(max_examples=60, deadline=None)
@given(label=LABELS)
def test_a_detection_the_constructor_accepts_survives_the_writer_and_reader(tmp_path_factory, label):
    box, motion = Box3D(1.0, 2.0, 0.5, 2.0, 4.0, 1.5, 0.3), ConstantVelocity(1.0, 2.0)
    try:
        det = Detection(box, 0.5, label, motion)
    except ValueError as exc:
        # "" is an empty label, and every other rejected label is not a string
        assert str(exc) == ("empty class label" if label == "" else f"label must be a string, got {label!r}")
        return
    path = tmp_path_factory.mktemp("labels") / "frames.jsonl"
    write_frames(path, [Frame(0.0, EgoPose.identity(), [det])])
    assert list(read_frames(path)[0].detections) == [det]


@pytest.mark.parametrize("timestamp, message", [
    ("abc", "timestamp must be a number, got 'abc'"),
    (True, "timestamp must be a number, got True"),
    (None, "timestamp must be a number, got None"),
    (math.nan, "non-finite timestamp nan"),
    (math.inf, "non-finite timestamp inf"),
    (-math.inf, "non-finite timestamp -inf"),
    # beyond float range, which the reader rejects with the same words
    (10**400, f"timestamp must fit in a float, got {10**400}"),
    # numbers the writer cannot write
    (np.float32(0.5), f"timestamp must be a number, got {np.float32(0.5)!r}"),
    (np.int64(4), f"timestamp must be a number, got {np.int64(4)!r}"),
])
def test_a_frame_takes_a_finite_real_timestamp(timestamp, message):
    with pytest.raises(ValueError) as err:
        Frame(timestamp, EgoPose.identity(), [])
    assert str(err.value) == message


@pytest.mark.parametrize("timestamp", [0.1, 3, -0.0, 1.7e308, np.float64(0.25)])
def test_a_timestamp_the_frame_takes_survives_the_writer_and_reader(tmp_path, timestamp):
    write_frames(tmp_path / "frames.jsonl", [Frame(timestamp, EgoPose.identity(), [])])
    assert read_frames(tmp_path / "frames.jsonl")[0].timestamp == timestamp


def test_the_reader_reports_the_frames_timestamp_rule(tmp_path):
    path = tmp_path / "frames.jsonl"
    # 1e999 is a JSON number that parses to inf
    path.write_text(json.dumps({"timestamp": 0.0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": []})
                    .replace("0.0", "1e999", 1) + "\n", encoding="utf-8")
    with pytest.raises(FrameFormatError) as err:
        read_frames(path)
    assert str(err.value) == "line 1: non-finite timestamp inf"
