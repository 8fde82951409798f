"""The columnar frame stream: JSON round trips, and fusion against the frozen per-Detection stream."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

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
    fuse_sequence,
    read_frames,
    write_frames,
)
from boxfuse.frames import MODEL_CODES, PARAM_WIDTH, DetectionColumns, object_array
from boxfuse.io import dumps_frame, dumps_line, frame_from_obj, frame_to_obj, iter_frames
from boxfuse.motion import HALF_PI
from oracles import _ref_frame_from_obj, ref_dumps_frame, stream_reference

# every float the format may carry, most of them 17 significant digits long
COORD = st.floats(-1e4, 1e4)
UNIT = st.floats(0.0, 1.0)
SIZE = st.floats(0.01, 20.0)
YAW = st.floats(-math.pi, math.pi) | st.sampled_from(
    [math.pi, -math.pi, math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 0.0), 3.5, -7.0]
)
# floats at the writer's edges: signed zero, the smallest subnormal and one json writes with an exponent
TINY = st.sampled_from([-0.0, 5e-324])
EDGE_COORD = COORD | TINY | st.just(1e16)
# classes json escapes: a quote, a backslash, a control character and one outside the BMP
LABELS = st.sampled_from(["car", "truck", "vélo", 'say "car"', "back\\slash", "bell\x07", "\U0001F697"])
# track ids within and beyond int64
TRACK_IDS = st.none() | st.integers(-(2**40), 2**40) | st.sampled_from([2**63, -(2**63) - 1, 10**30])
MOTIONS = {
    "cv": st.builds(ConstantVelocity, EDGE_COORD, EDGE_COORD),
    "unicycle": st.builds(Unicycle, EDGE_COORD, st.floats(-10.0, 10.0) | TINY),
    "bicycle": st.builds(
        Bicycle, EDGE_COORD, st.floats(-HALF_PI, HALF_PI) | st.sampled_from([HALF_PI, -HALF_PI]), st.floats(0.1, 5.0)
    ),
}


@st.composite
def detections(draw):
    """A valid Detection of any model; every optional field is set or left at its default."""
    motion = draw(st.one_of(*MOTIONS.values()))
    n_fused = draw(st.integers(1, 9))
    return Detection(
        box=Box3D(*(draw(EDGE_COORD) for _ in range(3)), *(draw(SIZE | st.just(1e16)) for _ in range(3)),
                  draw(YAW | TINY)),
        score=draw(UNIT | TINY),
        label=draw(LABELS),
        motion=motion,
        weight=draw(st.none() | UNIT | TINY),
        frame_lag=draw(st.sampled_from([0, 0, 1, 3])),
        track_id=draw(TRACK_IDS),
        n_fused=n_fused,
        n_current=draw(st.none() | st.integers(0, n_fused)),
    )


@st.composite
def frames(draw):
    """Frames with increasing timestamps whose detections may mix motion models."""
    out = []
    t = draw(st.floats(-1e3, 1e3))
    for _ in range(draw(st.integers(0, 4))):
        t += draw(st.floats(1e-3, 1.0))
        ego = EgoPose(draw(EDGE_COORD), draw(EDGE_COORD), draw(YAW | TINY))
        out.append(Frame(t, ego, draw(st.lists(detections(), max_size=6))))
    return out


@settings(max_examples=60, deadline=None)
@given(frames=frames())
def test_write_then_read_returns_the_frames_and_lines_reserialize_byte_for_byte(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frames.jsonl")
        write_frames(path, frames)
        assert read_frames(path) == frames
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert [dumps_line(frame_to_obj(f)) for f in iter_frames(path)] == lines
    # the columnar reader and writer agree with the frozen per-Detection serializer
    assert lines == [ref_dumps_frame(f) for f in frames]
    assert [dumps_line(frame_to_obj(frame_from_obj(json.loads(line)))) for line in lines] == lines


def test_a_frame_of_every_row_pattern_is_written_in_row_order():
    # consecutive rows differ in model and in the optional keys they write; all 3 * 32 patterns occur
    kinds = [ConstantVelocity(1.5, -2.25), Unicycle(3.0, 0.125), Bicycle(4.0, 0.2, 1.3)]
    dets = []
    for k in range(96):
        lag, current, fused, track, weight = (k >> bit & 1 for bit in (4, 3, 2, 1, 0))
        frame_lag = 2 * lag
        dets.append(Detection(Box3D(1.1 * k, -0.7 * k, 0.8, 1.9, 4.5, 1.6, 0.01 * k), 0.5 + 0.005 * k,
                              ("car", "van")[k % 2], kinds[k % 3], 0.25 if weight else None, frame_lag,
                              k if track else None, 3 if fused else 1, int(frame_lag != 0) if current else None))
    frame = Frame(12.5, EgoPose(3.0, -4.0, 0.5), dets)
    line = dumps_frame(frame)
    objs = json.loads(line)["detections"]
    assert len({(obj["motion"]["model"], *sorted(obj)) for obj in objs}) == 96
    assert [obj["box"][0] for obj in objs] == [1.1 * k for k in range(96)]
    assert line == ref_dumps_frame(frame) == dumps_line(frame_to_obj(frame))


ROW = {"box": [1.5, -2.0, 0.8, 1.9, 4.5, 1.6, 0.25], "score": 0.5, "class": "car",
       "motion": {"model": "cv", "vx": 1.0, "vy": -0.5}}


def frame_obj(detections: list[dict]) -> dict:
    return {"timestamp": 0.5, "ego": {"x": 1.0, "y": 2.0, "yaw": 0.125}, "detections": detections}


def test_keys_at_their_absent_values_read_as_absent_and_are_left_out_when_written():
    explicit = [{**ROW, "frame_lag": 0, "n_fused": 1, "n_current": 1, "track_id": None, "weight": None},
                {**ROW, "frame_lag": 2, "n_current": 0}]
    implicit = [ROW, {**ROW, "frame_lag": 2}]
    frame = frame_from_obj(frame_obj(explicit))
    assert frame == frame_from_obj(frame_obj(implicit))
    line = dumps_line(frame_obj(implicit))
    assert dumps_frame(frame) == dumps_line(frame_to_obj(frame)) == ref_dumps_frame(frame) == line


def test_rows_mixing_present_and_absent_n_current_read_as_the_reference_reads_them():
    obj = frame_obj([ROW, {**ROW, "frame_lag": 3}, {**ROW, "n_fused": 2, "n_current": 0},
                     {**ROW, "frame_lag": 1, "n_fused": 3, "n_current": 2}, {**ROW, "n_current": 1}])
    frame = frame_from_obj(obj)
    assert [d.n_current for d in frame.detections] == [1, 0, 0, 2, 1]
    assert frame == _ref_frame_from_obj(obj)


@pytest.mark.parametrize("name, index, value", [
    (name, index, value)
    for name, index in [("boxes", (1, 4)), ("score", (1,)), ("params", (1, 0)), ("weight", (1,))]
    for value in (math.inf, -math.inf, math.nan)
    if not (name == "weight" and math.isnan(value))  # a NaN weight is an unassigned one
])
def test_dumps_frame_raises_what_json_raises_on_a_non_finite_value(name, index, value):
    dets = [Detection(Box3D(float(k), 0.0, 0.8, 1.9, 4.5, 1.6, 0.0), 0.5, "car", Unicycle(2.0, 0.1), 0.5)
            for k in range(3)]
    cols = DetectionColumns.of(dets)
    column = getattr(cols, name).copy()
    column[index] = value
    frame = Frame(0.0, EgoPose.identity(), cols._with(**{name: column}))
    with pytest.raises(ValueError) as expected:
        dumps_line(frame_to_obj(frame))
    with pytest.raises(ValueError) as raised:
        dumps_frame(frame)
    assert type(raised.value) is type(expected.value) and str(raised.value) == str(expected.value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_dumps_frame_writes_a_frame_whose_only_non_finite_value_is_parameter_padding(value):
    # a unicycle row has two parameter columns; the third is padding, which no writer writes
    dets = [Detection(Box3D(float(k), 0.0, 0.8, 1.9, 4.5, 1.6, 0.0), 0.5, "car", Unicycle(2.0, 0.1)) for k in range(2)]
    cols = DetectionColumns.of(dets)
    params = cols.params.copy()
    params[1, 2] = value
    frame = Frame(0.0, EgoPose.identity(), cols._with(params=params))
    line = dumps_frame(frame)
    assert line == dumps_line(frame_to_obj(frame)) == ref_dumps_frame(Frame(0.0, EgoPose.identity(), dets))


@settings(max_examples=60, deadline=None)
@given(lists=st.lists(st.lists(detections(), max_size=6), max_size=4), ego=st.builds(EgoPose, COORD, COORD, YAW))
def test_a_frame_holds_columns_equal_to_its_list_that_round_trip(lists, ego):
    frames = [Frame(0.1 * k, ego, dets) for k, dets in enumerate(lists)]
    for frame, dets in zip(frames, lists):
        assert isinstance(frame.detections, DetectionColumns) and frame.detections == dets
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frames.jsonl")
        write_frames(path, frames)
        assert read_frames(path) == frames
        assert list(iter_frames(path)) == frames


@st.composite
def row_values(draw):
    """The fields of one valid row as plain values, yaws unwrapped: box, score, label, motion class and
    parameters, weight, frame_lag, track_id, n_fused and n_current."""
    motion = draw(st.one_of(*MOTIONS.values()))
    n_fused = draw(st.integers(1, 9))
    return ((draw(COORD), draw(COORD), draw(COORD), draw(SIZE), draw(SIZE), draw(SIZE), draw(YAW)),
            draw(UNIT), draw(st.sampled_from(["car", "truck", "vélo"])), type(motion), dataclasses.astuple(motion),
            draw(st.none() | UNIT), draw(st.sampled_from([0, 0, 1, 3])),
            draw(st.none() | st.integers(-(2**40), 2**40)), n_fused, draw(st.integers(0, n_fused)))


def columns_of(values: list) -> DetectionColumns:
    """The checked columns of rows given as row_values draws them."""
    n = len(values)
    box, score, label, kind, motion, weight, frame_lag, track_id, n_fused, n_current = list(zip(*values)) or [()] * 10
    params = np.zeros((n, PARAM_WIDTH))
    for k, row in enumerate(motion):
        params[k, : len(row)] = row
    return DetectionColumns(
        np.array(box, dtype=float).reshape(n, 7), np.array(score, dtype=float), object_array(list(label)),
        np.array([MODEL_CODES[c.name] for c in kind], dtype=np.int64), params,
        np.array([math.nan if w is None else w for w in weight], dtype=float), np.array(frame_lag, dtype=np.int64),
        object_array(list(track_id)), np.array(n_fused, dtype=np.int64), np.array(n_current, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(row_values(), max_size=6))
def test_rows_are_the_checked_rows_of_their_values(values):
    cols = columns_of(values)
    rows = cols.rows()
    assert rows == [Detection(Box3D(*b), s, lab, c(*m), w, lag, tid, nf, nc)
                    for b, s, lab, c, m, w, lag, tid, nf, nc in values]
    assert [type(d.motion) for d in rows] == [kind for _, _, _, kind, *_ in values]
    boxes = cols.box_objects()
    assert all(type(b) is Box3D for b in boxes) and boxes == [d.box for d in rows]


# values an edit writes into one entry of a column; zeros of both signs, and a NaN (unassigned) weight
ZEROS = st.sampled_from([0.0, -0.0, 0.5])
EDITS = {"boxes": ZEROS, "score": ZEROS, "params": ZEROS | st.just(1.25), "weight": ZEROS | st.just(math.nan),
         "label": st.sampled_from(["car", "truck"]), "model": st.integers(0, len(MODEL_CODES) - 1),
         "frame_lag": st.integers(0, 1), "track_id": st.sampled_from([None, 7]), "n_fused": st.integers(1, 2),
         "n_current": st.integers(0, 1)}


@st.composite
def column_pairs(draw):
    """Two sets of columns made from the same rows, each then edited in up to two entries.

    Edits reach the parameter padding too, and put signed zeros and NaN
    weights on either side, so some pairs differ only where row equality
    cannot tell.
    """
    cols = columns_of(draw(st.lists(row_values(), min_size=1, max_size=3)))
    sides = [{name: getattr(cols, name).copy() for name in EDITS} for _ in range(2)]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(EDITS)))
        column = draw(st.sampled_from(sides))[name]
        column[tuple(draw(st.integers(0, size - 1)) for size in column.shape)] = draw(EDITS[name])
    try:
        return tuple(DetectionColumns(**side) for side in sides)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(pair=column_pairs())
def test_columns_compare_as_their_rows_do(pair):
    a, b = pair
    rows_equal = a.rows() == b.rows()
    assert (a == b) is (b == a) is (a == list(b)) is (a == tuple(b)) is rows_equal
    assert (a != b) is not rows_equal


def test_column_equality_keeps_the_rules_of_row_equality():
    box = Box3D(0.0, 1.0, 0.5, 2.0, 4.5, 1.6, 0.0)
    cols = DetectionColumns.of([Detection(box, 0.5, "car", ConstantVelocity(0.0, 1.0)),
                                Detection(box, 0.5, "car", Unicycle(2.0, 0.0), 0.25)])
    boxes, params = cols.boxes.copy(), cols.params.copy()
    boxes[0, 0] = -0.0
    params[0, PARAM_WIDTH - 1] = 9.0  # padding of a two-field model
    assert cols == cols._with(boxes=boxes, params=params) == list(cols)
    assert np.isnan(cols.weight[0]) and cols == cols.take([0, 1])
    assert cols != cols._with(weight=np.array([0.0, 0.25])) and cols != cols.take([0])
    # a sequence of anything but equal Detections is unequal
    assert cols != [*cols[:1], cols[1].box] and cols != [0, 1]
    assert cols != "ab" and DetectionColumns.of([]) == [] == DetectionColumns.of([])


@pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(Frame)])
def test_frame_fields_cannot_be_assigned(name):
    frame = Frame(0.0, EgoPose.identity(), [])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(frame, name, getattr(frame, name))


SPEED = st.floats(-15.0, 15.0)
STREAM_MOTIONS = {
    "cv": st.builds(ConstantVelocity, SPEED, SPEED),
    "unicycle": st.builds(Unicycle, SPEED, st.floats(-1.0, 1.0)),
    "bicycle": st.builds(Bicycle, SPEED, st.floats(-HALF_PI, HALF_PI), st.floats(0.5, 3.0)),
}
STREAM_CONFIGS = [PRESETS[name] for name in sorted(PRESETS)] + [
    FusionConfig(n_history=0),
    FusionConfig(n_history=2, history_score_floor=0.3, score_strategy="divide"),
]


@st.composite
def streams(draw):
    """Frame lines of one motion model: a few objects seen with noise, gaps down to 20 Hz, empty frames,
    duplicate boxes, score ties and optional keys as a fused file would carry them."""
    model = draw(st.sampled_from(sorted(MOTIONS)))
    objects = [
        (draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)), draw(YAW), draw(st.sampled_from(["car", "van"])))
        for _ in range(draw(st.integers(0, 4)))
    ]
    noise = st.floats(-0.3, 0.3)
    t = draw(st.floats(0.0, 100.0))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.sampled_from([0.05, 0.1, 0.1, 0.2, 0.35]) | st.floats(0.01, 0.5))
        ego = EgoPose(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.2, 0.2)))
        dets = []
        for x, y, yaw, label in objects:
            for _ in range(draw(st.integers(0, 2))):
                extra = draw(st.fixed_dictionaries({}, optional={
                    "weight": UNIT, "frame_lag": st.integers(0, 3), "track_id": st.integers(0, 50),
                    "n_fused": st.integers(1, 4),
                }))
                if draw(st.booleans()):
                    extra["n_current"] = draw(st.integers(0, extra.get("n_fused", 1)))
                dets.append(Detection(
                    box=Box3D(x + draw(noise), y + draw(noise), 0.8, 1.9 + draw(st.floats(0.0, 0.4)),
                              4.5 + draw(noise), 1.6, yaw + 0.3 * draw(noise)),
                    score=draw(st.sampled_from([0.4, 0.8]) | st.floats(0.01, 1.0)),
                    label=label,
                    motion=draw(STREAM_MOTIONS[model]),
                    **extra,
                ))
        if dets and draw(st.booleans()):
            dets.append(dets[draw(st.integers(0, len(dets) - 1))])
        lines.append(ref_dumps_frame(Frame(t, ego, dets)))
    return lines


@settings(max_examples=60, deadline=None)
@given(lines=streams(), cfg=st.sampled_from(STREAM_CONFIGS))
def test_columnar_stream_equals_the_per_detection_stream(lines, cfg):
    fused = fuse_sequence((frame_from_obj(json.loads(line)) for line in lines), cfg)
    assert [dumps_line(frame_to_obj(f)) for f in fused] == stream_reference(lines, cfg)
