"""The columnar frame stream: JSON round trips, and fusion against the frozen per-Detection stream."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
from boxfuse.fusion import DetectionColumns
from boxfuse.io import dumps_line, frame_from_obj, frame_to_obj, iter_frames
from boxfuse.motion import HALF_PI
from oracles import ref_dumps_frame, stream_reference

# every float the format may carry, most of them 17 significant digits long
COORD = st.floats(-1e4, 1e4)
UNIT = st.floats(0.0, 1.0)
SIZE = st.floats(0.01, 20.0)
YAW = st.floats(-math.pi, math.pi) | st.sampled_from(
    [math.pi, -math.pi, math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 0.0), 3.5, -7.0]
)
MOTIONS = {
    "cv": st.builds(ConstantVelocity, COORD, COORD),
    "unicycle": st.builds(Unicycle, COORD, st.floats(-10.0, 10.0)),
    "bicycle": st.builds(
        Bicycle, COORD, st.floats(-HALF_PI, HALF_PI) | st.sampled_from([HALF_PI, -HALF_PI]), st.floats(0.1, 5.0)
    ),
}


@st.composite
def detections(draw):
    """A valid Detection of any model; every optional field is set or left at its default."""
    motion = draw(st.one_of(*MOTIONS.values()))
    n_fused = draw(st.integers(1, 9))
    return Detection(
        box=Box3D(draw(COORD), draw(COORD), draw(COORD), draw(SIZE), draw(SIZE), draw(SIZE), draw(YAW)),
        score=draw(UNIT),
        label=draw(st.sampled_from(["car", "truck", "vélo"])),
        motion=motion,
        weight=draw(st.none() | UNIT),
        frame_lag=draw(st.sampled_from([0, 0, 1, 3])),
        track_id=draw(st.none() | st.integers(-(2**40), 2**40)),
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
        ego = EgoPose(draw(COORD), draw(COORD), draw(YAW))
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
