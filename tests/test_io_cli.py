from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    Detection,
    EgoPose,
    FitDivergence,
    Frame,
    FrameFormatError,
    FusionConfig,
    Unicycle,
    motion,
    read_frames,
    read_meta,
    reattach_params,
    weighted_nms,
    write_frames,
)
from boxfuse.cli import OPTIONS, main
from boxfuse.io import frame_from_obj, frame_to_obj


def sample_frames():
    rng = np.random.default_rng(41)
    motions = [
        ConstantVelocity(1.25, -3.5),
        Unicycle(9.0, 0.5),
        Bicycle(11.0, -0.07, 1.175),
    ]
    frames = []
    for i in range(3):
        dets = []
        for j, motion in enumerate(motions):
            dets.append(
                Detection(
                    box=Box3D(
                        float(rng.uniform(-30, 30)),
                        float(rng.uniform(-30, 30)),
                        0.85,
                        2.1,
                        4.7,
                        1.7,
                        float(rng.uniform(-math.pi, math.pi)),
                    ),
                    score=float(rng.uniform(0.01, 1.0)),
                    label="vehicle",
                    motion=motions[j],
                    weight=float(rng.uniform(0.0, 1.0)) if j == 1 else None,
                    frame_lag=j,
                    track_id=10 * i + j if j != 2 else None,
                    n_fused=j + 1,
                )
            )
        frames.append(Frame(0.1 * i + 0.05, EgoPose(1.0 * i, -2.0, 0.3 * i), dets))
    return frames


class TestRoundTrip:
    def test_frame_objects_roundtrip_exactly(self):
        for frame in sample_frames():
            assert frame_from_obj(frame_to_obj(frame)) == frame

    def test_detection_full_precision(self):
        det = Detection(
            box=Box3D(math.pi, -math.e, 1 / 3, 2.1, 4.7, 1.7, math.pi),
            score=1 / 7,
            label="vehicle",
            motion=Bicycle(math.sqrt(2), -0.1234567890123456, 1.175),
        )
        frame = Frame(0.0, EgoPose.identity(), [det])
        assert frame_from_obj(json.loads(json.dumps(frame_to_obj(frame)))).detections == [det]

    def test_file_roundtrip(self, tmp_path):
        frames = sample_frames()
        path = tmp_path / "frames.jsonl"
        write_frames(path, frames, meta={"seed": 3, "note": "test"})
        assert read_meta(path) == {"seed": 3, "note": "test"}
        assert read_frames(path) == frames

    def test_meta_absent(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        write_frames(path, sample_frames())
        assert read_meta(path) is None
        assert len(read_frames(path)) == 3

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        frames = sample_frames()
        write_frames(path, frames)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json}\n")
        with pytest.raises(FrameFormatError) as err:
            read_frames(path)
        assert err.value.line == 4

    def test_bad_box_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"timestamp":0.0,"ego":{"x":0,"y":0,"yaw":0},"detections":[{"box":[1,2,3],"score":0.5,"class":"vehicle","motion":{"model":"cv","vx":0,"vy":0}}]}\n')
        with pytest.raises(FrameFormatError) as err:
            read_frames(path)
        assert err.value.line == 1

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"timestamp":NaN,"ego":{"x":0,"y":0,"yaw":0},"detections":[]}\n')
        with pytest.raises(FrameFormatError):
            read_frames(path)


GOOD = {"box": [1.0, 2.0, 0.5, 2.0, 4.5, 1.6, 0.3], "score": 0.5, "class": "car",
        "motion": {"model": "cv", "vx": 1.0, "vy": 0.0}}


def _with(**changes):
    """GOOD with keys replaced, or removed where the value is ..."""
    det = {**GOOD, **changes}
    return {key: value for key, value in det.items() if value is not ...}


# a JSON integer beyond float range, and the least integer that float() overflows on
HUGE = 10**400
FLOAT_LIMIT = 2**1024 - 2**970
# the most digits Python reads in an integer literal; 0 where there is no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# (case, detection record, message after "line 2: ")
MALFORMED = [
    ("string score", _with(score="0.5"), "detection 0: score must be a number, got '0.5'"),
    ("boolean score", _with(score=True), "detection 0: score must be a number, got True"),
    ("integer class", _with(**{"class": 5}), "detection 0: class must be a string, got 5"),
    ("fractional track_id", _with(track_id=3.7), "detection 0: track_id must be an integer, got 3.7"),
    ("boolean track_id", _with(track_id=False), "detection 0: track_id must be an integer, got False"),
    ("fractional frame_lag", _with(frame_lag=1.5), "detection 0: frame_lag must be an integer, got 1.5"),
    ("fractional n_fused", _with(n_fused=2.5), "detection 0: n_fused must be an integer, got 2.5"),
    ("string n_current", _with(n_current="1"), "detection 0: n_current must be an integer, got '1'"),
    ("frame_lag beyond int64", _with(frame_lag=10**30),
     "detection 0: frame_lag must fit in int64, got 1000000000000000000000000000000"),
    ("n_fused beyond int64", _with(n_fused=2**63), "detection 0: n_fused must fit in int64, got 9223372036854775808"),
    ("n_current beyond int64", _with(n_current=-2**70),
     "detection 0: n_current must fit in int64, got -1180591620717411303424"),
    ("integral float frame_lag beyond int64", _with(frame_lag=1e19),
     "detection 0: frame_lag must fit in int64, got 1e+19"),
    ("string weight", _with(weight="0.3"), "detection 0: weight must be a number, got '0.3'"),
    ("score beyond float range", _with(score=HUGE), f"detection 0: score must fit in a float, got {HUGE}"),
    ("box value beyond float range", _with(box=[1, 2, 0.5, 2, -HUGE, 1.6, 0.3]),
     f"detection 0: box value must fit in a float, got {-HUGE}"),
    ("box value at the float limit", _with(box=[FLOAT_LIMIT, 2, 0.5, 2, 4.5, 1.6, 0.3]),
     f"detection 0: box value must fit in a float, got {FLOAT_LIMIT}"),
    ("motion value beyond float range", _with(motion={"model": "bicycle", "v": 1.0, "beta": 0.1, "l_r": HUGE}),
     f"detection 0: motion value must fit in a float, got {HUGE}"),
    ("weight beyond float range", _with(weight=-HUGE), f"detection 0: weight must fit in a float, got {-HUGE}"),
    ("frame_lag of 10**400", _with(frame_lag=HUGE), f"detection 0: frame_lag must fit in int64, got {HUGE}"),
    ("n_fused of 10**400", _with(n_fused=HUGE), f"detection 0: n_fused must fit in int64, got {HUGE}"),
    ("n_current of 10**400", _with(n_current=-HUGE),
     f"detection 0: n_current must fit in int64, got {-HUGE}"),
    ("string box value", _with(box=[1, 2, 0.5, 2, "4.5", 1.6, 0.3]), "detection 0: box value must be a number, got '4.5'"),
    ("boolean box value", _with(box=[1, 2, 0.5, 2, 4.5, True, 0.3]), "detection 0: box value must be a number, got True"),
    ("short box", _with(box=[1, 2, 3]), "detection 0: box must be a list of 7 numbers, got [1, 2, 3]"),
    ("string motion value", _with(motion={"model": "cv", "vx": "1", "vy": 0}),
     "detection 0: motion value must be a number, got '1'"),
    ("unknown model", _with(motion={"model": "kalman", "v": 1.0}), "detection 0: unknown motion model 'kalman'"),
    ("missing score", _with(score=...), "missing key 'score'"),
    ("missing motion key", _with(motion={"model": "bicycle", "v": 1.0, "beta": 0.1}), "missing key 'l_r'"),
    ("score above 1", _with(score=1.5), "detection 0: score must lie in [0, 1], got 1.5"),
    ("weight above 1", _with(weight=1.5), "detection 0: weight must lie in [0, 1], got 1.5"),
    ("negative frame_lag", _with(frame_lag=-1), "detection 0: frame_lag must be non-negative"),
    ("no fused box", _with(n_fused=0), "detection 0: n_fused must be at least 1"),
    ("negative n_current", _with(n_current=-3), "detection 0: n_current must lie in [0, n_fused], got -3 with n_fused 1"),
    ("n_current above n_fused", _with(n_current=5),
     "detection 0: n_current must lie in [0, n_fused], got 5 with n_fused 1"),
    ("n_current above a given n_fused", _with(n_fused=2, n_current=3),
     "detection 0: n_current must lie in [0, n_fused], got 3 with n_fused 2"),
    ("empty class", _with(**{"class": ""}), "detection 0: empty class label"),
    ("zero width", _with(box=[1, 2, 0.5, 0, 4.5, 1.6, 0.3]), "detection 0: box dimensions must be strictly positive"),
    ("tiny footprint", _with(box=[1, 2, 0.5, 1e-4, 1e-3, 1.6, 0.3]), f"detection 0: degenerate BEV footprint: w*l = {1e-4 * 1e-3!r}"),
    ("slip past pi/2", _with(motion={"model": "bicycle", "v": 1.0, "beta": 2.0, "l_r": 1.2}),
     "detection 0: slip must lie in [-pi/2, pi/2], got 2.0"),
    ("zero rear axle", _with(motion={"model": "bicycle", "v": 1.0, "beta": 0.1, "l_r": 0}),
     "detection 0: rear_axle must be positive"),
]


class TestStrictParsing:
    @pytest.mark.parametrize("record, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
    def test_malformed_detection_names_its_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        frame = {"timestamp": 0.0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [GOOD]}
        bad = {**frame, "timestamp": 0.1, "detections": [GOOD, record]}
        path.write_text(json.dumps(frame) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(FrameFormatError) as err:
            read_frames(path)
        assert err.value.line == 2
        assert str(err.value) == "line 2: " + message.replace("detection 0", "detection 1")

    @pytest.mark.parametrize("frame, message", [
        ({"timestamp": "0.1", "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": []},
         "timestamp must be a number, got '0.1'"),
        ({"timestamp": 0.1, "ego": {"x": True, "y": 0, "yaw": 0}, "detections": []}, "ego x must be a number, got True"),
        ({"timestamp": HUGE, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": []},
         f"timestamp must fit in a float, got {HUGE}"),
        ({"timestamp": 0.1, "ego": {"x": 0, "y": -HUGE, "yaw": 0}, "detections": []},
         f"ego y must fit in a float, got {-HUGE}"),
        ({"timestamp": 0.1, "ego": {"x": 0, "y": 0}, "detections": []}, "missing key 'yaw'"),
        ({"timestamp": 0.1, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": {}}, "detections must be a list, got {}"),
        ({"timestamp": 0.1, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [[1]]},
         "detection 0: record must be a JSON object, got [1]"),
        ({"timestamp": 0.1, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [
            _with(motion={"model": "bicycle", "v": "x", "beta": 0.1, "l_r": 1.2}),
            _with(motion={"model": "cv", "vx": "y", "vy": 0.0})]},
         "detection 0: motion value must be a number, got 'x'"),
    ])
    def test_malformed_frame_names_its_line(self, tmp_path, frame, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(frame) + "\n", encoding="utf-8")
        with pytest.raises(FrameFormatError) as err:
            read_frames(path)
        assert str(err.value) == "line 1: " + message

    def test_integers_just_inside_float_range_are_read_as_floats(self, tmp_path):
        path = tmp_path / "edge.jsonl"
        det = _with(box=[FLOAT_LIMIT - 1, 2, 0.5, 2, 4.5, 1.6, 0.3], weight=1)
        path.write_text(json.dumps({"timestamp": 1 - FLOAT_LIMIT, "ego": {"x": 0, "y": 0, "yaw": 0},
                                    "detections": [det]}) + "\n", encoding="utf-8")
        (frame,) = read_frames(path)
        assert frame.timestamp == -sys.float_info.max and frame.detections[0].box.x == sys.float_info.max

    @pytest.mark.parametrize("literal, message", [
        pytest.param("5" * (DIGIT_LIMIT + 1),
                     f"Exceeds the limit ({DIGIT_LIMIT} digits) for integer string conversion",
                     marks=pytest.mark.skipif(DIGIT_LIMIT == 0, reason="integer literals have no digit limit")),
        ("NaN", "non-finite number NaN"),
        ("-Infinity", "non-finite number -Infinity"),
    ])
    def test_a_number_json_cannot_read_names_its_line(self, tmp_path, literal, message):
        path = tmp_path / "bad.jsonl"
        frame = json.dumps({"timestamp": 0.0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [GOOD]})
        path.write_text(frame + "\n" + frame.replace('"score": 0.5', '"score": ' + literal) + "\n", encoding="utf-8")
        with pytest.raises(FrameFormatError) as err:
            read_frames(path)
        assert err.value.line == 2 and str(err.value).startswith("line 2: " + message)

    def test_integers_and_integral_floats_are_accepted(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        det = _with(box=[1, 2, 0, 2, 4, 1, 0], score=1, track_id=3.0, frame_lag=2.0, n_fused=4)
        path.write_text(json.dumps({"timestamp": 0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [det]}) + "\n",
                        encoding="utf-8")
        (frame,) = read_frames(path)
        (got,) = frame.detections
        assert got == Detection(Box3D(1.0, 2.0, 0.0, 2.0, 4.0, 1.0, 0.0), 1.0, "car", ConstantVelocity(1.0, 0.0),
                                frame_lag=2, track_id=3, n_fused=4)
        assert type(got.track_id) is int and type(got.frame_lag) is int

    def test_a_frame_may_mix_models_and_wraps_yaws(self):
        dets = [_with(motion={"model": "bicycle", "v": 2.0, "beta": 0.1, "l_r": 1.2}),
                _with(box=[1, 2, 0.5, 2, 4.5, 1.6, 4.0]),
                _with(motion={"model": "unicycle", "v": 2.0, "omega": 0.3})]
        frame = frame_from_obj({"timestamp": 0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": dets})
        assert [type(d.motion) for d in frame.detections] == [Bicycle, ConstantVelocity, Unicycle]
        assert frame.detections[1].box.yaw == 4.0 - 2 * math.pi
        assert frame_from_obj(frame_to_obj(frame)) == frame


def run_synth(tmp_path, seed=5, extra=()):
    gt = tmp_path / "gt.jsonl"
    det = tmp_path / "det.jsonl"
    code = main(
        [
            "synth",
            "--output-gt", str(gt),
            "--output-det", str(det),
            "--seed", str(seed),
            "--vehicles", "10",
            "--duration", "1.0",
            "--sigma-xy", "0.2",
            "--drop-prob", "0.1",
            "--model", "cv",
            *extra,
        ]
    )
    assert code == 0
    return gt, det


class TestCli:
    def test_usage_error_exit_1(self, capsys):
        assert main(["fuse", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["fuse", "--input", str(tmp_path / "absent.jsonl"),
                     "--output", str(tmp_path / "out.jsonl")]) == 2

    def test_empty_input_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out.jsonl"
        assert main(["fuse", "--input", str(empty), "--output", str(out)]) == 0
        assert read_frames(out) == []
        assert read_meta(out)["command"] == "fuse"

    def test_single_frame_fuse_equals_weighted_nms(self, tmp_path):
        frames = [sample_frames()[0]]
        # fusion runs need one parameter variant across the frame
        from dataclasses import replace

        uniform = Frame(
            frames[0].timestamp,
            frames[0].ego,
            [replace(d, motion=ConstantVelocity(1.0, 0.0), weight=None, frame_lag=0, n_current=None)
             for d in frames[0].detections],
        )
        src = tmp_path / "one.jsonl"
        write_frames(src, [uniform])
        out = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(src), "--output", str(out)]) == 0
        fused = read_frames(out)
        direct = weighted_nms(
            [replace(d, weight=d.score) for d in uniform.detections], FusionConfig()
        )
        assert len(fused) == 1
        assert len(fused[0].detections) == len(direct)

    def test_fuse_latency_summary(self, tmp_path, capsys):
        gt, det = run_synth(tmp_path)
        out = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert "fuse latency:" in err
        assert "median=" in err and "p99=" in err

    def test_non_monotone_input_exit_2(self, tmp_path):
        frames = sample_frames()
        frames[1] = Frame(frames[0].timestamp, frames[1].ego, [])
        src = tmp_path / "bad.jsonl"
        write_frames(src, frames)
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "o.jsonl")]) == 2

    def test_mixed_model_stream_exit_2_naming_the_frame(self, tmp_path, capsys):
        from dataclasses import replace

        frames = []
        for k, f in enumerate(sample_frames()):
            dets = [replace(d, motion=ConstantVelocity(1.0, 0.0)) for d in f.detections]
            if k == 1:
                dets[0] = replace(dets[0], motion=Unicycle(9.0, 0.5))
            frames.append(Frame(f.timestamp, f.ego, dets))
        src = tmp_path / "mixed.jsonl"
        write_frames(src, frames)
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "o.jsonl")]) == 2
        assert "(frame 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("repeated timestamp", "line 6: timestamps must strictly increase (frame 3)"),
        ("mixed models", "line 7: mixed motion models ['cv', 'unicycle'] in one stream (frame 4)"),
    ])
    def test_stream_errors_name_the_input_line(self, tmp_path, capsys, fault, message):
        from dataclasses import replace

        cv = [[replace(d, motion=ConstantVelocity(1.0, 0.0)) for d in f.detections] for f in sample_frames()]
        frames = [Frame(0.1 * k, EgoPose.identity(), dets) for k, dets in enumerate(cv + cv[:2])]
        if fault == "repeated timestamp":
            frames[3] = Frame(frames[2].timestamp, frames[3].ego, frames[3].detections)
        else:
            frames[4] = Frame(frames[4].timestamp, frames[4].ego,
                              [replace(frames[4].detections[0], motion=Unicycle(9.0, 0.5))])
        src = tmp_path / "in.jsonl"
        write_frames(src, frames, meta={"note": "header"})
        # meta on line 1, frames 0 and 1 on lines 2 and 3, a blank line 4, frames 2 to 4 on lines 5 to 7
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        src.write_text("".join(lines[:3] + ["\n"] + lines[3:]), encoding="utf-8")
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err == f"boxfuse: error: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_far_field_overflow_exit_2_with_one_error_line(self, tmp_path, capsys):
        # the IoU bound and the clipping of two boxes at x = 1.5e308 overflow, with no numpy warning
        det = Detection(Box3D(1.5e308, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0), 0.9, "car", ConstantVelocity(0.0, 0.0))
        src = tmp_path / "far.jsonl"
        write_frames(src, [Frame(t, EgoPose(1.5e308, 0.0, 0.0), [det]) for t in (0.0, 0.1)])
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err == "boxfuse: error: line 2: detection 0: x must be finite, got inf\n"

    @pytest.mark.parametrize("fault", ["mixed models", "repeated timestamp"])
    def test_failed_fuse_leaves_the_output_as_it_was(self, tmp_path, fault):
        from dataclasses import replace

        # frames 0 and 1 fuse before frame 2 fails
        frames = []
        for k, f in enumerate(sample_frames()):
            dets = [replace(d, motion=ConstantVelocity(1.0, 0.0)) for d in f.detections]
            if k == 2 and fault == "mixed models":
                dets[0] = replace(dets[0], motion=Unicycle(9.0, 0.5))
            frames.append(Frame(f.timestamp, f.ego, dets))
        if fault == "repeated timestamp":
            frames[2] = Frame(frames[1].timestamp, frames[2].ego, frames[2].detections)
        src = tmp_path / "in.jsonl"
        write_frames(src, frames)
        out = tmp_path / "out.jsonl"
        out.write_text("earlier content\n", encoding="utf-8")
        assert main(["fuse", "--input", str(src), "--output", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "earlier content\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]
        # a fresh output path stays absent
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "new.jsonl")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]

    def test_fuse_writes_past_a_stale_temporary_file(self, tmp_path):
        _, det = run_synth(tmp_path)
        fresh = tmp_path / "fresh.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(fresh)]) == 0
        # left by a killed run whose pid this process now has
        stale = [tmp_path / f"out.jsonl.{os.getpid()}.tmp", tmp_path / f"out.jsonl.{os.getpid()}.0.tmp"]
        for path in stale:
            path.write_text("stale\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert [path.read_text(encoding="utf-8") for path in stale] == ["stale\n", "stale\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["gt.jsonl", "det.jsonl", "fresh.jsonl", "out.jsonl", *(path.name for path in stale)])

    def test_synth_outputs_and_meta(self, tmp_path):
        gt, det = run_synth(tmp_path)
        meta = read_meta(gt)
        assert meta["seed"] == 5
        assert meta["prng"] == "philox"
        gt_frames = read_frames(gt)
        det_frames = read_frames(det)
        assert len(gt_frames) == len(det_frames) == 11
        assert all(d.track_id is not None for f in gt_frames for d in f.detections)
        # detection stream carries one uniform variant
        assert {type(d.motion) for f in det_frames for d in f.detections} == {ConstantVelocity}

    def test_fuse_and_inverse_meta_name_version_and_input(self, tmp_path):
        import hashlib

        import boxfuse

        gt, det = run_synth(tmp_path)
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(fused)]) == 0
        meta = read_meta(fused)
        digest = hashlib.sha256(det.read_bytes()).hexdigest()
        assert (meta["command"], meta["version"], meta["input_sha256"]) == ("fuse", boxfuse.__version__, digest)
        inverse = tmp_path / "inverse.jsonl"
        assert main(["inverse", "--input", str(gt), "--output", str(inverse), "--model", "unicycle"]) == 0
        meta = read_meta(inverse)
        digest = hashlib.sha256(gt.read_bytes()).hexdigest()
        assert (meta["command"], meta["version"], meta["input_sha256"]) == ("inverse", boxfuse.__version__, digest)

    def test_inverse_requires_track_ids(self, tmp_path, capsys):
        src = tmp_path / "no_tracks.jsonl"
        frames = sample_frames()
        write_frames(src, frames)  # third detection has track_id None
        code = main(["inverse", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
                     "--model", "unicycle"])
        assert code == 2
        assert capsys.readouterr().err == "boxfuse: error: missing track_id on frame 0, detection 2\n"

    UNFIT = {"a track seen once": "track 3, first seen on frame 2: need at least two poses",
             "a repeated frame": "track 1, first seen on frame 0: timestamps must strictly increase"}

    @pytest.mark.parametrize("model", ["cv", "bicycle"])
    @pytest.mark.parametrize("fault", UNFIT)
    def test_inverse_names_the_track_it_cannot_fit(self, tmp_path, capsys, model, fault):
        from dataclasses import replace

        ids = [[1, 2], [1, 2], [1, 3] if fault == "a track seen once" else [1, 2]]
        frames = [Frame(f.timestamp, f.ego, [replace(d, track_id=tid) for d, tid in zip(f.detections, row)])
                  for f, row in zip(sample_frames(), ids)]
        if fault == "a repeated frame":
            frames[2] = frames[1]
        src = tmp_path / "tracks.jsonl"
        write_frames(src, frames)
        out = tmp_path / "o.jsonl"
        assert main(["inverse", "--input", str(src), "--output", str(out), "--model", model]) == 2
        assert capsys.readouterr().err == f"boxfuse: error: {self.UNFIT[fault]}\n"
        assert not out.exists()

    @staticmethod
    def half_turn_track(tmp_path):
        """Track 7 over three frames 0.1 s apart, at x = 0, 1, 2 with yaws 0, pi, pi: its first
        pair, and the pair that straddles frame 1, turn by exactly pi."""
        frames = [Frame(0.1 * k, EgoPose.identity(), [
            Detection(Box3D(float(k), 0.0, 0.0, 2.0, 4.5, 1.6, yaw), 0.9, "car", ConstantVelocity(0.0, 0.0),
                      track_id=7)]) for k, yaw in enumerate((0.0, math.pi, math.pi))]
        src = tmp_path / "half_turn.jsonl"
        write_frames(src, frames)
        return src, frames

    @pytest.mark.parametrize("command", ["fuse", "inverse"])
    @pytest.mark.parametrize("key, value", [("frame_lag", 10**30), ("n_fused", 2**63), ("n_current", -2**70)])
    def test_integer_beyond_int64_exit_2_naming_detection_and_key(self, tmp_path, capsys, command, key, value):
        src = tmp_path / "big.jsonl"
        frame = {"timestamp": 0.0, "ego": {"x": 0, "y": 0, "yaw": 0}, "detections": [_with(track_id=1, **{key: value})]}
        src.write_text(json.dumps(frame) + "\n", encoding="utf-8")
        argv = [command, "--input", str(src), "--output", str(tmp_path / "o.jsonl")]
        assert main(argv + (["--model", "cv"] if command == "inverse" else [])) == 2
        message = f"line 1: detection 0: {key} must fit in int64, got {value}"
        assert capsys.readouterr().err == f"boxfuse: error: {message}\n"

    def test_bicycle_inverse_fits_a_half_turn(self, tmp_path):
        src, _ = self.half_turn_track(tmp_path)
        out = tmp_path / "o.jsonl"
        assert main(["inverse", "--input", str(src), "--output", str(out), "--model", "bicycle"]) == 0
        assert [type(d.motion) for f in read_frames(out) for d in f.detections] == [Bicycle] * 3

    def test_unicycle_inverse_names_the_track_of_a_half_turn(self, tmp_path, capsys):
        src, frames = self.half_turn_track(tmp_path)
        out = tmp_path / "o.jsonl"
        assert main(["inverse", "--input", str(src), "--output", str(out), "--model", "unicycle"]) == 2
        message = "track 7, first seen on frame 0: heading change of pi is ambiguous for the unicycle inverse"
        assert capsys.readouterr().err == f"boxfuse: error: {message}\n"
        assert not out.exists()
        with pytest.raises(ValueError) as err:
            reattach_params(frames, "unicycle")
        assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,field", [("cv", "vx"), ("unicycle", "speed"), ("bicycle", "speed")])
    def test_inverse_names_the_track_whose_fit_overflows(self, tmp_path, capsys, model, field):
        # the velocity over the gap of 1e-320 s overflows, with no numpy warning
        frames = [Frame(t, EgoPose.identity(), [
            Detection(Box3D(float(k), 0.0, 0.0, 2.0, 4.5, 1.6, 0.0), 0.9, "car", ConstantVelocity(0.0, 0.0),
                      track_id=4)]) for k, t in enumerate((0.0, 1e-320, 1.0))]
        src = tmp_path / "tiny_gap.jsonl"
        write_frames(src, frames)
        out = tmp_path / "o.jsonl"
        assert main(["inverse", "--input", str(src), "--output", str(out), "--model", model]) == 2
        message = f"track 4, first seen on frame 0: {field} must be finite, got inf"
        assert capsys.readouterr().err == f"boxfuse: error: {message}\n"
        assert not out.exists()

    def test_bicycle_divergence_names_its_track(self, tmp_path, monkeypatch, capsys):
        src, frames = self.half_turn_track(tmp_path)
        real = motion.inverse_bicycle
        monkeypatch.setattr(motion, "inverse_bicycle", lambda *args: real(*args, max_iter=1))
        out = tmp_path / "o.jsonl"
        assert main(["inverse", "--input", str(src), "--output", str(out), "--model", "bicycle"]) == 2
        prefix = "track 7, first seen on frame 0: no convergence after 1 iterations"
        assert capsys.readouterr().err.startswith(f"boxfuse: error: {prefix}")
        assert not out.exists()
        with pytest.raises(FitDivergence) as err:
            reattach_params(frames, "bicycle")
        assert str(err.value).startswith(prefix)
        assert isinstance(err.value.best, Bicycle) and not err.value.report.converged

    @pytest.mark.parametrize("model", ["cv", "bicycle"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "variable"])
    def test_inverse_rejects_a_bad_l_r_naming_flag_and_variable(self, tmp_path, monkeypatch, capsys, model,
                                                                value, source):
        gt, _ = run_synth(tmp_path)
        out = tmp_path / "inverse.jsonl"
        argv = ["inverse", "--input", str(gt), "--output", str(out), "--model", model]
        if source == "flag":
            argv += ["--l-r", value]
        else:
            monkeypatch.setenv("BOXFUSE_L_R", value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("boxfuse: error: --l-r (BOXFUSE_L_R): rear_axle must be positive and finite")
        assert not out.exists()

    def test_inverse_attaches_variant(self, tmp_path):
        gt, _ = run_synth(tmp_path)
        out = tmp_path / "uni.jsonl"
        assert main(["inverse", "--input", str(gt), "--output", str(out),
                     "--model", "unicycle"]) == 0
        frames = read_frames(out)
        assert {type(d.motion) for f in frames for d in f.detections} == {Unicycle}
        # boxes and scores are untouched
        for a, b in zip(read_frames(gt), frames):
            for da, db in zip(a.detections, b.detections):
                assert da.box == db.box
                assert da.score == db.score

    def test_eval_writes_csv(self, tmp_path, capsys):
        gt, det = run_synth(tmp_path)
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(fused)]) == 0
        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--gt", str(gt), "--raw", str(det), "--fused", str(fused),
                     "--iou", "0.5", "--output", str(csv_path)]) == 0
        text = capsys.readouterr().out
        assert "detection enhancement" in text
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "subset,metric,raw,fused,delta"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_eval_rejects_a_fused_window_cut_one_frame_late(self, tmp_path, capsys):
        gt, det = run_synth(tmp_path)
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(fused)]) == 0
        late = tmp_path / "late.jsonl"
        lines = fused.read_text(encoding="utf-8").splitlines(keepends=True)
        # the meta line, then the fused frames from frame 1 on, the last one twice to keep the count
        late.write_text(lines[0] + "".join(lines[2:]) + lines[-1], encoding="utf-8")
        assert main(["eval", "--gt", str(gt), "--raw", str(det), "--fused", str(late)]) == 2
        err = capsys.readouterr().err
        assert "sequences must align, frame 0 has timestamps [0.0, 0.0, 0.1]" in err

    def test_eval_of_ground_truth_without_boxes_exits_2(self, tmp_path, capsys):
        gt, det = run_synth(tmp_path)
        empty = tmp_path / "empty.jsonl"
        write_frames(empty, [Frame(f.timestamp, f.ego, []) for f in read_frames(gt)])
        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--gt", str(empty), "--raw", str(det), "--fused", str(det),
                     "--output", str(csv_path)]) == 2
        assert capsys.readouterr().err == "boxfuse: error: no ground-truth boxes to evaluate against\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag", ["--gt", "--raw", "--fused"])
    def test_eval_names_the_malformed_input(self, tmp_path, capsys, flag):
        gt, det = run_synth(tmp_path)
        lines = (gt if flag == "--gt" else det).read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        paths = {"--gt": gt, "--raw": det, "--fused": det, flag: bad}
        argv = ["eval", *(str(arg) for pair in paths.items() for arg in pair)]
        # a file cut inside its meta line, then a malformed frame line after two good frames
        for text, message in ((lines[0][:len('{"meta')], "line 1: invalid JSON: Unterminated string starting at"),
                              ("".join(lines[:3]) + "{\n" + "".join(lines[4:]),
                               "line 4: invalid JSON: Expecting property name enclosed in double quotes")):
            bad.write_text(text, encoding="utf-8")
            assert main(argv) == 2
            assert capsys.readouterr().err == f"boxfuse: error: {flag}: {message}\n"

    def test_eval_reports_a_misaligned_frame_before_a_later_malformed_line(self, tmp_path, capsys):
        # raw and fused are read frame by frame, so the first frame that fails decides the error
        gt, det = run_synth(tmp_path)
        lines = det.read_text(encoding="utf-8").splitlines(keepends=True)
        raw, late = tmp_path / "raw.jsonl", tmp_path / "late.jsonl"
        raw.write_text("".join(lines[:3]) + "{\n" + "".join(lines[4:]), encoding="utf-8")
        late.write_text(lines[0] + "".join(lines[2:]), encoding="utf-8")
        assert main(["eval", "--gt", str(gt), "--raw", str(raw), "--fused", str(late)]) == 2
        assert capsys.readouterr().err == (
            "boxfuse: error: sequences must align, frame 0 has timestamps [0.0, 0.0, 0.1]\n")

    def test_traj_compare_ordering(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["traj-compare", "--speed", "10", "--radius", "20",
                     "--horizon", "0.4", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        err = {
            model: float(r[2])
            for r in rows
            for model in [r[0]]
            if abs(float(r[1]) - 0.4) < 1e-9
        }
        assert err["bicycle"] < err["unicycle"] < err["cv"]

    def test_traj_compare_negative_radius_turns(self, tmp_path):
        def errors(radius):
            out = tmp_path / f"traj{radius}.csv"
            assert main(["traj-compare", "--radius", radius, "--output", str(out)]) == 0
            return out.read_text()

        assert errors("-20") != errors("0")
        # a right turn mirrors the left one, so every error is the same
        assert errors("-20") == errors("20")

    def test_bad_environment_value_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOXFUSE_DECAY", "abc")
        assert main(["fuse", "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "o.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "BOXFUSE_DECAY" in err and "'abc'" in err

    def test_explicit_zero_speed_min_is_kept(self, tmp_path):
        gt, _ = run_synth(tmp_path, extra=("--speed-min", "0", "--speed-max", "5"))
        ranges = [g["spec"]["speed_range"] for g in read_meta(gt)["groups"]]
        assert ranges == [[0.0, 0.0], [0.0, 5.0], [0.0, 5.0]]

    def test_explicit_zero_from_environment_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXFUSE_SPAN", "0")
        gt, _ = run_synth(tmp_path)
        assert read_meta(gt)["groups"][0]["spec"]["origin_span"] == 0.0

    @pytest.mark.parametrize("argv,flag", [
        (["synth", "--vehicles", "0"], "--vehicles"),
        (["traj-compare", "--l-r", "0"], "--l-r"),
        (["traj-compare", "--interval", "0"], "--interval"),
        (["traj-compare", "--models", ""], "--models"),
        (["traj-compare", "--models", " , ,"], "--models"),
        (["traj-compare", "--models", "cv,kalman"], "--models"),
    ])
    def test_explicit_zero_is_not_replaced_by_default(self, tmp_path, capsys, argv, flag):
        outputs = ["--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl")]
        if argv[0] == "traj-compare":
            outputs = ["--output", str(tmp_path / "traj.csv")]
        assert main(argv + outputs) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "gt.jsonl").exists() and not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--l-r", "nan"), ("--l-r", "inf"), ("--interval", "nan"), ("--speed", "nan"), ("--radius", "inf"),
        ("--horizon", "nan"), ("--duration", "inf"),
    ])
    def test_non_finite_traj_compare_flag_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        row = next(row for row in OPTIONS["traj-compare"] if row.flags == flag)
        assert main(["traj-compare", "--output", str(tmp_path / "traj.csv"), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"boxfuse: error: {flag} ({row.env}): {row.dest} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "traj.csv").exists()

    def test_env_override(self, tmp_path, monkeypatch):
        gt, det = run_synth(tmp_path)
        out_flag = tmp_path / "flag.jsonl"
        out_env = tmp_path / "env.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out_flag),
                     "--decay", "0.5"]) == 0
        monkeypatch.setenv("BOXFUSE_DECAY", "0.5")
        assert main(["fuse", "--input", str(det), "--output", str(out_env)]) == 0
        assert read_meta(out_env)["config"]["weight_decay"] == 0.5
        assert out_flag.read_bytes().splitlines()[1:] == out_env.read_bytes().splitlines()[1:]
        # explicit flag beats the environment
        out_both = tmp_path / "both.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out_both),
                     "--decay", "0.9"]) == 0
        assert read_meta(out_both)["config"]["weight_decay"] == 0.9

    def test_preset_and_flag_precedence(self, tmp_path):
        gt, det = run_synth(tmp_path)
        out = tmp_path / "preset.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out),
                     "--preset", "multi-method", "--iou-low", "0.8"]) == 0
        cfg = read_meta(out)["config"]
        assert cfg["score_strategy"] == "divide"
        assert cfg["iou_low"] == 0.8
        assert cfg["iou_high"] == 0.9

    def test_unknown_preset_is_error(self, tmp_path):
        assert main(["fuse", "--input", "x", "--output", "y", "--preset", "nope"]) == 2

    @pytest.mark.parametrize("text,message", [
        ('{"n_history": 2.5}', "key 'n_history' must be an integer, got 2.5"),
        ('{"n_history": true}', "key 'n_history' must be an integer, got True"),
        ('{"weight_decay": "0.5"}', "key 'weight_decay' must be a number, got '0.5'"),
        ('{"iou_low": null}', "key 'iou_low' must be a number, got None"),
        ('{"score_strategy": "max"}', "key 'score_strategy' must be one of decay, divide, got 'max'"),
        ('{"decay": 0.5}', "unknown key 'decay'"),
        pytest.param('{"frame_interval": %d}' % HUGE, f"key 'frame_interval' must fit in a float, got {HUGE}",
                     id="frame_interval of 10**400"),
        pytest.param('{"history_score_floor": %d}' % -HUGE, f"key 'history_score_floor' must fit in a float, got {-HUGE}",
                     id="history_score_floor of -10**400"),
        ("null", "--config must be a JSON object, got None"),
        ('"abc"', "--config must be a JSON object, got 'abc'"),
        pytest.param('{"n_history": %d}' % HUGE,
                     f"--config key 'n_history': n_history must lie in [0, {2**63 - 2}], got {HUGE}",
                     id="n_history of 10**400"),
    ])
    def test_malformed_config_exit_2_naming_the_key(self, tmp_path, capsys, text, message):
        gt, det = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out), "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_keeps_its_json_form(self, tmp_path):
        gt, det = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"weight_decay": 1, "iou_high": 0.8}')
        out = tmp_path / "out.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out), "--config", str(cfg_path)]) == 0
        config = json.loads(out.read_text().splitlines()[0])["meta"]["config"]
        assert type(config["weight_decay"]) is int and config["iou_high"] == 0.8

    @pytest.mark.parametrize("command,variable,value,meta_path,expected", [
        ("fuse", "BOXFUSE_FRAMES", "2", ("config", "n_history"), 2),
        ("fuse", "BOXFUSE_DECAY", "0.6", ("config", "weight_decay"), 0.6),
        ("fuse", "BOXFUSE_INTERVAL", "0.2", ("config", "frame_interval"), 0.2),
        ("fuse", "BOXFUSE_STRATEGY", "divide", ("config", "score_strategy"), "divide"),
        ("fuse", "BOXFUSE_SCORE_DECAY", "0.5", ("config", "score_decay_factor"), 0.5),
        ("fuse", "BOXFUSE_HISTORY_FLOOR", "0.1", ("config", "history_score_floor"), 0.1),
        ("synth", "BOXFUSE_L_R", "1.3", ("groups", 2, "spec", "rear_axle"), 1.3),
        ("synth", "BOXFUSE_BURST_FRAC", "0.3", ("corruption", "burst_vehicle_frac"), 0.3),
        ("synth", "BOXFUSE_INTERVAL", "0.2", ("groups", 0, "spec", "frame_interval"), 0.2),
    ])
    def test_environment_variable_is_named_after_the_flag(self, tmp_path, monkeypatch, command, variable, value,
                                                          meta_path, expected):
        gt, det = run_synth(tmp_path, extra=("--turning-frac", "0.3"))
        monkeypatch.setenv(variable, value)
        if command == "fuse":
            path = tmp_path / "fused.jsonl"
            assert main(["fuse", "--input", str(det), "--output", str(path)]) == 0
        else:
            _, path = run_synth(tmp_path, extra=("--turning-frac", "0.3"))
        meta = read_meta(path)
        for key in meta_path:
            meta = meta[key]
        assert meta == expected

    @pytest.mark.parametrize("command,variable", [("synth", "BOXFUSE_MODEL"), ("fuse", "BOXFUSE_STRATEGY"),
                                                  ("traj-compare", "BOXFUSE_GEN_MODEL")])
    def test_environment_value_outside_the_choices_names_the_variable(self, tmp_path, monkeypatch, capsys,
                                                                       command, variable):
        gt, det = run_synth(tmp_path)
        monkeypatch.setenv(variable, "foo")
        argv = {"synth": ["--output-gt", str(tmp_path / "gt2.jsonl"), "--output-det", str(tmp_path / "det2.jsonl")],
                "fuse": ["--input", str(det), "--output", str(tmp_path / "fused.jsonl")],
                "traj-compare": ["--output", str(tmp_path / "traj.csv")]}[command]
        assert main([command, *argv]) == 2
        assert f"{variable}='foo'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["det.jsonl", "gt.jsonl"]

    @pytest.mark.parametrize("dest,value,message", [
        ("frame_interval", "nan", "frame_interval must be positive and finite"),
        ("frame_interval", "inf", "frame_interval must be positive and finite"),
        ("history_score_floor", "nan", "history_score_floor must be finite and non-negative"),
        ("history_score_floor", "inf", "history_score_floor must be finite and non-negative"),
    ])
    @pytest.mark.parametrize("source", ["flag", "variable", "config"])
    def test_non_finite_interval_or_floor_exit_2_without_output(self, tmp_path, monkeypatch, capsys, dest, value,
                                                                 message, source):
        gt, det = run_synth(tmp_path)
        row = next(row for row in OPTIONS["fuse"] if row.dest == dest)
        argv = ["fuse", "--input", str(det), "--output", str(tmp_path / "fused.jsonl")]
        if source == "flag":
            argv += [row.flags.split()[0], value]
        elif source == "variable":
            monkeypatch.setenv(row.env, value)
        else:
            cfg_path = tmp_path / "cfg.json"
            # json writes NaN and Infinity, which json.load reads back
            cfg_path.write_text(json.dumps({dest: float(value)}))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        key = f" or --config key {dest!r}" if source == "config" else ""
        assert capsys.readouterr().err == f"boxfuse: error: {row.flags.split()[0]} ({row.env}){key}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json"] * (source == "config")
                                                                      + ["det.jsonl", "gt.jsonl"])

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_every_flag_of_the_table(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for row in OPTIONS[command]:
            for flag in row.flags.split():
                assert f"{flag} " in out

    def test_config_file(self, tmp_path):
        gt, det = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"weight_decay": 0.7, "n_history": 2}))
        out = tmp_path / "cfgout.jsonl"
        assert main(["fuse", "--input", str(det), "--output", str(out),
                     "--config", str(cfg_path), "--decay", "0.75"]) == 0
        cfg = read_meta(out)["config"]
        assert cfg["n_history"] == 2
        assert cfg["weight_decay"] == 0.75  # flag overrides file


class TestSynthScene:
    @pytest.mark.parametrize("flag,value", [
        ("--straight-frac", "-0.2"),
        ("--stationary-frac", "-1e-9"),
        ("--turning-frac", "nan"),
        ("--turning-frac", "inf"),
    ])
    def test_bad_mix_fraction_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        mix = {"--stationary-frac": "0.5", "--straight-frac": "0.2", "--turning-frac": "0.5", flag: value}
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--vehicles", "10", *(f"{name}={frac}" for name, frac in mix.items())]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "gt.jsonl").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--l-r", "0", "--turning-frac", "0.5"], "--l-r (BOXFUSE_L_R): rear_axle must be positive"),
        (["--interval", "0"], "--interval (BOXFUSE_INTERVAL): frame_interval must be positive"),
        (["--sigma-xy", "-1"], "--sigma-xy (BOXFUSE_SIGMA_XY): sigma_xy must be non-negative"),
    ])
    def test_bad_spec_field_exit_2_naming_flag_and_variable(self, tmp_path, capsys, flags, message):
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--vehicles", "4", *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gt.jsonl").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--speed-min", "nan"), ("--speed-max", "nan"), ("--speed-max", "inf"), ("--radius-min", "nan"),
        ("--radius-max", "inf"), ("--interval", "nan"), ("--duration", "nan"), ("--duration", "inf"),
        ("--span", "nan"), ("--l-r", "nan"), ("--l-r", "inf"), ("--sigma-xy", "nan"), ("--sigma-turn", "inf"),
        ("--score-mean", "nan"),
    ])
    def test_non_finite_flag_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--vehicles", "4", "--turning-frac", "0.5", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("boxfuse: error: ") and f"{flag} (BOXFUSE_" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gt.jsonl").exists()

    def test_bad_spec_field_from_environment_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOXFUSE_L_R", "0")
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--vehicles", "4"]
        assert main(argv) == 2
        assert "--l-r (BOXFUSE_L_R): rear_axle must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("vehicles,mix", [("7", ("0.63", "0.31", "0.05")), ("10", ("0.5", "0", "0.5")),
                                              ("3", ("1e-12", "1", "3"))])
    def test_scene_holds_every_vehicle(self, tmp_path, vehicles, mix):
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        assert main(["synth", "--output-gt", str(gt), "--output-det", str(det), "--vehicles", vehicles,
                     "--duration", "0.2", "--stationary-frac", mix[0], "--straight-frac", mix[1],
                     "--turning-frac", mix[2]]) == 0
        assert sum(g["count"] for g in read_meta(gt)["groups"]) == int(vehicles)
        assert len(read_frames(gt)[0].detections) == int(vehicles)

    GROUP = {"spec": {"model": "cv", "duration": 0.3}, "count": 2}

    @pytest.mark.parametrize("raw,where,key", [
        ({"groups": [GROUP, {"spec": {"bogus": 1}, "count": 1}]}, "group 1", "'bogus'"),
        ({"corruption": {}}, "--spec", "'groups'"),
        ({"groups": [GROUP, {"spec": {"model": "cv"}, "count": 2.7}]}, "group 1", "'count'"),
        ({"groups": [{"spec": {"model": "cv"}, "count": True}]}, "group 0", "'count'"),
        ({"groups": [{"spec": {"model": "cv"}, "count": -1}]}, "group 0", "'count'"),
        ({"groups": [{"spec": {"model": "cv"}}]}, "group 0", "'count'"),
        ({"groups": [{"count": 1}]}, "group 0", "'spec'"),
        ({"groups": [{"spec": {"model": "cv"}, "count": 1, "weight": 2}]}, "group 0", "'weight'"),
        ({"groups": [{"spec": {"model": "cv", "frame_interval": 0.0}, "count": 1}]}, "group 0", "'spec'"),
        ({"groups": [GROUP], "corruption": {"sigma": 1.0}}, "corruption", "'sigma'"),
        ({"groups": [GROUP], "extra": 1}, "--spec", "'extra'"),
        ({"groups": [{"spec": {"model": "cv", "duration": True}, "count": 1}]}, "group 0", "'duration'"),
        ({"groups": [{"spec": {"model": "cv", "box_size": [2, 4]}, "count": 1}]}, "group 0", "'box_size'"),
        ({"groups": [{"spec": {"model": "cv", "label": ""}, "count": 1}]}, "group 0", "'label'"),
        ({"groups": [{"spec": {"model": "cv", "rear_axle": "1.2"}, "count": 1}]}, "group 0", "'rear_axle'"),
        ({"groups": [GROUP], "corruption": {"burst_frames": 1.5}}, "corruption", "'burst_frames'"),
        ({"groups": [GROUP], "corruption": {"frame_drop_overrides": [[1.5, 0.5]]}}, "corruption",
         "'frame_drop_overrides'"),
        ({"groups": [GROUP], "corruption": {"frame_drop_overrides": [[-1, 0.5]]}}, "corruption",
         "frame_drop_overrides frame indices must be non-negative integers, got -1"),
        ({"groups": [GROUP], "corruption": {"frame_score_scale": [[-1, 0.5]]}}, "corruption",
         "frame_score_scale frame indices must be non-negative integers, got -1"),
        ({"groups": [GROUP], "corruption": {"frame_drop_overrides": [[1, True]]}}, "--spec: key 'corruption': ",
         "key 'frame_drop_overrides' must be a tuple (a tuple (an integer, a number), ...), got ((1, True),)"),
        ({"groups": [GROUP], "corruption": {"frame_score_scale": [[0, False]]}}, "--spec: key 'corruption': ",
         "key 'frame_score_scale' must be a tuple (a tuple (an integer, a number), ...), got ((0, False),)"),
        ({"groups": [GROUP], "corruption": {"frame_drop_overrides": [[1, 0.0], [1, 1.0]]}},
         "--spec: key 'corruption': ", "frame_drop_overrides repeats frame index 1"),
        ({"groups": [GROUP], "corruption": {"frame_score_scale": [[2, 0.5], [2, 0.5]]}},
         "--spec: key 'corruption': ", "frame_score_scale repeats frame index 2"),
        ({"groups": [{"spec": {"model": "cv", "heading_range": [math.nan, 0.0]}, "count": 1}]}, "group 0", "'spec'"),
        ({"groups": [{"spec": {"model": "x"}, "count": 1}]}, "--spec group 0: key 'spec': ",
         "key 'model' must be one of cv, unicycle, bicycle, got 'x'"),
        ({"groups": [{"spec": {"model": "cv", "radius_range": [10, 20]}, "count": 1}]}, "--spec group 0: key 'spec': ",
         "radius_range must be None, as cv trajectories cannot turn, got (10, 20)"),
        ({"groups": []}, "--spec: ", "no vehicle groups"),
    ])
    def test_malformed_spec_exit_2_naming_group_and_key(self, tmp_path, capsys, raw, where, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--spec", str(spec)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert where in err and key in err
        assert not (tmp_path / "gt.jsonl").exists()

    # (case, spec fields, corruption, count, the value named)
    BEYOND_FLOAT_RANGE = [
        ("duration", {"duration": HUGE}, {}, 1, "--spec group 0: key 'spec': key 'duration'"),
        ("rear_axle", {"rear_axle": HUGE}, {}, 1, "--spec group 0: key 'spec': key 'rear_axle'"),
        ("speed_range", {"speed_range": [1.0, HUGE]}, {}, 1, "--spec group 0: key 'spec': key 'speed_range'"),
        ("box_size", {"box_size": [2.0, HUGE, 1.5]}, {}, 1, "--spec group 0: key 'spec': key 'box_size'"),
        ("score_mean", {}, {"score_mean": HUGE}, 1, "--spec: key 'corruption': key 'score_mean'"),
        ("frame_score_scale", {}, {"frame_score_scale": [[1, HUGE]]}, 1,
         "--spec: key 'corruption': key 'frame_score_scale'"),
        ("count", {}, {}, HUGE, "--spec group 0: key 'count'"),
    ]

    @pytest.mark.parametrize("spec,corruption,count,named", [case[1:] for case in BEYOND_FLOAT_RANGE],
                             ids=[case[0] for case in BEYOND_FLOAT_RANGE])
    def test_spec_number_beyond_float_range_exit_2_naming_its_key(self, tmp_path, capsys, spec, corruption, count,
                                                                    named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"groups": [{"spec": {"model": "cv", "duration": 0.3, **spec}, "count": count}],
                                    "corruption": corruption}))
        argv = ["synth", "--output-gt", str(tmp_path / "gt.jsonl"), "--output-det", str(tmp_path / "det.jsonl"),
                "--spec", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"boxfuse: error: {named} must fit in a float, got {HUGE}\n"
        assert not (tmp_path / "gt.jsonl").exists()

    def test_bursts_on_a_scene_without_vehicles_write_its_empty_frames(self, tmp_path):
        groups = [{"spec": {"model": model, "duration": 0.3}, "count": 0} for model in ("cv", "bicycle")]
        frames = {}
        for name, corruption in (("plain", {}), ("bursts", {"burst_frames": 2, "burst_vehicle_frac": 0.5})):
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({"groups": groups, "corruption": corruption}))
            gt, det = tmp_path / f"{name}-gt.jsonl", tmp_path / f"{name}-det.jsonl"
            assert main(["synth", "--output-gt", str(gt), "--output-det", str(det), "--spec", str(spec)]) == 0
            # every line but the meta header, which echoes the corruption
            frames[name] = det.read_text().splitlines()[1:]
        assert frames["bursts"] == frames["plain"]
        assert [len(f.detections) for f in read_frames(tmp_path / "bursts-det.jsonl")] == [0, 0, 0, 0]

    def test_spec_file_scene(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [self.GROUP, {"spec": {"model": "cv", "duration": 0.3}, "count": 0}],
                                    "corruption": {"frame_drop_overrides": [[1, 1.0]]}}))
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        assert main(["synth", "--output-gt", str(gt), "--output-det", str(det), "--spec", str(spec)]) == 0
        assert [len(f.detections) for f in read_frames(gt)] == [2, 2, 2, 2]
        assert [len(f.detections) for f in read_frames(det)] == [2, 0, 2, 2]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The ground truth and detections of one small synth scene, for the commands that read frames."""
    return run_synth(tmp_path_factory.mktemp("scene"))


def required_options(command, scene, out):
    """The options a command needs to run, each output a file in the directory out."""
    gt, det = scene
    return {"fuse": ["--input", str(det), "--output", str(out / "fused.jsonl")],
            "synth": ["--output-gt", str(out / "gt.jsonl"), "--output-det", str(out / "det.jsonl")],
            "inverse": ["--input", str(gt), "--output", str(out / "inverse.jsonl")],
            "eval": ["--gt", str(gt), "--raw", str(det), "--fused", str(det), "--output", str(out / "report.csv")],
            "traj-compare": ["--output", str(out / "traj.csv")]}[command]


FLOAT_ROWS = [(command, row) for command, rows in OPTIONS.items() for row in rows if row.type is float]


class TestOptionErrors:
    """Every rejected option value exits 2 with one message form: "<flag> (<VARIABLE>): <message>"."""

    @pytest.mark.parametrize("command,row", FLOAT_ROWS, ids=[f"{c} {row.flags.split()[0]}" for c, row in FLOAT_ROWS])
    @pytest.mark.parametrize("source", ["flag", "variable"])
    def test_nan_exit_2_naming_flag_and_variable(self, tmp_path, monkeypatch, capsys, scene, command, row, source):
        flag = row.flags.split()[0]
        argv = [command, *required_options(command, scene, tmp_path)]
        if source == "flag":
            argv += [flag, "nan"]
        else:
            monkeypatch.setenv(row.env, "nan")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"boxfuse: error: {flag} (") and row.env in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,error", [
        (["fuse", "--iou-low", "2"], "--iou-low (BOXFUSE_IOU_LOW): iou_low must lie in [0, 1]"),
        (["fuse", "--iou-high", "-0.5"], "--iou-high (BOXFUSE_IOU_HIGH): iou_high must lie in [0, 1]"),
        (["fuse", "--preset", "nope"],
         "--preset (BOXFUSE_PRESET): preset must be one of multi-method, nuscenes, waymo-default, got 'nope'"),
        (["eval", "--iou", "-0.5"], "--iou (BOXFUSE_IOU): iou must be non-negative, got -0.5"),
        (["eval", "--iou", "1.5"], "--iou (BOXFUSE_IOU): iou must be below 1, got 1.5"),
        (["synth", "--vehicles", "0"], "--vehicles (BOXFUSE_VEHICLES): vehicles must be at least 1, got 0"),
        (["synth", "--seed", "-1"], "--seed (BOXFUSE_SEED): seed must be non-negative, got -1"),
        (["synth", "--stationary-frac", "0", "--straight-frac", "0", "--turning-frac", "0"],
         "--stationary-frac (BOXFUSE_STATIONARY_FRAC) or --straight-frac (BOXFUSE_STRAIGHT_FRAC) or "
         "--turning-frac (BOXFUSE_TURNING_FRAC): the vehicle mix fractions must sum to a positive value"),
        # of the two flags of one field, only the one given is named
        (["synth", "--speed-max", "1"],
         "--speed-max (BOXFUSE_SPEED_MAX): speed_range must have low <= high, got (6.0, 1.0)"),
        (["synth", "--radius-min", "30"],
         "--radius-min (BOXFUSE_RADIUS_MIN): radius_range must have low <= high, got (30.0, 24.0)"),
        (["traj-compare", "--horizon", "0"],
         "--horizon (BOXFUSE_HORIZON): horizon must be positive and finite, got 0.0"),
        (["traj-compare", "--horizon", "-1"],
         "--horizon (BOXFUSE_HORIZON): horizon must be positive and finite, got -1.0"),
        (["traj-compare", "--duration", "-5"],
         "--duration (BOXFUSE_DURATION): duration must be finite and non-negative, got -5.0"),
        (["traj-compare", "--gen-model", "cv", "--radius", "20"],
         "--radius (BOXFUSE_RADIUS): constant-velocity trajectories cannot turn"),
        # ratios of two options that overflow at once: a frame count, a lag in frame intervals
        (["synth", "--duration", "1e300", "--interval", "1e-300"],
         "--duration (BOXFUSE_DURATION) or --interval (BOXFUSE_INTERVAL): n_frames overflows, "
         "got duration / frame_interval = 1e+300 / 1e-300"),
        (["traj-compare", "--horizon", "1e300", "--interval", "1e-300"],
         "--horizon (BOXFUSE_HORIZON) or --interval (BOXFUSE_INTERVAL): horizon / frame_interval overflows, "
         "got 1e+300 / 1e-300"),
        (["traj-compare", "--duration", "1e300", "--interval", "1e-300"],
         "--duration (BOXFUSE_DURATION) or --interval (BOXFUSE_INTERVAL): duration / frame_interval overflows, "
         "got 1e+300 / 1e-300"),
        (["fuse", "--interval", "1e-20"], "line 3: frame lag of 0.1 s at frame_interval 1e-20 s does not fit in int64"),
        pytest.param(["synth", "--vehicles", str(HUGE)],
                     f"--vehicles (BOXFUSE_VEHICLES): vehicles must fit in a float, got {HUGE}", id="vehicles 10**400"),
        # a window of n_history + 1 frames must fit in a C ssize_t
        pytest.param(["fuse", "--frames", str(2**63 - 1)],
                     f"--frames (BOXFUSE_FRAMES): n_history must lie in [0, {2**63 - 2}], got {2**63 - 1}",
                     id="frames 2**63 - 1"),
        pytest.param(["fuse", "--frames", str(HUGE)],
                     f"--frames (BOXFUSE_FRAMES): n_history must lie in [0, {2**63 - 2}], got {HUGE}",
                     id="frames 10**400"),
    ])
    def test_bad_value_exit_2_in_the_one_form(self, tmp_path, capsys, scene, argv, error):
        assert main([*argv, *required_options(argv[0], scene, tmp_path)]) == 2
        assert capsys.readouterr().err == f"boxfuse: error: {error}\n"
        assert not any(tmp_path.iterdir())

    def test_frames_variable_too_large_for_a_window_exit_2(self, tmp_path, monkeypatch, capsys, scene):
        monkeypatch.setenv("BOXFUSE_FRAMES", str(HUGE))
        assert main(["fuse", *required_options("fuse", scene, tmp_path)]) == 2
        error = f"--frames (BOXFUSE_FRAMES): n_history must lie in [0, {2**63 - 2}], got {HUGE}"
        assert capsys.readouterr().err == f"boxfuse: error: {error}\n"
        assert not any(tmp_path.iterdir())

    def test_largest_frames_value_fuses_like_a_window_longer_than_the_stream(self, tmp_path, scene):
        fused = []
        for frames in (str(2**63 - 2), "1000"):
            assert main(["fuse", *required_options("fuse", scene, tmp_path), "--frames", frames]) == 0
            fused.append((tmp_path / "fused.jsonl").read_bytes().splitlines()[1:])
        assert fused[0] == fused[1]

    def test_missing_required_option_names_flag_and_variable(self, tmp_path, capsys):
        assert main(["inverse", "--output", str(tmp_path / "inverse.jsonl")]) == 2
        assert capsys.readouterr().err == "boxfuse: error: --input (BOXFUSE_INPUT): input is required\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("model", ["cv", "bicycle"])
    def test_synth_checks_l_r_for_a_spec_scene_too(self, tmp_path, capsys, scene, model):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [{"spec": {"model": "cv", "duration": 0.3}, "count": 2}]}))
        out = tmp_path / "out"
        out.mkdir()
        argv = ["synth", "--spec", str(spec), "--model", model, "--l-r", "-1", *required_options("synth", scene, out)]
        assert main(argv) == 2
        error = "--l-r (BOXFUSE_L_R): rear_axle must be positive and finite, got -1.0"
        assert capsys.readouterr().err == f"boxfuse: error: {error}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command,flag", [("fuse", "--config"), ("synth", "--spec")])
    @pytest.mark.parametrize("source", ["flag", "variable"])
    def test_option_file_that_is_not_json_exits_2_naming_its_flag(self, tmp_path, monkeypatch, capsys, scene,
                                                                   command, flag, source):
        path = tmp_path / "options.json"
        path.write_text("{'groups': []}")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, *required_options(command, scene, out)]
        if source == "flag":
            argv += [flag, str(path)]
        else:
            monkeypatch.setenv(f"BOXFUSE_{flag[2:].upper()}", str(path))
        assert main(argv) == 2
        error = f"{flag}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        assert capsys.readouterr().err == f"boxfuse: error: {error}\n"
        assert not any(out.iterdir())
