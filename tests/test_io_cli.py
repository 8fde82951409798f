from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from boxfuse import (
    Bicycle,
    Box3D,
    ConstantVelocity,
    Detection,
    EgoPose,
    Frame,
    FrameFormatError,
    FusionConfig,
    Unicycle,
    read_frames,
    read_meta,
    weighted_nms,
    write_frames,
)
from boxfuse.cli import OPTIONS, main
from boxfuse.io import detection_from_obj, detection_to_obj, frame_from_obj, frame_to_obj


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
        assert detection_from_obj(json.loads(json.dumps(detection_to_obj(det)))) == det

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
    ("string weight", _with(weight="0.3"), "detection 0: weight must be a number, got '0.3'"),
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

        frames = [
            Frame(f.timestamp, f.ego, [replace(d, motion=ConstantVelocity(1.0, 0.0)) for d in f.detections])
            for f in sample_frames()
        ]
        frames[1].detections[0] = replace(frames[1].detections[0], motion=Unicycle(9.0, 0.5))
        src = tmp_path / "mixed.jsonl"
        write_frames(src, frames)
        assert main(["fuse", "--input", str(src), "--output", str(tmp_path / "o.jsonl")]) == 2
        assert "(frame 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["mixed models", "repeated timestamp"])
    def test_failed_fuse_leaves_the_output_as_it_was(self, tmp_path, fault):
        from dataclasses import replace

        frames = [
            Frame(f.timestamp, f.ego, [replace(d, motion=ConstantVelocity(1.0, 0.0)) for d in f.detections])
            for f in sample_frames()
        ]
        # frames 0 and 1 fuse before frame 2 fails
        if fault == "mixed models":
            frames[2].detections[0] = replace(frames[2].detections[0], motion=Unicycle(9.0, 0.5))
        else:
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
        assert "track_id" in capsys.readouterr().err

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
        ("null", "--config must be a JSON object, got None"),
        ('"abc"', "--config must be a JSON object, got 'abc'"),
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

    def test_spec_file_scene(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [self.GROUP, {"spec": {"model": "cv", "duration": 0.3}, "count": 0}],
                                    "corruption": {"frame_drop_overrides": [[1, 1.0]]}}))
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        assert main(["synth", "--output-gt", str(gt), "--output-det", str(det), "--spec", str(spec)]) == 0
        assert [len(f.detections) for f in read_frames(gt)] == [2, 2, 2, 2]
        assert [len(f.detections) for f in read_frames(det)] == [2, 0, 2, 2]
