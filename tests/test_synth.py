from __future__ import annotations

import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from boxfuse import (
    Bicycle,
    CorruptionSpec,
    TrajectorySpec,
    Unicycle,
    corrupt,
    forward,
    generate_ground_truth,
    generate_mixed_scene,
    reattach_params,
    split_motion_state,
    transform_box,
)
from boxfuse import motion
from boxfuse.cli import _spec_scene, main
from boxfuse.geometry import EgoPose, Pose
from boxfuse.io import dumps_line, frame_to_obj, read_frames, read_meta


def single_vehicle_spec(**overrides) -> TrajectorySpec:
    base = dict(
        model="cv",
        speed_range=(10.0, 10.0),
        heading_range=(0.0, 0.0),
        origin_span=0.0,
        min_spacing=0.0,
        duration=0.4,
        frame_interval=0.1,
    )
    base.update(overrides)
    return TrajectorySpec(**base)


class TestGenerateGroundTruth:
    def test_straight_line_centers(self):
        frames = generate_ground_truth(single_vehicle_spec(), 1, seed=0)
        assert len(frames) == 5
        xs = [f.detections[0].box.x for f in frames]
        assert xs == pytest.approx([0, 1, 2, 3, 4], abs=1e-9)
        assert all(f.detections[0].score == 1.0 for f in frames)
        assert all(f.detections[0].track_id == 0 for f in frames)

    def test_turning_track_stays_on_circle(self):
        spec = single_vehicle_spec(
            model="unicycle", radius_range=(20.0, 20.0), duration=2.0
        )
        frames = generate_ground_truth(spec, 1, seed=3)
        p0 = frames[0].detections[0]
        params = p0.motion
        assert isinstance(params, Unicycle)
        assert abs(params.speed / params.yaw_rate) == pytest.approx(20.0, abs=1e-9)
        sign = 1.0 if params.yaw_rate > 0 else -1.0
        cx = p0.box.x - sign * 20.0 * math.sin(p0.box.yaw)
        cy = p0.box.y + sign * 20.0 * math.cos(p0.box.yaw)
        for f in frames:
            box = f.detections[0].box
            assert math.hypot(box.x - cx, box.y - cy) == pytest.approx(20.0, abs=1e-9)

    def test_deterministic_and_bit_identical(self):
        spec = TrajectorySpec(model="bicycle", radius_range=(12.0, 25.0), duration=1.0)
        a = generate_mixed_scene([(spec, 5)], seed=42)
        b = generate_mixed_scene([(spec, 5)], seed=42)
        assert [dumps_line(frame_to_obj(f)) for f in a] == [dumps_line(frame_to_obj(f)) for f in b]
        c = generate_mixed_scene([(spec, 5)], seed=43)
        assert [dumps_line(frame_to_obj(f)) for f in a] != [dumps_line(frame_to_obj(f)) for f in c]

    def test_attached_params_forward_consistent(self):
        spec = TrajectorySpec(model="bicycle", radius_range=(15.0, 25.0), duration=1.0)
        frames = generate_ground_truth(spec, 3, seed=7)
        dt = spec.frame_interval
        for k in range(len(frames) - 1):
            for det, nxt in zip(frames[k].detections, frames[k + 1].detections):
                pred = forward(Pose(det.box.x, det.box.y, det.box.yaw), det.motion, dt)
                assert pred.x == pytest.approx(nxt.box.x, abs=1e-6)
                assert pred.y == pytest.approx(nxt.box.y, abs=1e-6)

    def test_min_spacing_respected(self):
        spec = TrajectorySpec(model="cv", speed_range=(0.0, 0.0), origin_span=40.0,
                              min_spacing=6.0, duration=0.2)
        frames = generate_ground_truth(spec, 30, seed=5)
        first = frames[0].detections
        for i in range(len(first)):
            for j in range(i + 1, len(first)):
                a, b = first[i].box, first[j].box
                assert math.hypot(a.x - b.x, a.y - b.y) >= 6.0 - 1e-9

    def test_mixed_scene_tracks_and_labels(self):
        common = dict(duration=0.5, origin_span=80.0)
        stationary = TrajectorySpec(model="cv", speed_range=(0.0, 0.0), **common)
        turning = TrajectorySpec(model="bicycle", radius_range=(15.0, 20.0), **common)
        frames = generate_mixed_scene([(stationary, 4), (turning, 2)], seed=11)
        ids = sorted({d.track_id for d in frames[0].detections})
        assert ids == list(range(6))
        labels = split_motion_state(frames)
        assert sum(1 for v in labels.values() if v == "stationary") == 4
        assert sum(1 for v in labels.values() if v == "turning") == 2

    def test_moving_ego_exercises_transform(self):
        spec = single_vehicle_spec(duration=0.3)
        ego_motion = Unicycle(5.0, 0.4)
        local = generate_ground_truth(spec, 1, seed=9, ego_motion=ego_motion)
        world = generate_ground_truth(spec, 1, seed=9)
        identity = EgoPose.identity()
        for lf, wf in zip(local, world):
            assert lf.ego != identity or lf.timestamp == 0.0
            back = transform_box(lf.detections[0].box, lf.ego, identity)
            expect = wf.detections[0].box
            assert back.x == pytest.approx(expect.x, abs=1e-9)
            assert back.y == pytest.approx(expect.y, abs=1e-9)

    def test_group_grid_mismatch_rejected(self):
        a = TrajectorySpec(duration=1.0)
        b = TrajectorySpec(duration=2.0)
        with pytest.raises(ValueError):
            generate_mixed_scene([(a, 1), (b, 1)], seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpec(model="cv", radius_range=(10, 20))
        with pytest.raises(ValueError):
            TrajectorySpec(frame_interval=0.0)
        with pytest.raises(ValueError):
            TrajectorySpec(radius_range=(0.0, 10.0))
        # a float field takes a Python int or float: a bool is no JSON number, a numpy float no JSON value
        with pytest.raises(ValueError, match=r"^duration must be a number, got True$"):
            TrajectorySpec(duration=True)
        with pytest.raises(ValueError, match=f"^{re.escape(f'rear_axle must be a number, got {np.float32(1.2)!r}')}$"):
            TrajectorySpec(rear_axle=np.float32(1.2))
        with pytest.raises(ValueError, match=re.escape("speed_range must be a tuple (a number, a number), got (True, 14.0)")):
            TrajectorySpec(speed_range=(True, 14.0))


class TestCorrupt:
    def test_zero_noise_keeps_geometry(self):
        gt = generate_ground_truth(single_vehicle_spec(), 2, seed=1)
        spec = CorruptionSpec(score_mean=0.7, score_sigma=0.0)
        det = corrupt(gt, spec, seed=4)
        for g, d in zip(gt, det):
            assert len(g.detections) == len(d.detections)
            for a, b in zip(g.detections, d.detections):
                assert a.box == b.box
                assert a.motion == b.motion
                assert b.score == pytest.approx(0.7)

    def test_drop_override_empties_frame(self):
        gt = generate_ground_truth(single_vehicle_spec(), 3, seed=1)
        spec = CorruptionSpec(frame_drop_overrides=((2, 1.0),))
        det = corrupt(gt, spec, seed=4)
        assert det[2].detections == []
        assert len(det[1].detections) == 3

    def test_position_noise_rmse(self):
        # 2D RMSE of sigma = 0.2 per axis is 0.2 * sqrt(2) ~ 0.283
        spec = TrajectorySpec(model="cv", speed_range=(0.0, 0.0), origin_span=400.0,
                              min_spacing=6.0, duration=0.1, frame_interval=0.1)
        gt = generate_ground_truth(spec, 500, seed=2)
        det = corrupt(gt, CorruptionSpec(sigma_xy=0.2), seed=3)
        errs = [
            (a.box.x - b.box.x) ** 2 + (a.box.y - b.box.y) ** 2
            for g, d in zip(gt, det)
            for a, b in zip(g.detections, d.detections)
        ]
        rmse = math.sqrt(sum(errs) / len(errs))
        assert 0.26 <= rmse <= 0.30

    def test_burst_occlusion_windows(self):
        gt = generate_ground_truth(
            single_vehicle_spec(origin_span=200.0, min_spacing=6.0, duration=1.9), 10, seed=6
        )
        spec = CorruptionSpec(burst_frames=3, burst_vehicle_frac=0.2)
        det = corrupt(gt, spec, seed=8)
        n_frames = len(det)
        missing = {}
        for k, frame in enumerate(det):
            present = {d.track_id for d in frame.detections}
            for tid in range(10):
                if tid not in present:
                    missing.setdefault(tid, []).append(k)
        assert len(missing) == 2  # round(0.2 * 10)
        for frames_missing in missing.values():
            assert len(frames_missing) == 3
            assert frames_missing == list(range(frames_missing[0], frames_missing[0] + 3))
            assert frames_missing[-1] < n_frames

    def test_deterministic(self):
        gt = generate_ground_truth(single_vehicle_spec(duration=1.0), 5, seed=1)
        spec = CorruptionSpec(sigma_xy=0.3, sigma_yaw=0.05, drop_prob=0.2)
        a = corrupt(gt, spec, seed=12)
        b = corrupt(gt, spec, seed=12)
        assert [dumps_line(frame_to_obj(f)) for f in a] == [dumps_line(frame_to_obj(f)) for f in b]

    def test_pose_noise_invariant_to_param_variant(self):
        # same seed, different attached motion model: identical corrupted boxes
        spec = single_vehicle_spec(model="unicycle", radius_range=(20.0, 20.0), duration=1.0)
        gt_uni = generate_ground_truth(spec, 2, seed=5)
        cv_spec = single_vehicle_spec(duration=1.0)
        gt_cv = generate_ground_truth(cv_spec, 2, seed=5)
        noise = CorruptionSpec(sigma_xy=0.25, sigma_yaw=0.1, sigma_speed=0.5, sigma_turn=0.1)
        det_uni = corrupt(gt_uni, noise, seed=9)
        det_cv = corrupt(gt_cv, noise, seed=9)
        for fu, fc, gu, gc in zip(det_uni, det_cv, gt_uni, gt_cv):
            for du, dc, ru, rc in zip(fu.detections, fc.detections, gu.detections, gc.detections):
                assert du.box.x - ru.box.x == pytest.approx(dc.box.x - rc.box.x, abs=1e-12)
                assert du.score == pytest.approx(dc.score, abs=1e-12)

    def test_slip_noise_clamped(self):
        gt = generate_ground_truth(
            single_vehicle_spec(model="bicycle", radius_range=(12.0, 12.0), duration=0.3), 1, seed=3
        )
        det = corrupt(gt, CorruptionSpec(sigma_turn=5.0), seed=1)
        for f in det:
            for d in f.detections:
                assert isinstance(d.motion, Bicycle)
                assert -math.pi / 2 <= d.motion.slip <= math.pi / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec(drop_prob=1.5)
        with pytest.raises(ValueError):
            CorruptionSpec(sigma_xy=-0.1)
        with pytest.raises(ValueError, match=r"^sigma_xy must be a number, got True$"):
            CorruptionSpec(sigma_xy=True)
        with pytest.raises(ValueError, match=f"^{re.escape(f'score_mean must be a number, got {np.float64(0.8)!r}')}$"):
            CorruptionSpec(score_mean=np.float64(0.8))
        for value in (2.5, True, np.int64(2)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'burst_frames must be an integer, got {value!r}')}$"):
                CorruptionSpec(burst_frames=value, burst_vehicle_frac=0.5)
        for name in ("frame_drop_overrides", "frame_score_scale"):
            for index in (1.5, True):
                value = ((0, 0.5), (index, 0.5))
                message = f"{name} must be a tuple (a tuple (an integer, a number), ...), got {value!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    CorruptionSpec(**{name: value})
            message = f"{name} frame indices must be non-negative integers, got -1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CorruptionSpec(**{name: ((0, 0.5), (-1, 0.5))})
            # an override value is a number, never a bool, as JSON tells them apart
            for value in (((1, True),), ((0, False),)):
                message = f"{name} must be a tuple (a tuple (an integer, a number), ...), got {value!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    CorruptionSpec(**{name: value})
            # corrupt keeps one value per frame, so a frame may be named once
            with pytest.raises(ValueError, match=f"^{name} repeats frame index 1$"):
                CorruptionSpec(**{name: ((1, 0.0), (1, 1.0))})
            CorruptionSpec(**{name: ((0, 0.5), (7, 0.5))})
        # a value's message begins with its field, as every CorruptionSpec message does
        for name, value, message in (("frame_drop_overrides", 1.5, "lie in [0, 1]"),
                                     ("frame_drop_overrides", math.nan, "lie in [0, 1]"),
                                     ("frame_score_scale", math.inf, "be finite")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} values must {message}, got {value!r}')}$"):
                CorruptionSpec(**{name: ((0, value),)})


# Frame lines (GT then detections, meta lines left out) of three small
# `boxfuse synth` scenes. Every AP figure of the benchmark rests on synth
# scenes, so a bit that drifts here must be noticed, not absorbed.
PINNED_SCENES = {
    "cv": "1aebfed909b3920cd64319904905a7249f1b030e6b46580062b98a2ab022815d",
    "unicycle": "1fed093511cae4c58872e429331b919c4e3246eeef3d375a79d6e6eaa9a2f2a4",
    "bicycle": "dca06496ffd60f0c35198084d6df5b18e50d71ec1e6ac4266b045ed9458dcc37",
}


PINNED_SCENE_FLAGS = ["--seed", "1", "--vehicles", "12", "--duration", "0.8", "--stationary-frac", "0.3",
                      "--straight-frac", "0.3", "--turning-frac", "0.4", "--sigma-xy", "0.3", "--sigma-yaw", "0.05",
                      "--sigma-speed", "0.5", "--sigma-turn", "0.05", "--drop-prob", "0.2", "--burst-frames", "2",
                      "--burst-frac", "0.25"]


def run_synth(tmp_path, *flags):
    gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
    assert main(["synth", "--output-gt", str(gt), "--output-det", str(det), *flags]) == 0
    return gt, det


def frame_digest(*paths) -> str:
    """SHA-256 of the files' frame lines, meta lines left out."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(b"".join(path.read_bytes().splitlines(keepends=True)[1:]))
    return digest.hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED_SCENES))
def test_synth_scene_bytes_are_pinned(tmp_path, model):
    assert frame_digest(*run_synth(tmp_path, "--model", model, *PINNED_SCENE_FLAGS)) == PINNED_SCENES[model]


# Frame lines of `boxfuse inverse --model bicycle` on the pinned bicycle
# scene's ground truth and detections, then on the ground truth of the same
# scene with vehicles creeping at 1e-6 to 1e-5 m/s. The fit's conditioning
# check settles "yes" on the stationary tracks (a zero slip column) and "no"
# on the moving ones, and the creeping tracks' checks lie between its bounds
# and take the SVD.
PINNED_INVERSE = "8e1c2ca9f83c01afc67ed67a35144410271b972946d5b94fd8ff2467a7d17d91"


def test_bicycle_inverse_bytes_are_pinned(tmp_path):
    scene = run_synth(tmp_path, "--model", "bicycle", *PINNED_SCENE_FLAGS)
    (tmp_path / "creeping").mkdir()
    creeping, _ = run_synth(tmp_path / "creeping", "--model", "bicycle", *PINNED_SCENE_FLAGS,
                            "--speed-min", "1e-6", "--speed-max", "1e-5")
    outputs = []
    for k, path in enumerate((*scene, creeping)):
        outputs.append(tmp_path / f"inverse-{k}.jsonl")
        assert main(["inverse", "--input", str(path), "--output", str(outputs[-1]), "--model", "bicycle"]) == 0
    assert frame_digest(*outputs) == PINNED_INVERSE


# a --spec scene whose second turning group has the arm of --l-r 1.5 and whose
# first has another, so that only the first must be fitted again
ARM_SPEC = {"groups": [
    {"spec": {"model": "cv", "speed_range": [0.0, 0.0], "duration": 0.5}, "count": 3},
    {"spec": {"model": "bicycle", "radius_range": [12.0, 20.0], "rear_axle": 0.9, "duration": 0.5}, "count": 3},
    {"spec": {"model": "bicycle", "radius_range": [12.0, 20.0], "rear_axle": 1.5, "duration": 0.5}, "count": 3},
    {"spec": {"model": "bicycle", "duration": 0.5}, "count": 2},
], "corruption": {"sigma_xy": 0.2, "sigma_speed": 0.3, "sigma_turn": 0.05, "drop_prob": 0.2}}


@pytest.mark.parametrize("model,rear_axle,spec", [
    ("bicycle", None, None),
    ("bicycle", 1.5, None),
    ("bicycle", 1.5, ARM_SPEC),
    ("bicycle", None, ARM_SPEC),
    ("unicycle", None, None),
    ("cv", None, None),
])
def test_synth_detections_equal_the_full_refit(tmp_path, model, rear_axle, spec):
    flags = ["--model", model, *PINNED_SCENE_FLAGS]
    if rear_axle is not None:
        flags += ["--l-r", repr(rear_axle)]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        flags += ["--spec", str(tmp_path / "spec.json")]
    gt_path, det_path = run_synth(tmp_path, *flags)
    meta = read_meta(det_path)
    groups, cspec = _spec_scene({"groups": meta["groups"], "corruption": meta["corruption"]})
    gt = generate_mixed_scene(groups, meta["seed"])
    full = corrupt(reattach_params(gt, model, rear_axle), cspec, meta["seed"])
    assert gt_path.read_text().splitlines()[1:] == [dumps_line(frame_to_obj(f)) for f in gt]
    assert det_path.read_text().splitlines()[1:] == [dumps_line(frame_to_obj(f)) for f in full]


def pair_keys(times, poses, arm) -> list[bytes]:
    """The bits of each row's pose-pair inputs (x0, y0, h0, x1, y1, h1, dt, arm),
    the pairs of estimate_param_columns: interior rows take their straddling
    pair, the endpoints their adjacent one."""
    last = len(times) - 1
    keys = []
    for i in range(len(times)):
        j0, j1 = max(i - 1, 0), min(i + 1, last)
        keys.append(struct.pack("8d", *poses[j0], *poses[j1], times[j1] - times[j0], arm))
    return keys


# the ground truth fits its bicycle groups, and synth fits again only the
# tracks whose model or arm differs from the refit's (10 turning tracks, then
# the 10 cv ones; with the spec, the arm 1.5 group or the straight group of
# the default arm is kept)
@pytest.mark.parametrize("spec,rear_axle", [(None, None), (ARM_SPEC, 1.5), (ARM_SPEC, None)])
def test_bicycle_synth_fits_each_track_once(tmp_path, monkeypatch, spec, rear_axle):
    real = motion.inverse_bicycle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(motion, "inverse_bicycle", counted)
    flags = ["--model", "bicycle", "--seed", "3", "--vehicles", "20", "--duration", "0.8",
             "--stationary-frac", "0.2", "--straight-frac", "0.3", "--turning-frac", "0.5"]
    if rear_axle is not None:
        flags += ["--l-r", repr(rear_axle)]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        flags += ["--spec", str(tmp_path / "spec.json")]
    gt, _ = run_synth(tmp_path, *flags)
    groups, _ = _spec_scene({"groups": read_meta(gt)["groups"], "corruption": {}})
    frames = read_frames(gt)
    times = [frame.timestamp for frame in frames]
    owner = [(g, group_spec) for g, (group_spec, count) in enumerate(groups) for _ in range(count)]
    fits = {}  # the distinct pairs of each fit call: one per bicycle group of the ground truth, one refit
    moving = []
    for k, (g, spec_k) in enumerate(owner):
        # the k-th vehicle of the groups is the k-th row of every frame
        track = [tuple(frame.detections.boxes[k, [0, 1, 6]].tolist()) for frame in frames]
        arm = motion.default_rear_axle(spec_k.box_size[1]) if rear_axle is None else rear_axle
        calls_k = [(g, spec_k.rear_axle_or_default)] if spec_k.model == "bicycle" else []
        if spec_k.model != "bicycle" or spec_k.rear_axle_or_default != arm:
            calls_k.append(("refit", arm))
        for call, call_arm in calls_k:
            keys = pair_keys(times, track, call_arm)
            fits.setdefault(call, set()).update(keys)
            if len(set(track)) > 1:
                moving.append(keys)
    got = [struct.pack("8d", p0.x, p0.y, p0.heading, pt.x, pt.y, pt.heading, t, l_r) for p0, pt, t, l_r in calls]
    assert sorted(got) == sorted(key for keys in fits.values() for key in keys)
    # a moving track of n >= 3 poses has n distinct pose pairs, each fitted once
    assert moving and all(len(set(keys)) == len(frames) for keys in moving)
