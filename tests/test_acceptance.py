"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported (not asserted) measurements.
"""

from __future__ import annotations

import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from boxfuse import (
    Bicycle,
    ConstantVelocity,
    CorruptionSpec,
    FusionConfig,
    PRESETS,
    Pose,
    TrajectorySpec,
    Unicycle,
    average_precision,
    corrupt,
    estimate_params_from_track,
    forward,
    fuse_sequence,
    generate_mixed_scene,
    inverse_bicycle,
    inverse_unicycle,
    normalize_angle,
    numeric_forward_batch,
    read_frames,
    reattach_params,
    strict_turning_tracks,
    weighted_nms,
    write_frames,
)
from boxfuse.cli import main

from oracles import weighted_nms_reference
from test_fusion import assert_detections_close, random_scene


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_forward_model_oracle_suite():
    with criterion(1, "forward-model oracle suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        n = 1000
        for model in ("cv", "unicycle", "bicycle"):
            poses = np.column_stack(
                [
                    rng.uniform(-50, 50, n),
                    rng.uniform(-50, 50, n),
                    rng.uniform(-math.pi, math.pi, n),
                ]
            )
            if model == "cv":
                params = np.column_stack([rng.uniform(-15, 15, n), rng.uniform(-15, 15, n)])
                make = lambda row: ConstantVelocity(row[0], row[1])
            elif model == "unicycle":
                params = np.column_stack([rng.uniform(-15, 15, n), rng.uniform(-1, 1, n)])
                make = lambda row: Unicycle(row[0], row[1])
            else:
                params = np.column_stack(
                    [rng.uniform(-15, 15, n), rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 3, n)]
                )
                make = lambda row: Bicycle(row[0], row[1], row[2])
            t = rng.uniform(-1, 1, n)
            oracle = numeric_forward_batch(poses, model, params, t, step=1e-4)
            for i in range(n):
                closed = forward(Pose(*poses[i]), make(params[i]), float(t[i]))
                assert abs(closed.x - oracle[i, 0]) < 1e-6
                assert abs(closed.y - oracle[i, 1]) < 1e-6
                assert abs(normalize_angle(closed.heading - oracle[i, 2])) < 1e-6
        elapsed = time.perf_counter() - start
        print(f"  [criterion 1] 3000 draws checked in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_criterion_2_inverse_roundtrips():
    with criterion(2, "inverse-model roundtrips"):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        worst_uni = 0.0
        for _ in range(100):
            p0 = Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-math.pi, math.pi))
            truth = Unicycle(float(rng.uniform(-15, 15)), float(rng.uniform(-1, 1)))
            t = float(rng.uniform(0.05, 1.0))
            got = inverse_unicycle(p0, forward(p0, truth, t), t)
            worst_uni = max(
                worst_uni, abs(got.speed - truth.speed), abs(got.yaw_rate - truth.yaw_rate)
            )
        assert worst_uni < 1e-8
        worst_bic = 0.0
        iterations = []
        for _ in range(100):
            p0 = Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-math.pi, math.pi))
            truth = Bicycle(
                float(rng.uniform(1, 15)), float(rng.uniform(-0.4, 0.4)), float(rng.uniform(1, 3))
            )
            t = float(rng.uniform(0.1, 1.0))
            pt = forward(p0, truth, t)
            params, report = inverse_bicycle(p0, pt, t, rear_axle=truth.rear_axle)
            assert report.converged
            iterations.append(report.iterations)
            worst_bic = max(
                worst_bic, abs(params.speed - truth.speed), abs(params.slip - truth.slip)
            )
        assert worst_bic < 1e-4
        median_iters = sorted(iterations)[len(iterations) // 2]
        assert median_iters <= 10
        elapsed = time.perf_counter() - start
        print(
            f"  [criterion 2] unicycle worst {worst_uni:.2e}, bicycle worst {worst_bic:.2e}, "
            f"median iterations {median_iters}, {elapsed:.2f}s"
        )
        assert elapsed < 5.0


def test_criterion_3_weighted_nms_oracle_equivalence():
    with criterion(3, "weighted-NMS oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        cfg = FusionConfig()
        for _ in range(200):
            dets = random_scene(rng, int(rng.integers(1, 101)))
            got = weighted_nms(dets, cfg)
            expected, _ = weighted_nms_reference(dets, cfg)
            assert_detections_close(got, expected, tol=1e-9)
        elapsed = time.perf_counter() - start
        print(f"  [criterion 3] 200 scenes matched box-for-box in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_criterion_4_turning_prediction_ordering():
    with criterion(4, "turning-prediction error ordering"):
        start = time.perf_counter()
        rear_axle = 4.7 / 4.0
        speed, radius = 10.0, 20.0
        gen = Bicycle(speed, math.asin(rear_axle / radius), rear_axle)
        interval, horizon = 0.1, 0.4
        times = [i * interval for i in range(13)]
        poses = [forward(Pose(0, 0, 0), gen, t) for t in times]
        center = 6
        steps = round(horizon / interval)
        errors = {}
        for model in ("cv", "unicycle", "bicycle"):
            est = estimate_params_from_track(
                times[center - 1 : center + 2],
                poses[center - 1 : center + 2],
                model,
                rear_axle=rear_axle if model == "bicycle" else None,
            )[1]
            predicted = forward(poses[center], est, steps * interval)
            truth = poses[center + steps]
            errors[model] = math.hypot(predicted.x - truth.x, predicted.y - truth.y)
        print(
            "  [criterion 4] position error at 0.4s: "
            + ", ".join(f"{m}={e:.4f}m" for m, e in errors.items())
        )
        assert errors["bicycle"] < errors["unicycle"] < errors["cv"]
        assert errors["bicycle"] < 0.05
        assert errors["cv"] > 0.3
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def _enhancement_deltas(groups, seed, noise, models, iou=0.5):
    cfg = PRESETS["waymo-default"]
    gt = generate_mixed_scene(groups, seed)
    deltas = {}
    for model in models:
        with_params = reattach_params(gt, model)
        det = corrupt(with_params, noise, seed + 1)
        fused = list(fuse_sequence(det, cfg))
        raw_ap = average_precision(gt, det, iou).ap
        fused_ap = average_precision(gt, fused, iou).ap
        deltas[model] = fused_ap - raw_ap
    return gt, deltas


def test_criterion_5_end_to_end_enhancement():
    with criterion(5, "end-to-end enhancement"):
        start = time.perf_counter()
        common = dict(duration=2.0, origin_span=150.0)
        # 50 vehicles split 0.63 / 0.31 / 0.05 stationary / straight / turning
        groups = [
            (TrajectorySpec(model="cv", speed_range=(0.0, 0.0), **common), 32),
            (TrajectorySpec(model="cv", speed_range=(6.0, 14.0), **common), 15),
            (
                TrajectorySpec(
                    model="bicycle", speed_range=(6.0, 14.0), radius_range=(10.0, 24.0), **common
                ),
                3,
            ),
        ]
        noise = CorruptionSpec(
            sigma_xy=0.3,
            sigma_yaw=0.03,
            sigma_speed=0.3,
            sigma_turn=0.03,
            drop_prob=0.1,
            burst_frames=3,
            burst_vehicle_frac=0.2,
        )
        _, deltas = _enhancement_deltas(groups, 2024, noise, ("cv", "unicycle", "bicycle"))
        print(
            "  [criterion 5] AP@0.5 deltas: "
            + ", ".join(f"{m}={d:+.4f}" for m, d in deltas.items())
        )
        for model, delta in deltas.items():
            assert delta > 0.01, f"{model} enhancement {delta} below 0.01"
        elapsed = time.perf_counter() - start
        print(f"  [criterion 5] {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_6_turning_subset_direction():
    with criterion(6, "turning-subset direction"):
        start = time.perf_counter()
        groups = [
            (
                TrajectorySpec(
                    model="bicycle",
                    speed_range=(10.0, 13.0),
                    radius_range=(9.0, 12.0),
                    duration=2.4,
                    origin_span=200.0,
                ),
                16,
            )
        ]
        noise = CorruptionSpec(
            sigma_xy=0.12,
            sigma_yaw=0.08,
            sigma_speed=0.1,
            sigma_turn=0.005,
            drop_prob=0.05,
            burst_frames=4,
            burst_vehicle_frac=0.7,
        )
        gt, deltas = _enhancement_deltas(groups, 31337, noise, ("cv", "unicycle", "bicycle"))
        assert len(strict_turning_tracks(gt)) == 16  # every vehicle is a strict turner
        sign = "positive" if deltas["cv"] >= 0 else "negative"
        print(
            "  [criterion 6] AP@0.5 deltas: "
            + ", ".join(f"{m}={d:+.4f}" for m, d in deltas.items())
            + f" (cv delta is {sign}; reported, not asserted)"
        )
        assert deltas["bicycle"] > deltas["cv"]
        assert deltas["unicycle"] > deltas["cv"]
        elapsed = time.perf_counter() - start
        print(f"  [criterion 6] {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_7_throughput_ceiling(tmp_path, capsys):
    with criterion(7, "fusion throughput ceiling"):
        spec = TrajectorySpec(
            model="cv",
            speed_range=(3.0, 10.0),
            duration=1.1,
            origin_span=650.0,
            min_spacing=8.0,
        )
        gt = generate_mixed_scene([(spec, 200)], seed=404)
        det = corrupt(gt, CorruptionSpec(sigma_xy=0.1, sigma_yaw=0.02), seed=405)
        src = tmp_path / "throughput.jsonl"
        write_frames(src, det)
        out = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(src), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        match = re.search(r"median=([0-9.]+)ms", err)
        assert match, f"latency summary missing: {err!r}"
        median_ms = float(match.group(1))
        print(f"  [criterion 7] cmd_fuse median latency {median_ms:.1f}ms "
              f"(target < 50ms, hard limit 500ms)")
        if median_ms >= 50.0:
            print("  [criterion 7] WARNING: above the 50ms target on this hardware")
        assert median_ms < 500.0


def test_criterion_8_format_roundtrip_and_determinism(tmp_path, capsys):
    with criterion(8, "format round-trip and determinism"):
        def pipeline(tag: str) -> tuple[bytes, bytes, bytes, bytes]:
            gt = tmp_path / f"gt_{tag}.jsonl"
            det = tmp_path / f"det_{tag}.jsonl"
            fused = tmp_path / f"fused_{tag}.jsonl"
            csv = tmp_path / f"report_{tag}.csv"
            assert main([
                "synth", "--output-gt", str(gt), "--output-det", str(det),
                "--seed", "9", "--vehicles", "20", "--duration", "1.5",
                "--sigma-xy", "0.25", "--drop-prob", "0.1",
                "--burst-frames", "3", "--burst-frac", "0.2", "--model", "unicycle",
            ]) == 0
            assert main(["fuse", "--input", str(det), "--output", str(fused),
                         "--preset", "waymo-default"]) == 0
            assert main(["eval", "--gt", str(gt), "--raw", str(det),
                         "--fused", str(fused), "--iou", "0.5", "--output", str(csv)]) == 0
            return gt.read_bytes(), det.read_bytes(), fused.read_bytes(), csv.read_bytes()

        first = pipeline("a")
        second = pipeline("b")
        assert first == second
        # parse(serialize(frame)) is the identity on every artifact
        for path in ("gt_a.jsonl", "det_a.jsonl", "fused_a.jsonl"):
            frames = read_frames(tmp_path / path)
            echo = tmp_path / ("echo_" + path)
            write_frames(echo, frames)
            assert read_frames(echo) == frames
        print("  [criterion 8] synth+fuse+eval byte-identical across runs")
