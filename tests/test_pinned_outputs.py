"""SHA-256 pins of the fuse, eval and traj-compare outputs on the pinned synth scenes.

Like PINNED_SCENES in test_synth.py, the digests depend on numpy's SIMD
kernels, so a machine that picks other kernels may need them recorded anew;
on one machine, a digest that changes means an output byte changed.
"""

from __future__ import annotations

import hashlib

import pytest

from boxfuse.cli import main
from test_synth import PINNED_SCENE_FLAGS, frame_digest, run_synth

# Frame lines of `boxfuse fuse --preset P` on each pinned scene's detections;
# multi-method covers the divide strategy.
PINNED_FUSE = {
    ("bicycle", "multi-method"): "5d57551e8257999b4df5dce30e96539df557cc4699d71fd0c808cf47465bc7dd",
    ("bicycle", "nuscenes"): "25bf2c41c8632de584516164dbaadbcff4f0a0ed0411418fa4a12d22b468f16d",
    ("bicycle", "waymo-default"): "cbb573e12daf416e2984201f21a58ad58e97660f743c06433728feb8f75699f4",
    ("cv", "multi-method"): "8a0cd08ef4c21628e1a88b4c4520cf3da97270eb2555289ea43d77b16cad417c",
    ("cv", "nuscenes"): "6d858c713bef0223a8ef9d148ba83dd0d3442e32e4241ffdf27f63115c72284f",
    ("cv", "waymo-default"): "c05f10f4d11e969cd7854306a3a52127fbb7384057b581508833a0f8d6864bf0",
    ("unicycle", "multi-method"): "64b6f285263b43981cc2a432eb07a177151921201eafaf2f2b0e0940f4cd4014",
    ("unicycle", "nuscenes"): "c5f7d99d23a3689e1367c52ad639c0ac94f44a4ea745aa8e4441ba2e18dc0eb4",
    ("unicycle", "waymo-default"): "b54be700d87029664cf7b3b29837ecb0d6d4549a539de44404cb932efbc4d65b",
}

# `boxfuse eval` text and CSV of the pinned bicycle scene, fused with the default preset
PINNED_EVAL = {
    "text": "d080574ba25b3953c846a25f5c7999ea74499e4701eef5f9f796203c64007a2c",
    "csv": "9fa6904847e2c3f58b920507639fb742c136a1b44483bccaeb6bdfa19b3a179c",
}

# `boxfuse traj-compare` CSV at its defaults
PINNED_TRAJ_COMPARE = "252d01eac9063f18d2d0b4cd05f60b1075bea30e8d87beba8909fbe86c2e8b53"

# `boxfuse traj-compare` CSV of a straight cv and a right-turning unicycle trajectory
PINNED_TRAJ_COMPARE_GEN = {
    ("cv", "0"): "667a339dadc45fe218eccff32cc5a913da790d50cd62519f2ca6961e4fd3e615",
    ("unicycle", "-15"): "bc04e2f5ecb8447d9a60ca669e17dd11fb45b5be7cabed5deaeb108580631315",
}


def fuse(tmp_path, det, preset):
    out = tmp_path / f"fused-{preset}.jsonl"
    assert main(["fuse", "--input", str(det), "--output", str(out), "--preset", preset]) == 0
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("model,preset", sorted(PINNED_FUSE))
def test_fuse_bytes_are_pinned(tmp_path, model, preset):
    _, det = run_synth(tmp_path, "--model", model, *PINNED_SCENE_FLAGS)
    assert frame_digest(fuse(tmp_path, det, preset)) == PINNED_FUSE[model, preset]


def test_eval_bytes_are_pinned(tmp_path, capsys):
    gt, det = run_synth(tmp_path, "--model", "bicycle", *PINNED_SCENE_FLAGS)
    fused = fuse(tmp_path, det, "waymo-default")
    csv = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--raw", str(det), "--fused", str(fused), "--output", str(csv)]) == 0
    text = capsys.readouterr().out
    assert {"text": sha256(text.encode()), "csv": sha256(csv.read_bytes())} == PINNED_EVAL


def test_traj_compare_bytes_are_pinned(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["traj-compare", "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == PINNED_TRAJ_COMPARE


@pytest.mark.parametrize("gen_model,radius", sorted(PINNED_TRAJ_COMPARE_GEN))
def test_traj_compare_bytes_are_pinned_per_generator(tmp_path, gen_model, radius):
    out = tmp_path / "traj.csv"
    assert main(["traj-compare", "--gen-model", gen_model, "--radius", radius, "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == PINNED_TRAJ_COMPARE_GEN[gen_model, radius]


def test_traj_compare_cv_runs_straight_without_a_radius(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["traj-compare", "--gen-model", "cv", "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == PINNED_TRAJ_COMPARE_GEN["cv", "0"]
