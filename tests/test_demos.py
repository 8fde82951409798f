"""Every script in demos/ runs to completion and prints its walk-through."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_motion_models.py", "02_weighted_fusion.py", "03_synthetic_benchmark.py",
                                  "04_turning_iou.py", "05_history_length.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
