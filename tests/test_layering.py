"""The package's layering: rules -> geometry -> motion -> frames -> {io, fusion, synth, evaluation} -> cli."""

from __future__ import annotations

import ast
from pathlib import Path

import boxfuse

PACKAGE = Path(boxfuse.__file__).parent


def relative_imports(module: str) -> dict[str, set[str]]:
    """The names each `from .x import ...` of a module takes, by the module x they come from."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module or "", set()).update(alias.name for alias in node.names)
    return imports


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_rules_is_the_bottom_layer_and_geometry_builds_on_it_only():
    assert relative_imports("rules") == {}
    assert set(relative_imports("geometry")) == {"rules"}


def test_frames_builds_on_rules_geometry_and_motion_only():
    assert set(relative_imports("frames")) == {"rules", "geometry", "motion"}


def test_io_evaluation_and_synth_do_not_import_the_fusion_algorithm():
    for module in ("io", "evaluation", "synth"):
        assert "frames" in relative_imports(module) and "fusion" not in relative_imports(module), module


def test_no_module_imports_a_private_name_of_frames():
    for module in MODULES:
        private = {name for name in relative_imports(module).get("frames", ()) if name.startswith("_")}
        assert not private, (module, private)


def test_fusion_and_evaluation_take_box_pairs_and_ious_from_the_overlap_search():
    parts = {"candidate_pairs", "Footprints", "iou_can_reach", "circumradius_columns", "corner_columns", "clipped_iou"}
    for module in ("fusion", "evaluation"):
        assert not parts & relative_imports(module).get("geometry", set()), module
