"""The package imports nothing beyond the standard library, numpy and itself.

An install of neglink needs numpy alone. Tests may use more (SciPy is their
independent reference), but `src/neglink` may not.

Within the package, imports follow the layers: the TF-IDF module is a leaf
that the KB builds on, neither evaluation nor stage 2 reaches into
stage 1, the synthetic data generator reaches into neither stage, and the
optimizer reads no run configuration.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neglink"
ALLOWED = {"numpy", "neglink"}


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in sorted({name.split(".")[0] for name in names}):
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    foreign.append(f"{path.stem}: {top}")
    assert foreign == [], f"imports outside the standard library and numpy: {foreign}"


def neglink_imports(module: str) -> set[str]:
    """The neglink modules that `src/neglink/<module>.py` imports."""
    path = PACKAGE / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("neglink"):
            found.add(node.module.partition(".")[2] or "neglink")
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "neglink" for a in node.names if a.name.startswith("neglink"))
    return found


def test_tfidf_is_a_leaf_and_stage_2_and_evaluation_do_not_import_stage_1():
    assert neglink_imports("tfidf") == set()
    assert "tfidf" in neglink_imports("kb")
    for module in ("evaluate", "train_negative"):
        assert "train_positive" not in neglink_imports(module), module


def test_synth_imports_neither_training_stage():
    assert not neglink_imports("synth") & {"train_positive", "train_negative"}


def test_optim_reads_no_config():
    assert "config" not in neglink_imports("optim")
