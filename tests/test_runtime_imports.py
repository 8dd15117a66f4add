"""The package imports nothing beyond the standard library, numpy and itself.

An install of neglink needs numpy alone. Tests may use more (SciPy is their
independent reference), but `src/neglink` may not.
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
