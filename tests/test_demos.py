"""Every demo imports: a demo naming a removed or renamed function fails here.

Each `demos/*.py` is loaded as a module, which runs its imports and
module-level definitions but not `main()`. The demos that train nothing
(01 and 02, under a second each) also run `main()`, so a removed function
that they call inside it fails here too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", [p for p in DEMOS if p.stem[:2] in ("01", "02")], ids=lambda p: p.stem)
def test_untrained_demo_runs(path, capsys):
    _load(path).main()
    assert "===" in capsys.readouterr().out
