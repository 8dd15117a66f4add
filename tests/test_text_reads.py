"""Only `artifacts.py` opens files to read text; every other module reads through it.

How a text input is decoded, split into lines and parsed, and how a failure
is reported, is decided once in `artifacts.py`. An `open(...)` elsewhere in
`src/neglink/` may read bytes ("rb") or write; one that reads text, or a
`Path.read_text`, would bring back a reader of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neglink"


def _mode(call: ast.Call):
    """The mode an `open` call passes, "r" when it passes none, or None when it is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def text_reads(source: str) -> list[int]:
    """Line numbers of the calls in `source` that open a file to read text."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "read_text":
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node)
            if mode is None or not ("b" in mode or set(mode) & set("wax")):
                lines.append(node.lineno)
    return lines


def test_the_scan_tells_text_reads_from_binary_reads_and_writes():
    source = """
open(p)
open(p, encoding="utf-8")
open(p, "r")
open(p, mode)
Path(p).read_text()
open(p, "rb")
open(p, mode="wb")
open(p, "w", encoding="utf-8")
open(p, "a")
"""
    assert text_reads(source) == [2, 3, 4, 5, 6]


def test_only_artifacts_reads_text():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "artifacts.py" and (lines := text_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}, f"text reads outside artifacts.py (module: lines): {found}"
