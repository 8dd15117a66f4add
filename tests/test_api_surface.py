"""Every public function in `src/neglink` has a caller in the program.

A public module-level function must be named, as a whole word, somewhere in
`src/neglink/`, `demos/` or `perfbench/` outside its own definition. A
function that only tests call is test-only API: fold it into its caller or
let the test build what it needs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neglink"


def _program_files() -> list[Path]:
    return sorted(
        [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    )


def _public_functions(path: Path, lines: list[str]):
    """(name, first line, last line) of each public module-level function; 1-based, inclusive."""
    tree = ast.parse("".join(lines), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, first, node.end_lineno


def test_every_public_function_has_a_caller_outside_tests():
    texts = {path: path.read_text(encoding="utf-8").splitlines(keepends=True) for path in _program_files()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_functions(path, texts[path]):
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = (
                lines[: first - 1] + lines[last:] if other == path else lines
                for other, lines in texts.items()
            )
            if not any(word.search("".join(body)) for body in outside):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"public functions with no caller outside tests: {unused}"
