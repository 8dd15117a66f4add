"""Every public function and method in `src/neglink` has a caller in the program
and takes no boolean switch, and every run setting is read by it.

A public module-level function, or a public method of a module-level class,
must be named, as a whole word, somewhere in `src/neglink/`, `demos/` or
`perfbench/` outside its own definition. One that only tests call is
test-only API: fold it into its caller or let the test build what it needs.
A `RunConfig` field that no module but `config.py` reads is a dead setting,
and one that README.md does not name is an undocumented one.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

from neglink.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neglink"


def _program_files() -> list[Path]:
    return sorted(
        [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    )


def _public_defs(path: Path, source: str):
    """(qualified name, def node) of each public module-level function and each public method of a module-level
    class."""
    tree = ast.parse(source, filename=str(path))
    defs = [(None, node) for node in tree.body]
    defs += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    for owner, node in defs:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield (f"{owner}.{node.name}" if owner else node.name), node


def _public_functions(path: Path, lines: list[str]):
    """(qualified name, name, first line, last line) of each public function and method; lines 1-based, inclusive."""
    for qualified, node in _public_defs(path, "".join(lines)):
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        yield qualified, node.name, first, node.end_lineno


def test_every_public_function_has_a_caller_outside_tests():
    texts = {path: path.read_text(encoding="utf-8").splitlines(keepends=True) for path in _program_files()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, first, last in _public_functions(path, texts[path]):
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = (
                lines[: first - 1] + lines[last:] if other == path else lines
                for other, lines in texts.items()
            )
            if not any(word.search("".join(body)) for body in outside):
                unused.append(f"{path.stem}.{qualified}")
    assert unused == [], f"public functions and methods with no caller outside tests: {unused}"


def test_no_public_function_takes_a_boolean_switch():
    """A parameter that defaults to True or False is a switch: a second code path that the caller picks. Give each
    path its own function, or let the caller drop what it does not need."""
    switches = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in _public_defs(path, path.read_text(encoding="utf-8")):
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            defaults = zip(positional[len(positional) - len(a.defaults):], a.defaults)
            switches += [
                f"{path.stem}.{qualified}({arg.arg}={d.value})"
                for arg, d in [*defaults, *zip(a.kwonlyargs, a.kw_defaults)]
                if isinstance(d, ast.Constant) and isinstance(d.value, bool)
            ]
    assert switches == [], f"public functions with a boolean switch: {switches}"


def test_every_run_setting_is_read_outside_config():
    read = {
        node.attr
        for path in PACKAGE.glob("*.py") if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert unread == [], f"RunConfig fields read nowhere in src/neglink outside config.py: {unread}"


def test_every_run_setting_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [f.name for f in dataclasses.fields(RunConfig) if f"`{f.name}`" not in readme]
    assert missing == [], f"RunConfig fields README.md does not name: {missing}"


def test_every_output_header_is_built_in_one_place():
    """`artifacts.make_header` has one caller, the CLI's header helper, so no command lists its header's inputs by hand."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "make_header"
    ]
    assert len(calls) == 1, f"calls of make_header in src/neglink: {calls}"
