"""Artifact file helpers: headers, digests, canonical JSON lines, and every text read.

Every emitted data file starts with a header line recording the tool
version, the run seed, and a sha256 digest of each input file, so a rerun
with identical inputs and config can be byte-compared. JSON is serialized
with sorted keys and fixed separators for the same reason.

Files are written whole or not at all: each goes to a temporary file in
the target's directory and is renamed over the target once complete, so a
failure partway leaves any earlier file at the path untouched.

Every text input, the user's and the pipeline's own, is read here: decoded
as UTF-8 as a whole (a bad byte fails naming its offset), split into lines
as text-mode `open` splits them, one JSON object per JSON-lines record,
whose values a reader takes with their JSON types checked. Failures raise
the caller's `FormatError` subclass, naming the path and line.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import FormatError


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def make_header(seed: int, inputs: dict[str, str | Path]) -> dict:
    return {
        "tool": "neglink",
        "version": __version__,
        "seed": seed,
        "inputs": {name: sha256_file(path) for name, path in sorted(inputs.items())},
    }


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside `path` for writing; move it onto `path` when the block completes.

    If the block raises, the temporary file is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path, header: dict, records) -> None:
    with atomic_write(path) as fh:
        fh.write(canonical_json({"header": header}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def read_lines(path, error: type[FormatError] = FormatError):
    """(line number, line without its end) for each non-blank line of the UTF-8 text file at `path`.

    Lines end where text-mode `open` ends them: at LF, CRLF or a lone CR.
    `str.splitlines` would also split at U+2028 and U+0085, which
    canonical_json writes raw inside strings.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}") from e
    del data
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        if line.strip():
            yield lineno, line


# kind -> (accepted value types, whether a missing key or null is accepted as None, whether items must be strings)
_TYPES = {"a string": (str,), "an integer": (int,), "a number": (int, float), "a list of strings": (list,)}
_KINDS = {**{kind: (t, False, t == (list,)) for kind, t in _TYPES.items()},
          **{f"{kind} or null": (t, True, t == (list,)) for kind, t in _TYPES.items()}}


def _values(path, lineno: int, rec: dict, kinds: dict[str, str], error: type[FormatError]) -> list:
    """The values of `kinds`' keys in one record, each checked against its kind."""
    values = []
    for key, kind in kinds.items():
        value = rec.get(key)
        types, optional, strings = _KINDS[kind]
        if value is None:
            ok = optional
        else:
            ok = type(value) in types
            if ok and strings:
                # A loop: all() over a generator costs more than the rest of the check.
                for item in value:
                    if type(item) is not str:
                        ok = False
                        break
        if not ok:
            if key not in rec:
                raise error(f"{path}: line {lineno}: record missing {key!r}")
            raise error(f"{path}: line {lineno}: {key!r} must be {kind}, got {canonical_json(value):.60}")
        values.append(value)
    return values


def read_records(path, kinds: dict[str, str] | None = None, error: type[FormatError] = FormatError):
    """(line number, record) for each non-blank line of a JSON-lines file; each record must be a JSON object.

    With `kinds` (key -> kind), a record is given as the list of those keys'
    values, each checked against its kind. A kind is one of `_TYPES`, or one
    followed by " or null", which also accepts a missing key; both read as
    None. JSON true and false are not integers or numbers, though Python's
    bool is an int.
    """
    for lineno, line in read_lines(path, error):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise error(f"{path}: line {lineno}: invalid JSON ({e})") from e
        if type(rec) is not dict:
            raise error(f"{path}: line {lineno}: expected a JSON object, got {canonical_json(rec):.60}")
        yield lineno, rec if kinds is None else _values(path, lineno, rec, kinds, error)


def read_jsonl(path, kinds: dict[str, str] | None = None) -> tuple[dict, list]:
    """The header and the records of a file written by `write_jsonl`; `kinds` as in `read_records`."""
    records = read_records(path)
    lineno, first = next(records, (None, {}))
    if lineno != 1 or "header" not in first:
        raise FormatError(f"{path}: missing header line")
    if kinds is None:
        return first["header"], [rec for _, rec in records]
    return first["header"], [_values(path, n, rec, kinds, FormatError) for n, rec in records]
