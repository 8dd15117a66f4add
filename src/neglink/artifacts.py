"""Artifact file helpers: headers, digests, canonical JSON lines, and every text read.

Every emitted data file starts with a header recording the tool version,
the run settings and a sha256 digest of each input file (never its
path), so a rerun with identical inputs and config can be byte-compared,
and a reader can check that a file was written for the inputs it is
given. JSON is serialized with sorted keys and fixed separators for the
same reason.

Files are written whole or not at all: each goes to a temporary file in
the target's directory and is renamed over the target once complete, so a
failure partway leaves any earlier file at the path untouched.

Every text input, the user's and the pipeline's own, is read here: decoded
as UTF-8 as a whole (a bad byte fails naming its offset), split into lines
as text-mode `open` splits them, one JSON object per JSON-lines record,
whose values a reader takes with their JSON types checked. Failures raise
the caller's `FormatError` subclass, naming the path and line.

The binary artifacts (checkpoints, the trie) share one container: 4 magic
bytes, the format version and the header length as u32 LE, a JSON header
(sorted keys, compact, ASCII), then each array's raw data in one dtype, C
order, in name order. The header holds the caller's fields, an "arrays"
directory (name, shape, byte offset) and "data_sha256", the digest of the
data, checked before any array is parsed. Its errors do not name the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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


def make_header(config: dict, inputs: dict[str, str | Path]) -> dict:
    return {
        "tool": "neglink",
        "version": __version__,
        "config": config,
        "inputs": {name: sha256_file(path) for name, path in sorted(inputs.items())},
    }


def check_inputs(path, header, options, names) -> None:
    """Raise FormatError naming `path` unless `header` records the file of each of `options`' attributes `names`."""
    recorded = header.get("inputs") if type(header) is dict else None
    for name in sorted(names):
        src = getattr(options, name)
        if type(recorded) is not dict or recorded.get(name) != sha256_file(src):
            raise FormatError(f"{path}: written for another {name} file: its header's digest differs from {src}'s")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside `path` for writing; move it onto `path` when the block completes.

    If the block raises, the temporary file is removed and `path` is left as it was.
    An OSError on the temporary file, on opening it or on a write that
    names no file (a full disk, a file size limit), is raised naming `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None and e.filename in (None, str(tmp)):
            raise type(e)(e.errno, e.strerror, str(path)) from None
        raise


def write_jsonl(path, header: dict, records) -> None:
    with atomic_write(path) as fh:
        fh.write(canonical_json({"header": header}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def write_json(path, header: dict, fields: dict) -> None:
    """One JSON object on one line: `header` under "header", beside `fields`."""
    with atomic_write(path) as fh:
        fh.write(canonical_json({"header": header, **fields}) + "\n")


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


# kind -> (accepted value types, whether a missing key or null is accepted as None, the type every item must have)
_TYPES = {"a string": (str,), "an integer": (int,), "a number": (int, float), "a list": (list,),
          "a list of strings": (list,), "a list of integers": (list,), "an object": (dict,)}
_ITEMS = {"a list of strings": str, "a list of integers": int}
_KINDS = {**{kind: (t, False, _ITEMS.get(kind)) for kind, t in _TYPES.items()},
          **{f"{kind} or null": (t, True, _ITEMS.get(kind)) for kind, t in _TYPES.items()}}


def _values(rec: dict, kinds: dict[str, str], error: type[FormatError], where, lineno: int | None = None) -> list:
    """The values of `kinds`' keys in one record, each checked against its kind; a failure names `where` and `lineno`."""
    values = []
    for key, kind in kinds.items():
        value = rec.get(key)
        types, optional, item_type = _KINDS[kind]
        if value is None:
            ok = optional
        else:
            ok = type(value) in types
            if ok and item_type is not None:
                # A loop: all() over a generator costs more than the rest of the check.
                for item in value:
                    if type(item) is not item_type:
                        ok = False
                        break
        if not ok:
            at = where if lineno is None else f"{where}: line {lineno}"
            if key not in rec:
                raise error(f"{at}: record missing {key!r}")
            raise error(f"{at}: {key!r} must be {kind}, got {canonical_json(value):.60}")
        values.append(value)
    return values


def _objects(path, error: type[FormatError]):
    """(line number, JSON object) for each non-blank line of a JSON-lines file."""
    for lineno, line in read_lines(path, error):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise error(f"{path}: line {lineno}: invalid JSON ({e})") from e
        if type(rec) is not dict:
            raise error(f"{path}: line {lineno}: expected a JSON object, got {canonical_json(rec):.60}")
        yield lineno, rec


def read_records(path, kinds: dict[str, str] | None = None, error: type[FormatError] = FormatError):
    """(line number, record) for each non-blank line of a JSON-lines file; each record must be a JSON object.

    A first line that holds only a "header" key, as `write_jsonl` writes, is
    the file's header and is skipped; any other first line is a record.
    With `kinds` (key -> kind), a record is given as the list of those keys'
    values, each checked against its kind. A kind is one of `_TYPES`, or one
    followed by " or null", which also accepts a missing key; both read as
    None. JSON true and false are not integers or numbers, though Python's
    bool is an int.
    """
    for lineno, rec in _objects(path, error):
        if lineno == 1 and rec.keys() == {"header"}:
            continue
        yield lineno, rec if kinds is None else _values(rec, kinds, error, path, lineno)


def read_jsonl(path, kinds: dict[str, str] | None = None) -> tuple[dict, list]:
    """The header and the records of a file written by `write_jsonl`; `kinds` as in `read_records`."""
    records = _objects(path, FormatError)
    lineno, first = next(records, (None, {}))
    if lineno != 1 or "header" not in first:
        raise FormatError(f"{path}: missing header line")
    if kinds is None:
        return first["header"], [rec for _, rec in records]
    return first["header"], [_values(rec, kinds, FormatError, path, n) for n, rec in records]


def write_arrays(path, magic: bytes, version: int, header: dict, arrays: dict[str, np.ndarray], dtype: str) -> None:
    """Write `header`'s fields and `arrays`, each as `dtype`, in the container laid out above."""
    names = sorted(arrays)
    data = [np.ascontiguousarray(arrays[name], dtype=dtype).tobytes() for name in names]
    offsets = np.cumsum([0] + [len(b) for b in data]).tolist()
    directory = [{"name": n, "shape": list(np.shape(arrays[n])), "offset": o} for n, o in zip(names, offsets)]
    data = b"".join(data)
    header = {**header, "arrays": directory, "data_sha256": hashlib.sha256(data).hexdigest()}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(raw)) + raw)
        fh.write(data)


def read_arrays(path, magic: bytes, version: int, dtype: str, kind: str, error: type[FormatError],
                fields: dict[str, str] | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a container written by `write_arrays`.

    `kind` names the artifact in messages ("checkpoint"). `fields` maps the
    header's own keys to their kinds, as in `read_records`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise error(f"truncated {kind} file")
    if blob[:4] != magic:
        raise error(f"bad magic bytes, not a {kind} file")
    got, header_len = struct.unpack_from("<II", blob, 4)
    if got != version:
        raise error(f"unsupported {kind} format version {got}")
    if len(blob) < 12 + header_len:
        raise error(f"truncated {kind} header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"bad {kind} header: {e}") from e
    kinds = {"arrays": "a list", "data_sha256": "a string", **(fields or {})}
    directory, digest = _values(header if type(header) is dict else {}, kinds, error, f"{kind} header")[:2]
    data = memoryview(blob)[12 + header_len :]
    if hashlib.sha256(data).hexdigest() != digest:
        raise error("array data does not match the header's sha256 digest")
    entry_kinds = {"name": "a string", "shape": "a list of integers", "offset": "an integer"}
    itemsize, arrays, end = np.dtype(dtype).itemsize, {}, 0
    for entry in directory:
        name, shape, offset = _values(entry if type(entry) is dict else {}, entry_kinds, error, f"{kind} array entry")
        if name in arrays:
            raise error(f"array {name} listed twice")
        size = math.prod(shape)
        if offset != end or min(shape, default=0) < 0 or offset + size * itemsize > len(data):
            raise error(f"array {name}: bad shape or offset, or truncated data")
        try:
            arrays[name] = np.frombuffer(data, dtype=dtype, count=size, offset=offset).reshape(shape).copy()
        except ValueError as e:  # a shape numpy cannot hold: over 64 dimensions, or one too large with a zero
            raise error(f"array {name}: bad shape: {e}") from None
        end = offset + size * itemsize
    if end != len(data):
        raise error(f"{len(data) - end} trailing bytes after arrays")
    return header, arrays
