"""Artifact file helpers: headers, digests, canonical JSON lines.

Every emitted data file starts with a header line recording the tool
version, the run seed, and a sha256 digest of each input file, so a rerun
with identical inputs and config can be byte-compared. JSON is serialized
with sorted keys and fixed separators for the same reason.

Files are written whole or not at all: each goes to a temporary file in
the target's directory and is renamed over the target once complete, so a
failure partway leaves any earlier file at the path untouched.
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


def read_jsonl(path) -> tuple[dict, list[dict]]:
    header = None
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}: line {lineno}: invalid JSON ({e})") from e
            if lineno == 1 and isinstance(rec, dict) and "header" in rec:
                header = rec["header"]
                continue
            records.append(rec)
    if header is None:
        raise FormatError(f"{path}: missing header line")
    return header, records
