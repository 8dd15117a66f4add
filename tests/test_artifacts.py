"""Artifact headers, digests, and canonical JSON lines."""

from __future__ import annotations

import hashlib
import json

import pytest

from neglink import __version__
from neglink.artifacts import atomic_write, canonical_json, make_header, read_jsonl, sha256_file, write_jsonl
from neglink.errors import FormatError


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"some bytes\x00\xff")
    assert sha256_file(p) == hashlib.sha256(b"some bytes\x00\xff").hexdigest()


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1.5, None, "x"]})
    assert s == '{"a":[1.5,null,"x"],"b":1}'
    # float serialization must be stable across calls
    assert canonical_json(0.1 + 0.2) == canonical_json(0.30000000000000004)


def test_make_header_contents(tmp_path):
    f = tmp_path / "in.txt"
    f.write_text("data")
    header = make_header(7, {"kb": f})
    assert header["tool"] == "neglink"
    assert header["version"] == __version__
    assert header["seed"] == 7
    assert header["inputs"]["kb"] == sha256_file(f)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "a.jsonl"
    header = {"tool": "neglink", "seed": 0}
    records = [{"x": 1}, {"y": [2, 3]}]
    write_jsonl(path, header, iter(records))
    got_header, got_records = read_jsonl(path)
    assert got_header == header
    assert got_records == records


def test_write_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    header = {"seed": 1}
    records = [{"b": 2, "a": 1}]
    write_jsonl(p1, header, records)
    write_jsonl(p2, header, records)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[1] == '{"a":1,"b":2}'


def test_read_requires_header(tmp_path):
    p = tmp_path / "no_header.jsonl"
    p.write_text(json.dumps({"x": 1}) + "\n")
    with pytest.raises(FormatError):
        read_jsonl(p)


def test_read_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"header":{}}\n{oops\n')
    with pytest.raises(FormatError) as err:
        read_jsonl(p)
    assert "line 2" in str(err.value)


def test_failed_write_leaves_the_old_file_and_no_partial_one(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, {"seed": 1}, [{"a": 1}])
    before = path.read_bytes()

    def records():
        yield {"a": 2}
        raise RuntimeError("failed partway")

    with pytest.raises(RuntimeError, match="partway"):
        write_jsonl(path, {"seed": 2}, records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    with pytest.raises(RuntimeError):
        write_jsonl(tmp_path / "new.jsonl", {"seed": 2}, records())
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old")
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
