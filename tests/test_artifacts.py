"""Artifact headers, digests, canonical JSON lines, the text readers and the binary array container."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import struct

import numpy as np
import pytest

from neglink import __version__, artifacts
from neglink.artifacts import (
    atomic_write,
    canonical_json,
    make_header,
    read_jsonl,
    read_lines,
    read_arrays,
    read_records,
    sha256_file,
    write_arrays,
    write_jsonl,
)
from neglink.errors import FormatError, KBFormatError


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
    header = make_header({"seed": 7}, {"kb": f})
    assert header["tool"] == "neglink"
    assert header["version"] == __version__
    assert header["config"] == {"seed": 7}
    assert header["inputs"] == {"kb": sha256_file(f)}
    assert set(header) == {"tool", "version", "config", "inputs"}  # digests and settings only, no paths


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


@pytest.mark.parametrize("where", ["missing-directory", "onto-a-directory"])
def test_a_failed_write_names_the_path_asked_for(tmp_path, where):
    path = tmp_path / "nodir" / "s.ckpt" if where == "missing-directory" else tmp_path / "adir"
    if where == "onto-a-directory":
        path.mkdir()
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(OSError) as err:
        write_jsonl(path, {"seed": 1}, [{"a": 1}])
    assert err.value.filename == str(path) and ".tmp" not in str(err.value)
    assert str(err.value).endswith(f": {str(path)!r}")
    assert sorted(tmp_path.rglob("*")) == before


class FailsPartway:
    """A file whose second write fails as a write over the file size limit does: an OSError naming no file."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        return self.fh.write(data)


@pytest.mark.parametrize("write", [
    lambda path: write_jsonl(path, {"seed": 1}, [{"a": 1}]),
    lambda path: write_arrays(path, b"TEST", 1, {}, {"x": np.zeros(3)}, "<f8"),
], ids=["jsonl", "arrays"])
def test_a_write_that_fails_partway_names_the_path(tmp_path, monkeypatch, write):
    real_open = open
    monkeypatch.setattr(artifacts, "open", lambda *a, **kw: FailsPartway(real_open(*a, **kw)), raising=False)
    path = tmp_path / "out"
    with pytest.raises(OSError) as err:
        write(path)
    assert err.value.errno == errno.EFBIG and err.value.filename == str(path)
    assert str(err.value) == f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(path)!r}"
    assert list(tmp_path.iterdir()) == []


def test_invalid_utf8_raises_the_callers_error_naming_the_byte_offset(tmp_path):
    p = tmp_path / "latin1.jsonl"
    data = b'{"header":{}}\n{"name":"caf\xe9"}\n'
    p.write_bytes(data)
    where = f"0xe9 at offset {data.index(0xE9)}"
    for read in (lambda: list(read_lines(p, KBFormatError)), lambda: list(read_records(p, None, KBFormatError))):
        with pytest.raises(KBFormatError) as err:
            read()
        assert str(p) in str(err.value) and where in str(err.value)
    with pytest.raises(FormatError, match=where):
        read_jsonl(p)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_lines_read_as_text_mode_open_reads_them(tmp_path, newline):
    p = tmp_path / "lines.txt"
    p.write_bytes(newline.join(["a\tb", "", "  ", "c", "d"]).encode("utf-8"))
    with open(p, encoding="utf-8") as fh:
        want = [(n, line.removesuffix("\n")) for n, line in enumerate(fh, start=1) if line.strip()]
    assert list(read_lines(p)) == want == [(1, "a\tb"), (4, "c"), (5, "d")]


def test_a_string_holding_line_separators_stays_one_record(tmp_path):
    p = tmp_path / "seps.jsonl"
    records = [{"name": "a\u2028b\x85c\u2029d"}, {"name": "e"}]
    write_jsonl(p, {"seed": 0}, records)
    assert "\u2028" in p.read_text(encoding="utf-8")  # written raw, not escaped
    assert read_jsonl(p) == ({"seed": 0}, records)


def test_records_must_be_json_objects(tmp_path):
    p = tmp_path / "list.jsonl"
    p.write_text('{"header":{}}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: expected a JSON object"):
        read_jsonl(p)


def test_optional_keys_may_be_missing_or_null(tmp_path):
    p = tmp_path / "opt.jsonl"
    p.write_text('{"name":"x"}\n{"fold":null,"name":"x","targets":null}\n{"fold":2,"name":"x","targets":["y"]}\n')
    kinds = {"name": "a string", "fold": "an integer or null", "targets": "a list of strings or null"}
    assert list(read_records(p, kinds)) == [(1, ["x", None, None]), (2, ["x", None, None]), (3, ["x", 2, ["y"]])]


def test_read_records_skips_a_header_only_first_line(tmp_path):
    p = tmp_path / "headed.jsonl"
    write_jsonl(p, {"seed": 0}, [{"name": "x"}, {"header": {}}])
    assert list(read_records(p)) == [(2, {"name": "x"}), (3, {"header": {}})]
    p.write_text('{"header":{},"name":"y"}\n', encoding="utf-8")
    assert list(read_records(p, {"name": "a string"})) == [(1, ["y"])]


@pytest.mark.parametrize("rec, message", [
    ({}, "line 2: record missing 'name'"),
    ({"name": None}, "line 2: 'name' must be a string, got null"),
    ({"name": "x", "score": True}, "line 2: 'score' must be a number or null, got true"),
    ({"name": "x", "names": ["a", 5]}, "line 2: 'names' must be a list of strings or null, got [\"a\",5]"),
])
def test_field_mismatches_name_the_line_key_and_kind(tmp_path, rec, message):
    kinds = {"name": "a string", "score": "a number or null", "names": "a list of strings or null"}
    bare, headed = tmp_path / "bare.jsonl", tmp_path / "headed.jsonl"
    bare.write_text("\n" + canonical_json(rec) + "\n", encoding="utf-8")
    write_jsonl(headed, {"seed": 0}, [rec])
    with pytest.raises(KBFormatError) as err:
        list(read_records(bare, kinds, KBFormatError))
    assert str(err.value) == f"{bare}: {message}"
    with pytest.raises(FormatError) as err:
        read_jsonl(headed, kinds)
    assert str(err.value) == f"{headed}: {message}"


def test_array_container_round_trips_and_types_the_header_fields(tmp_path):
    path = tmp_path / "a.bin"
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([], dtype=np.float64), "c": np.array(2.5)}
    write_arrays(path, b"TEST", 7, {"tag": "x\u00e9"}, arrays, "<f8")
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    assert blob[:8] == b"TEST" + struct.pack("<I", 7) and blob[12 : 12 + header_len].isascii()
    header, got = read_arrays(path, b"TEST", 7, "<f8", "test", KBFormatError, {"tag": "a string"})
    assert header["tag"] == "x\u00e9" and [e["name"] for e in header["arrays"]] == ["a", "b", "c"]
    assert header["data_sha256"] == hashlib.sha256(blob[12 + header_len :]).hexdigest()
    assert all(np.array_equal(got[name], a) and got[name].shape == a.shape for name, a in arrays.items())
    with pytest.raises(KBFormatError, match="^test header: 'tag' must be an integer, got \"x\u00e9\"$"):
        read_arrays(path, b"TEST", 7, "<f8", "test", KBFormatError, {"tag": "an integer"})
    with pytest.raises(KBFormatError, match="^test header: record missing 'name'$"):
        read_arrays(path, b"TEST", 7, "<f8", "test", KBFormatError, {"name": "a string"})
    with pytest.raises(KBFormatError, match="^unsupported test format version 7$"):
        read_arrays(path, b"TEST", 8, "<f8", "test", KBFormatError)


def _rewrite_directory(path, edit) -> None:
    """Apply `edit` to the array directory of the container at `path`, keeping its data digest valid."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    edit(header["arrays"])
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :])


@pytest.mark.parametrize("edit, message", [
    (lambda d: d[1].update(offset=16), "array y: bad shape or offset, or truncated data"),
    (lambda d: d[1].update(shape=[-2]), "array y: bad shape or offset, or truncated data"),
    (lambda d: d[1].update(shape=[-2, -1]), "array y: bad shape or offset, or truncated data"),
    (lambda d: d[1].update(shape=[0, 2**70]), "array y: bad shape: Maximum allowed dimension exceeded"),
    (lambda d: d[1].update(shape=[0] * 70), "array y: bad shape: maximum supported dimension"),
    (lambda d: d[1].update(shape=[True]), "'shape' must be a list of integers"),
    (lambda d: d.__setitem__(1, "y"), "test array entry: record missing 'name'"),
    (lambda d: d[1].update(name="x"), "array x listed twice"),
    (lambda d: d[1].update(shape=[1]), "4 trailing bytes after arrays"),
])
def test_array_container_checks_its_directory(tmp_path, edit, message):
    path = tmp_path / "a.bin"
    write_arrays(path, b"TEST", 1, {}, {"x": [1, 2], "y": [3, 4]}, "<u4")
    _rewrite_directory(path, edit)
    with pytest.raises(FormatError, match=message):
        read_arrays(path, b"TEST", 1, "<u4", "test", FormatError)
