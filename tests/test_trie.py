"""Token trie semantics and the binary serialization format."""

from __future__ import annotations

import random
import struct

import pytest

from neglink.errors import TrieFormatError
from neglink.trie import (
    MAGIC,
    MAX_DEPTH,
    allowed_next,
    build_trie,
    deserialize,
    load_trie,
    save_trie,
    serialize,
)
from neglink.vocab import Vocab


def make_vocab():
    return Vocab.from_texts(["abcdefghij "])


def encode_all(names, vocab):
    return {n: tuple(vocab.encode_chars(n)) for n in names}


def test_membership_matches_name_set():
    vocab = make_vocab()
    names = ["abc", "abd", "a", "bcd e"]
    trie = build_trie(names, vocab)
    assert trie.size == len(names)
    for n in names:
        assert trie.contains(vocab.encode_chars(n))
    assert not trie.contains(vocab.encode_chars("ab"))
    assert not trie.contains(vocab.encode_chars("abcd"))
    assert not trie.contains([9999])


def test_allowed_next_children_sorted_and_eos_on_terminal():
    vocab = make_vocab()
    trie = build_trie(["ab", "ac", "a"], vocab)
    first = allowed_next(trie, [], vocab.eos_id)
    assert first == [vocab.id("a")]
    nxt = allowed_next(trie, vocab.encode_chars("a"), vocab.eos_id)
    # "a" is terminal, so EOS joins its two continuations; children sorted by id
    want = sorted([vocab.id("b"), vocab.id("c")]) + [vocab.eos_id]
    assert nxt == want


def test_allowed_next_rejects_invalid_prefix():
    vocab = make_vocab()
    trie = build_trie(["ab"], vocab)
    with pytest.raises(ValueError):
        allowed_next(trie, vocab.encode_chars("ba"), vocab.eos_id)


def test_every_prefix_walk_reaches_all_names():
    rng = random.Random(99)
    vocab = make_vocab()
    alphabet = "abcdefghij "
    names = sorted(
        {"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10))).strip() or "a"
         for _ in range(150)}
    )
    trie = build_trie(names, vocab)
    # enumerate the trie by DFS over allowed_next and compare to the name set
    found = []
    stack = [[]]
    while stack:
        prefix = stack.pop()
        for tok in allowed_next(trie, prefix, vocab.eos_id):
            if tok == vocab.eos_id:
                found.append(vocab.decode_chars(prefix))
            else:
                stack.append(prefix + [tok])
    assert sorted(found) == names


def test_round_trip_bytes_stable():
    vocab = make_vocab()
    trie = build_trie(["abc", "abd", "b"], vocab)
    blob = serialize(trie, metadata={"names": 3})
    again = serialize(deserialize(blob), metadata={"names": 3})
    assert blob == again


def test_save_load_preserves_membership(tmp_path):
    rng = random.Random(5)
    vocab = make_vocab()
    alphabet = "abcdefghij"
    names = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8))) for _ in range(80)})
    trie = build_trie(names, vocab)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    for _ in range(500):
        probe = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8)))
        ids = vocab.encode_chars(probe)
        assert loaded.contains(ids) == (probe in set(names))


def test_deserialize_rejects_bad_magic():
    with pytest.raises(TrieFormatError):
        deserialize(b"NOPE" + b"\x00" * 16)


def test_deserialize_rejects_truncation():
    vocab = make_vocab()
    blob = serialize(build_trie(["abc"], vocab))
    for cut in (4, 8, len(blob) - 1):
        with pytest.raises(TrieFormatError):
            deserialize(blob[:cut])


def test_deserialize_rejects_trailing_garbage():
    vocab = make_vocab()
    blob = serialize(build_trie(["abc"], vocab))
    with pytest.raises(TrieFormatError):
        deserialize(blob + b"\x00")


def test_unencodable_name_reports_the_name():
    vocab = make_vocab()
    with pytest.raises(Exception) as err:
        build_trie(["abz!"], vocab)
    assert "abz!" in str(err.value)


def walked_depth(trie) -> int:
    """Longest name by a full walk of the tree: the reference for max_depth()."""
    best, stack = 0, [(trie.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.terminal:
            best = max(best, depth)
        stack.extend((child, depth + 1) for child in node.children.values())
    return best


def test_max_depth_is_recorded_on_insert_and_load():
    vocab = make_vocab()
    trie = build_trie(["ab", "abcdef", "c"], vocab)
    assert trie.max_depth() == walked_depth(trie) == 6
    trie.insert(vocab.encode_chars("abcdef"))  # duplicate
    trie.insert(vocab.encode_chars("abc"))  # shorter, on the existing path
    trie.insert(vocab.encode_chars("j"))  # shorter, new branch
    assert trie.max_depth() == walked_depth(trie) == 6
    trie.insert(vocab.encode_chars("abcdefghij"))
    assert trie.max_depth() == walked_depth(trie) == 10
    loaded = deserialize(serialize(trie))
    assert loaded.max_depth() == walked_depth(loaded) == 10
    assert loaded.size == trie.size == 6
    assert build_trie([], vocab).max_depth() == 0


def chain_stream(levels: int) -> bytes:
    """A trie stream with a single name `levels` tokens long."""
    nodes = [struct.pack("<BI", 0, 1) + struct.pack("<I", 1)] * levels
    return MAGIC + struct.pack("<II", 1, 2) + b"{}" + b"".join(nodes) + struct.pack("<BI", 1, 0)


def test_reader_depth_limit_is_a_format_error():
    assert deserialize(chain_stream(MAX_DEPTH)).max_depth() == MAX_DEPTH
    with pytest.raises(TrieFormatError):
        deserialize(chain_stream(MAX_DEPTH + 1))
    with pytest.raises(TrieFormatError):
        deserialize(chain_stream(5000))


def test_long_name_round_trips(tmp_path):
    vocab = make_vocab()
    long_name = ("abcdefghij" * 150)[:1500]
    trie = build_trie([long_name, "abc"], vocab)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    assert loaded.contains(vocab.encode_chars(long_name))
    assert loaded.max_depth() == 1500
    assert serialize(loaded) == serialize(trie)


def test_name_over_the_depth_limit_is_rejected_at_build():
    vocab = make_vocab()
    with pytest.raises(TrieFormatError) as err:
        build_trie(["a" * (MAX_DEPTH + 1)], vocab)
    assert "aaa" in str(err.value)
