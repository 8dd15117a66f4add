"""Token trie semantics and the binary serialization format."""

from __future__ import annotations

import random
import struct

import pytest

from neglink.errors import TrieFormatError
from neglink.trie import (
    FORMAT_VERSION,
    MAGIC,
    MAX_DEPTH,
    TokenTrie,
    TrieNode,
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
                found.append("".join(vocab.token(i) for i in prefix))
            else:
                stack.append(prefix + [tok])
    assert sorted(found) == names


def test_round_trip_bytes_stable():
    vocab = make_vocab()
    names = ["b", "abd", "ab", "abc"]
    blob = serialize(build_trie(names, vocab))
    # Names are written in ascending token order, the tree's preorder.
    assert blob == trie_file(*sorted(vocab.encode_chars(n) for n in names))
    again = serialize(deserialize(blob))
    assert blob == again


def test_children_stay_in_ascending_order_whatever_the_insert_order():
    rng = random.Random(17)
    vocab = make_vocab()
    names = sorted({"".join(rng.choice("abcdefghij ") for _ in range(rng.randrange(1, 9))) for _ in range(300)})
    shuffled = names[:]
    rng.shuffle(shuffled)
    assert shuffled != names
    trie = build_trie(shuffled, vocab)
    stack = [trie.root]
    while stack:
        node = stack.pop()
        assert list(node.children) == sorted(node.children)
        stack.extend(node.children.values())
    assert serialize(trie) == serialize(build_trie(names, vocab))


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
    for extra in (b"\x00" * 4, struct.pack("<II", 1, 5)):  # a spare u32, a record past the count
        with pytest.raises(TrieFormatError, match="trailing bytes"):
            deserialize(blob + extra)


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


def trie_file(*names) -> bytes:
    """A format-3 trie file holding `names`, each a sequence of token ids, in the given order."""
    records = [struct.pack(f"<{len(n) + 1}I", len(n), *n) for n in names]
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(names)) + b"".join(records)


def test_reader_depth_limit_is_a_format_error():
    assert deserialize(trie_file([1] * MAX_DEPTH)).max_depth() == MAX_DEPTH
    with pytest.raises(TrieFormatError):
        deserialize(trie_file([1] * (MAX_DEPTH + 1)))
    with pytest.raises(TrieFormatError):
        deserialize(trie_file([1, 2], [1] * 5000))


def test_deserialize_rejects_a_cut_at_a_record_boundary():
    blob = trie_file([1, 2], [3])
    assert deserialize(blob).size == 2
    with pytest.raises(TrieFormatError, match="2 names declared, 1 found"):
        deserialize(blob[:-8])  # drops the whole record [3]


def test_deserialize_rejects_a_partial_u32():
    blob = trie_file([1, 2], [3])
    for extra in (1, 2, 3):
        with pytest.raises(TrieFormatError, match="truncated"):
            deserialize(blob + b"\x00" * extra)
        with pytest.raises(TrieFormatError, match="truncated"):
            deserialize(blob[:-extra])


def test_empty_trie_round_trips():
    blob = serialize(TokenTrie())
    assert blob == MAGIC + struct.pack("<II", FORMAT_VERSION, 0)
    loaded = deserialize(blob)
    assert (loaded.size, loaded.max_depth(), loaded.root) == (0, 0, TrieNode())
    assert serialize(loaded) == blob


def test_save_load_copy_is_node_for_node_equal(tmp_path):
    rng = random.Random(11)
    vocab = make_vocab()
    names = ["", *("".join(rng.choice("abcdefghij ") for _ in range(rng.randrange(1, 12))) for _ in range(200))]
    trie = build_trie(names, vocab)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    # TrieNode is a dataclass, so == compares children and terminal flags recursively.
    assert loaded.root == trie.root
    assert (loaded.size, loaded.depth) == (trie.size, trie.depth)
    assert serialize(loaded) == path.read_bytes()


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
