"""Token trie semantics and the trie file format."""

from __future__ import annotations

import hashlib
import json
import random
import struct

import pytest

from neglink import artifacts
from neglink.errors import TrieFormatError, VocabError
from neglink.trie import (
    FORMAT_VERSION,
    MAGIC,
    MAX_DEPTH,
    TokenTrie,
    TrieNode,
    allowed_next,
    build_trie,
    load_trie,
    save_trie,
)
from neglink.vocab import Vocab


def saved(trie, path) -> bytes:
    """The bytes `save_trie` writes for `trie`."""
    save_trie(trie, path)
    return path.read_bytes()


def trie_file(path, *names, lengths=None):
    """A format-4 trie file at `path` holding `names`, each a sequence of token ids, in the given order.

    It is written through the container, so its digest is valid; `lengths` replaces the token counts.
    """
    tokens = [t for name in names for t in name]
    lengths = [len(name) for name in names] if lengths is None else lengths
    artifacts.write_arrays(path, MAGIC, FORMAT_VERSION, {}, {"lengths": lengths, "tokens": tokens}, "<u4")
    return path


def with_data(path, data: bytes) -> None:
    """Replace the array data of the container at `path` by `data`, with a digest that matches it."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    header["data_sha256"] = hashlib.sha256(data).hexdigest()
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + data)


def data_of(path) -> bytes:
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return blob[12 + header_len :]


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
    assert first == vocab.encode_chars("a")
    nxt = allowed_next(trie, vocab.encode_chars("a"), vocab.eos_id)
    # "a" is terminal, so EOS joins its two continuations; children sorted by id
    want = sorted(vocab.encode_chars("bc")) + [vocab.eos_id]
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


def test_round_trip_bytes_stable(tmp_path):
    vocab = make_vocab()
    names = ["b", "abd", "ab", "abc"]
    path = tmp_path / "t.bin"
    blob = saved(build_trie(names, vocab), path)
    # Names are written in ascending token order, the tree's preorder.
    assert blob == trie_file(tmp_path / "ref.bin", *sorted(vocab.encode_chars(n) for n in names)).read_bytes()
    again = saved(load_trie(path), tmp_path / "again.bin")
    assert blob == again


def test_children_stay_in_ascending_order_whatever_the_insert_order(tmp_path):
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
    assert saved(trie, tmp_path / "a.bin") == saved(build_trie(names, vocab), tmp_path / "b.bin")


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


def test_deserialize_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TrieFormatError, match="bad magic"):
        load_trie(path)


def test_deserialize_rejects_truncation(tmp_path):
    vocab = make_vocab()
    blob = saved(build_trie(["abc"], vocab), tmp_path / "t.bin")
    cut_file = tmp_path / "cut.bin"
    for cut in range(len(blob)):
        cut_file.write_bytes(blob[:cut])
        with pytest.raises(TrieFormatError):
            load_trie(cut_file)


def test_deserialize_rejects_trailing_garbage(tmp_path):
    vocab = make_vocab()
    path = tmp_path / "t.bin"
    blob = saved(build_trie(["abc"], vocab), path)
    data = data_of(path)
    for extra in (b"\x00" * 4, struct.pack("<II", 1, 5)):  # a spare u32, a record past the count
        path.write_bytes(blob + extra)
        with pytest.raises(TrieFormatError, match="sha256"):
            load_trie(path)
        with_data(path, data + extra)  # the same bytes behind a digest that matches them
        with pytest.raises(TrieFormatError, match="trailing bytes"):
            load_trie(path)


def test_unencodable_name_reports_the_name():
    vocab = make_vocab()
    with pytest.raises(Exception) as err:
        build_trie(["abz!"], vocab)
    assert "abz!" in str(err.value)


def test_a_negative_token_id_is_a_vocab_error_naming_it():
    trie = TokenTrie()
    with pytest.raises(VocabError, match="token id -3 is negative"):
        trie.insert([2, -3, 4])
    assert trie.size == 0 and not trie.root.children and trie.max_token == -1


def walked_depth(trie) -> int:
    """Longest name by a full walk of the tree: the reference for max_depth()."""
    best, stack = 0, [(trie.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.terminal:
            best = max(best, depth)
        stack.extend((child, depth + 1) for child in node.children.values())
    return best


def test_max_depth_is_recorded_on_insert_and_load(tmp_path):
    vocab = make_vocab()
    trie = build_trie(["ab", "abcdef", "c"], vocab)
    assert trie.max_depth() == walked_depth(trie) == 6
    trie.insert(vocab.encode_chars("abcdef"))  # duplicate
    trie.insert(vocab.encode_chars("abc"))  # shorter, on the existing path
    trie.insert(vocab.encode_chars("j"))  # shorter, new branch
    assert trie.max_depth() == walked_depth(trie) == 6
    trie.insert(vocab.encode_chars("abcdefghij"))
    assert trie.max_depth() == walked_depth(trie) == 10
    save_trie(trie, tmp_path / "t.bin")
    loaded = load_trie(tmp_path / "t.bin")
    assert loaded.max_depth() == walked_depth(loaded) == 10
    assert loaded.size == trie.size == 6
    assert build_trie([], vocab).max_depth() == 0


def test_reader_depth_limit_is_a_format_error(tmp_path):
    path = tmp_path / "t.bin"
    assert load_trie(trie_file(path, [1] * MAX_DEPTH)).max_depth() == MAX_DEPTH
    with pytest.raises(TrieFormatError, match="depth limit"):
        load_trie(trie_file(path, [1] * (MAX_DEPTH + 1)))
    with pytest.raises(TrieFormatError, match="depth limit"):
        load_trie(trie_file(path, [1, 2], [1] * 5000))


def test_deserialize_rejects_a_cut_at_a_record_boundary(tmp_path):
    path = trie_file(tmp_path / "t.bin", [1, 2], [3])
    assert load_trie(path).size == 2
    trie_file(path, [1, 2], lengths=[2, 1])  # the counts still list the record [3], the tokens do not
    with pytest.raises(TrieFormatError, match="2 names of 3 tokens declared, 2 tokens found"):
        load_trie(path)


def test_deserialize_rejects_a_partial_u32(tmp_path):
    path = trie_file(tmp_path / "t.bin", [1, 2], [3])
    data = data_of(path)
    for extra in (1, 2, 3):
        with_data(path, data + b"\x00" * extra)
        with pytest.raises(TrieFormatError, match=f"{extra} trailing bytes"):
            load_trie(path)
        with_data(path, data[:-extra])
        with pytest.raises(TrieFormatError, match="truncated"):
            load_trie(path)


def test_flipped_data_bit_fails_the_digest(tmp_path):
    vocab = make_vocab()
    path = tmp_path / "t.bin"
    blob = bytearray(saved(build_trie(["abc", "bed"], vocab), path))
    blob[-4] ^= 0x01  # the low byte of the last token id: still a well-formed trie without the digest
    path.write_bytes(bytes(blob))
    with pytest.raises(TrieFormatError, match="sha256"):
        load_trie(path)


def test_arrays_other_than_lengths_and_tokens_are_rejected(tmp_path):
    path = tmp_path / "t.bin"
    for arrays in ({"lengths": [1]}, {"lengths": [1], "tokens": [5], "extra": [0]}, {"lengths": [[1]], "tokens": [5]}):
        artifacts.write_arrays(path, MAGIC, FORMAT_VERSION, {}, arrays, "<u4")
        with pytest.raises(TrieFormatError, match="expected the 1-D arrays lengths and tokens"):
            load_trie(path)


def test_empty_trie_round_trips(tmp_path):
    path = tmp_path / "t.bin"
    blob = saved(TokenTrie(), path)
    assert blob == trie_file(tmp_path / "ref.bin").read_bytes()
    assert blob[:8] == MAGIC + struct.pack("<I", FORMAT_VERSION) and data_of(path) == b""
    loaded = load_trie(path)
    assert (loaded.size, loaded.max_depth(), loaded.root) == (0, 0, TrieNode())
    assert saved(loaded, tmp_path / "again.bin") == blob


def test_save_load_copy_is_node_for_node_equal(tmp_path):
    rng = random.Random(11)
    vocab = make_vocab()
    names = ["", *("".join(rng.choice("abcdefghij ") for _ in range(rng.randrange(1, 12))) for _ in range(200))]
    trie = build_trie(names, vocab)
    trie.header = {"inputs": {"kb": "0" * 64}, "tool": "neglink"}
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    # TrieNode is a dataclass, so == compares children and terminal flags recursively.
    assert loaded.root == trie.root
    assert (loaded.size, loaded.depth, loaded.header) == (trie.size, trie.depth, trie.header)
    assert saved(loaded, tmp_path / "again.bin") == path.read_bytes()


def test_long_name_round_trips(tmp_path):
    vocab = make_vocab()
    long_name = ("abcdefghij" * 150)[:1500]
    trie = build_trie([long_name, "abc"], vocab)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    assert loaded.contains(vocab.encode_chars(long_name))
    assert loaded.max_depth() == 1500
    assert saved(loaded, tmp_path / "a.bin") == saved(trie, tmp_path / "b.bin")


def test_name_over_the_depth_limit_is_rejected_at_build():
    vocab = make_vocab()
    with pytest.raises(TrieFormatError) as err:
        build_trie(["a" * (MAX_DEPTH + 1)], vocab)
    assert "aaa" in str(err.value)
