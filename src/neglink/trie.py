"""Prefix tree over tokenized KB names, used to mask decoder outputs.

Every root-to-terminal path spells exactly one KB name. During decoding
the set of legal next tokens at a prefix is the node's children, plus EOS
when the node is terminal, so any sequence the decoder can finish is a KB
name and every KB name remains reachable.

The trie records its depth (the token count of its longest name) as names
are inserted and as a stream is read, so `max_depth()`, called once per
beam search, costs nothing. Names longer than MAX_DEPTH tokens are
rejected on insert, and the reader rejects deeper nesting, so every trie
that can be built can also be written and read back.

Serialization: magic b"ATRI", format version u32 LE, u32 metadata length +
UTF-8 JSON metadata, then a preorder node stream. Each node is
[u8 terminal][u32 child count] followed by its children in ascending
token-id order, each as [u32 token id][node]. All integers little-endian.
Writer and reader walk the tree with an explicit stack, so depth is bounded
by MAX_DEPTH, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from .errors import TrieFormatError, VocabError
from .vocab import Vocab

MAGIC = b"ATRI"
FORMAT_VERSION = 1
MAX_DEPTH = 4096  # longest name, in tokens, that a trie may hold


@dataclass
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    terminal: bool = False


@dataclass
class TokenTrie:
    root: TrieNode = field(default_factory=TrieNode)
    size: int = 0  # number of names inserted
    # Token count of the longest name; kept by insert and set by the reader only.
    depth: int = field(default=0, init=False)

    def insert(self, token_ids) -> None:
        token_ids = list(token_ids)
        if len(token_ids) > MAX_DEPTH:
            raise TrieFormatError(f"{len(token_ids)} tokens, over the trie depth limit of {MAX_DEPTH}")
        node = self.root
        for t in token_ids:
            node = node.children.setdefault(int(t), TrieNode())
        if not node.terminal:
            node.terminal = True
            self.size += 1
        self.depth = max(self.depth, len(token_ids))

    def node_at(self, prefix) -> TrieNode:
        node = self.root
        for t in prefix:
            child = node.children.get(int(t))
            if child is None:
                raise ValueError(f"prefix {tuple(prefix)} is not a path in the trie")
            node = child
        return node

    def contains(self, token_ids) -> bool:
        node = self.root
        for t in token_ids:
            node = node.children.get(int(t))
            if node is None:
                return False
        return node.terminal

    def max_depth(self) -> int:
        """Length of the longest name (token count)."""
        return self.depth


def build_trie(names: list[str], vocab: Vocab) -> TokenTrie:
    """Trie over the character tokenizations of `names`."""
    trie = TokenTrie()
    for name in names:
        try:
            trie.insert(vocab.encode_chars(name))
        except (VocabError, TrieFormatError) as e:
            shown = name if len(name) <= 60 else name[:57] + "..."
            raise type(e)(f"name {shown!r}: {e}") from None
    return trie


def allowed_next(trie: TokenTrie, prefix, eos_id: int) -> list[int]:
    """Legal next token ids after `prefix`, ascending; EOS iff terminal."""
    node = trie.node_at(prefix)
    out = sorted(node.children)
    if node.terminal:
        out.append(eos_id)
    return out


def _write_nodes(root: TrieNode, chunks: list[bytes]) -> None:
    """Append the preorder node stream under `root`."""
    stack: list[tuple[int | None, TrieNode]] = [(None, root)]
    while stack:
        token_id, node = stack.pop()
        if token_id is not None:
            chunks.append(struct.pack("<I", token_id))
        chunks.append(struct.pack("<BI", 1 if node.terminal else 0, len(node.children)))
        # Pushed in descending order so children pop in ascending order.
        for child_id in sorted(node.children, reverse=True):
            stack.append((child_id, node.children[child_id]))


def serialize(trie: TokenTrie, metadata: dict | None = None) -> bytes:
    meta = json.dumps(metadata or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(meta)), meta]
    _write_nodes(trie.root, chunks)
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise TrieFormatError("truncated trie stream")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TrieFormatError("truncated trie stream")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def _read_node(r: _Reader) -> tuple[TrieNode, int]:
    """One node header: (childless node, number of children that follow)."""
    terminal, n_children = r.take("<BI")
    if terminal not in (0, 1):
        raise TrieFormatError(f"bad terminal flag {terminal}")
    return TrieNode(terminal=bool(terminal)), n_children


def _read_nodes(r: _Reader) -> TokenTrie:
    """Read the preorder node stream, counting names and recording the depth."""
    root, n_children = _read_node(r)
    size, depth = int(root.terminal), 0
    # One frame per node on the current path: [node, children left, last child id].
    stack = [[root, n_children, -1]]
    while stack:
        frame = stack[-1]
        if frame[1] == 0:
            stack.pop()
            continue
        (token_id,) = r.take("<I")
        if token_id <= frame[2]:
            raise TrieFormatError("child token ids not strictly ascending")
        frame[1] -= 1
        frame[2] = token_id
        child_depth = len(stack)
        if child_depth > MAX_DEPTH:
            raise TrieFormatError(f"trie nesting deeper than {MAX_DEPTH}")
        child, n_children = _read_node(r)
        frame[0].children[token_id] = child
        if child.terminal:
            size += 1
            depth = max(depth, child_depth)
        stack.append([child, n_children, -1])
    trie = TokenTrie(root=root, size=size)
    trie.depth = depth
    return trie


def deserialize(data: bytes) -> TokenTrie:
    r = _Reader(data)
    if r.take_bytes(4) != MAGIC:
        raise TrieFormatError("bad magic bytes, not a trie file")
    (version,) = r.take("<I")
    if version != FORMAT_VERSION:
        raise TrieFormatError(f"unsupported trie format version {version}")
    (meta_len,) = r.take("<I")
    meta = r.take_bytes(meta_len)
    try:
        json.loads(meta.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TrieFormatError(f"bad trie metadata: {e}") from e
    trie = _read_nodes(r)
    if r.pos != len(r.data):
        raise TrieFormatError(f"{len(r.data) - r.pos} trailing bytes after node stream")
    return trie


def save_trie(trie: TokenTrie, path, metadata: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(trie, metadata))


def load_trie(path) -> TokenTrie:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
