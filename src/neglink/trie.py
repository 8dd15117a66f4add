"""Prefix tree over tokenized KB names, used to mask decoder outputs.

Every root-to-terminal path spells exactly one KB name. During decoding
the set of legal next tokens at a prefix is the node's children, plus EOS
when the node is terminal, so any sequence the decoder can finish is a KB
name and every KB name remains reachable.

`insert` is the only way a trie is built, whether from KB names or from a
file. It records the depth (the token count of its longest name), so
`max_depth()`, called once per beam search, costs nothing. It also records
the largest token id, which the CLI checks against the cache vocabulary,
and it rejects names longer than MAX_DEPTH tokens. It keeps every node's
children in ascending token order, whatever order the names come in, so
readers iterate `children` directly instead of sorting it.

Serialization (format 3), all integers u32 little-endian: magic b"ATRI",
the format version, the name count, then each name as its token count
followed by its token ids. Names are written in ascending token order, the
tree's preorder, so save -> load -> save is byte-identical. The reader
inserts every record, so a loaded trie is exactly one `insert` could build.
The writer walks the tree with an explicit stack, so a name's length is
bounded by MAX_DEPTH, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .artifacts import atomic_write
from .errors import TrieFormatError, VocabError
from .vocab import Vocab

MAGIC = b"ATRI"
FORMAT_VERSION = 3
MAX_DEPTH = 4096  # longest name, in tokens, that a trie may hold


@dataclass(slots=True)
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    terminal: bool = False


@dataclass
class TokenTrie:
    root: TrieNode = field(default_factory=TrieNode, init=False)
    size: int = field(default=0, init=False)  # number of names inserted
    depth: int = field(default=0, init=False)  # token count of the longest name
    max_token: int = field(default=-1, init=False)  # largest token id inserted, -1 for none

    def insert(self, token_ids) -> None:
        token_ids = [int(t) for t in token_ids]
        if len(token_ids) > MAX_DEPTH:
            raise TrieFormatError(f"{len(token_ids)} tokens, over the trie depth limit of {MAX_DEPTH}")
        node = self.root
        for t in token_ids:
            children = node.children
            child = children.get(t)
            if child is None:
                in_order = not children or t > next(reversed(children))
                child = children[t] = TrieNode()
                if not in_order:
                    node.children = dict(sorted(children.items()))
            node = child
        if not node.terminal:
            node.terminal = True
            self.size += 1
        self.depth = max(self.depth, len(token_ids))
        self.max_token = max(self.max_token, max(token_ids, default=-1))

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
    out = list(node.children)
    if node.terminal:
        out.append(eos_id)
    return out


def serialize(trie: TokenTrie) -> bytes:
    count, words = 0, []  # words: each name's token count, then its token ids
    prefix: list[int] = []  # token ids on the path to the node just popped
    stack: list[tuple[int, int, TrieNode]] = [(0, 0, trie.root)]  # (depth, token id, node)
    while stack:
        depth, token_id, node = stack.pop()
        if depth:
            prefix[depth - 1 :] = [token_id]
        if node.terminal:
            count += 1
            words.append(depth)
            words.extend(prefix)
        # Pushed in descending order so children pop in ascending order.
        stack.extend((depth + 1, t, child) for t, child in reversed(node.children.items()))
    return MAGIC + struct.pack(f"<{len(words) + 2}I", FORMAT_VERSION, count, *words)


def deserialize(data: bytes) -> TokenTrie:
    if data[:4] != MAGIC:
        raise TrieFormatError("bad magic bytes, not a trie file")
    if len(data) < 8:
        raise TrieFormatError("truncated trie file")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise TrieFormatError(f"unsupported trie format version {version}")
    if len(data) < 12 or len(data) % 4:
        raise TrieFormatError("truncated trie file")
    words = struct.unpack_from(f"<{len(data) // 4 - 2}I", data, 8)
    trie, pos = TokenTrie(), 1
    for i in range(words[0]):
        if pos >= len(words) or pos + 1 + words[pos] > len(words):
            raise TrieFormatError(f"truncated trie file: {words[0]} names declared, {i} found")
        trie.insert(words[pos + 1 : pos + 1 + words[pos]])
        pos += 1 + words[pos]
    if pos != len(words):
        raise TrieFormatError(f"{4 * (len(words) - pos)} trailing bytes after {words[0]} names")
    return trie


def save_trie(trie: TokenTrie, path) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(serialize(trie))


def load_trie(path) -> TokenTrie:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
