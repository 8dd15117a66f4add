"""Prefix tree over tokenized KB names, used to mask decoder outputs.

Every root-to-terminal path spells exactly one KB name. During decoding
the set of legal next tokens at a prefix is the node's children, plus EOS
when the node is terminal, so any sequence the decoder can finish is a KB
name and every KB name remains reachable.

`insert` is the only way a trie is built, whether from KB names or from a
file. It records the depth (the token count of its longest name), so
`max_depth()`, called once per beam search, costs nothing. It also records
the largest token id, which the CLI checks against the cache vocabulary
and the search against the checkpoint's, and it rejects negative token ids
and names longer than MAX_DEPTH tokens. It keeps every node's
children in ascending token order, whatever order the names come in, so
readers iterate `children` directly instead of sorting it.

File format 4: the `artifacts` array container, magic "ATRI", holding two
u32 arrays: `lengths`, each name's token count, and `tokens`, the names'
token ids concatenated. Its header holds the trie's `header` fields (`kb
build` stores the cache's header there, so a reader can check the KB the
trie was built from). Names are written in ascending token order, the
tree's preorder, so save -> load -> save is byte-identical. The reader
inserts every name, so a loaded trie is exactly one `insert` could build.
The writer walks the tree with an explicit stack, so a name's length is
bounded by MAX_DEPTH, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .artifacts import read_arrays, write_arrays
from .errors import TrieFormatError, VocabError
from .vocab import Vocab

MAGIC = b"ATRI"
FORMAT_VERSION = 4
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
    header: dict = field(default_factory=dict, init=False)  # fields of the file header, written and read with it

    def insert(self, token_ids) -> None:
        token_ids = [int(t) for t in token_ids]
        if len(token_ids) > MAX_DEPTH:
            raise TrieFormatError(f"{len(token_ids)} tokens, over the trie depth limit of {MAX_DEPTH}")
        if min(token_ids, default=0) < 0:
            raise VocabError(f"token id {min(token_ids)} is negative")
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
    node = trie.root
    for t in prefix:
        node = node.children.get(int(t))
        if node is None:
            raise ValueError(f"prefix {tuple(prefix)} is not a path in the trie")
    out = list(node.children)
    if node.terminal:
        out.append(eos_id)
    return out


def save_trie(trie: TokenTrie, path) -> None:
    lengths, tokens = [], []  # each name's token count; the names' token ids, concatenated
    prefix: list[int] = []  # token ids on the path to the node just popped
    stack: list[tuple[int, int, TrieNode]] = [(0, 0, trie.root)]  # (depth, token id, node)
    while stack:
        depth, token_id, node = stack.pop()
        if depth:
            prefix[depth - 1 :] = [token_id]
        if node.terminal:
            lengths.append(depth)
            tokens.extend(prefix)
        # Pushed in descending order so children pop in ascending order.
        stack.extend((depth + 1, t, child) for t, child in reversed(node.children.items()))
    write_arrays(path, MAGIC, FORMAT_VERSION, trie.header, {"lengths": lengths, "tokens": tokens}, "<u4")


def load_trie(path) -> TokenTrie:
    header, arrays = read_arrays(path, MAGIC, FORMAT_VERSION, "<u4", "trie", TrieFormatError)
    if sorted(arrays) != ["lengths", "tokens"] or any(a.ndim != 1 for a in arrays.values()):
        raise TrieFormatError(f"arrays {sorted(arrays)}, expected the 1-D arrays lengths and tokens")
    lengths, tokens = arrays["lengths"].tolist(), arrays["tokens"].tolist()
    if sum(lengths) != len(tokens):
        raise TrieFormatError(f"{len(lengths)} names of {sum(lengths)} tokens declared, {len(tokens)} tokens found")
    trie, pos = TokenTrie(), 0
    for n in lengths:
        trie.insert(tokens[pos : pos + n])
        pos += n
    trie.header = {key: value for key, value in header.items() if key not in ("arrays", "data_sha256")}
    return trie
