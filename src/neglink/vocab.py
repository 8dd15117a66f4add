"""Character-level vocabulary with the marker tokens used by the scorer.

Tokens are single characters plus five multi-character specials. Special
tokens can never collide with text: text is encoded character by character,
so a literal "[BOS]" in a mention becomes five character tokens.
"""

from __future__ import annotations

from .errors import VocabError

BOS = "[BOS]"
EOS = "[EOS]"
ST = "[ST]"
ET = "[ET]"
PAD = "[PAD]"

SPECIALS = (PAD, BOS, EOS, ST, ET)


class Vocab:
    """Bidirectional token <-> dense id map. Specials first, then chars."""

    def __init__(self, tokens: list[str]):
        if len(set(tokens)) != len(tokens):
            raise VocabError("duplicate tokens in vocabulary")
        for s in SPECIALS:
            if s not in tokens:
                raise VocabError(f"missing special token {s}")
        self.tokens: tuple[str, ...] = tuple(tokens)
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        self.pad_id = self._ids[PAD]
        self.bos_id = self._ids[BOS]
        self.eos_id = self._ids[EOS]
        self.st_id = self._ids[ST]
        self.et_id = self._ids[ET]

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        """Vocabulary over every character occurring in `texts`."""
        chars = sorted({ch for t in texts for ch in t})
        return cls(list(SPECIALS) + chars)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def token(self, idx: int) -> str:
        return self.tokens[idx]

    def encode_chars(self, text: str) -> list[int]:
        """Character token ids for `text`; raises naming any unknown char."""
        ids = []
        for ch in text:
            i = self._ids.get(ch)
            if i is None:
                raise VocabError(f"character {ch!r} not in vocabulary")
            ids.append(i)
        return ids
