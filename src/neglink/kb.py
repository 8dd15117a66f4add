"""Knowledge-base store: load, normalize, and index concept dictionaries.

A knowledge base is a set of concepts, each carrying one identifier and a
list of surface names (synonyms). The store keeps a reverse index from
normalized name to the set of identifiers that carry it, which is the
alignment function used to decide whether a generated name is correct:
a prediction counts as correct when its alignment set intersects the gold
identifier set. Ambiguous names (one surface form under several ids) are
ordinary, not an error. The store also owns the trigram TF-IDF view of its
names (`tfidf`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import artifacts
from .errors import KBFormatError
from .tfidf import TfIdfIndex, build_index

log = logging.getLogger(__name__)


def normalize_name(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return " ".join(raw.lower().split())


@dataclass(frozen=True)
class Concept:
    """One identifier with its deduplicated, normalized synonym list."""

    id: str
    names: tuple[str, ...]
    definition: str | None = None


@dataclass
class KnowledgeBase:
    """Immutable-after-load concept map plus name -> ids reverse index."""

    concepts: dict[str, Concept] = field(default_factory=dict)
    name_index: dict[str, frozenset[str]] = field(default_factory=dict)
    rejected_count: int = 0

    def align(self, name: str) -> frozenset[str]:
        """Identifier set for a normalized name; empty if unseen."""
        return self.name_index.get(name, frozenset())

    def names(self) -> list[str]:
        """All distinct names in deterministic (sorted) order."""
        return sorted(self.name_index)

    def synonyms(self, ids: frozenset[str]) -> list[str]:
        """Union of the names of every concept in `ids`, deduplicated, sorted."""
        return sorted({n for cid in ids for n in self.concepts[cid].names})

    @cached_property
    def tfidf(self) -> TfIdfIndex:
        """The index over `names()`, built on first use: a KB does not change after loading, so it cannot go stale."""
        return build_index(self.names())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return self.concepts == other.concepts and self.name_index == other.name_index


def build_kb(concepts: list[Concept]) -> KnowledgeBase:
    """Assemble a KnowledgeBase from already-normalized concepts."""
    kb = KnowledgeBase()
    index: dict[str, set[str]] = {}
    for c in concepts:
        if c.id in kb.concepts:
            raise KBFormatError(f"duplicate concept id {c.id!r}")
        kb.concepts[c.id] = c
        for n in c.names:
            index.setdefault(n, set()).add(c.id)
    kb.name_index = {n: frozenset(ids) for n, ids in index.items()}
    return kb


# A KB record's keys and their JSON kinds (see artifacts.read_records).
_RECORD_KINDS = {"id": "a string", "names": "a list of strings", "definition": "a string or null"}


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load a line-delimited JSON KB file.

    Each line: {"id": str, "names": [str, ...], "definition": str?}.
    Names are normalized and deduplicated per concept; records whose name
    list is empty after normalization are rejected (counted, warned).
    """
    concepts: list[Concept] = []
    rejected = 0
    for lineno, (cid, raw_names, definition) in artifacts.read_records(path, _RECORD_KINDS, KBFormatError):
        if not cid:
            raise KBFormatError(f"{path}: line {lineno}: 'id' must be a non-empty string")
        names: list[str] = []
        for n in raw_names:
            norm = normalize_name(n)
            if norm and norm not in names:
                names.append(norm)
        if not names:
            rejected += 1
            log.warning("%s: line %d: concept %r has no usable names, rejected", path, lineno, cid)
            continue
        concepts.append(Concept(id=cid, names=tuple(names), definition=definition))
    kb = build_kb(concepts)
    kb.rejected_count = rejected
    return kb
