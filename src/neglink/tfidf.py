"""Character-trigram TF-IDF vectors and cosine ranking over KB names.

Strings are padded with one '#' on each side and cut into 3-character
windows. Weights are raw term frequency times smoothed inverse document
frequency, idf(t) = ln((1 + N) / (1 + df(t))) + 1, and vectors are
L2-normalized, so cosine similarity lands in [0, 1]. Queries may contain
trigrams the index never saw; those get df = 0 in the same formula.

Ties in every ranking are broken by ascending name order so that
downstream training sets are reproducible.

An index vectorizes an indexed name the first time it is asked for and
keeps the vector. Training ranks only each mention's gold synonyms, so on
a large KB most names are never vectorized. Other strings are vectorized
on every call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


def trigrams(s: str) -> Counter:
    """Multiset of 3-char windows over '#' + s + '#'; empty for empty s."""
    if not s:
        return Counter()
    padded = f"#{s}#"
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))


@dataclass
class TfIdfIndex:
    n_docs: int
    df: dict[str, int]
    names: frozenset[str]
    vectors: dict[str, dict[str, float]] = field(default_factory=dict)  # indexed names vectorized so far

    def vector(self, s: str) -> dict[str, float]:
        """Unit-norm weight map for any string (kept for indexed names)."""
        cached = self.vectors.get(s)
        if cached is None:
            cached = _vectorize(s, self.n_docs, self.df)
            if s in self.names:
                self.vectors[s] = cached
        return cached


def _vectorize(s: str, n_docs: int, df: dict[str, int]) -> dict[str, float]:
    counts = trigrams(s)
    if not counts:
        return {}
    weights = {
        t: c * (math.log((1 + n_docs) / (1 + df.get(t, 0))) + 1.0)
        for t, c in counts.items()
    }
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()}


def build_index(names: list[str]) -> TfIdfIndex:
    """Index a list of normalized names; duplicates are collapsed."""
    unique = list(dict.fromkeys(names))
    if not unique:
        raise ValueError("cannot build a TF-IDF index over zero names")
    df: dict[str, int] = {}
    for name in unique:
        for t in trigrams(name):
            df[t] = df.get(t, 0) + 1
    return TfIdfIndex(n_docs=len(unique), df=df, names=frozenset(unique))


def similarity(a: str, b: str, idx: TfIdfIndex) -> float:
    """Cosine of the two trigram vectors; exactly symmetric, in [0, 1]."""
    if a == b:
        return 1.0 if a else 0.0
    va, vb = idx.vector(a), idx.vector(b)
    if len(vb) < len(va):
        va, vb = vb, va
    # Sorted shared keys give an accumulation order independent of argument
    # order, keeping similarity(a, b) == similarity(b, a) bit for bit.
    dot = sum(va[t] * vb[t] for t in sorted(va) if t in vb)
    return min(1.0, max(0.0, dot))


def rank_synonyms(mention: str, synonyms: list[str], k: int, idx: TfIdfIndex) -> list[str]:
    """Top-k synonyms by similarity to the mention, ties by name order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    unique = list(dict.fromkeys(synonyms))
    ranked = sorted(unique, key=lambda s: (-similarity(mention, s, idx), s))
    return ranked[: min(k, len(ranked))]
