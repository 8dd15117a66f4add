"""Character-trigram TF-IDF index against a dense reference implementation.

The reference below builds the trigram vocabulary explicitly and computes
cosine similarity with dense numpy vectors. The package implementation uses
sparse dictionaries; the two must agree to near machine precision.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from neglink import tfidf
from neglink.corpus import prepare_mentions
from neglink.kb import load_kb
from neglink.tfidf import TfIdfIndex, build_index, rank_synonyms, similarity, trigrams

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


def dense_reference(corpus: list[str], probes: list[str] = ()):
    """Return a dense vectorizer over the corpus plus known probe strings.

    The trigram space covers corpus and probe grams so out-of-corpus
    strings get proper dimensions; document frequency counts corpus
    documents only, so probe-only grams carry the zero-df idf.
    """
    def grams(s):
        padded = f"#{s}#"
        out = {}
        for i in range(len(padded) - 2):
            g = padded[i : i + 3]
            out[g] = out.get(g, 0) + 1
        return out

    vocab = sorted({g for s in list(corpus) + list(probes) for g in grams(s)})
    pos = {g: i for i, g in enumerate(vocab)}
    n = len(corpus)
    df = np.zeros(len(vocab))
    for s in corpus:
        for g in set(grams(s)):
            df[pos[g]] += 1
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0

    def vec(s):
        v = np.zeros(len(vocab))
        for g, c in grams(s).items():
            v[pos[g]] += c * idf[pos[g]]
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    return vec


def test_trigrams_padding():
    assert trigrams("ab") == {"#ab": 1, "ab#": 1}
    assert sum(trigrams("aaa").values()) == 3
    assert trigrams("aaa")["aaa"] == 1


def test_similarity_matches_dense_reference_on_random_corpus():
    rng = random.Random(41)
    alphabet = "abcdefg "
    corpus = sorted(
        {"".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 12))).strip() or "pad"
         for _ in range(60)}
    )
    idx = build_index(corpus)
    vec = dense_reference(corpus)
    for _ in range(300):
        a = rng.choice(corpus)
        b = rng.choice(corpus)
        want = float(np.dot(vec(a), vec(b)))
        got = similarity(a, b, idx)
        assert abs(got - want) <= 1e-12


def test_similarity_on_out_of_corpus_strings():
    corpus = ["alpha", "beta", "gamma"]
    idx = build_index(corpus)
    probes = ["alphx", "zzz", "gamma ray", "beta"]
    vec = dense_reference(corpus, probes)
    for a in probes:
        for b in probes:
            want = float(np.dot(vec(a), vec(b)))
            assert abs(similarity(a, b, idx) - want) <= 1e-12


def test_similarity_properties():
    corpus = ["heart attack", "heart failure", "stroke"]
    idx = build_index(corpus)
    for a in corpus:
        assert similarity(a, a, idx) == 1.0
        for b in corpus:
            s = similarity(a, b, idx)
            assert 0.0 <= s <= 1.0
            assert s == similarity(b, a, idx)
    assert similarity("heart attack", "heart failure", idx) > similarity("heart attack", "stroke", idx)


def test_rank_synonyms_order_and_ties():
    corpus = ["aaa", "aab", "zzz", "zzy"]
    idx = build_index(corpus)
    got = rank_synonyms("aaa", ["zzz", "aab", "aaa", "zzy"], 3, idx)
    assert got[0] == "aaa"
    assert got[1] == "aab"
    # the two z-names tie at zero similarity; lexicographic order breaks it
    assert got[2] == "zzy"


def test_rank_synonyms_exact_order_vs_reference():
    rng = random.Random(17)
    alphabet = "abcd"
    corpus = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 8))) for _ in range(40)})
    idx = build_index(corpus)
    vec = dense_reference(corpus)
    for _ in range(50):
        mention = rng.choice(corpus)
        pool = rng.sample(corpus, 10)
        want = sorted(pool, key=lambda s: (-float(np.dot(vec(mention), vec(s))), s))
        got = rank_synonyms(mention, pool, len(pool), idx)
        assert got == want


def test_index_is_deterministic():
    corpus = ["b", "a", "c"]
    i1 = build_index(corpus)
    i2 = build_index(list(reversed(corpus)))
    assert i1.n_docs == i2.n_docs
    assert i1.df == i2.df


def test_memoized_vectors_give_the_eager_index_similarities_bit_for_bit():
    kb = load_kb(TOY / "kb.jsonl")
    names = kb.names()
    lazy = build_index(names)
    assert lazy.vectors == {}
    eager = TfIdfIndex(n_docs=lazy.n_docs, df=lazy.df, names=lazy.names,
                       vectors={n: tfidf._vectorize(n, lazy.n_docs, lazy.df) for n in names})
    rng = random.Random(7)
    probes = [(rng.choice(names), rng.choice(names)) for _ in range(2000)]
    probes += [(ex.mention, rng.choice(names)) for ex in prepare_mentions(TOY / "test.jsonl", kb)[0]]
    for a, b in probes:
        got = similarity(a, b, lazy)
        assert got == similarity(a, b, eager) and got == similarity(b, a, lazy), (a, b)
    # Only indexed names are kept, each as the eager index's vector.
    assert lazy.vectors and set(lazy.vectors) <= lazy.names
    assert all(lazy.vectors[n] == eager.vectors[n] for n in lazy.vectors)
