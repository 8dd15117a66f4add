"""Trie-constrained beam search against exhaustive enumeration."""

from __future__ import annotations

import random

import numpy as np
import pytest

from neglink import model
from neglink.beam import (
    Prediction,
    constrained_beam_search,
    constrained_beam_search_batch,
    name_tokens,
    prompt_log_prob,
    rank_of_gold,
    sequence_score,
)
from neglink.config import RunConfig
from neglink.corpus import MentionExample, render
from neglink.errors import VocabError
from neglink.kb import Concept, build_kb
from neglink.trie import build_trie
from neglink.vocab import Vocab


def setup(names_by_id: dict[str, list[str]], seed=0, d=8):
    kb = build_kb([Concept(cid, tuple(ns), None) for cid, ns in names_by_id.items()])
    vocab = Vocab.from_texts(kb.names() + ["query text is"])
    trie = build_trie(kb.names(), vocab)
    ckpt = model.init_checkpoint(vocab, d, seed)
    ex = MentionExample(left_context="text", mention="query", right_context="text",
                        gold_ids=frozenset(names_by_id))
    return kb, vocab, trie, ckpt, render(ex, vocab, max_ctx=RunConfig().max_ctx)


def exhaustive(ckpt, enc, kb, vocab, k):
    scored = [
        (sequence_score(ckpt, enc, name_tokens(n, vocab)), n) for n in kb.names()
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(n, s) for s, n in scored[:k]]


def test_wide_beam_equals_exhaustive_enumeration():
    rng = random.Random(23)
    alphabet = "abcde"
    names = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6))) for _ in range(30)})
    kb_map = {f"C{i}": [n] for i, n in enumerate(names)}
    kb, vocab, trie, ckpt, enc = setup(kb_map, seed=3)
    k = 10
    got = constrained_beam_search(ckpt, enc, trie, kb, beam=len(kb.names()), k=k)
    want = exhaustive(ckpt, enc, kb, vocab, k)
    assert [(p.name, round(p.score, 10)) for p in got] == [(n, round(s, 10)) for n, s in want]
    for p in got:
        assert p.ids == kb.align(p.name)


def test_a_trie_token_outside_the_vocabulary_is_a_vocab_error():
    kb, vocab, trie, ckpt, enc = setup({"C1": ["abc"], "C2": ["b"]})
    trie.insert([vocab.encode_chars("a")[0], len(vocab)])  # a name whose second token has no embedding
    for search in (lambda: constrained_beam_search(ckpt, enc, trie, kb),
                   lambda: constrained_beam_search_batch(ckpt, [enc, enc], trie, kb)):
        with pytest.raises(VocabError, match=f"token id {len(vocab)} outside vocabulary of size {len(vocab)}"):
            search()


def test_beam_scores_match_sequence_scorer():
    kb, vocab, trie, ckpt, enc = setup({"C1": ["abc"], "C2": ["abd"], "C3": ["b"]}, seed=7)
    preds = constrained_beam_search(ckpt, enc, trie, kb, beam=5, k=3)
    assert len(preds) == 3
    for p in preds:
        want = sequence_score(ckpt, enc, name_tokens(p.name, vocab))
        assert abs(p.score - want) < 1e-9


def test_single_name_kb():
    kb, vocab, trie, ckpt, enc = setup({"C1": ["abc"]})
    preds = constrained_beam_search(ckpt, enc, trie, kb, beam=2, k=2)
    assert [p.name for p in preds] == ["abc"]
    assert preds[0].ids == frozenset({"C1"})


def test_every_prediction_is_a_kb_name():
    rng = random.Random(4)
    names = sorted({"".join(rng.choice("abc") for _ in range(rng.randrange(1, 5))) for _ in range(12)})
    kb, vocab, trie, ckpt, enc = setup({f"C{i}": [n] for i, n in enumerate(names)}, seed=11)
    valid = set(kb.names())
    for beam in (1, 2, 5):
        for k in range(1, beam + 1):
            preds = constrained_beam_search(ckpt, enc, trie, kb, beam=beam, k=k)
            assert len(preds) <= k
            assert all(p.name in valid for p in preds)
            scores = [p.score for p in preds]
            assert scores == sorted(scores, reverse=True)


def test_beam_must_cover_k():
    kb, vocab, trie, ckpt, enc = setup({"C1": ["a"], "C2": ["b"]})
    with pytest.raises(ValueError):
        constrained_beam_search(ckpt, enc, trie, kb, beam=1, k=2)
    with pytest.raises(ValueError):
        constrained_beam_search(ckpt, enc, trie, kb, beam=2, k=0)


def test_ambiguous_name_carries_all_ids():
    kb, vocab, trie, ckpt, enc = setup({"C1": ["shared"], "C2": ["shared", "other"]})
    preds = constrained_beam_search(ckpt, enc, trie, kb, beam=4, k=2)
    by_name = {p.name: p for p in preds}
    assert by_name["shared"].ids == frozenset({"C1", "C2"})


def test_rank_of_gold():
    preds = [
        Prediction(name="a", ids=frozenset({"C1"}), score=-1.0),
        Prediction(name="b", ids=frozenset({"C2", "C3"}), score=-2.0),
        Prediction(name="c", ids=frozenset({"C4"}), score=-3.0),
    ]
    assert rank_of_gold(preds, frozenset({"C1"})) == 1
    assert rank_of_gold(preds, frozenset({"C3"})) == 2
    assert rank_of_gold(preds, frozenset({"C9"})) is None
    assert rank_of_gold([], frozenset({"C1"})) is None


def test_deterministic_tie_break_by_name():
    # zero parameters give every name of equal length the same score;
    # final ordering must fall back to the name itself
    kb, vocab, trie, ckpt, enc = setup({"C1": ["ba"], "C2": ["ab"], "C3": ["bb"]})
    for p in ckpt.params.values():
        p[...] = 0.0
    preds = constrained_beam_search(ckpt, enc, trie, kb, beam=3, k=3)
    assert [p.name for p in preds] == ["ab", "ba", "bb"]


def test_narrow_beam_prunes_the_best_name():
    # A hand-set decoder whose next-token logits depend only on the last
    # token: "a" outscores "b" as the first letter, but "ab" ends far below "ba".
    kb = build_kb([Concept("C1", ("ab",), None), Concept("C2", ("ba",), None)])
    vocab = Vocab.from_texts(kb.names() + ["query text is"])
    trie = build_trie(kb.names(), vocab)
    n = len(vocab)
    ckpt = model.init_checkpoint(vocab, n, 0)
    p = ckpt.params
    for arr in p.values():
        arr[...] = 0.0
    p["dec_bg"][:n] = 50.0  # update gate open: the state is tanh(emb[token] @ Wh)
    p["emb"][...] = np.eye(n)
    p["dec_Wh"][:n] = np.eye(n)
    (a,), (b,), eos = vocab.encode_chars("a"), vocab.encode_chars("b"), vocab.eos_id
    logits = np.zeros((n, n))  # row: last token consumed, column: next token
    logits[:, a] = 2.0
    logits[a] = logits[b] = 0.0
    logits[a, b], logits[b, a] = -6.0, 6.0
    logits[a, eos] = logits[b, eos] = 6.0
    p["out_W"][...] = logits / np.tanh(1.0)
    ex = MentionExample(left_context="text", mention="query", right_context="text",
                        gold_ids=frozenset({"C1", "C2"}))
    enc = render(ex, vocab, max_ctx=RunConfig().max_ctx)

    first = prompt_log_prob(ckpt, [enc])[1][0]
    assert first[a] > first[b]
    score = {n: sequence_score(ckpt, enc, name_tokens(n, vocab)) for n in ("ab", "ba")}
    assert score["ba"] > score["ab"] + 1.0
    assert [p.name for p in constrained_beam_search(ckpt, enc, trie, kb, beam=1, k=1)] == ["ab"]
    assert [p.name for p in constrained_beam_search(ckpt, enc, trie, kb, beam=2, k=2)] == ["ba", "ab"]
    batched = constrained_beam_search_batch(ckpt, [enc] * 3, trie, kb, beam=1, k=1)
    assert [[p.name for p in preds] for preds in batched] == [["ab"]] * 3


def test_prompt_scores_are_the_one_sequence_sum_over_the_prompt_positions():
    """The search's prompt base is `model.sequence_log_probs` over prompt tokens 2..n, bit for bit."""
    kb, vocab, _, ckpt, _ = setup({"C1": ["abc"], "C2": ["abd"]}, seed=5, d=12)
    mentions = ["q", "query", "text query", "query text query", "qu", "text text text query"]
    inputs = [render(MentionExample("text", m, "text", frozenset({"C1"})), vocab, max_ctx=RunConfig().max_ctx)
              for m in mentions]
    cache, targets, last_mask = model.forward_pairs(ckpt, inputs, [[vocab.eos_id]] * len(inputs))
    picked = model.target_log_probs(cache.logits, targets)[1]
    want = model.sequence_log_probs(picked, cache.dec.mask - last_mask).tolist()
    assert prompt_log_prob(ckpt, inputs)[3] == want
