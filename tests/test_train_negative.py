"""Preference mining rules and the dpo and cpo preference losses."""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest

from neglink import model
from neglink.beam import Prediction
from neglink.config import LOSS_KINDS, RunConfig
from neglink.corpus import EncodedInput, MentionExample, render
from neglink.errors import ConfigError, FormatError
from neglink.kb import Concept, build_kb
from neglink.train_negative import (
    PreferenceTriplet,
    mine_pairs,
    preference_loss_and_grads,
    preference_loss_values,
    train_preference,
    triplets_from_predictions,
)
from neglink.trie import build_trie
from neglink.vocab import Vocab


DUMMY = EncodedInput(encoder_tokens=(1, 2), prompt_tokens=(1,))


def pconfig(kind, lr=1e-3, epochs=1, seed=0, **kw):
    return RunConfig(loss=kind, neg_lr=lr, neg_epochs=epochs, neg_batch=4, seed=seed, **kw)


# ---------------------------------------------------------------------------
# pairing rules


def brute_force_pairs(labels):
    """Reference enumeration of (winner_rank, loser_rank) pairs.

    `labels` is a per-rank correctness list, rank 1 first. Rule one pairs
    every correct prediction with every incorrect prediction ranked above
    it. Rule two adds (rank-1 correct, highest incorrect) when the top
    prediction is correct and any incorrect exists.
    """
    n = len(labels)
    pairs = set()
    for w in range(1, n + 1):
        if not labels[w - 1]:
            continue
        for l in range(1, w):
            if not labels[l - 1]:
                pairs.add((w, l))
    if n and labels[0]:
        for l in range(2, n + 1):
            if not labels[l - 1]:
                pairs.add((1, l))
                break
    return pairs


def predictions_from_labels(labels):
    preds = []
    for r, correct in enumerate(labels, start=1):
        cid = "G" if correct else f"B{r}"
        preds.append(Prediction(name=f"name{r}", ids=frozenset({cid}), score=-float(r)))
    return preds


def test_pairing_rules_match_brute_force_enumeration():
    rng = random.Random(6)
    kb = build_kb([Concept("G", ("gold name",)), Concept("X", ("namex",))])
    ex = MentionExample("", "gold", "", frozenset({"G"}))
    for trial in range(1000):
        n = rng.randrange(1, 7)
        labels = [rng.random() < 0.45 for _ in range(n)]
        preds = predictions_from_labels(labels)
        got = triplets_from_predictions(DUMMY, preds, ex, kb)
        if any(labels):
            want = brute_force_pairs(labels)
            got_pairs = {(t.rank_w, t.rank_l) for t in got}
            assert got_pairs == want, f"trial {trial}: labels {labels}"
            assert all(t.preferred == f"name{t.rank_w}" for t in got)
            assert all(t.dispreferred == f"name{t.rank_l}" for t in got)
        else:
            # fallback: nearest gold synonym against the top three incorrect
            assert [t.rank_l for t in got] == list(range(1, min(3, n) + 1))
            assert all(t.preferred == "gold name" for t in got)
            assert all(t.rank_w is None for t in got)


def test_triplets_equal_on_input_and_names_and_mining_keeps_the_first():
    """Mention index and ranks are not part of a triplet's identity, so a mention that renders like an earlier one
    adds no pair: `mine_pairs` keeps the first of equal triplets."""
    a = PreferenceTriplet(input=DUMMY, preferred="x", dispreferred="y", mention_index=0, rank_w=1, rank_l=2)
    b = PreferenceTriplet(input=DUMMY, preferred="x", dispreferred="y", mention_index=1, rank_w=3, rank_l=4)
    c = PreferenceTriplet(input=DUMMY, preferred="x", dispreferred="z", mention_index=0, rank_w=1, rank_l=2)
    assert a == b and hash(a) == hash(b) and a != c
    kb, vocab, trie, ckpt, examples = linking_setup()
    once = mine_pairs(ckpt, examples, kb, trie, RunConfig(topk=3))
    twice = mine_pairs(ckpt, examples + [examples[0]], kb, trie, RunConfig(topk=3))
    assert any(t.mention_index == 0 for t in once)
    key = [(t.mention_index, t.rank_w, t.rank_l) for t in once]
    assert twice == once and [(t.mention_index, t.rank_w, t.rank_l) for t in twice] == key


# ---------------------------------------------------------------------------
# loss values (hand-checked arithmetic)


def arrays(*vals):
    return tuple(np.array([v], dtype=np.float64) for v in vals)


def test_cpo_without_nll_loss_hand_value():
    lp_w, lp_l, rw, rl, lw = arrays(-1.0, -2.0, 0.0, 0.0, 3.0)
    cfg = pconfig("cpo", beta=0.1, cpo_lambda=0.0)
    loss, dw, dl = preference_loss_values(lp_w, lp_l, rw, rl, lw, cfg)
    # margin is 0.1, loss = ln(1 + e^(-0.1))
    want = math.log1p(math.exp(-0.1))
    assert abs(loss[0] - want) < 1e-15
    s = 1.0 / (1.0 + math.exp(0.1))
    assert abs(dw[0] - (-0.1 * s)) < 1e-15
    assert abs(dl[0] - (0.1 * s)) < 1e-15


def test_dpo_loss_at_reference_is_ln2_exactly():
    rng = np.random.default_rng(12)
    lp = rng.normal(size=100) * 5
    cfg = pconfig("dpo", beta=0.1)
    loss, dw, dl = preference_loss_values(lp, lp - 3.0, lp, lp - 3.0, np.full(100, 4.0), cfg)
    np.testing.assert_array_equal(loss, np.full(100, math.log(2.0)))
    np.testing.assert_array_equal(dw, np.full(100, -0.05))
    np.testing.assert_array_equal(dl, np.full(100, 0.05))


def test_dpo_margin_uses_reference_offsets():
    lp_w, lp_l, rw, rl, lw = arrays(-1.0, -5.0, -2.0, -4.0, 2.0)
    cfg = pconfig("dpo", beta=0.1)
    loss, _, _ = preference_loss_values(lp_w, lp_l, rw, rl, lw, cfg)
    # margin = 0.1 * ((-1 + 2) - (-5 + 4)) = 0.2
    want = math.log1p(math.exp(-0.2))
    assert abs(loss[0] - want) < 1e-15


def test_cpo_adds_length_normalized_nll():
    lp_w, lp_l, rw, rl, lw = arrays(-3.0, -4.0, 0.0, 0.0, 3.0)
    base_cfg = pconfig("cpo", beta=0.1, cpo_lambda=0.0)
    cpo_cfg = pconfig("cpo", beta=0.1, cpo_lambda=1.0)
    base, bw, bl = preference_loss_values(lp_w, lp_l, rw, rl, lw, base_cfg)
    got, gw, gl = preference_loss_values(lp_w, lp_l, rw, rl, lw, cpo_cfg)
    assert abs(got[0] - (base[0] + 3.0 / 3.0)) < 1e-15
    assert abs(gw[0] - (bw[0] - 1.0 / 3.0)) < 1e-15
    assert gl[0] == bl[0]


def test_loss_kind_validation():
    with pytest.raises(ConfigError):
        pconfig("unknown")
    with pytest.raises(ConfigError):
        pconfig("dpo", beta=0.0)
    assert set(LOSS_KINDS) == {"dpo", "cpo"}


# ---------------------------------------------------------------------------
# end-to-end loss over the model, and the training loop


def linking_setup(seed=0):
    kb = build_kb([Concept("C1", ("abc", "abd"), None), Concept("C2", ("bcd", "bce"), None)])
    vocab = Vocab.from_texts(kb.names() + ["m is"])
    trie = build_trie(kb.names(), vocab)
    ckpt = model.init_checkpoint(vocab, 8, seed)
    examples = [
        MentionExample(left_context="a", mention="abc", right_context="b", gold_ids=frozenset({"C1"})),
        MentionExample(left_context="c", mention="bcd", right_context="d", gold_ids=frozenset({"C2"})),
    ]
    return kb, vocab, trie, ckpt, examples


def make_triplet(vocab, ex, e_w, e_l):
    return PreferenceTriplet(input=render(ex, vocab, max_ctx=RunConfig().max_ctx), preferred=e_w, dispreferred=e_l)


def test_dpo_batch_loss_is_ln2_at_the_reference_model():
    kb, vocab, trie, ckpt, examples = linking_setup()
    ref = model.copy_checkpoint(ckpt)
    triplets = [
        make_triplet(vocab, examples[0], "abc", "bcd"),
        make_triplet(vocab, examples[1], "bce", "abd"),
        make_triplet(vocab, examples[0], "abd", "bce"),
    ]
    cfg = pconfig("dpo")
    loss, grads = preference_loss_and_grads(ckpt, ref, triplets, cfg)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)
    assert grads is not None


def test_dpo_requires_reference():
    kb, vocab, trie, ckpt, examples = linking_setup()
    t = make_triplet(vocab, examples[0], "abc", "bcd")
    with pytest.raises(ValueError):
        preference_loss_and_grads(ckpt, None, [t], pconfig("dpo"))


def test_preference_gradients_match_finite_differences():
    kb, vocab, trie, ckpt, examples = linking_setup(seed=5)
    ref = model.init_checkpoint(vocab, 8, 99)
    triplets = [
        make_triplet(vocab, examples[0], "abc", "bcd"),
        make_triplet(vocab, examples[1], "bcd", "abd"),
    ]
    rng = np.random.default_rng(2)
    h = 1e-5
    for kind in LOSS_KINDS:
        cfg = pconfig(kind)
        _, grads = preference_loss_and_grads(ckpt, ref, triplets, cfg)
        for name in ("emb", "dec_Wh", "enc_Ug", "out_W", "out_b"):
            flat = ckpt.params[name].reshape(-1)
            for _ in range(3):
                i = int(rng.integers(flat.size))
                keep = flat[i]
                flat[i] = keep + h
                up, _ = preference_loss_and_grads(ckpt, ref, triplets, cfg)
                flat[i] = keep - h
                down, _ = preference_loss_and_grads(ckpt, ref, triplets, cfg)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                an = grads[name].reshape(-1)[i]
                assert abs(an - fd) / max(1.0, abs(an)) < 1e-6, (kind, name)


def test_mine_pairs_respects_invariants_and_dedup():
    kb, vocab, trie, ckpt, examples = linking_setup()
    triplets = mine_pairs(ckpt, examples, kb, trie, RunConfig(topk=3))
    assert triplets
    assert len(set(triplets)) == len(triplets)
    for t in triplets:
        ex = examples[t.mention_index]
        assert kb.align(t.preferred) & ex.gold_ids
        assert not (kb.align(t.dispreferred) & ex.gold_ids)


@pytest.mark.parametrize("cpus", [1, 2])
def test_mine_pairs_invariant_violation_is_a_format_error(monkeypatch, cpus):
    """A KB whose alignment disowns the second mention's gold names breaks the invariant
    there; with two CPUs that mention is mined in a child process."""
    kb, vocab, trie, ckpt, examples = linking_setup()
    real = kb.align
    monkeypatch.setattr(kb, "align", lambda name: frozenset() if name.startswith("b") else real(name))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(FormatError, match=r"^mention 1: mined triplet violates invariants: 'bc[de]' vs '\w+'$"):
        mine_pairs(ckpt, examples, kb, trie, RunConfig(topk=3))


def test_train_preference_runs_and_freezes_reference():
    kb, vocab, trie, ckpt, examples = linking_setup()
    triplets = [
        make_triplet(vocab, examples[0], "abc", "bcd"),
        make_triplet(vocab, examples[1], "bcd", "abc"),
        make_triplet(vocab, examples[0], "abd", "bce"),
        make_triplet(vocab, examples[1], "bce", "abd"),
        make_triplet(vocab, examples[0], "abc", "bce"),
        make_triplet(vocab, examples[1], "bcd", "abd"),
    ]
    before = {k: v.copy() for k, v in ckpt.params.items()}
    cfg = pconfig("dpo", lr=1e-3, epochs=2)
    # batch size 4: six triplets take two steps per epoch, the second one short
    assert len(train_preference(ckpt, triplets, cfg).loss_log) == 2 * 2
    triplets = triplets[:4]
    result = train_preference(ckpt, triplets, cfg)
    assert len(result.loss_log) == 2 * math.ceil(len(triplets) / cfg.neg_batch)
    # first batch of the first epoch starts at the reference, so its dpo loss is ln 2
    assert result.loss_log[0][1] == pytest.approx(math.log(2.0), abs=1e-12)
    for name in before:
        assert np.array_equal(ckpt.params[name], before[name])


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_each_step_scores_the_reference_first_and_encodes_each_input_once(monkeypatch, kind, epochs):
    kb, vocab, trie, ckpt, examples = linking_setup()
    triplets = [
        make_triplet(vocab, examples[0], "abc", "bcd"),
        make_triplet(vocab, examples[1], "bcd", "abc"),
        make_triplet(vocab, examples[0], "abd", "bce"),
        make_triplet(vocab, examples[1], "bce", "abd"),
        make_triplet(vocab, examples[0], "abc", "bce"),
        make_triplet(vocab, examples[1], "bcd", "abd"),
    ]
    # (scores the frozen checkpoint, distinct inputs, encoder rows) per forward_pairs call
    calls: list[tuple[bool, int, int]] = []
    forward_pairs = model.forward_pairs

    def spy_forward(c, inputs, entities):
        out = forward_pairs(c, inputs, entities)
        calls.append((c is ckpt, len({x.encoder_tokens for x in inputs}), out[0].enc.tokens.shape[0]))
        return out

    monkeypatch.setattr(model, "forward_pairs", spy_forward)
    cfg = pconfig(kind, epochs=epochs)
    steps = len(train_preference(ckpt, triplets, cfg).loss_log)
    assert steps == epochs * math.ceil(len(triplets) / cfg.neg_batch)
    per_step = [True, False] if kind == "dpo" else [False]
    assert [frozen for frozen, _, _ in calls] == per_step * steps
    # a stacked batch holds every input twice, and its encoder holds each distinct one once
    assert all(distinct == rows < 4 for _, distinct, rows in calls)


def test_train_preference_zero_rate_is_identity():
    kb, vocab, trie, ckpt, examples = linking_setup()
    triplets = [make_triplet(vocab, examples[0], "abc", "bcd")]
    cfg = pconfig("cpo", lr=0.0, seed=3)
    result = train_preference(ckpt, triplets, cfg)
    for name, p in ckpt.params.items():
        assert np.array_equal(result.checkpoint.params[name], p)


def test_train_preference_deterministic():
    kb, vocab, trie, ckpt, examples = linking_setup()
    triplets = [
        make_triplet(vocab, examples[0], "abc", "bcd"),
        make_triplet(vocab, examples[1], "bcd", "abc"),
        make_triplet(vocab, examples[0], "abd", "bce"),
    ]
    cfg = pconfig("cpo", lr=1e-3, epochs=2, seed=11)
    r1 = train_preference(ckpt, triplets, cfg)
    r2 = train_preference(ckpt, triplets, cfg)
    assert r1.loss_log == r2.loss_log
    for name in ckpt.params:
        assert np.array_equal(r1.checkpoint.params[name], r2.checkpoint.params[name])
