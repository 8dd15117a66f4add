"""Stage-1 synonym-generation training: targets, loss values, loop behavior."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from neglink import model
from neglink.config import RunConfig
from neglink.corpus import MentionExample
from neglink.kb import Concept, build_kb
from neglink.train_positive import (
    build_positive_set,
    ce_loss_and_grads,
    train,
)
from neglink.vocab import Vocab


def toy_kb():
    return build_kb(
        [
            Concept("C1", ("abc", "abd", "xyz"), None),
            Concept("C2", ("bcd",), None),
        ]
    )


def toy_vocab():
    return Vocab.from_texts(["abcdxyz is "])


def mention(m, ids, targets=None, left="ab", right="cd"):
    return MentionExample(left_context=left, mention=m, right_context=right,
                          gold_ids=frozenset(ids), targets=targets)


def test_build_positive_set_selects_nearest_synonyms():
    kb = toy_kb()
    vocab = toy_vocab()
    inst = build_positive_set([mention("abc", {"C1"})], kb, vocab, RunConfig(syn_topk=2))
    names = [i.target_name for i in inst]
    assert names == ["abc", "abd"]
    want = tuple(vocab.encode_chars("abc") + [vocab.eos_id])
    assert inst[0].target == want


def test_build_positive_set_honors_explicit_targets():
    kb = toy_kb()
    vocab = toy_vocab()
    inst = build_positive_set([mention("abc", {"C1"}, targets=("xyz",))], kb, vocab, RunConfig(syn_topk=3))
    assert [i.target_name for i in inst] == ["xyz"]


def test_uniform_model_ce_is_log_vocab_size():
    kb = toy_kb()
    vocab = toy_vocab()
    ckpt = model.init_checkpoint(vocab, 8, 0)
    for p in ckpt.params.values():
        p[...] = 0.0
    inst = build_positive_set([mention("abc", {"C1"})], kb, vocab, RunConfig(syn_topk=1))[0]
    # a uniform predictive distribution scores -ln V per position for any
    # smoothing, because the smoothed target distribution sums to one
    for smoothing in (0.0, 0.1, 0.5):
        assert abs(ce_loss_and_grads(ckpt, [inst], smoothing)[0] - math.log(len(vocab))) < 1e-12


def test_ce_gradients_match_finite_differences():
    kb = toy_kb()
    vocab = toy_vocab()
    ckpt = model.init_checkpoint(vocab, 6, 3)
    instances = build_positive_set(
        [mention("abc", {"C1"}), mention("bcd", {"C2"}, left="", right="xy")],
        kb, vocab, RunConfig(syn_topk=2),
    )
    _, grads = ce_loss_and_grads(ckpt, instances, smoothing=0.1)
    rng = np.random.default_rng(1)
    h = 1e-5
    for name in sorted(grads):
        flat = ckpt.params[name].reshape(-1)
        for _ in range(3):
            i = int(rng.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + h
            up, _ = ce_loss_and_grads(ckpt, instances, smoothing=0.1)
            flat[i] = keep - h
            down, _ = ce_loss_and_grads(ckpt, instances, smoothing=0.1)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[i]
            assert abs(an - fd) / max(1.0, abs(an)) < 1e-6


def training_setup(seed=0):
    kb = toy_kb()
    vocab = toy_vocab()
    examples = [
        mention("abc", {"C1"}),
        mention("abd", {"C1"}, left="x", right="y"),
        mention("bcd", {"C2"}, left="", right="ab"),
    ]
    instances = build_positive_set(examples, kb, vocab, RunConfig(syn_topk=2))
    ckpt = model.init_checkpoint(vocab, 8, seed)
    return ckpt, instances


def test_training_reduces_loss():
    ckpt, instances = training_setup()
    cfg = RunConfig(pos_lr=5e-3, pos_steps=60, pos_batch=4, pos_warmup=5, seed=0)
    result = train(ckpt, instances, cfg)
    first = np.mean([l for _, l in result.loss_log[:5]])
    last = np.mean([l for _, l in result.loss_log[-5:]])
    assert last < first
    assert len(result.loss_log) == 60


def test_zero_rate_training_is_identity():
    ckpt, instances = training_setup()
    cfg = RunConfig(pos_lr=0.0, pos_steps=8, pos_batch=4, seed=0)
    result = train(ckpt, instances, cfg)
    for name, p in ckpt.params.items():
        assert np.array_equal(result.checkpoint.params[name], p)


def test_training_is_deterministic():
    ckpt, instances = training_setup()
    cfg = RunConfig(pos_lr=5e-3, pos_steps=20, pos_batch=4, seed=7)
    r1 = train(ckpt, instances, cfg)
    r2 = train(ckpt, instances, cfg)
    assert r1.loss_log == r2.loss_log
    for name in ckpt.params:
        assert np.array_equal(r1.checkpoint.params[name], r2.checkpoint.params[name])
    r3 = train(ckpt, instances, dataclasses.replace(cfg, seed=8))
    assert any(
        not np.array_equal(r1.checkpoint.params[n], r3.checkpoint.params[n]) for n in ckpt.params
    )


def test_input_checkpoint_not_modified():
    ckpt, instances = training_setup()
    before = {k: v.copy() for k, v in ckpt.params.items()}
    cfg = RunConfig(pos_lr=5e-3, pos_steps=10, pos_batch=4, seed=0)
    train(ckpt, instances, cfg)
    for name in before:
        assert np.array_equal(ckpt.params[name], before[name])


def test_empty_instances_rejected():
    ckpt, _ = training_setup()
    cfg = RunConfig(pos_lr=1e-3, pos_steps=5, seed=0)
    with pytest.raises(ValueError):
        train(ckpt, [], cfg)
