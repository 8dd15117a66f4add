"""The one-pass prompt against the per-token reference it replaced.

`reference_prompt_log_prob` is the former implementation of
`beam.prompt_log_prob`: it feeds the prompt one token at a time through
`reference_step`, a copy of the former `model.step_batch` arithmetic
(`x@W + h@U + b` in that order). The current implementation consumes the
prompt with one `model.decoder_forward` call, and `model.step_batch` now adds
the bias before `h@U`. Both must agree within 1e-12 on the bundled toy test
set, and so must the rankings and scores of the whole search, which also
runs the current `step_batch` against the former one.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from neglink import beam, model
from neglink.beam import constrained_beam_search, prompt_log_prob
from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.kb import load_kb
from neglink.model import ModelConfig, init_checkpoint, log_softmax
from neglink.tfidf import build_index
from neglink.train_positive import build_positive_set, train
from neglink.trie import build_trie

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"
TOL = 1e-12


def reference_step(states, tokens, summaries, ckpt):
    """One decoder step as the former `model.step_batch` computed it."""
    p = ckpt.params
    x = np.concatenate([p["emb"][tokens], summaries], axis=1)
    z = expit(x @ p["dec_Wz"] + states @ p["dec_Uz"] + p["dec_bz"])
    r = expit(x @ p["dec_Wr"] + states @ p["dec_Ur"] + p["dec_br"])
    hh = np.tanh(x @ p["dec_Wh"] + (r * states) @ p["dec_Uh"] + p["dec_bh"])
    new_states = (1.0 - z) * states + z * hh
    return new_states, new_states @ p["out_W"] + p["out_b"]


def reference_prompt_log_prob(ckpt, enc_input):
    """Per-token prompt loop: (state, next-token log-distribution, summary, score)."""
    prompt = list(enc_input.prompt_tokens)
    summary = model.encode(enc_input.encoder_tokens, ckpt)[None, :]
    state = np.zeros((1, ckpt.config.hidden_dim))
    score = 0.0
    logp = None
    for j, tok in enumerate(prompt):
        state, logits = reference_step(state, np.array([tok]), summary, ckpt)
        logp = log_softmax(logits[0])
        if j + 1 < len(prompt):
            score += float(logp[prompt[j + 1]])
    return state[0], logp, summary[0], score


@pytest.fixture(scope="module")
def toy():
    """Toy KB, trie, rendered test inputs and a briefly trained checkpoint."""
    kb = load_kb(DATA / "kb.jsonl")
    cfg = build_config(preset="toy")
    vocab = vocab_from_sources(kb, [str(DATA / "train.jsonl"), str(DATA / "test.jsonl")], None)
    trie = build_trie(kb.names(), vocab)
    train_ex, _ = prepare_mentions(DATA / "train.jsonl", kb, None)
    test_ex, _ = prepare_mentions(DATA / "test.jsonl", kb, None)
    instances = build_positive_set(train_ex, kb, build_index(kb.names()), vocab,
                                   k=cfg.syn_topk, max_ctx=cfg.max_ctx)
    base = init_checkpoint(vocab, ModelConfig(hidden_dim=cfg.hidden_dim, seed=0))
    opt = dataclasses.replace(cfg.positive_optimizer(), steps=40)
    ckpt = train(base, instances, opt, seed=0).checkpoint
    inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex]
    return kb, trie, ckpt, inputs, cfg


def test_one_pass_prompt_matches_the_per_token_loop(toy):
    _, _, ckpt, inputs, _ = toy
    worst = 0.0
    for enc in inputs:
        state, logp, summary, score = prompt_log_prob(ckpt, enc)
        ref_state, ref_logp, ref_summary, ref_score = reference_prompt_log_prob(ckpt, enc)
        assert np.array_equal(summary, ref_summary)
        worst = max(worst, float(np.abs(state - ref_state).max()),
                    float(np.abs(logp - ref_logp).max()), abs(score - ref_score))
    assert worst <= TOL, worst


def test_search_rankings_identical_to_the_per_token_prompt(toy, monkeypatch):
    kb, trie, ckpt, inputs, cfg = toy

    def search_all():
        return [constrained_beam_search(ckpt, enc, trie, kb, beam=cfg.beam, k=cfg.topk) for enc in inputs]

    new = search_all()
    monkeypatch.setattr(beam, "prompt_log_prob", reference_prompt_log_prob)
    monkeypatch.setattr(model, "step_batch", reference_step)
    ref = search_all()
    for got, want in zip(new, ref):
        assert [p.name for p in got] == [p.name for p in want]
        assert [p.ids for p in got] == [p.ids for p in want]
        for p, q in zip(got, want):
            assert abs(p.score - q.score) <= TOL
