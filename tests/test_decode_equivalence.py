"""The batched decode path against the per-token and per-mention references.

`reference_prompt_log_prob` is the former per-mention implementation of
`beam.prompt_log_prob`: it feeds one prompt one token at a time through
`reference_step`, a copy of the former `model.step_batch` arithmetic
(`x@W + h@U + b` in that order, x = [embedding ++ summary] through one
matmul). The current implementation encodes a batch of inputs and consumes
their prompts with one `model.decoder_forward` call, and `model.step_batch`
gathers its input projections from that call's input tables and adds them
before `h@U`. Both must agree within 1e-12 on the bundled toy test set, and
so must the rankings and scores of the whole search, which also runs the
current `step_batch` against the former one.

`constrained_beam_search_batch` searches many mentions with shared model
calls. Its rankings must equal the per-mention search's, with scores within
1e-12; a batch of one must reproduce it exactly. A chunk that holds one
input twice encodes it once and gives both copies the same predictions.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.special import expit

from neglink import beam, model
from neglink.beam import CHUNK, constrained_beam_search, constrained_beam_search_batch, prompt_log_prob
from neglink.model import log_softmax
from neglink.trie import build_trie

TOL = 1e-12


def reference_step(states, tokens, rows, tables, ckpt):
    """One decoder step as the former `model.step_batch` computed it, one gate at a time.

    It reads only the summaries (`tables.S`) of the tables, one per row.
    """
    p = ckpt.params
    (Wz, Wr), (Uz, Ur), (bz, br) = (np.hsplit(p[f"dec_{k}g"], 2) for k in "WUb")
    x = np.concatenate([p["emb"][tokens], tables.S[rows]], axis=1)
    z = expit(x @ Wz + states @ Uz + bz)
    r = expit(x @ Wr + states @ Ur + br)
    hh = np.tanh(x @ p["dec_Wh"] + (r * states) @ p["dec_Uh"] + p["dec_bh"])
    new_states = (1.0 - z) * states + z * hh
    return new_states, new_states @ p["out_W"] + p["out_b"]


def reference_prompt_log_prob(ckpt, enc_input):
    """Per-token prompt loop: (state, next-token log-distribution, summary, score)."""
    prompt = list(enc_input.prompt_tokens)
    toks, mask = model.pad_batch([list(enc_input.encoder_tokens)], ckpt.vocab.pad_id)
    summary, _, _ = model.encoder_forward(ckpt, toks, mask)
    tables = model.input_tables(ckpt, "dec", summary)
    state = np.zeros((1, ckpt.params["emb"].shape[1]))
    score = 0.0
    logp = None
    for j, tok in enumerate(prompt):
        state, logits = reference_step(state, np.array([tok]), np.array([0]), tables, ckpt)
        logp = log_softmax(logits[0])
        if j + 1 < len(prompt):
            score += float(logp[prompt[j + 1]])
    return state[0], logp, summary[0], score


def reference_prompt_batch(ckpt, inputs):
    """`reference_prompt_log_prob` for each input, stacked as `prompt_log_prob` returns them."""
    states, logps, summaries, scores = zip(*(reference_prompt_log_prob(ckpt, x) for x in inputs))
    return np.stack(states), np.stack(logps), model.input_tables(ckpt, "dec", np.stack(summaries)), list(scores)


def test_one_pass_prompt_matches_the_per_token_loop(toy_linker):
    _, _, ckpt, inputs, _ = toy_linker
    worst = 0.0
    for enc in inputs:
        states, logps, tables, scores = prompt_log_prob(ckpt, [enc])
        state, logp, summary, score = states[0], logps[0], tables.S[0], scores[0]
        ref_state, ref_logp, ref_summary, ref_score = reference_prompt_log_prob(ckpt, enc)
        assert np.array_equal(summary, ref_summary)
        worst = max(worst, float(np.abs(state - ref_state).max()),
                    float(np.abs(logp - ref_logp).max()), abs(score - ref_score))
    assert worst <= TOL, worst


def test_search_rankings_identical_to_the_per_token_prompt(toy_linker, monkeypatch):
    kb, trie, ckpt, inputs, cfg = toy_linker

    def search_all():
        return [constrained_beam_search(ckpt, enc, trie, kb, beam=cfg.beam, k=cfg.topk) for enc in inputs]

    new = search_all()
    monkeypatch.setattr(beam, "prompt_log_prob", reference_prompt_batch)
    monkeypatch.setattr(model, "step_batch", reference_step)
    ref = search_all()
    for got, want in zip(new, ref):
        assert [p.name for p in got] == [p.name for p in want]
        assert [p.ids for p in got] == [p.ids for p in want]
        for p, q in zip(got, want):
            assert abs(p.score - q.score) <= TOL


def per_mention(toy_linker, inputs):
    kb, trie, ckpt, _, cfg = toy_linker
    return [constrained_beam_search(ckpt, enc, trie, kb, beam=cfg.beam, k=cfg.topk) for enc in inputs]


def assert_same_rankings(got, want):
    assert len(got) == len(want)
    worst = 0.0
    for g, w in zip(got, want):
        assert [(p.name, p.ids) for p in g] == [(p.name, p.ids) for p in w]
        worst = max([worst] + [abs(p.score - q.score) for p, q in zip(g, w)])
    assert worst <= TOL, worst


def test_batch_of_one_equals_the_per_mention_search(toy_linker):
    kb, trie, ckpt, inputs, cfg = toy_linker
    want = per_mention(toy_linker, inputs)
    for enc, w in zip(inputs, want):
        assert constrained_beam_search_batch(ckpt, [enc], trie, kb, beam=cfg.beam, k=cfg.topk) == [w]


def test_chunked_search_matches_the_per_mention_search(toy_linker):
    kb, trie, ckpt, inputs, cfg = toy_linker
    step = 70  # not a multiple of CHUNK, so calls end in a partial chunk
    assert step % CHUNK
    got = []
    for start in range(0, len(inputs), step):
        got += constrained_beam_search_batch(ckpt, inputs[start : start + step], trie, kb, beam=cfg.beam, k=cfg.topk)
    assert_same_rankings(got, per_mention(toy_linker, inputs))


def test_mixed_lengths_in_one_chunk(toy_linker):
    kb, trie, ckpt, inputs, cfg = toy_linker
    by_prompt = sorted(inputs, key=lambda x: len(x.prompt_tokens))
    by_encoder = sorted(inputs, key=lambda x: len(x.encoder_tokens))
    chunk = [by_prompt[0], by_encoder[-1], by_prompt[-1], by_encoder[0], by_prompt[1], by_prompt[-2]]
    assert len(by_prompt[0].prompt_tokens) < len(by_prompt[-1].prompt_tokens)
    assert len(by_encoder[0].encoder_tokens) < len(by_encoder[-1].encoder_tokens)
    states, logps, tables, scores = prompt_log_prob(ckpt, chunk)
    summaries = tables.S
    for i, enc in enumerate(chunk):
        ref_state, ref_logp, ref_summary, ref_score = reference_prompt_log_prob(ckpt, enc)
        worst = max(float(np.abs(states[i] - ref_state).max()), float(np.abs(logps[i] - ref_logp).max()),
                    float(np.abs(summaries[i] - ref_summary).max()), abs(scores[i] - ref_score))
        assert worst <= TOL, (i, worst)
    got = constrained_beam_search_batch(ckpt, chunk, trie, kb, beam=cfg.beam, k=cfg.topk)
    assert_same_rankings(got, per_mention(toy_linker, chunk))


def test_a_chunk_that_repeats_an_input_encodes_it_once(toy_linker, monkeypatch):
    kb, trie, ckpt, inputs, cfg = toy_linker
    chunk = inputs[: CHUNK - 1] + [inputs[5]]
    assert len(chunk) == CHUNK and len({x.encoder_tokens for x in chunk}) == CHUNK - 1
    encoded = []
    encoder_forward = model.encoder_forward

    def spy(ckpt, tokens, mask):
        encoded.extend(tuple(row[m > 0].tolist()) for row, m in zip(tokens, mask))
        return encoder_forward(ckpt, tokens, mask)

    monkeypatch.setattr(model, "encoder_forward", spy)
    got = constrained_beam_search_batch(ckpt, chunk, trie, kb, beam=cfg.beam, k=cfg.topk)
    assert encoded == [x.encoder_tokens for x in chunk[:-1]]
    assert got[5] == got[-1]
    monkeypatch.undo()
    assert_same_rankings(got, per_mention(toy_linker, chunk))


def test_a_trie_built_from_shuffled_names_searches_identically(toy_linker):
    kb, trie, ckpt, inputs, cfg = toy_linker
    names = kb.names()
    assert names == sorted(names)
    shuffled = names[:]
    random.Random(3).shuffle(shuffled)
    other = build_trie(shuffled, ckpt.vocab)
    for chunk in (inputs[:40], inputs[40:41]):
        want = constrained_beam_search_batch(ckpt, chunk, trie, kb, beam=cfg.beam, k=cfg.topk)
        assert constrained_beam_search_batch(ckpt, chunk, other, kb, beam=cfg.beam, k=cfg.topk) == want


def test_batch_edge_cases(toy_linker):
    kb, trie, ckpt, inputs, _ = toy_linker
    assert constrained_beam_search_batch(ckpt, [], trie, kb) == []
    for batch in ([], inputs[:3]):
        with pytest.raises(ValueError):
            constrained_beam_search_batch(ckpt, batch, trie, kb, beam=1, k=2)
        with pytest.raises(ValueError):
            constrained_beam_search_batch(ckpt, batch, trie, kb, beam=2, k=0)
