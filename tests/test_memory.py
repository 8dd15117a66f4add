"""Peak memory of a training step, measured with tracemalloc (numpy reports its array data to it).

The encoder's forward pass keeps its cache arrays and allocates nothing
else of shape (T, B, .): the input projections are gathered straight into
the gate and candidate arrays, and the states' mean is reduced without a
masked copy. A dpo step on 16 toy pairs stays under a bound set from its
measured peak of 7.23 MiB on numpy 2.4 (the former layout peaked at
9.41 MiB); since the backward writes its gate gradients over the spent
activations it peaks at 6.04 MiB. A backward pass consumes both GRUs'
caches, so a second one raises ValueError.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from neglink import model
from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.kb import load_kb
from neglink.train_negative import PreferenceTriplet, preference_loss_and_grads

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"
DPO_PEAK_BOUND = 7.6 * 2**20  # bytes


@pytest.fixture(scope="module")
def toy():
    kb = load_kb(DATA / "kb.jsonl")
    cfg = dataclasses.replace(build_config(preset="toy"), loss="dpo")
    vocab = vocab_from_sources(kb, [str(DATA / "train.jsonl")], None)
    examples, _ = prepare_mentions(DATA / "train.jsonl", kb, None)
    inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in examples[:16]]
    return kb, cfg, model.init_checkpoint(vocab, cfg.hidden_dim, 0), inputs


def traced(fn):
    """(result, bytes still held after `fn()`, peak bytes during it), both over what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_encoder_forward_allocates_its_cache_and_row_scratch_only(toy):
    _, cfg, ckpt, inputs = toy
    tokens, mask = model.pad_batch([list(x.encoder_tokens) for x in inputs], ckpt.vocab.pad_id)
    (summary, cache, counts), held, peak = traced(lambda: model.encoder_forward(ckpt, tokens, mask))
    B, T = tokens.shape
    d = cfg.hidden_dim
    # Beyond what it keeps: (B, .) scratch and index copies, far less than one (T, B, d) array.
    row_scratch = 8 * B * d * 8
    assert peak - held <= row_scratch < T * B * d * 8
    kept = [cache.G, cache.Hh, cache.states, cache.tables.EG, cache.tables.EH, summary, counts]
    assert held >= sum(a.nbytes for a in kept)
    assert cache.H.base is cache.states and cache.states.shape == (T + 1, B, d)
    assert not cache.states[0].any()
    # The summary is the masked mean of the states, bit for bit as a masked copy's sum gives it.
    assert np.array_equal(summary, (cache.H * mask.T[:, :, None]).sum(axis=0) / counts[:, None])


def test_a_dpo_step_on_16_toy_pairs_stays_under_its_peak_bound(toy):
    kb, cfg, ckpt, inputs = toy
    names = sorted(kb.names())
    triplets = [PreferenceTriplet(input=x, preferred=names[i], dispreferred=names[-1 - i]) for i, x in enumerate(inputs)]
    ref = model.copy_checkpoint(ckpt)
    preference_loss_and_grads(ckpt, ref, triplets, cfg)  # first-call allocations outside the measurement
    (loss, grads), _, peak = traced(lambda: preference_loss_and_grads(ckpt, ref, triplets, cfg))
    assert np.isfinite(loss) and set(grads) == set(ckpt.params)
    assert peak <= DPO_PEAK_BOUND, peak / 2**20


def test_a_second_backward_on_a_consumed_cache_raises_value_error(toy):
    _, _, ckpt, inputs = toy
    v = ckpt.vocab
    entities = [v.encode_chars("ab") + [v.eos_id]] * 2
    cache, targets, tmask = model.forward_pairs(ckpt, inputs[:2], entities)
    dlogits = model.target_dlogits(cache, targets, -tmask)
    model.backward_from_dlogits(ckpt, cache, dlogits)
    assert cache.dec is None and cache.enc is None
    picked = model.target_log_probs(cache.logits, targets)[1]  # logits stay
    assert model.sequence_log_probs(picked, tmask).shape == (2,)
    with pytest.raises(ValueError, match="new forward pass"):
        model.backward_from_dlogits(ckpt, cache, dlogits)
