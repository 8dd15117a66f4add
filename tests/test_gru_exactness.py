"""The lean GRU passes against the former arithmetic, byte for byte.

The forward pass reads gate weights that `model.input_tables` halved, so
the cell's matmul yields half the gate pre-activation and the cell no
longer halves it. `former_cell` is the former cell on un-halved tables:
add h@Ug, then `*0.5`, `tanh`, `*0.5`, `+0.5`. Halving is exact in binary
floating point, so `_gru_forward` and `step_batch` must equal it bit for
bit, on toy batches of 1, 5, 16 and 32 rows, for both GRUs.

The backward pass writes its gate and candidate gradients over the
cache's gates and candidates, and r*h_prev over its incoming state
gradients. `former_gru_backward` is the former pass, which allocated its
gradients beside the cache; a stage-1 batch and a dpo batch must give the
same loss and gradients bit for bit through either.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from neglink import model
from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.kb import load_kb
from neglink.train_negative import PreferenceTriplet, preference_loss_and_grads
from neglink.train_positive import LABEL_SMOOTHING, build_positive_set, ce_loss_and_grads, train

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"
ROWS = [1, 5, 16, 32]


@pytest.fixture(scope="module")
def toy():
    """A briefly trained toy checkpoint, its config, rendered train inputs and stage-1 instances."""
    kb = load_kb(DATA / "kb.jsonl")
    cfg = build_config(preset="toy")
    vocab = vocab_from_sources(kb, [str(DATA / "train.jsonl")], None)
    examples, _ = prepare_mentions(DATA / "train.jsonl", kb, None)
    instances = build_positive_set(examples[:120], kb, vocab, cfg)
    ckpt = train(model.init_checkpoint(vocab, cfg.hidden_dim, 0), instances,
                 dataclasses.replace(cfg, pos_steps=20, seed=0)).checkpoint
    inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in examples[:32]]
    return kb, cfg, ckpt, inputs, instances


def former_tables(ckpt, side, S=None):
    """(EG, EH, SG, SH) as the former `input_tables` built them: gate weights not halved."""
    p = ckpt.params
    emb, Wg, Wh = p["emb"], p[f"{side}_Wg"], p[f"{side}_Wh"]
    bg, bh = p[f"{side}_bg"], p[f"{side}_bh"]
    if S is None:
        return emb @ Wg + bg, emb @ Wh + bh, None, None
    d = emb.shape[1]
    return emb @ Wg[:d], emb @ Wh[:d], S @ Wg[d:] + bg, S @ Wh[d:] + bh


def former_cell(g, hh, h, Ug, Uh):
    """The former `_gru_cell`, which halved the gate pre-activation itself."""
    g += h @ Ug
    g *= 0.5
    np.tanh(g, out=g)
    g *= 0.5
    g += 0.5
    d = h.shape[1]
    hh += (g[:, d:] * h) @ Uh
    np.tanh(hh, out=hh)
    h_next = hh - h
    h_next *= g[:, :d]
    h_next += h
    return h_next


def former_gru_forward(ckpt, side, tokens, mask, S=None):
    """(G, Hh, states) as the former `_gru_forward` computed them."""
    p = ckpt.params
    EG, EH, SG, SH = former_tables(ckpt, side, S)
    B, T = tokens.shape
    G, Hh = EG[tokens.T], EH[tokens.T]
    if SG is not None:
        G += SG
        Hh += SH
    states = np.zeros((T + 1, B, EH.shape[1]))
    for t in range(T):
        states[t + 1] = former_cell(G[t], Hh[t], states[t], p[f"{side}_Ug"], p[f"{side}_Uh"])
    lengths = mask.sum(axis=1).astype(np.int64)
    for b in np.flatnonzero(lengths < T):
        states[lengths[b] + 1 :, b] = states[lengths[b], b]
    return G, Hh, states


def former_gru_backward(cache, dH_ext, p, side):
    """The former `_gru_backward`: gate and candidate gradients in new (T, B, .) arrays."""
    S, G, Hh, Hprev = cache.tables.S, cache.G, cache.Hh, cache.states[:-1]
    T, B, d = Hprev.shape
    emb = p["emb"]
    Wg, UgT = p[f"{side}_Wg"], p[f"{side}_Ug"].T
    Wh, UhT = p[f"{side}_Wh"], p[f"{side}_Uh"].T
    DAg = np.empty((T, B, 2 * d))
    DAh = np.empty((T, B, d))
    dh = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        dh += dH_ext[t]
        h_prev = Hprev[t]
        g, hh = G[t], Hh[t]
        z, r = g[:, :d], g[:, d:]
        da_h = np.multiply(dh, z, out=DAh[t])
        da_h *= 1.0 - hh * hh
        dg = da_h @ UhT
        da = DAg[t]
        np.subtract(hh, h_prev, out=da[:, :d])
        da[:, :d] *= dh
        np.multiply(dg, h_prev, out=da[:, d:])
        da *= g * (1.0 - g)
        dh = dh * (1.0 - z) + da @ UgT + dg * r
    flat = lambda a: a.reshape(-1, a.shape[-1])  # noqa: E731
    onehot = (np.arange(emb.shape[0])[:, None] == cache.tokens.T.reshape(1, -1)).astype(np.float64)
    tok_g, tok_h = onehot @ flat(DAg), onehot @ flat(DAh)
    demb = tok_g @ Wg[:d].T + tok_h @ Wh[:d].T
    dWg, dWh = emb.T @ tok_g, emb.T @ tok_h
    dS = None
    if S is not None:
        sum_g, sum_h = DAg.sum(axis=0), DAh.sum(axis=0)
        dS = sum_g @ Wg[d:].T + sum_h @ Wh[d:].T
        dWg = np.concatenate([dWg, S.T @ sum_g])
        dWh = np.concatenate([dWh, S.T @ sum_h])
    rHprev = np.multiply(G[:, :, d:], Hprev, out=dH_ext)
    grads = {
        "Wg": dWg, "Wh": dWh,
        "Ug": flat(Hprev).T @ flat(DAg), "Uh": flat(rHprev).T @ flat(DAh),
        "bg": DAg.sum(axis=(0, 1)), "bh": DAh.sum(axis=(0, 1)),
    }
    return demb, dS, {f"{side}_{role}": a for role, a in grads.items()}


def same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def batch(toy, rows):
    """Encoder tokens, decoder tokens (prompt then entity) and their masks over the first `rows` inputs."""
    kb, _, ckpt, inputs, _ = toy
    v, names = ckpt.vocab, sorted(kb.names())
    enc = model.pad_batch([list(x.encoder_tokens) for x in inputs[:rows]], v.pad_id)
    dec = model.pad_batch([list(x.prompt_tokens) + v.encode_chars(names[i]) for i, x in enumerate(inputs[:rows])],
                          v.pad_id)
    return enc, dec


@pytest.mark.parametrize("rows", ROWS)
def test_gru_forward_equals_the_former_arithmetic_bit_for_bit(toy, rows):
    ckpt = toy[2]
    (enc_tokens, enc_mask), (dec_tokens, dec_mask) = batch(toy, rows)
    assert enc_mask.min() == 0 or rows == 1  # padded rows take part
    summary, enc, _ = model.encoder_forward(ckpt, enc_tokens, enc_mask)
    _, dec = model.decoder_forward(ckpt, dec_tokens, dec_mask, summary)
    for cache, want in ((enc, former_gru_forward(ckpt, "enc", enc_tokens, enc_mask)),
                        (dec, former_gru_forward(ckpt, "dec", dec_tokens, dec_mask, summary))):
        for got, ref in zip((cache.G, cache.Hh, cache.states), want, strict=True):
            assert same_bits(got, ref)


@pytest.mark.parametrize("rows", ROWS)
def test_step_batch_equals_the_former_arithmetic_bit_for_bit(toy, rows):
    ckpt = toy[2]
    p = ckpt.params
    (enc_tokens, enc_mask), (dec_tokens, dec_mask) = batch(toy, rows)
    summary, _, _ = model.encoder_forward(ckpt, enc_tokens, enc_mask)
    states, cache = model.decoder_forward(ckpt, dec_tokens, dec_mask, summary)
    EG, EH, SG, SH = former_tables(ckpt, "dec", summary)
    owners = np.arange(rows)[::-1].copy()  # each hypothesis reads another mention's row
    for t in (0, 3, dec_tokens.shape[1] - 1):
        h, tokens = states[owners, t], dec_tokens[owners, t]
        got_states, got_logits = model.step_batch(h, tokens, owners, cache.tables, ckpt)
        g, hh = EG[tokens], EH[tokens]
        g += SG[owners]
        hh += SH[owners]
        want_states = former_cell(g, hh, h, p["dec_Ug"], p["dec_Uh"])
        assert same_bits(got_states, want_states)
        assert same_bits(got_logits, want_states @ p["out_W"] + p["out_b"])


def gradients_both_ways(monkeypatch, loss_and_grads):
    """(loss, grads) from the in-place backward, then from the former one."""
    got = loss_and_grads()
    with monkeypatch.context() as m:
        m.setattr(model, "_gru_backward", former_gru_backward)
        want = loss_and_grads()
    return got, want


def assert_same(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert loss == ref_loss
    assert set(grads) == set(ref_grads)
    for name in sorted(ref_grads):
        assert same_bits(grads[name], ref_grads[name]), name


def test_in_place_backward_equals_the_former_on_a_stage1_batch(toy, monkeypatch):
    _, cfg, ckpt, _, instances = toy
    picked = [instances[i] for i in np.random.default_rng(3).choice(len(instances), cfg.pos_batch, replace=False)]
    assert_same(*gradients_both_ways(monkeypatch, lambda: ce_loss_and_grads(ckpt, picked, LABEL_SMOOTHING)))


def test_in_place_backward_equals_the_former_on_a_dpo_batch(toy, monkeypatch):
    kb, cfg, ckpt, inputs, _ = toy
    names = sorted(kb.names())
    triplets = [PreferenceTriplet(input=x, preferred=names[i], dispreferred=names[-1 - i])
                for i, x in enumerate(inputs[:16])]
    ref = model.init_checkpoint(ckpt.vocab, cfg.hidden_dim, 1)
    dpo = dataclasses.replace(cfg, loss="dpo")
    assert_same(*gradients_both_ways(monkeypatch, lambda: preference_loss_and_grads(ckpt, ref, triplets, dpo)))
