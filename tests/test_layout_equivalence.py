"""Time-major GRU loops against the former batch-major ones.

`reference_forward_teacher` and `reference_backward` are the former
teacher-forced forward and backward: (B, T, .) loop arrays sliced with
`[:, t]`, the decoder reading the concatenated (B, T, 2d) input
[embedding ++ summary] through one matmul, and embedding gradients summed
with `np.add.at`. The current code runs (T, B, .) loops, projects the
summary once per row and sums embedding gradients with one product, so it
may differ in the last bits only: on a padded toy batch that mixes the
shortest and longest encoder and decoder rows, the summaries, decoder
states, logits and every parameter gradient must agree within 1e-12
relative to the largest magnitude of each array, and beam search must
return the same rankings with scores within 1e-12.

`row_per_pair_forward` is the former `model.forward_teacher` input layout:
one encoder row per decoder row, so an input that several pairs share is
encoded once per pair. The current `model.forward_pairs` encodes each
distinct input once. On batches that repeat inputs, sequence log-probs and
every gradient must agree within 1e-12 relative; on all-distinct batches
they must be bit-identical.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from neglink import model
from neglink.beam import constrained_beam_search_batch

TOL = 1e-12


def gate_halves(p, side):
    """(Wz, Wr), (Uz, Ur), (bz, br): the update and reset halves of a GRU's fused gate arrays."""
    return tuple(np.hsplit(p[f"{side}_{k}g"], 2) for k in "WUb")


def reference_gru_forward(X, mask, p, side):
    """The former batch-major loop over X (B, T, in_dim), one gate at a time: (H, G, Hh), each (B, T, .)."""
    (Wz, Wr), (Uz, Ur), (bz, br) = gate_halves(p, side)
    Uh = p[f"{side}_Uh"]
    B, T, _ = X.shape
    d = Uh.shape[0]
    XZ, XR = X @ Wz + bz, X @ Wr + br
    XH = X @ p[f"{side}_Wh"] + p[f"{side}_bh"]
    G = np.empty((B, T, 2 * d))
    Hh = np.empty((B, T, d))
    H = np.empty((B, T, d))
    h = np.zeros((B, d))
    for t in range(T):
        z = expit(XZ[:, t] + h @ Uz)
        r = expit(XR[:, t] + h @ Ur)
        hh = np.tanh(XH[:, t] + (r * h) @ Uh)
        h = h + z * (hh - h)
        G[:, t, :d], G[:, t, d:], Hh[:, t], H[:, t] = z, r, hh, h
    lengths = mask.sum(axis=1).astype(np.int64)
    if lengths.min() < T:
        last = np.minimum(np.arange(T), lengths[:, None] - 1)
        H = np.take_along_axis(H, last[:, :, None], axis=1)
    return H, G, Hh


def reference_gru_backward(cache, dH_ext, p, side):
    """The former batch-major backward, one gate at a time: (dX, weight grads by parameter name)."""
    X, G, Hh, H = cache.X, cache.G, cache.Hh, cache.H
    B, T, d = H.shape
    (Wz, Wr), (Uz, Ur), _ = gate_halves(p, side)
    Wh, UhT = p[f"{side}_Wh"], p[f"{side}_Uh"].T
    DAg = np.empty((B, T, 2 * d))
    DAh = np.empty((B, T, d))
    dh = np.zeros((B, d))
    h0 = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        dh = dh + dH_ext[:, t]
        h_prev = H[:, t - 1] if t > 0 else h0
        g, hh = G[:, t], Hh[:, t]
        z, r = g[:, :d], g[:, d:]
        da_h = (dh * z) * (1.0 - hh * hh)
        dg = da_h @ UhT
        da = DAg[:, t]
        da[:, :d] = dh * (hh - h_prev)
        da[:, d:] = dg * h_prev
        da *= g * (1.0 - g)
        DAh[:, t] = da_h
        dh = dh * (1.0 - z) + da[:, :d] @ Uz.T + da[:, d:] @ Ur.T + dg * r
    Hprev = np.concatenate([np.zeros((B, 1, d)), H[:, :-1]], axis=1)
    flat = lambda a: a.reshape(-1, a.shape[-1])  # noqa: E731
    DAz, DAr = DAg[:, :, :d], DAg[:, :, d:]
    dX = (DAz @ Wz.T + DAr @ Wr.T + DAh @ Wh.T).reshape(X.shape)
    grads = {
        "Wg": np.hstack([flat(X).T @ flat(DAz), flat(X).T @ flat(DAr)]), "Wh": flat(X).T @ flat(DAh),
        "Ug": np.hstack([flat(Hprev).T @ flat(DAz), flat(Hprev).T @ flat(DAr)]),
        "Uh": flat(G[:, :, d:] * Hprev).T @ flat(DAh),
        "bg": np.hstack([DAz.sum(axis=(0, 1)), DAr.sum(axis=(0, 1))]), "bh": DAh.sum(axis=(0, 1)),
    }
    return dX, {f"{side}_{role}": a for role, a in grads.items()}


def reference_encoder_forward(ckpt, tokens, mask):
    p = ckpt.params
    counts = mask.sum(axis=1)
    X = p["emb"][tokens]
    H, G, Hh = reference_gru_forward(X, mask, p, "enc")
    summary = (H * mask[:, :, None]).sum(axis=1) / counts[:, None]
    return summary, SimpleNamespace(tokens=tokens, mask=mask, X=X, G=G, Hh=Hh, H=H), counts


def reference_decoder_forward(ckpt, tokens, mask, summary):
    p = ckpt.params
    E = p["emb"][tokens]
    X = np.concatenate([E, np.broadcast_to(summary[:, None, :], E.shape)], axis=2)
    H, G, Hh = reference_gru_forward(X, mask, p, "dec")
    return H, SimpleNamespace(tokens=tokens, mask=mask, X=X, G=G, Hh=Hh, H=H)


def reference_forward_teacher(ckpt, enc_tokens, enc_mask, dec_tokens, dec_mask, rows):
    enc_tokens, enc_mask = enc_tokens[rows], enc_mask[rows]  # one encoder row per decoder row
    summary, enc_cache, counts = reference_encoder_forward(ckpt, enc_tokens, enc_mask)
    states, dec_cache = reference_decoder_forward(ckpt, dec_tokens, dec_mask, summary)
    logits = states @ ckpt.params["out_W"] + ckpt.params["out_b"]
    return model.ForwardCache(enc=enc_cache, counts=counts, summary=summary, rows=np.arange(len(rows)),
                              dec=dec_cache, logits=logits)


def reference_backward(ckpt, cache, dlogits):
    """The former `model.backward_from_dlogits`."""
    p = ckpt.params
    d = ckpt.params["emb"].shape[1]
    V = dlogits.shape[2]
    flat_states = cache.dec.H.reshape(-1, d)
    flat_dlogits = dlogits.reshape(-1, V)
    grads = {"out_W": flat_states.T @ flat_dlogits, "out_b": flat_dlogits.sum(axis=0)}
    dX_dec, g = reference_gru_backward(cache.dec, dlogits @ p["out_W"].T, p, "dec")
    grads.update(g)
    demb = np.zeros_like(p["emb"])
    np.add.at(demb, cache.dec.tokens.ravel(), dX_dec[:, :, :d].reshape(-1, d))
    dsummary = dX_dec[:, :, d:].sum(axis=1)
    dH_enc = (dsummary / cache.counts[:, None])[:, None, :] * cache.enc.mask[:, :, None]
    dX_enc, g = reference_gru_backward(cache.enc, dH_enc, p, "enc")
    grads.update(g)
    np.add.at(demb, cache.enc.tokens.ravel(), dX_enc.reshape(-1, d))
    grads["emb"] = demb
    return grads


def assert_close(got, want, what):
    scale = float(np.abs(want).max())
    err = float(np.abs(np.asarray(got) - want).max())
    assert err <= TOL * scale, (what, err, scale)


def mixed_batch(toy_linker):
    """Inputs and entities whose encoder and decoder rows span the shortest and longest of the set."""
    kb, _, ckpt, inputs, _ = toy_linker
    vocab = ckpt.vocab
    names = sorted(kb.names(), key=len)
    by_encoder = sorted(inputs, key=lambda x: len(x.encoder_tokens))
    by_prompt = sorted(inputs, key=lambda x: len(x.prompt_tokens))
    batch = [by_encoder[0], by_prompt[-1], by_encoder[-1], by_prompt[0], by_encoder[1], by_prompt[-2]]
    entities = [vocab.encode_chars(n) + [vocab.eos_id] for n in (names[0], names[0], names[-1], names[-1], names[1], names[-2])]
    return batch, entities


def test_forward_and_gradients_match_the_batch_major_loops(toy_linker, monkeypatch):
    ckpt = toy_linker[2]
    inputs, entities = mixed_batch(toy_linker)
    cache, targets, target_mask = model.forward_pairs(ckpt, inputs, entities)
    enc_len, dec_len = cache.enc.mask.sum(axis=1), cache.dec.mask.sum(axis=1)
    assert enc_len.min() < enc_len.max() and dec_len.min() < dec_len.max()
    monkeypatch.setattr(model, "forward_teacher", reference_forward_teacher)
    ref, ref_targets, ref_mask = model.forward_pairs(ckpt, inputs, entities)
    assert np.array_equal(targets, ref_targets) and np.array_equal(target_mask, ref_mask)

    assert_close(cache.summary, ref.summary, "summary")
    assert_close(cache.dec.H.transpose(1, 0, 2), ref.dec.H, "decoder states")
    assert_close(cache.logits, ref.logits, "logits")

    weights = target_mask * np.linspace(-1.0, 1.0, len(inputs))[:, None]
    got = model.backward_from_dlogits(ckpt, cache, model.target_dlogits(cache, targets, weights))
    want = reference_backward(ckpt, ref, model.target_dlogits(ref, targets, weights))
    assert set(got) == set(want) == set(ckpt.params)
    for name in sorted(want):
        assert got[name].shape == want[name].shape, name
        assert_close(got[name], want[name], name)


def test_beam_rankings_match_the_batch_major_loops(toy_linker, monkeypatch):
    kb, trie, ckpt, inputs, cfg = toy_linker
    batch = inputs[:40] + mixed_batch(toy_linker)[0]

    def search():
        return constrained_beam_search_batch(ckpt, batch, trie, kb, beam=cfg.beam, k=cfg.topk)

    got = search()

    def reference_prompt_pass(ckpt, *args):
        # The search reads the states after each prompt from the time-major cache.dec.H,
        # and decodes from the input tables over the prompt pass's summaries.
        cache = reference_forward_teacher(ckpt, *args)
        cache.dec.H = cache.dec.H.transpose(1, 0, 2)
        cache.dec.tables = model.input_tables(ckpt, "dec", cache.summary)
        return cache

    monkeypatch.setattr(model, "forward_teacher", reference_prompt_pass)
    want = search()
    worst = 0.0
    for g, w in zip(got, want, strict=True):
        assert [(p.name, p.ids) for p in g] == [(p.name, p.ids) for p in w]
        worst = max([worst] + [abs(p.score - q.score) for p, q in zip(g, w)])
    assert worst <= TOL, worst


# ---------------------------------------------------------------------------
# each distinct input encoded once against one encoder row per pair


def row_per_pair_forward(forward_teacher):
    """`forward_teacher` run with one encoder row per decoder row, as before inputs were encoded once."""

    def forward(ckpt, enc_tokens, enc_mask, dec_tokens, dec_mask, rows):
        return forward_teacher(ckpt, enc_tokens[rows], enc_mask[rows], dec_tokens, dec_mask, np.arange(len(rows)))

    return forward


def three_targets_of_one_mention(toy_linker):
    """A stage-1 batch where one mention's input stands under three different names, between two others."""
    kb, _, ckpt, inputs, _ = toy_linker
    vocab = ckpt.vocab
    names = sorted(kb.names(), key=len)
    batch = [inputs[0], inputs[1], inputs[0], inputs[2], inputs[0]]
    entities = [vocab.encode_chars(n) + [vocab.eos_id] for n in (names[0], names[3], names[-1], names[5], names[9])]
    return batch, entities


def preference_stack(toy_linker):
    """A stage-2 batch: every input twice, under its preferred and then its dispreferred name."""
    kb, _, ckpt, _, _ = toy_linker
    vocab = ckpt.vocab
    inputs, entities = mixed_batch(toy_linker)
    names = sorted(kb.names())
    losers = [vocab.encode_chars(n) + [vocab.eos_id] for n in names[: len(inputs)]]
    return inputs * 2, entities + losers


def forward_and_gradients(ckpt, inputs, entities):
    """(cache, its encoder cache, sequence log-probs, gradients); the backward drops cache.enc."""
    cache, targets, target_mask = model.forward_pairs(ckpt, inputs, entities)
    enc = cache.enc
    weights = target_mask * np.linspace(-1.0, 1.0, len(inputs))[:, None]
    grads = model.backward_from_dlogits(ckpt, cache, model.target_dlogits(cache, targets, weights))
    picked = model.target_log_probs(cache.logits, targets)[1]
    return cache, enc, model.sequence_log_probs(picked, target_mask), grads


@pytest.mark.parametrize("batch", [three_targets_of_one_mention, preference_stack])
def test_repeated_inputs_are_encoded_once_and_match_one_row_per_pair(toy_linker, monkeypatch, batch):
    ckpt = toy_linker[2]
    inputs, entities = batch(toy_linker)
    distinct = len({x.encoder_tokens for x in inputs})
    assert distinct < len(inputs)
    cache, enc, lp, grads = forward_and_gradients(ckpt, inputs, entities)
    assert cache.summary.shape[0] == enc.tokens.shape[0] == distinct
    read = [tuple(enc.tokens[r][enc.mask[r] > 0].tolist()) for r in cache.rows]
    assert read == [x.encoder_tokens for x in inputs]
    assert len({row.tobytes() for row in enc.tokens}) == distinct

    monkeypatch.setattr(model, "forward_teacher", row_per_pair_forward(model.forward_teacher))
    ref, _, ref_lp, ref_grads = forward_and_gradients(ckpt, inputs, entities)
    assert ref.summary.shape[0] == len(inputs)
    assert_close(lp, ref_lp, "sequence log-probs")
    assert set(grads) == set(ref_grads) == set(ckpt.params)
    for name in sorted(ref_grads):
        assert_close(grads[name], ref_grads[name], name)


def test_distinct_inputs_match_one_row_per_pair_bit_for_bit(toy_linker, monkeypatch):
    ckpt = toy_linker[2]
    inputs, entities = mixed_batch(toy_linker)
    assert len({x.encoder_tokens for x in inputs}) == len(inputs)
    cache, _, lp, grads = forward_and_gradients(ckpt, inputs, entities)
    assert np.array_equal(cache.rows, np.arange(len(inputs)))  # row b reads encoder row b
    monkeypatch.setattr(model, "forward_teacher", row_per_pair_forward(model.forward_teacher))
    ref, _, ref_lp, ref_grads = forward_and_gradients(ckpt, inputs, entities)
    assert np.array_equal(cache.logits, ref.logits) and np.array_equal(lp, ref_lp)
    for name in sorted(ref_grads):
        assert np.array_equal(grads[name], ref_grads[name]), name
