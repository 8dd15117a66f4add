"""Scorer forward/backward math: identities, batching, gradients, format.

The gradient checks here are small and targeted; the full multi-loss
finite-difference sweep lives in the acceptance suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from neglink import model
from neglink.corpus import MentionExample, render
from neglink.errors import CheckpointFormatError, NumericError
from neglink.vocab import Vocab


def make_ckpt(seed=0, d=8, text="abcdefg is"):
    vocab = Vocab.from_texts([text])
    return model.init_checkpoint(vocab, model.ModelConfig(hidden_dim=d, seed=seed))


def enc_input(ckpt, mention="abc", left="fed", right="gab"):
    ex = MentionExample(left_context=left, mention=mention, right_context=right,
                        gold_ids=frozenset({"X"}))
    return render(ex, ckpt.vocab)


def test_param_shapes_cover_all_roles():
    ckpt = make_ckpt(d=8)
    v = len(ckpt.vocab)
    shapes = {name: p.shape for name, p in ckpt.params.items()}
    assert shapes["emb"] == (v, 8)
    assert shapes["out_W"] == (8, v)
    assert shapes["out_b"] == (v,)
    for side, in_dim in (("enc", 8), ("dec", 16)):
        for gate in ("z", "r", "h"):
            assert shapes[f"{side}_W{gate}"] == (in_dim, 8)
            assert shapes[f"{side}_U{gate}"] == (8, 8)
            assert shapes[f"{side}_b{gate}"] == (8,)


def test_zero_params_give_zero_summary_and_uniform_logits():
    ckpt = make_ckpt()
    for p in ckpt.params.values():
        p[...] = 0.0
    enc = enc_input(ckpt)
    summary = model.encode(enc.encoder_tokens, ckpt)
    assert np.all(summary == 0.0)
    entity = ckpt.vocab.encode_chars("abc") + [ckpt.vocab.eos_id]
    lp = model.log_prob(entity, enc, ckpt)
    want = -len(entity) * np.log(len(ckpt.vocab))
    assert abs(lp - want) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=40.0, size=(5, 7, 11))
    p = model.softmax(x)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones((5, 7)), atol=1e-9)
    lp = model.log_softmax(x)
    np.testing.assert_allclose(np.exp(lp).sum(axis=-1), np.ones((5, 7)), atol=1e-9)


def test_softmax_handles_extreme_logits():
    x = np.array([[1000.0, 0.0, -1000.0]])
    p = model.softmax(x)
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12


def test_batched_forward_matches_single_sequences():
    ckpt = make_ckpt(seed=4)
    v = ckpt.vocab
    inputs = [enc_input(ckpt, m, l, r) for m, l, r in
              (("abc", "f", "g"), ("a", "fedcba", ""), ("gfe", "", "ab"))]
    entities = [v.encode_chars(s) + [v.eos_id] for s in ("abc", "bcd", "a")]
    prompts = [list(e.prompt_tokens) for e in inputs]
    enc_toks, enc_mask = model.pad_batch([list(e.encoder_tokens) for e in inputs], v.pad_id)
    dec_toks, dec_mask, targets, tmask = model.build_decoder_batch(prompts, entities, v.pad_id)
    cache = model.forward_teacher(ckpt, enc_toks, enc_mask, dec_toks, dec_mask)
    batch_lp = model.sequence_log_probs(cache, targets, tmask)
    for i, (inp, ent) in enumerate(zip(inputs, entities)):
        single = model.log_prob(ent, inp, ckpt)
        assert abs(single - batch_lp[i]) < 1e-12


def test_padding_right_of_eos_never_changes_scores():
    ckpt = make_ckpt(seed=9)
    v = ckpt.vocab
    inp = enc_input(ckpt, "abc")
    ent = v.encode_chars("ba") + [v.eos_id]
    lp_alone = model.score_pairs(ckpt, [inp], [ent])[0]
    # score the same sequence next to a much longer neighbor
    long_inp = enc_input(ckpt, "gfedcba", "abcdefg", "gfedcba")
    long_ent = v.encode_chars("abcdefg") + [v.eos_id]
    lp_batched = model.score_pairs(ckpt, [inp, long_inp], [ent, long_ent])[0]
    assert lp_alone == lp_batched


def test_incremental_step_matches_teacher_forcing():
    ckpt = make_ckpt(seed=11)
    v = ckpt.vocab
    inp = enc_input(ckpt, "abc")
    summary = model.encode(inp.encoder_tokens, ckpt)[None, :]
    seq = list(inp.prompt_tokens) + v.encode_chars("ba") + [v.eos_id]
    state = np.zeros((1, ckpt.config.hidden_dim))
    total = 0.0
    for t in range(len(seq) - 1):
        state, logits = model.step_batch(state, np.array([seq[t]]), summary, ckpt)
        logp = model.log_softmax(logits[0])
        if t >= len(inp.prompt_tokens) - 1:
            total += logp[seq[t + 1]]
    ent = v.encode_chars("ba") + [v.eos_id]
    want = model.log_prob(ent, inp, ckpt)
    assert abs(total - want) < 1e-9


def test_gradients_match_finite_differences():
    ckpt = make_ckpt(seed=2, d=6)
    v = ckpt.vocab
    inputs = [enc_input(ckpt, "abc", "fg", "de"), enc_input(ckpt, "ba", "", "cd")]
    entities = [v.encode_chars("cd") + [v.eos_id], v.encode_chars("fgab") + [v.eos_id]]

    def loss_fn():
        return -model.score_pairs(ckpt, inputs, entities).sum()

    prompts = [list(i.prompt_tokens) for i in inputs]
    enc_toks, enc_mask = model.pad_batch([list(i.encoder_tokens) for i in inputs], v.pad_id)
    dec_toks, dec_mask, targets, tmask = model.build_decoder_batch(prompts, entities, v.pad_id)
    cache = model.forward_teacher(ckpt, enc_toks, enc_mask, dec_toks, dec_mask)
    dlogits = model.sequence_grad_dlogits(cache, targets, tmask, coeffs=np.array([-1.0, -1.0]))
    grads = model.backward_from_dlogits(ckpt, cache, dlogits)

    rng = np.random.default_rng(0)
    h = 1e-5
    checked = 0
    for name in sorted(grads):
        p = ckpt.params[name]
        flat = p.reshape(-1)
        for _ in range(4):
            i = int(rng.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[i]
            assert abs(an - fd) / max(1.0, abs(an)) < 1e-6
            checked += 1
    assert checked == 4 * len(grads)


def test_gradients_zero_at_padded_positions():
    ckpt = make_ckpt(seed=5)
    v = ckpt.vocab
    # pad embedding row must receive zero gradient: pads are never real input
    inputs = [enc_input(ckpt, "ab"), enc_input(ckpt, "gfedcab")]
    entities = [v.encode_chars("a") + [v.eos_id], v.encode_chars("bcdefg") + [v.eos_id]]
    prompts = [list(i.prompt_tokens) for i in inputs]
    enc_toks, enc_mask = model.pad_batch([list(i.encoder_tokens) for i in inputs], v.pad_id)
    dec_toks, dec_mask, targets, tmask = model.build_decoder_batch(prompts, entities, v.pad_id)
    cache = model.forward_teacher(ckpt, enc_toks, enc_mask, dec_toks, dec_mask)
    dlogits = model.sequence_grad_dlogits(cache, targets, tmask, coeffs=np.array([1.0, 1.0]))
    grads = model.backward_from_dlogits(ckpt, cache, dlogits)
    assert np.all(grads["emb"][v.pad_id] == 0.0)


def test_checkpoint_round_trip_bitwise(tmp_path):
    ckpt = make_ckpt(seed=13)
    ckpt.opt_state = model.OptimizerState.fresh(ckpt.params)
    ckpt.opt_state.step = 7
    for name, p in ckpt.params.items():
        ckpt.opt_state.m[name] = np.full_like(p, 0.25)
        ckpt.opt_state.v[name] = np.full_like(p, 0.5)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    model.save(ckpt, p1)
    loaded = model.load(p1)
    model.save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.stage == ckpt.stage
    assert loaded.opt_state.step == 7
    assert loaded.vocab == ckpt.vocab
    for name, p in ckpt.params.items():
        assert np.array_equal(loaded.params[name], p)


def test_checkpoint_rejects_corruption(tmp_path):
    ckpt = make_ckpt()
    path = tmp_path / "c.ckpt"
    model.save(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        model.load(bad)
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointFormatError):
        model.load(truncated)


def test_check_finite_loss():
    model.check_finite_loss(1.0)
    with pytest.raises(NumericError):
        model.check_finite_loss(float("nan"))
    with pytest.raises(NumericError):
        model.check_finite_loss(float("inf"))


def test_init_is_seeded_and_scaled():
    a = make_ckpt(seed=21)
    b = make_ckpt(seed=21)
    c = make_ckpt(seed=22)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)
    assert max(np.abs(p).max() for p in a.params.values()) <= model.INIT_SCALE
