"""Scorer forward/backward math: identities, batching, gradients, format.

The gradient checks here are small and targeted; the full multi-loss
finite-difference sweep lives in the acceptance suite.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from neglink import artifacts, model
from neglink.config import RunConfig
from neglink.corpus import MentionExample, render
from neglink.errors import CheckpointFormatError, NumericError, VocabError
from neglink.vocab import Vocab


def make_ckpt(seed=0, d=8, text="abcdefg is"):
    vocab = Vocab.from_texts([text])
    return model.init_checkpoint(vocab, d, seed)


def enc_input(ckpt, mention="abc", left="fed", right="gab"):
    ex = MentionExample(left_context=left, mention=mention, right_context=right,
                        gold_ids=frozenset({"X"}))
    return render(ex, ckpt.vocab, max_ctx=RunConfig().max_ctx)


def score(ckpt, inputs, entities):
    """Entity log-probabilities of (input, entity) pairs, scored in one batch."""
    cache, targets, target_mask = model.forward_pairs(ckpt, inputs, entities)
    return model.sequence_log_probs(model.target_log_probs(cache.logits, targets)[1], target_mask)


def test_param_shapes_cover_all_roles():
    ckpt = make_ckpt(d=8)
    v = len(ckpt.vocab)
    shapes = {name: p.shape for name, p in ckpt.params.items()}
    assert shapes["emb"] == (v, 8)
    assert shapes["out_W"] == (8, v)
    assert shapes["out_b"] == (v,)
    for side, in_dim in (("enc", 8), ("dec", 16)):
        for gate, width in (("g", 16), ("h", 8)):
            assert shapes[f"{side}_W{gate}"] == (in_dim, width)
            assert shapes[f"{side}_U{gate}"] == (8, width)
            assert shapes[f"{side}_b{gate}"] == (width,)
    assert len(shapes) == 15


def test_zero_params_give_zero_summary_and_uniform_logits():
    ckpt = make_ckpt()
    for p in ckpt.params.values():
        p[...] = 0.0
    enc = enc_input(ckpt)
    toks, mask = model.pad_batch([list(enc.encoder_tokens)], ckpt.vocab.pad_id)
    summary, _, _ = model.encoder_forward(ckpt, toks, mask)
    assert np.all(summary == 0.0)
    entity = ckpt.vocab.encode_chars("abc") + [ckpt.vocab.eos_id]
    lp = score(ckpt, [enc], [entity])[0]
    want = -len(entity) * np.log(len(ckpt.vocab))
    assert abs(lp - want) < 1e-12


def test_sigmoid_matches_expit():
    from scipy.special import expit

    x = np.linspace(-50.0, 50.0, 200001)
    assert np.abs(model.sigmoid(x) - expit(x)).max() <= 4.5e-16
    assert model.sigmoid(0.0) == 0.5
    with np.errstate(all="raise"):
        ends = model.sigmoid(np.array([-1e4, 1e4]))
    assert 0.0 <= ends[0] <= ends[1] <= 1.0


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
    batch_lp = score(ckpt, inputs, entities)
    for i, (inp, ent) in enumerate(zip(inputs, entities)):
        single = score(ckpt, [inp], [ent])[0]
        assert abs(single - batch_lp[i]) < 1e-12


def test_padding_right_of_eos_never_changes_scores():
    ckpt = make_ckpt(seed=9)
    v = ckpt.vocab
    inp = enc_input(ckpt, "abc")
    ent = v.encode_chars("ba") + [v.eos_id]
    lp_alone = score(ckpt, [inp], [ent])[0]
    # score the same sequence next to a much longer neighbor
    long_inp = enc_input(ckpt, "gfedcba", "abcdefg", "gfedcba")
    long_ent = v.encode_chars("abcdefg") + [v.eos_id]
    lp_batched = score(ckpt, [inp, long_inp], [ent, long_ent])[0]
    assert lp_alone == lp_batched


def test_forward_pairs_masks_entity_and_every_prediction():
    ckpt = make_ckpt(seed=6)
    v = ckpt.vocab
    inputs = [enc_input(ckpt, "abc"), enc_input(ckpt, "gfedcab", "abcdefg", "")]
    entities = [v.encode_chars("ba") + [v.eos_id], v.encode_chars("bcdefg") + [v.eos_id]]
    cache, targets, tmask = model.forward_pairs(ckpt, inputs, entities)
    for i, (inp, ent) in enumerate(zip(inputs, entities)):
        n = len(inp.prompt_tokens) + len(ent) - 1  # predictions: prompt tokens 2..n, then the entity
        assert cache.dec.mask[i].tolist() == [1.0] * n + [0.0] * (targets.shape[1] - n)
        assert list(targets[i, :n]) == list(inp.prompt_tokens)[1:] + ent
        assert list(targets[i, tmask[i] > 0]) == ent


@pytest.mark.parametrize(
    "case, message",
    [("no_eos", "end with EOS"), ("empty", "empty entity"), ("lengths", "differ in length")],
)
def test_forward_pairs_rejects_bad_pairs(case, message):
    ckpt = make_ckpt()
    v = ckpt.vocab
    inp = enc_input(ckpt)
    inputs, entities = {
        "no_eos": ([inp], [v.encode_chars("abc")]),
        "empty": ([inp], [[]]),
        "lengths": ([inp, inp], [v.encode_chars("abc") + [v.eos_id]]),
    }[case]
    with pytest.raises(ValueError, match=message):
        model.forward_pairs(ckpt, inputs, entities)


def test_incremental_step_matches_teacher_forcing():
    ckpt = make_ckpt(seed=11)
    v = ckpt.vocab
    inp = enc_input(ckpt, "abc")
    toks, mask = model.pad_batch([list(inp.encoder_tokens)], v.pad_id)
    summary, _, _ = model.encoder_forward(ckpt, toks, mask)
    seq = list(inp.prompt_tokens) + v.encode_chars("ba") + [v.eos_id]
    tables = model.input_tables(ckpt, "dec", summary)
    state = np.zeros((1, ckpt.params["emb"].shape[1]))
    total = 0.0
    for t in range(len(seq) - 1):
        state, logits = model.step_batch(state, np.array([seq[t]]), np.array([0]), tables, ckpt)
        logp = model.log_softmax(logits[0])
        if t >= len(inp.prompt_tokens) - 1:
            total += logp[seq[t + 1]]
    ent = v.encode_chars("ba") + [v.eos_id]
    want = score(ckpt, [inp], [ent])[0]
    assert abs(total - want) < 1e-9


def test_step_batch_reproduces_decoder_forward_bit_for_bit():
    """One row fed token by token: every step's state equals the teacher-forced loop's, bit for bit."""
    ckpt = make_ckpt(seed=5, d=12)
    v = ckpt.vocab
    inp = enc_input(ckpt, "abc")
    toks, mask = model.pad_batch([list(inp.encoder_tokens)], v.pad_id)
    summary, _, _ = model.encoder_forward(ckpt, toks, mask)
    seq = list(inp.prompt_tokens) + v.encode_chars("bag") + [v.eos_id]
    dec_tokens, dec_mask = model.pad_batch([seq], v.pad_id)
    states, cache = model.decoder_forward(ckpt, dec_tokens, dec_mask, summary)
    state = np.zeros((1, ckpt.params["emb"].shape[1]))
    for t, tok in enumerate(seq):
        state, logits = model.step_batch(state, np.array([tok]), np.array([0]), cache.tables, ckpt)
        assert np.array_equal(state[0], states[0, t]), t
        assert np.array_equal(logits[0], states[0, t] @ ckpt.params["out_W"] + ckpt.params["out_b"]), t


def test_step_batch_rejects_out_of_range_tokens():
    ckpt = make_ckpt()
    tables = model.input_tables(ckpt, "dec", np.zeros((1, ckpt.params["emb"].shape[1])))
    state = np.zeros((1, ckpt.params["emb"].shape[1]))
    for bad in (-1, len(ckpt.vocab)):
        with pytest.raises(VocabError, match=f"token id {bad} outside"):
            model.step_batch(state, np.array([bad]), np.array([0]), tables, ckpt)


def test_gradients_match_finite_differences():
    ckpt = make_ckpt(seed=2, d=6)
    v = ckpt.vocab
    inputs = [enc_input(ckpt, "abc", "fg", "de"), enc_input(ckpt, "ba", "", "cd")]
    entities = [v.encode_chars("cd") + [v.eos_id], v.encode_chars("fgab") + [v.eos_id]]

    def loss_fn():
        return -score(ckpt, inputs, entities).sum()

    cache, targets, tmask = model.forward_pairs(ckpt, inputs, entities)
    dlogits = model.target_dlogits(cache, targets, tmask)  # the gradient of minus the summed scores
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


def test_gradients_are_contiguous_and_shaped_as_their_parameters():
    ckpt = make_ckpt(seed=3)
    v = ckpt.vocab
    inputs = [enc_input(ckpt, "ab"), enc_input(ckpt, "gfedcab")]
    entities = [v.encode_chars("a") + [v.eos_id], v.encode_chars("bcdefg") + [v.eos_id]]
    cache, targets, tmask = model.forward_pairs(ckpt, inputs, entities)
    dlogits = model.target_dlogits(cache, targets, tmask * np.array([[-1.0], [1.0]]))
    grads = model.backward_from_dlogits(ckpt, cache, dlogits)
    assert set(grads) == set(ckpt.params)
    for name, g in grads.items():
        assert g.shape == ckpt.params[name].shape, name
        assert g.flags.c_contiguous, name


def test_gradients_zero_at_padded_positions():
    ckpt = make_ckpt(seed=5)
    v = ckpt.vocab
    # pad embedding row must receive zero gradient: pads are never real input
    inputs = [enc_input(ckpt, "ab"), enc_input(ckpt, "gfedcab")]
    entities = [v.encode_chars("a") + [v.eos_id], v.encode_chars("bcdefg") + [v.eos_id]]
    cache, targets, tmask = model.forward_pairs(ckpt, inputs, entities)
    dlogits = model.target_dlogits(cache, targets, -tmask)
    grads = model.backward_from_dlogits(ckpt, cache, dlogits)
    assert np.all(grads["emb"][v.pad_id] == 0.0)


def test_checkpoint_round_trip_bitwise(tmp_path):
    ckpt = make_ckpt(seed=13)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    header = {"tool": "neglink", "inputs": {"kb": "0" * 64}}
    model.save(ckpt, p1, header)
    loaded = model.load(p1)
    model.save(loaded, p2, header)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.vocab == ckpt.vocab
    for name, p in ckpt.params.items():
        assert np.array_equal(loaded.params[name], p)


def test_a_checkpoint_holding_a_stage_tag_still_loads(tmp_path):
    """Format-4 checkpoints once stored a stage tag beside the vocabulary as their whole header; loading ignores it."""
    ckpt = make_ckpt(seed=3)
    path = tmp_path / "tagged.ckpt"
    header = {"stage": "negative", "vocab": list(ckpt.vocab.tokens)}
    artifacts.write_arrays(path, model.MAGIC, model.FORMAT_VERSION, header, ckpt.params, "<f8")
    loaded = model.load(path)
    assert loaded.vocab == ckpt.vocab
    assert all(np.array_equal(loaded.params[name], p) for name, p in ckpt.params.items())


def test_checkpoint_rejects_corruption(tmp_path):
    ckpt = make_ckpt()
    path = tmp_path / "c.ckpt"
    model.save(ckpt, path, {})
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
    # one flipped bit in the last array's data still parses as finite floats; the digest catches it
    flipped = bytearray(path.read_bytes())
    flipped[-3] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointFormatError, match="sha256"):
        model.load(path)


def test_checkpoint_rejects_a_repeated_array_name(tmp_path):
    ckpt = make_ckpt()
    path = tmp_path / "c.ckpt"
    model.save(ckpt, path, {})
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    data = blob[12 + header_len :]
    header["arrays"].append({"name": "out_b", "shape": list(ckpt.params["out_b"].shape), "offset": len(data)})
    data += np.zeros(ckpt.params["out_b"].size).tobytes()
    header["data_sha256"] = hashlib.sha256(data).hexdigest()
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(model.MAGIC + struct.pack("<II", model.FORMAT_VERSION, len(raw)) + raw + data)
    with pytest.raises(CheckpointFormatError, match="out_b listed twice"):
        model.load(path)


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
