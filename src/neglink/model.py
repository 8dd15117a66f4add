"""Compact autoregressive encoder-decoder scorer with exact gradients.

A single-layer gated recurrent encoder reads the rendered mention input and
mean-pools its hidden states into a summary vector. A gated recurrent
decoder consumes [token embedding ++ summary] at each step and emits logits
over the vocabulary through a linear head. Everything is float64 numpy with
hand-written backpropagation; finite-difference agreement at 1e-4 relative
error is a hard requirement, which single precision cannot meet.

Batched sequences are right-padded. The per-step mask freezes the hidden
state across padding, so batched results equal one-at-a-time results
exactly, and gradients from padded steps are identically zero.

Checkpoint file layout: magic "ACKP", format version u32 LE, u32 header
length, UTF-8 JSON header (vocabulary, config, stage, array directory with
name/shape/byte offset, optimizer step), then each array's raw
little-endian float64 data, C order, concatenated in directory order.
Arrays are directory-ordered by name, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .corpus import EncodedInput
from .errors import CheckpointFormatError, ConfigError, DivergenceError, NumericError, VocabError
from .vocab import Vocab

MAGIC = b"ACKP"
FORMAT_VERSION = 1
INIT_SCALE = 0.08
STAGES = ("init", "positive", "negative")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.hidden_dim, int) or self.hidden_dim < 2:
            raise ConfigError(f"hidden_dim must be an integer >= 2, got {self.hidden_dim}")


def param_shapes(n_vocab: int, d: int) -> dict[str, tuple[int, ...]]:
    """Parameter array directory. Order here is the initialization draw order."""
    return {
        "emb": (n_vocab, d),
        "enc_Wz": (d, d),
        "enc_Wr": (d, d),
        "enc_Wh": (d, d),
        "enc_Uz": (d, d),
        "enc_Ur": (d, d),
        "enc_Uh": (d, d),
        "enc_bz": (d,),
        "enc_br": (d,),
        "enc_bh": (d,),
        "dec_Wz": (2 * d, d),
        "dec_Wr": (2 * d, d),
        "dec_Wh": (2 * d, d),
        "dec_Uz": (d, d),
        "dec_Ur": (d, d),
        "dec_Uh": (d, d),
        "dec_bz": (d,),
        "dec_br": (d,),
        "dec_bh": (d,),
        "out_W": (d, n_vocab),
        "out_b": (n_vocab,),
    }


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            step=0,
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


@dataclass
class Checkpoint:
    vocab: Vocab
    config: ModelConfig
    params: dict[str, np.ndarray]
    stage: str = "init"
    opt_state: OptimizerState | None = None


def init_checkpoint(vocab: Vocab, config: ModelConfig) -> Checkpoint:
    """All parameters uniform in [-INIT_SCALE, INIT_SCALE], seeded draw order fixed."""
    rng = np.random.default_rng(config.seed)
    params = {
        name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
        for name, shape in param_shapes(len(vocab), config.hidden_dim).items()
    }
    return Checkpoint(vocab=vocab, config=config, params=params, stage="init")


def copy_checkpoint(ckpt: Checkpoint, stage: str | None = None) -> Checkpoint:
    """Deep copy of the parameter arrays; optimizer state is not carried over."""
    return Checkpoint(
        vocab=ckpt.vocab,
        config=ckpt.config,
        params={k: a.copy() for k, a in ckpt.params.items()},
        stage=stage if stage is not None else ckpt.stage,
    )


def validate_checkpoint(ckpt: Checkpoint) -> None:
    expected = param_shapes(len(ckpt.vocab), ckpt.config.hidden_dim)
    if set(ckpt.params) != set(expected):
        missing = sorted(set(expected) - set(ckpt.params))
        extra = sorted(set(ckpt.params) - set(expected))
        raise CheckpointFormatError(f"parameter set mismatch: missing {missing}, extra {extra}")
    for name, shape in expected.items():
        arr = ckpt.params[name]
        if arr.shape != shape:
            raise CheckpointFormatError(f"array {name}: shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(f"array {name} contains non-finite values")
    if ckpt.stage not in STAGES:
        raise CheckpointFormatError(f"unknown stage tag {ckpt.stage!r}")


# ---------------------------------------------------------------------------
# numerics


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _check_tokens(tokens: np.ndarray, n_vocab: int) -> None:
    if tokens.size and (tokens.min() < 0 or tokens.max() >= n_vocab):
        bad = int(tokens[(tokens < 0) | (tokens >= n_vocab)][0])
        raise VocabError(f"token id {bad} outside vocabulary of size {n_vocab}")


def pad_batch(seqs: list, pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences; returns (tokens (B,T) int64, mask (B,T) float64)."""
    if not seqs:
        raise ValueError("empty batch")
    if any(len(s) == 0 for s in seqs):
        raise ValueError("empty sequence in batch")
    maxlen = max(len(s) for s in seqs)
    tokens = np.full((len(seqs), maxlen), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), maxlen), dtype=np.float64)
    for i, s in enumerate(seqs):
        tokens[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return tokens, mask


# ---------------------------------------------------------------------------
# gated recurrent cell, batched over (batch, time)


@dataclass
class GruCache:
    tokens: np.ndarray  # (B, T) ids
    mask: np.ndarray  # (B, T)
    X: np.ndarray  # (B, T, in_dim) cell inputs
    Z: np.ndarray  # (B, T, d) update gates
    R: np.ndarray  # (B, T, d) reset gates
    Hh: np.ndarray  # (B, T, d) tanh candidates
    H: np.ndarray  # (B, T, d) hidden states (frozen across padding)


def _gru_cell(xz, xr, xh, h, Uz, Ur, Uh):
    """One step from input projections `x@W + b` and state `h`: (z, r, hh, next h)."""
    z = expit(xz + h @ Uz)
    r = expit(xr + h @ Ur)
    hh = np.tanh(xh + (r * h) @ Uh)
    return z, r, hh, (1.0 - z) * h + z * hh


def _gru_forward(X, mask, Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh):
    B, T, _ = X.shape
    d = Uz.shape[0]
    # Input projections for the whole sequence in three matmuls.
    XWz = X @ Wz + bz
    XWr = X @ Wr + br
    XWh = X @ Wh + bh
    Z = np.empty((B, T, d))
    R = np.empty((B, T, d))
    Hh = np.empty((B, T, d))
    H = np.empty((B, T, d))
    h = np.zeros((B, d))
    for t in range(T):
        m = mask[:, t, None]
        z, r, hh, h_next = _gru_cell(XWz[:, t], XWr[:, t], XWh[:, t], h, Uz, Ur, Uh)
        h = m * h_next + (1.0 - m) * h
        Z[:, t], R[:, t], Hh[:, t], H[:, t] = z, r, hh, h
    return H, Z, R, Hh


def _gru_backward(cache: GruCache, dH_ext, Wz, Wr, Wh, Uz, Ur, Uh):
    """Backprop through the cell. Returns (dX, weight grads dict by role)."""
    X, mask, Z, R, Hh, H = cache.X, cache.mask, cache.Z, cache.R, cache.Hh, cache.H
    B, T, d = H.shape
    DAz = np.empty((B, T, d))
    DAr = np.empty((B, T, d))
    DAh = np.empty((B, T, d))
    dh = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        dh = dh + dH_ext[:, t]
        m = mask[:, t, None]
        h_prev = H[:, t - 1] if t > 0 else np.zeros((B, d))
        z, r, hh = Z[:, t], R[:, t], Hh[:, t]
        dh_new = dh * m
        da_h = (dh_new * z) * (1.0 - hh * hh)
        da_z = (dh_new * (hh - h_prev)) * z * (1.0 - z)
        dg = da_h @ Uh.T  # gradient w.r.t. r * h_prev
        da_r = (dg * h_prev) * r * (1.0 - r)
        DAz[:, t], DAr[:, t], DAh[:, t] = da_z, da_r, da_h
        dh = dh_new * (1.0 - z) + dh * (1.0 - m) + da_z @ Uz.T + da_r @ Ur.T + dg * r
    Hprev = np.concatenate([np.zeros((B, 1, d)), H[:, :-1]], axis=1)
    flat = lambda a: a.reshape(-1, a.shape[-1])  # noqa: E731
    dX = (DAz @ Wz.T + DAr @ Wr.T + DAh @ Wh.T).reshape(X.shape)
    grads = {
        "Wz": flat(X).T @ flat(DAz),
        "Wr": flat(X).T @ flat(DAr),
        "Wh": flat(X).T @ flat(DAh),
        "Uz": flat(Hprev).T @ flat(DAz),
        "Ur": flat(Hprev).T @ flat(DAr),
        "Uh": flat(R * Hprev).T @ flat(DAh),
        "bz": DAz.sum(axis=(0, 1)),
        "br": DAr.sum(axis=(0, 1)),
        "bh": DAh.sum(axis=(0, 1)),
    }
    return dX, grads


# ---------------------------------------------------------------------------
# encoder


def encoder_forward(ckpt: Checkpoint, tokens: np.ndarray, mask: np.ndarray):
    """Mean-pooled summary (B, d) plus the cache needed for backprop."""
    p = ckpt.params
    _check_tokens(tokens, len(ckpt.vocab))
    X = p["emb"][tokens]
    H, Z, R, Hh = _gru_forward(
        X, mask, p["enc_Wz"], p["enc_Wr"], p["enc_Wh"],
        p["enc_Uz"], p["enc_Ur"], p["enc_Uh"], p["enc_bz"], p["enc_br"], p["enc_bh"],
    )
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("encoder sequence with no real tokens")
    summary = (H * mask[:, :, None]).sum(axis=1) / counts[:, None]
    return summary, GruCache(tokens=tokens, mask=mask, X=X, Z=Z, R=R, Hh=Hh, H=H), counts


def encode(tokens, ckpt: Checkpoint) -> np.ndarray:
    """Summary vector (d,) for one encoder token sequence."""
    toks, mask = pad_batch([list(tokens)], ckpt.vocab.pad_id)
    summary, _, _ = encoder_forward(ckpt, toks, mask)
    return summary[0]


# ---------------------------------------------------------------------------
# decoder


def decoder_forward(ckpt: Checkpoint, tokens: np.ndarray, mask: np.ndarray, summary: np.ndarray):
    """Hidden states (B, T, d) over [embedding ++ summary] inputs, plus cache."""
    p = ckpt.params
    _check_tokens(tokens, len(ckpt.vocab))
    B, T = tokens.shape
    E = p["emb"][tokens]
    X = np.concatenate([E, np.broadcast_to(summary[:, None, :], E.shape)], axis=2)
    H, Z, R, Hh = _gru_forward(
        X, mask, p["dec_Wz"], p["dec_Wr"], p["dec_Wh"],
        p["dec_Uz"], p["dec_Ur"], p["dec_Uh"], p["dec_bz"], p["dec_br"], p["dec_bh"],
    )
    return H, GruCache(tokens=tokens, mask=mask, X=X, Z=Z, R=R, Hh=Hh, H=H)


def step_batch(states: np.ndarray, tokens: np.ndarray, summaries: np.ndarray, ckpt: Checkpoint):
    """One decoder step over B hypotheses: (next_states (B,d), logits (B,V))."""
    p = ckpt.params
    _check_tokens(tokens, len(ckpt.vocab))
    x = np.concatenate([p["emb"][tokens], summaries], axis=1)
    *_, new_states = _gru_cell(
        x @ p["dec_Wz"] + p["dec_bz"], x @ p["dec_Wr"] + p["dec_br"], x @ p["dec_Wh"] + p["dec_bh"],
        states, p["dec_Uz"], p["dec_Ur"], p["dec_Uh"],
    )
    logits = new_states @ p["out_W"] + p["out_b"]
    return new_states, logits


# ---------------------------------------------------------------------------
# teacher-forced scoring (training-time forward/backward)


@dataclass
class ForwardCache:
    enc: GruCache
    counts: np.ndarray  # (B,) real encoder lengths
    summary: np.ndarray  # (B, d)
    dec: GruCache
    logits: np.ndarray  # (B, T, V)
    probs: np.ndarray | None = field(default=None)  # softmax cache, filled lazily

    def softmax_probs(self) -> np.ndarray:
        if self.probs is None:
            self.probs = softmax(self.logits)
        return self.probs


def forward_teacher(
    ckpt: Checkpoint,
    enc_tokens: np.ndarray,
    enc_mask: np.ndarray,
    dec_tokens: np.ndarray,
    dec_mask: np.ndarray,
) -> ForwardCache:
    """Full forward pass producing logits at every decoder position."""
    summary, enc_cache, counts = encoder_forward(ckpt, enc_tokens, enc_mask)
    states, dec_cache = decoder_forward(ckpt, dec_tokens, dec_mask, summary)
    logits = states @ ckpt.params["out_W"] + ckpt.params["out_b"]
    return ForwardCache(enc=enc_cache, counts=counts, summary=summary, dec=dec_cache, logits=logits)


def backward_from_dlogits(ckpt: Checkpoint, cache: ForwardCache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar whose logit-gradient is `dlogits`.

    dlogits must already be zero at padded or otherwise unscored positions.
    Returns a gradient array for every parameter in the checkpoint.
    """
    p = ckpt.params
    d = ckpt.config.hidden_dim
    B, T, V = dlogits.shape
    flat_states = cache.dec.H.reshape(-1, d)
    flat_dlogits = dlogits.reshape(-1, V)
    grads = {"out_W": flat_states.T @ flat_dlogits, "out_b": flat_dlogits.sum(axis=0)}

    dH_dec = dlogits @ p["out_W"].T
    dX_dec, g = _gru_backward(cache.dec, dH_dec, p["dec_Wz"], p["dec_Wr"], p["dec_Wh"], p["dec_Uz"], p["dec_Ur"], p["dec_Uh"])
    for role, name in (("Wz", "dec_Wz"), ("Wr", "dec_Wr"), ("Wh", "dec_Wh"),
                       ("Uz", "dec_Uz"), ("Ur", "dec_Ur"), ("Uh", "dec_Uh"),
                       ("bz", "dec_bz"), ("br", "dec_br"), ("bh", "dec_bh")):
        grads[name] = g[role]

    demb = np.zeros_like(p["emb"])
    np.add.at(demb, cache.dec.tokens.ravel(), dX_dec[:, :, :d].reshape(-1, d))
    dsummary = dX_dec[:, :, d:].sum(axis=1)

    dH_enc = (dsummary / cache.counts[:, None])[:, None, :] * cache.enc.mask[:, :, None]
    dX_enc, g = _gru_backward(cache.enc, dH_enc, p["enc_Wz"], p["enc_Wr"], p["enc_Wh"], p["enc_Uz"], p["enc_Ur"], p["enc_Uh"])
    for role, name in (("Wz", "enc_Wz"), ("Wr", "enc_Wr"), ("Wh", "enc_Wh"),
                       ("Uz", "enc_Uz"), ("Ur", "enc_Ur"), ("Uh", "enc_Uh"),
                       ("bz", "enc_bz"), ("br", "enc_br"), ("bh", "enc_bh")):
        grads[name] = g[role]
    np.add.at(demb, cache.enc.tokens.ravel(), dX_enc.reshape(-1, d))
    grads["emb"] = demb
    return grads


def build_decoder_batch(prompts: list, entities: list, pad_id: int):
    """Teacher-forcing arrays for prompt-then-entity sequences.

    Position j consumes token j of prompt+entity and predicts token j+1.
    target_mask selects exactly the entity-token predictions, so masked
    sums of per-position log-probs are the entity log-probabilities with
    the prompt consumed but unscored.

    Returns (dec_tokens, dec_mask, targets, target_mask), all (B, T).
    """
    if len(prompts) != len(entities):
        raise ValueError("prompts and entities differ in length")
    dec_seqs, tgt_seqs, offsets = [], [], []
    for prompt, entity in zip(prompts, entities):
        prompt, entity = list(prompt), list(entity)
        if not prompt or not entity:
            raise ValueError("empty prompt or entity sequence")
        full = prompt + entity
        dec_seqs.append(full[:-1])
        tgt_seqs.append(full[1:])
        offsets.append(len(prompt) - 1)
    dec_tokens, dec_mask = pad_batch(dec_seqs, pad_id)
    targets = np.full_like(dec_tokens, pad_id)
    target_mask = np.zeros_like(dec_mask)
    for i, (tgt, off) in enumerate(zip(tgt_seqs, offsets)):
        targets[i, : len(tgt)] = tgt
        target_mask[i, off : len(tgt)] = 1.0
    return dec_tokens, dec_mask, targets, target_mask


def sequence_log_probs(cache: ForwardCache, targets: np.ndarray, target_mask: np.ndarray) -> np.ndarray:
    """Per-sequence sums of target log-probs at masked positions; (B,)."""
    logp = log_softmax(cache.logits)
    picked = np.take_along_axis(logp, targets[:, :, None], axis=2)[:, :, 0]
    return (picked * target_mask).sum(axis=1)


def sequence_grad_dlogits(cache: ForwardCache, targets: np.ndarray, target_mask: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """d(sum_b coeffs[b] * seq_logp[b]) / dlogits, ready for backward_from_dlogits."""
    probs = cache.softmax_probs()
    dlogits = -probs.copy()
    np.put_along_axis(
        dlogits,
        targets[:, :, None],
        np.take_along_axis(dlogits, targets[:, :, None], axis=2) + 1.0,
        axis=2,
    )
    return dlogits * (target_mask * coeffs[:, None])[:, :, None]


def _validate_entity(entity_tokens, eos_id: int) -> list[int]:
    entity = [int(t) for t in entity_tokens]
    if not entity:
        raise ValueError("empty entity token sequence")
    if entity[-1] != eos_id:
        raise ValueError("entity token sequence must end with EOS")
    return entity


def log_prob(entity_tokens, enc_input: EncodedInput, ckpt: Checkpoint) -> float:
    """Teacher-forced log-probability of one entity given one rendered input."""
    entity = _validate_entity(entity_tokens, ckpt.vocab.eos_id)
    return float(score_pairs(ckpt, [enc_input], [entity])[0])


def score_pairs(ckpt: Checkpoint, inputs: list[EncodedInput], entities: list) -> np.ndarray:
    """Entity log-probabilities for B (input, entity) pairs in one batch; (B,)."""
    entities = [_validate_entity(e, ckpt.vocab.eos_id) for e in entities]
    pad = ckpt.vocab.pad_id
    enc_tokens, enc_mask = pad_batch([list(x.encoder_tokens) for x in inputs], pad)
    dec_tokens, dec_mask, targets, target_mask = build_decoder_batch(
        [list(x.prompt_tokens) for x in inputs], entities, pad
    )
    cache = forward_teacher(ckpt, enc_tokens, enc_mask, dec_tokens, dec_mask)
    return sequence_log_probs(cache, targets, target_mask)


def check_finite_loss(loss: float, step_index: int | None = None) -> float:
    if not np.isfinite(loss):
        if step_index is None:
            raise NumericError(f"non-finite loss {loss}")
        raise DivergenceError(step_index)
    return float(loss)


# ---------------------------------------------------------------------------
# serialization


def _header_dict(ckpt: Checkpoint, arrays: dict[str, np.ndarray]) -> dict:
    directory = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    return {
        "arrays": directory,
        "config": {"hidden_dim": ckpt.config.hidden_dim, "seed": ckpt.config.seed},
        "opt_step": None if ckpt.opt_state is None else ckpt.opt_state.step,
        "stage": ckpt.stage,
        "vocab": list(ckpt.vocab.tokens),
    }


def save(ckpt: Checkpoint, path) -> None:
    validate_checkpoint(ckpt)
    arrays = dict(ckpt.params)
    if ckpt.opt_state is not None:
        for name, arr in ckpt.opt_state.m.items():
            arrays[f"opt.m.{name}"] = arr
        for name, arr in ckpt.opt_state.v.items():
            arrays[f"opt.v.{name}"] = arr
    header = json.dumps(_header_dict(ckpt, arrays), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header)))
        fh.write(header)
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CheckpointFormatError("truncated checkpoint file")
    if blob[:4] != MAGIC:
        raise CheckpointFormatError("bad magic bytes, not a checkpoint file")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint format version {version}")
    if len(blob) < 12 + header_len:
        raise CheckpointFormatError("truncated checkpoint header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"bad checkpoint header: {e}") from e
    for key in ("arrays", "config", "stage", "vocab", "opt_step"):
        if key not in header:
            raise CheckpointFormatError(f"checkpoint header missing {key!r}")

    vocab = Vocab(list(header["vocab"]))
    cfg = header["config"]
    if not isinstance(cfg, dict) or not isinstance(cfg.get("hidden_dim"), int) or not isinstance(cfg.get("seed"), int):
        raise CheckpointFormatError("bad config block in checkpoint header")
    config = ModelConfig(hidden_dim=cfg["hidden_dim"], seed=cfg["seed"])

    data = blob[12 + header_len :]
    arrays: dict[str, np.ndarray] = {}
    consumed = 0
    try:
        for entry in header["arrays"]:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            end = offset + size * 8
            if offset != consumed or end > len(data):
                raise CheckpointFormatError(f"array {name}: bad offset or truncated data")
            arrays[name] = np.frombuffer(data, dtype="<f8", count=size, offset=offset).reshape(shape).copy()
            consumed = end
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(f"bad array directory: {e}") from e
    if consumed != len(data):
        raise CheckpointFormatError(f"{len(data) - consumed} trailing bytes after arrays")

    params = {k: a for k, a in arrays.items() if not k.startswith("opt.")}
    ckpt = Checkpoint(vocab=vocab, config=config, params=params, stage=header["stage"])
    if header["opt_step"] is not None:
        moments1 = {k[len("opt.m."):]: a for k, a in arrays.items() if k.startswith("opt.m.")}
        moments2 = {k[len("opt.v."):]: a for k, a in arrays.items() if k.startswith("opt.v.")}
        if set(moments1) != set(params) or set(moments2) != set(params):
            raise CheckpointFormatError("optimizer state does not cover the parameter set")
        ckpt.opt_state = OptimizerState(step=int(header["opt_step"]), m=moments1, v=moments2)
    elif any(k.startswith("opt.") for k in arrays):
        raise CheckpointFormatError("optimizer arrays present but opt_step is null")
    validate_checkpoint(ckpt)
    return ckpt
