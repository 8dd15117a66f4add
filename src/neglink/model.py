"""Compact autoregressive encoder-decoder scorer with exact gradients.

A single-layer gated recurrent encoder reads the rendered mention input and
mean-pools its hidden states into a summary vector. A gated recurrent
decoder consumes [token embedding ++ summary] at each step and emits logits
over the vocabulary through a linear head. Everything is float64 numpy with
hand-written backpropagation; finite-difference agreement at 1e-4 relative
error is a hard requirement, which single precision cannot meet.

Each GRU stores its update and reset gates fused, as the cell computes
them: Wg, Ug and bg hold the update gate in columns [:d] and the reset gate
in [d:], so one matmul gives both pre-activations. The sigmoid is
0.5*tanh(0.5*a)+0.5; its inner halving is carried by the forward pass's
input tables and recurrent gate weights, which hold the gate weights times
0.5, so the cell's matmul yields 0.5*a directly. Halving is exact in binary
floating point, so this computes the same bits as halving a.

Recurrent loops run time-major: a GRU's cached gates and candidates are
(T, B, .) arrays and its states one (T + 1, B, d) array, the zero initial
state in row 0, so step t reads and writes contiguous (B, .) blocks in
place and the backward pass reads the previous states as a view. A GRU's
input projections come from precomputed tables (InputTables): both GRUs
read token embeddings, so the embedding share, E@W[:d], is computed once
per vocabulary entry and gathered per token, and its gradients are summed
per vocabulary entry with one one-hot product.
The decoder also reads the summary, a per-row input S (B, d) at every step;
its share, S@W[d:] + b, is computed once per row. The encoder has no
per-row input, so its bias is folded into the per-entry tables. The
projections are gathered straight into the gate and candidate arrays, and
each step adds its recurrent products into them in place from (B, .)
scratch buffers, so a forward pass allocates nothing of shape (T, B, .)
beyond what it caches.
Teacher forcing and decoding (`step_batch`) read the same tables, recurrent
weights included, so a decode step computes what the teacher-forced loop
computes at that step.

Dispatch. A search that serves one request decodes one mention: about 60
encoder steps, 15 prompt steps and 10 decoder depths, each a dozen numpy
calls on arrays of 64 to 192 floats, so the fixed cost of a call weighs
as much as its arithmetic. So the recurrent step multiplies through
`ndarray.dot` into its scratch buffers, passes every ufunc its output
positionally, calls its ufuncs through names bound once and takes the
sigmoid's 0.5 as a 0-d array, and the search path's reductions call
`ufunc.reduce` directly instead of the ndarray methods that wrap it.
Measured per call (2-vCPU Xeon VM, Python 3.11, numpy 2.4, one BLAS
thread): (1, 64) @ (64, 128) into an out buffer takes 1.9 µs through
`np.matmul`, 1.5 µs through `np.dot` and 1.4 µs through `ndarray.dot`; a
ufunc on 128 floats takes 0.39 µs with `out=` by keyword, 0.36 µs with it
positional and 0.32 µs through a bound name; a Python float operand costs
0.15 µs more than a 0-d array. A batch-1 step went from 7.4 to 5.7 µs
(batch 16: 22.0 to 20.4 µs). Each replacement computes the bits of what
it replaced: the same BLAS product, the same elementwise operations in
the same order.

Batched sequences are right-padded. Each row runs on through its padding,
which no real step reads, so batched results equal one-at-a-time results
exactly; after the loop every row's hidden state is frozen at its last
real token. The gradient entering padded steps must be zero, and then
the gradients from them are identically zero.

The backward pass consumes what it is handed: each GRU's backward writes
its gate and candidate gradients over the cached gates and candidates, and
r*h_prev over its incoming state gradients, and `backward_from_dlogits`
drops both GRUs' caches once their backward has run (PyTorch's
retain_graph=False), so a second backward needs a new forward pass.

`forward_pairs` builds every teacher-forced pass and encodes each distinct
input once. Decoder rows that share an input (a mention's several targets,
a preference pair's two sides, a search chunk's repeat) read its one
summary, and their summary gradients are summed into its row.

Checkpoint file (format 4): the `artifacts` array container, magic
"ACKP". Its header holds the caller's fields (the CLI's command header)
and the vocabulary tokens, the one field `load` reads. Its float64 arrays
are the parameters by name; the hidden size is the embedding array's
width. save -> load -> save with one header is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_arrays, write_arrays
from .corpus import EncodedInput
from .errors import CheckpointFormatError, DivergenceError, NumericError, VocabError
from .vocab import Vocab

MAGIC = b"ACKP"
FORMAT_VERSION = 4
INIT_SCALE = 0.08

# The recurrent step's ufuncs, bound once: a search runs the step about 85
# times per mention at batch size 1, where each `np.` lookup is a measurable
# share of an operation (see the module docstring). The sigmoid's 0.5 is a
# 0-d array, which a ufunc takes faster than a Python float.
_add, _multiply, _subtract, _tanh = np.add, np.multiply, np.subtract, np.tanh
_HALF = np.array(0.5)


def param_shapes(n_vocab: int, d: int) -> dict[str, tuple[int, ...]]:
    """Parameter array directory. Order here is the initialization draw order.

    Each GRU keeps its update and reset gates fused as the cell uses them:
    `_Wg`, `_Ug` and `_bg` hold the update gate in columns [:d] and the
    reset gate in [d:]; `_Wh`, `_Uh` and `_bh` are the candidate's.
    """
    return {
        "emb": (n_vocab, d),
        "enc_Wg": (d, 2 * d),
        "enc_Wh": (d, d),
        "enc_Ug": (d, 2 * d),
        "enc_Uh": (d, d),
        "enc_bg": (2 * d,),
        "enc_bh": (d,),
        "dec_Wg": (2 * d, 2 * d),
        "dec_Wh": (2 * d, d),
        "dec_Ug": (d, 2 * d),
        "dec_Uh": (d, d),
        "dec_bg": (2 * d,),
        "dec_bh": (d,),
        "out_W": (d, n_vocab),
        "out_b": (n_vocab,),
    }


@dataclass
class Checkpoint:
    vocab: Vocab
    params: dict[str, np.ndarray]  # the hidden size is params["emb"].shape[1]


def init_checkpoint(vocab: Vocab, hidden_dim: int, seed: int) -> Checkpoint:
    """All parameters uniform in [-INIT_SCALE, INIT_SCALE], seeded draw order fixed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(len(vocab), hidden_dim).items():
        # A fused gate array draws its update half, then its reset half: the draw order of separate per-gate arrays.
        halves = 2 if name.endswith("g") else 1
        part = shape[:-1] + (shape[-1] // halves,)
        params[name] = np.concatenate([rng.uniform(-INIT_SCALE, INIT_SCALE, size=part) for _ in range(halves)], axis=-1)
    return Checkpoint(vocab=vocab, params=params)


def copy_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """Deep copy of the parameter arrays."""
    return Checkpoint(vocab=ckpt.vocab, params={k: a.copy() for k, a in ckpt.params.items()})


def validate_checkpoint(ckpt: Checkpoint) -> None:
    emb = ckpt.params.get("emb")
    d = emb.shape[-1] if emb is not None and emb.ndim else 0
    expected = param_shapes(len(ckpt.vocab), d)
    if set(ckpt.params) != set(expected):
        missing = sorted(set(expected) - set(ckpt.params))
        extra = sorted(set(ckpt.params) - set(expected))
        raise CheckpointFormatError(f"parameter set mismatch: missing {missing}, extra {extra}")
    if d < 2:
        raise CheckpointFormatError(f"hidden size {d}, expected at least 2")
    for name, shape in expected.items():
        arr = ckpt.params[name]
        if arr.shape != shape:
            raise CheckpointFormatError(f"array {name}: shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(f"array {name} contains non-finite values")


# ---------------------------------------------------------------------------
# numerics


def sigmoid(x):
    """Logistic function as 0.5*tanh(0.5*x) + 0.5: never overflows, exactly 0.5 at 0."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """x - max - log(sum(exp(x - max))) along `axis`."""
    shifted = np.subtract(x, np.maximum.reduce(x, axis, None, None, True))
    lse = np.add.reduce(np.exp(shifted), axis, None, None, True)
    return np.subtract(shifted, np.log(lse, lse), shifted)


def _check_tokens(tokens: np.ndarray, n_vocab: int) -> None:
    # One reduction over the ids read as unsigned: a negative id wraps to at least 2**63, past any vocabulary.
    if tokens.size and np.maximum.reduce(tokens, None, np.uint64) >= n_vocab:
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


@dataclass(frozen=True)
class InputTables:
    """A GRU's forward weights: its input projections split by source, and its recurrent weights.

    x@Wh + bh = EH[token] + SH[row]. The gate tables and Ug are halved for
    the sigmoid: 0.5*(x@Wg + bg) = EG[token] + SG[row], and Ug is 0.5 times
    the GRU's Ug (Uh is its own). EG (V, 2d) and EH (V, d) hold every
    vocabulary entry's embedding share; SG (B, 2d) and SH (B, d) hold each
    row's share of the per-row input S (B, m) plus the bias. Without S (the
    encoder) the bias is folded into EG and EH, and S, SG and SH are None.
    """

    S: np.ndarray | None
    EG: np.ndarray
    EH: np.ndarray
    SG: np.ndarray | None
    SH: np.ndarray | None
    Ug: np.ndarray
    Uh: np.ndarray


def input_tables(ckpt: Checkpoint, side: str, S: np.ndarray | None = None) -> InputTables:
    """The `side` GRU's input tables, over per-row inputs S (the decoder's summaries) or none."""
    p = ckpt.params
    emb, Wg, Wh = p["emb"], p[f"{side}_Wg"], p[f"{side}_Wh"]
    bg, bh = p[f"{side}_bg"], p[f"{side}_bh"]
    Ug, Uh = p[f"{side}_Ug"] * 0.5, p[f"{side}_Uh"]
    if S is None:
        EG = emb @ Wg + bg
        EG *= 0.5
        return InputTables(S=None, EG=EG, EH=emb @ Wh + bh, SG=None, SH=None, Ug=Ug, Uh=Uh)
    d = emb.shape[1]
    EG, SG = emb @ Wg[:d], S @ Wg[d:] + bg
    EG *= 0.5
    SG *= 0.5
    return InputTables(S=S, EG=EG, EH=emb @ Wh[:d], SG=SG, SH=S @ Wh[d:] + bh, Ug=Ug, Uh=Uh)


@dataclass
class GruCache:
    tokens: np.ndarray  # (B, T) input ids; the GRU reads their embeddings
    mask: np.ndarray  # (B, T)
    tables: InputTables  # the forward weights; tables.S is the per-row input, None for the encoder
    G: np.ndarray  # (T, B, 2d) fused gates: update z in [:d], reset r in [d:]
    Hh: np.ndarray  # (T, B, d) tanh candidates
    states: np.ndarray  # (T + 1, B, d): the zero initial state, then H
    H: np.ndarray = field(init=False)  # (T, B, d) hidden states (frozen after each row's last real token)

    def __post_init__(self):
        self.H = self.states[1:]


def _gru_cell(g, z, r, hh, h, Ug, Uh, h_next=None, scratch=(None, None, None)):
    """One step from state `h`; returns the next state, written into `h_next` when given.

    `g` (B, 2d) enters holding the halved gate projection 0.5*(x@Wg + bg),
    `z` and `r` being its views [:, :d] and [:, d:], and `hh` the candidate
    projection x@Wh + bh; they leave holding the gates [z|r] and the
    candidate. `Ug` is the halved recurrent gate weight (InputTables), so
    g + h@Ug is half the pre-activation a, and 0.5*tanh(.) + 0.5 of it is
    sigmoid(a). `scratch` holds (B, 2d), (B, d) and (B, d) buffers for
    h@Ug, r*h and (r*h)@Uh, or Nones for new ones.
    """
    sg, rh, sh = scratch
    _add(g, h.dot(Ug, sg), g)
    _tanh(g, g)
    _multiply(g, _HALF, g)
    _add(g, _HALF, g)
    _add(hh, _multiply(r, h, rh).dot(Uh, sh), hh)
    _tanh(hh, hh)
    h_next = _subtract(hh, h, h_next)
    _multiply(h_next, z, h_next)
    _add(h_next, h, h_next)
    return h_next


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _gru_forward(tokens, mask, tables: InputTables):
    """A GRU over right-padded (B, T) tokens: time-major (G, Hh, states) as in GruCache.

    Step t's input projections are the tables' rows for tokens[:, t], plus
    each row's per-row share when the tables have one; they are gathered
    straight into G and Hh, which the cell turns into gates and candidates.
    The loop walks per-step views of G, its two gates, Hh and the states.
    """
    B, T = tokens.shape
    Ug, Uh = tables.Ug, tables.Uh
    d = Uh.shape[0]
    G, Hh = tables.EG[tokens.T], tables.EH[tokens.T]
    if tables.SG is not None:
        G += tables.SG
        Hh += tables.SH
    states = np.empty((T + 1, B, d))
    states[0] = 0.0
    buf = np.empty((2, B, d))  # h@Ug, then r*h and (r*h)@Uh: the first is dead before the others are written
    scratch = (buf.reshape(B, 2 * d), buf[0], buf[1])
    for g, z, r, hh, h, h_next in zip(G, G[:, :, :d], G[:, :, d:], Hh, states, states[1:]):
        _gru_cell(g, z, r, hh, h, Ug, Uh, h_next, scratch)
    # Rows run on through their padding; give every padded step the row's last real state.
    if not mask.all():
        lengths = np.add.reduce(mask, 1).astype(np.int64)
        for b in np.flatnonzero(lengths < T):
            states[lengths[b] + 1 :, b] = states[lengths[b], b]
    return G, Hh, states


def _gru_backward(cache: GruCache, dH_ext, p: dict, side: str):
    """Backprop through the `side` GRU. Returns (d emb, dS, weight grads by parameter name).

    dH_ext (T, B, d) must be zero at padded steps; the gradient then stays
    zero there. The pass consumes its inputs in place, step by step, once
    each step has been read: the gate pre-activation gradients overwrite
    cache.G, the candidate's overwrite cache.Hh, and r*h_prev (for the Uh
    gradient) overwrites dH_ext. dS is None when the GRU has no per-row
    input S.
    """
    S, G, Hh, Hprev = cache.tables.S, cache.G, cache.Hh, cache.states[:-1]
    T, B, d = Hprev.shape
    emb = p["emb"]
    Wg, UgT = p[f"{side}_Wg"], p[f"{side}_Ug"].T
    Wh, UhT = p[f"{side}_Wh"], p[f"{side}_Uh"].T
    dh = np.zeros((B, d))
    # Step t reads its gates, candidate and incoming gradient before it
    # writes over them: r*h_prev into dH_ext[t], the candidate's gradient
    # into Hh[t] and the gates' into G[t].
    steps = (a[::-1] for a in (dH_ext, Hprev, G, G[:, :, :d], G[:, :, d:], Hh))
    for dh_t, h_prev, g, z, r, hh in zip(*steps):
        dh += dh_t
        np.multiply(r, h_prev, out=dh_t)
        dz = np.subtract(hh, h_prev)
        dtanh = 1.0 - hh * hh
        da_h = np.multiply(dh, z, out=hh)
        da_h *= dtanh
        dg = da_h @ UhT  # gradient w.r.t. r * h_prev
        carry, dsig, dr_h = dh * (1.0 - z), g * (1.0 - g), dg * r  # the last reads of z and r
        np.multiply(dz, dh, out=z)
        np.multiply(dg, h_prev, out=r)
        g *= dsig
        dh = carry + g @ UgT
        dh += dr_h
    DAg, DAh, rHprev = G, Hh, dH_ext
    # Input gradients summed per vocabulary entry in one product; the
    # embedding and input-weight gradients follow from those (V, .) sums.
    onehot = (np.arange(emb.shape[0])[:, None] == cache.tokens.T.reshape(1, -1)).astype(np.float64)
    tok_g, tok_h = onehot @ _flat(DAg), onehot @ _flat(DAh)
    demb = tok_g @ Wg[:d].T + tok_h @ Wh[:d].T
    dWg, dWh = emb.T @ tok_g, emb.T @ tok_h
    dS = None
    if S is not None:
        sum_g, sum_h = DAg.sum(axis=0), DAh.sum(axis=0)
        dS = sum_g @ Wg[d:].T + sum_h @ Wh[d:].T
        dWg = np.concatenate([dWg, S.T @ sum_g])
        dWh = np.concatenate([dWh, S.T @ sum_h])
    grads = {
        "Wg": dWg, "Wh": dWh,
        "Ug": _flat(Hprev).T @ _flat(DAg), "Uh": _flat(rHprev).T @ _flat(DAh),
        "bg": DAg.sum(axis=(0, 1)), "bh": DAh.sum(axis=(0, 1)),
    }
    return demb, dS, {f"{side}_{role}": a for role, a in grads.items()}


# ---------------------------------------------------------------------------
# encoder


def encoder_forward(ckpt: Checkpoint, tokens: np.ndarray, mask: np.ndarray):
    """Mean-pooled summary (B, d) plus the cache needed for backprop."""
    _check_tokens(tokens, len(ckpt.vocab))
    counts = np.add.reduce(mask, 1)
    if not counts.all():
        raise ValueError("encoder sequence with no real tokens")
    tables = input_tables(ckpt, "enc")
    cache = GruCache(tokens, mask, tables, *_gru_forward(tokens, mask, tables))
    summary = np.add.reduce(cache.H, 0, where=mask.T[:, :, None] > 0) / counts[:, None]
    return summary, cache, counts


# ---------------------------------------------------------------------------
# decoder


def decoder_forward(ckpt: Checkpoint, tokens: np.ndarray, mask: np.ndarray, summary: np.ndarray):
    """Hidden states (B, T, d), a view of the time-major cache.H, over [embedding ++ summary] inputs."""
    _check_tokens(tokens, len(ckpt.vocab))
    tables = input_tables(ckpt, "dec", summary)
    cache = GruCache(tokens, mask, tables, *_gru_forward(tokens, mask, tables))
    return cache.H.transpose(1, 0, 2), cache


def step_batch(states: np.ndarray, tokens: np.ndarray, rows: np.ndarray, tables: InputTables, ckpt: Checkpoint):
    """One decoder step over B hypotheses: (next_states (B, d), logits (B, V)).

    Hypothesis i reads tokens[i] and row rows[i] of the decoder's `tables`,
    as the teacher-forced loop reads a token and its row's summary; the
    recurrent weights come from the tables too.
    """
    p = ckpt.params
    _check_tokens(tokens, len(ckpt.vocab))
    g, hh = tables.EG[tokens], tables.EH[tokens]
    _add(g, tables.SG[rows], g)
    _add(hh, tables.SH[rows], hh)
    d = hh.shape[1]
    new_states = _gru_cell(g, g[:, :d], g[:, d:], hh, states, tables.Ug, tables.Uh)
    logits = new_states.dot(p["out_W"])
    return new_states, _add(logits, p["out_b"], logits)


# ---------------------------------------------------------------------------
# teacher-forced scoring (training-time forward/backward)


@dataclass
class ForwardCache:
    """A teacher-forced pass over U encoder rows and B decoder rows.

    Decoder row b reads the summary of encoder row rows[b], so an input
    that several decoder rows share is encoded once. `backward_from_dlogits`
    consumes both GRUs' caches and sets enc and dec to None.
    """

    enc: GruCache | None
    counts: np.ndarray  # (U,) real encoder lengths
    summary: np.ndarray  # (U, d)
    rows: np.ndarray  # (B,) each decoder row's index into summary
    dec: GruCache | None
    logits: np.ndarray  # (B, T, V)


def forward_teacher(
    ckpt: Checkpoint,
    enc_tokens: np.ndarray,
    enc_mask: np.ndarray,
    dec_tokens: np.ndarray,
    dec_mask: np.ndarray,
    rows: np.ndarray,
) -> ForwardCache:
    """Full forward pass producing logits at every decoder position.

    Decoder row b reads the summary of encoder row rows[b].
    """
    summary, enc_cache, counts = encoder_forward(ckpt, enc_tokens, enc_mask)
    states, dec_cache = decoder_forward(ckpt, dec_tokens, dec_mask, summary[rows])
    logits = states @ ckpt.params["out_W"] + ckpt.params["out_b"]
    return ForwardCache(enc=enc_cache, counts=counts, summary=summary, rows=rows, dec=dec_cache, logits=logits)


def backward_from_dlogits(ckpt: Checkpoint, cache: ForwardCache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar whose logit-gradient is `dlogits`.

    dlogits must already be zero at padded or otherwise unscored positions.
    Returns a gradient array for every parameter in the checkpoint.
    The pass consumes `cache`: each GRU's backward overwrites its cached
    activations, and each cache is dropped once its backward has run
    (cache.dec and cache.enc become None; cache.logits and cache.summary
    stay), so a second backward needs a new forward pass.
    """
    if cache.dec is None:
        raise ValueError("backward already ran on this forward cache; run a new forward pass")
    p = ckpt.params
    d = p["emb"].shape[1]
    B, T, V = dlogits.shape
    dlogits_tm = _flat(dlogits.transpose(1, 0, 2))  # (T*B, V), time-major like cache.dec.H
    grads = {"out_W": _flat(cache.dec.H).T @ dlogits_tm, "out_b": dlogits_tm.sum(axis=0)}

    dH_dec = (dlogits_tm @ p["out_W"].T).reshape(T, B, d)
    del dlogits_tm
    demb_dec, drows, g = _gru_backward(cache.dec, dH_dec, p, "dec")
    cache.dec = None
    del dH_dec
    grads.update(g)

    dsummary = np.zeros_like(cache.summary)  # each decoder row's summary gradient goes to the input it read
    np.add.at(dsummary, cache.rows, drows)
    dH_enc = (dsummary / cache.counts[:, None])[None] * cache.enc.mask.T[:, :, None]
    demb_enc, _, g = _gru_backward(cache.enc, dH_enc, p, "enc")
    cache.enc = None
    grads.update(g)
    grads["emb"] = demb_dec + demb_enc
    return grads


def target_log_probs(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-distributions at every position (B, T, V) and each position's target log-prob (B, T)."""
    logp = log_softmax(logits)
    B, T = targets.shape
    return logp, logp[np.arange(B)[:, None], np.arange(T), targets]


def sequence_log_probs(picked: np.ndarray, target_mask: np.ndarray) -> np.ndarray:
    """Per-sequence sums of `target_log_probs`' target log-probs (B, T) at masked positions; (B,).

    This is the one sum behind every sequence score: the preference losses
    (policy and dpo reference), `beam.sequence_score` and the search's
    prompt pass.
    """
    return np.add.reduce(picked * target_mask, 1)


def target_dlogits(cache: ForwardCache, targets: np.ndarray, weights: np.ndarray, smoothing: float = 0.0) -> np.ndarray:
    """d/dlogits of sum_{b,t} weights[b,t] * CE[b,t], ready for backward_from_dlogits.

    CE[b,t] = -sum_v q_v log p_v is the cross-entropy against
    q = (1 - smoothing) * onehot(targets[b,t]) + smoothing / V. With
    smoothing 0, CE is minus the target log-prob, so weights -coeffs[b] at a
    sequence's scored positions give the gradient of sum_b coeffs[b] * seq_logp[b].
    """
    dlogits = softmax(cache.logits) - smoothing / cache.logits.shape[2]
    at = targets[:, :, None]
    np.put_along_axis(dlogits, at, np.take_along_axis(dlogits, at, axis=2) - (1.0 - smoothing), axis=2)
    dlogits *= weights[:, :, None]
    return dlogits


def _validate_entity(entity_tokens, eos_id: int) -> list[int]:
    entity = [int(t) for t in entity_tokens]
    if not entity:
        raise ValueError("empty entity token sequence")
    if entity[-1] != eos_id:
        raise ValueError("entity token sequence must end with EOS")
    return entity


def forward_pairs(ckpt: Checkpoint, inputs: list[EncodedInput], entities: list):
    """Teacher-forced forward of B (input, entity) pairs in one padded batch.

    The decoder reads prompt-then-entity: position j consumes token j and
    predicts token j+1. Each entity must be non-empty and end in EOS.

    Inputs are keyed on their encoder tokens, and each distinct one is
    encoded once, in first-occurrence order: cache.rows maps each pair to
    its input's summary. This is the one teacher-forced batch: training,
    `beam.sequence_score`, `analyze` and the search's prompt pass (entity
    [EOS]) all build it here.

    Returns (cache, targets, target_mask), the last two (B, T). target_mask
    selects exactly the entity-token predictions, so masked sums of
    per-position log-probs are the entity log-probabilities with the prompt
    consumed but unscored; cache.dec.mask selects every prediction, prompt
    tokens 2..n included.
    """
    if len(inputs) != len(entities):
        raise ValueError("inputs and entities differ in length")
    seqs, offsets = [], []
    for x, entity in zip(inputs, entities):
        prompt = list(x.prompt_tokens)
        if not prompt:
            raise ValueError("empty prompt")
        seqs.append(prompt + _validate_entity(entity, ckpt.vocab.eos_id))
        offsets.append(len(prompt) - 1)
    index: dict[tuple[int, ...], int] = {}
    rows = [index.setdefault(x.encoder_tokens, len(index)) for x in inputs]
    pad = ckpt.vocab.pad_id
    enc_tokens, enc_mask = pad_batch(list(index), pad)
    dec_tokens, dec_mask = pad_batch([s[:-1] for s in seqs], pad)
    targets = np.full_like(dec_tokens, pad)
    target_mask = np.zeros_like(dec_mask)
    for i, (seq, off) in enumerate(zip(seqs, offsets)):
        targets[i, : len(seq) - 1] = seq[1:]
        target_mask[i, off : len(seq) - 1] = 1.0
    return forward_teacher(ckpt, enc_tokens, enc_mask, dec_tokens, dec_mask, np.array(rows)), targets, target_mask


def check_finite_loss(loss: float, step_index: int | None = None) -> float:
    if not np.isfinite(loss):
        if step_index is None:
            raise NumericError(f"non-finite loss {loss}")
        raise DivergenceError(step_index)
    return float(loss)


# ---------------------------------------------------------------------------
# serialization


def save(ckpt: Checkpoint, path, header: dict) -> None:
    validate_checkpoint(ckpt)
    write_arrays(path, MAGIC, FORMAT_VERSION, {**header, "vocab": list(ckpt.vocab.tokens)}, ckpt.params, "<f8")


def load(path) -> Checkpoint:
    header, params = read_arrays(path, MAGIC, FORMAT_VERSION, "<f8", "checkpoint", CheckpointFormatError,
                                 {"vocab": "a list of strings"})
    ckpt = Checkpoint(vocab=Vocab(header["vocab"]), params=params)
    validate_checkpoint(ckpt)
    return ckpt
