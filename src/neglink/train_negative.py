"""Stage-2 training: mine preference pairs, optimize a preference loss.

Every pairs file is mined here. Mining runs the constrained decoder over
the training mentions and turns its top-k lists into (input, preferred,
dispreferred) triplets:

  (a) every correct prediction is paired with every incorrect prediction
      ranked above it;
  (b) when rank 1 is already correct, it is paired with the single
      highest-ranked incorrect prediction, if one exists;
  (c) when no prediction is correct, the mention's first preferred name
      (`corpus.preferred_names`: its target, else its TF-IDF-nearest gold
      synonym) is paired with each of the top-3 incorrect predictions.

Both sides of every pair come from the model's own top-k, except the
preferred name of rule (c). On `synth`'s mentions the same rules mine the
pre-training pairs, and rule (c) prefers each mention's target.

Each mention is mined on its own (render, decode, pairing rules,
invariant check), so `workers.map_split` mines contiguous runs of the
mentions in forked processes, one per usable CPU. A triplet's equality,
on (rendered input, preferred, dispreferred), is its one identity:
mining keeps the first of equal triplets in mention order, so the output
does not depend on the CPU count, and `check_pairs` rejects a repeat.

Both losses share one margin, beta times the preferred name's log-ratio
minus the dispreferred one's. dpo measures log-probs relative to the
starting checkpoint, which training leaves unmodified and re-scores on
every batch so that an untrained model sits at exactly ln 2 per pair; each
batch scores the reference before the policy, so the reference's
activations are freed before the policy's are built. cpo's reference is
zero, and it adds `cpo_lambda` times the preferred name's per-token NLL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model, optim
from .beam import Prediction, constrained_beam_search, name_tokens
from .config import RunConfig
from .corpus import EncodedInput, MentionExample, preferred_names, render
from .errors import ConfigError, FormatError
from .kb import KnowledgeBase
from .workers import map_split


@dataclass(frozen=True)
class PreferenceTriplet:
    input: EncodedInput
    preferred: str
    dispreferred: str
    mention_index: int | None = field(default=None, compare=False)
    rank_w: int | None = field(default=None, compare=False)
    rank_l: int | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# mining


def triplets_from_predictions(
    enc_input: EncodedInput,
    predictions: list[Prediction],
    ex: MentionExample,
    kb: KnowledgeBase,
    mention_index: int | None = None,
) -> list[PreferenceTriplet]:
    """Apply the pairing rules to `ex`'s top-k prediction list."""
    correct = [(r, p) for r, p in enumerate(predictions, start=1) if p.ids & ex.gold_ids]
    incorrect = [(r, p) for r, p in enumerate(predictions, start=1) if not (p.ids & ex.gold_ids)]
    out: list[PreferenceTriplet] = []

    def emit(e_w: str, e_l: str, rank_w: int | None, rank_l: int | None):
        out.append(
            PreferenceTriplet(
                input=enc_input, preferred=e_w, dispreferred=e_l,
                mention_index=mention_index, rank_w=rank_w, rank_l=rank_l,
            )
        )

    if correct:
        for rw, pw in correct:
            for rl, pl in incorrect:
                if rl < rw:
                    emit(pw.name, pl.name, rw, rl)
        if correct[0][0] == 1 and incorrect:
            rl, pl = incorrect[0]
            emit(correct[0][1].name, pl.name, 1, rl)
    else:
        e_w = preferred_names(ex, kb, 1)[0]
        for rl, pl in incorrect[:3]:
            emit(e_w, pl.name, None, rl)
    return out


def check_pairs(triplets: list[PreferenceTriplet], examples: list[MentionExample], kb: KnowledgeBase) -> None:
    """Raise FormatError naming the mention unless no triplet equals an earlier one (equality is a triplet's one
    identity, so mentions that render alike share their pairs) and each keeps the mining rules: its preferred name
    aligns to a gold id of `examples[t.mention_index]`, its dispreferred one is a KB name that aligns to none."""
    seen: set[PreferenceTriplet] = set()
    for t in triplets:
        i, gold = t.mention_index, examples[t.mention_index].gold_ids
        if not kb.align(t.preferred) & gold or t.dispreferred not in kb.name_index or kb.align(t.dispreferred) & gold:
            raise FormatError(f"mention {i}: mined triplet violates invariants: {t.preferred!r} vs {t.dispreferred!r}")
        if t in seen:
            raise FormatError(f"mention {i}: pair {t.preferred!r} vs {t.dispreferred!r} appears twice")
        seen.add(t)


def mine_pairs(
    ckpt: model.Checkpoint, examples: list[MentionExample], kb: KnowledgeBase, trie, cfg: RunConfig
) -> list[PreferenceTriplet]:
    """Mine the preference dataset from the model's constrained predictions.

    Each mention's top `cfg.topk` list (searched at beam width `cfg.topk`)
    is paired by rules (a)-(c).
    """
    if cfg.topk < 2:
        raise ConfigError(f"mining needs topk >= 2, got {cfg.topk}")
    kb.tfidf  # built here, before the workers fork, so they share one index

    def mine_one(item: tuple[int, MentionExample]) -> list[PreferenceTriplet]:
        i, ex = item
        enc = render(ex, ckpt.vocab, max_ctx=cfg.max_ctx)
        preds = constrained_beam_search(ckpt, enc, trie, kb, beam=cfg.topk, k=cfg.topk)
        mined = triplets_from_predictions(enc, preds, ex, kb, i)
        check_pairs(mined, examples, kb)
        return mined

    return list(dict.fromkeys(t for mined in map_split(mine_one, enumerate(examples)) for t in mined))


# ---------------------------------------------------------------------------
# losses


def preference_loss_values(
    lp_w: np.ndarray,
    lp_l: np.ndarray,
    ref_w: np.ndarray,
    ref_l: np.ndarray,
    len_w: np.ndarray,
    cfg: RunConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair losses and d(loss)/d(lp_w), d(loss)/d(lp_l), all (B,).

    -log sigma(m) is computed as logaddexp(0, -m) for stability.
    """
    beta = cfg.beta
    margin = beta * ((lp_w - ref_w) - (lp_l - ref_l))
    loss = np.logaddexp(0.0, -margin)
    s = model.sigmoid(-margin)
    dlp_w = -beta * s
    dlp_l = beta * s
    if cfg.loss == "cpo":
        loss = loss - cfg.cpo_lambda * lp_w / len_w
        dlp_w = dlp_w - cfg.cpo_lambda / len_w
    return loss, dlp_w, dlp_l


def preference_loss_and_grads(
    ckpt: model.Checkpoint,
    ref: model.Checkpoint | None,
    triplets: list[PreferenceTriplet],
    cfg: RunConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-pair loss over the batch, plus exact parameter gradients.

    Preferred and dispreferred sequences share one forward pass (the batch
    is stacked [w..., l...], and `model.forward_pairs` encodes each pair's
    input once); for dpo the frozen reference is scored first, through
    `model.forward_pairs` on the same input and entity lists, which lays
    them out in identical arrays, so both sides see the same padding and
    reduction order. Its forward cache is dropped before the policy's is
    built.
    """
    if cfg.loss == "dpo" and ref is None:
        raise ValueError("dpo requires a frozen reference checkpoint")
    B = len(triplets)
    inputs = [t.input for t in triplets] * 2
    entities = [name_tokens(t.preferred, ckpt.vocab) for t in triplets]
    entities += [name_tokens(t.dispreferred, ckpt.vocab) for t in triplets]
    if cfg.loss == "dpo":
        ref_cache, tg, tm = model.forward_pairs(ref, inputs, entities)
        ref_lp = model.sequence_log_probs(model.target_log_probs(ref_cache.logits, tg)[1], tm)
        del ref_cache
    else:
        ref_lp = np.zeros(2 * B)
    cache, tg, tm = model.forward_pairs(ckpt, inputs, entities)
    lp = model.sequence_log_probs(model.target_log_probs(cache.logits, tg)[1], tm)
    len_w = np.array([len(e) for e in entities[:B]], dtype=np.float64)
    losses, dlp_w, dlp_l = preference_loss_values(lp[:B], lp[B:], ref_lp[:B], ref_lp[B:], len_w, cfg)
    coeffs = np.concatenate([dlp_w, dlp_l]) / B
    dlogits = model.target_dlogits(cache, tg, -(tm * coeffs[:, None]))
    return float(losses.mean()), model.backward_from_dlogits(ckpt, cache, dlogits)


# ---------------------------------------------------------------------------
# training


def train_preference(
    ckpt: model.Checkpoint,
    triplets: list[PreferenceTriplet],
    cfg: RunConfig,
) -> optim.TrainResult:
    """`cfg.neg_epochs` epochs of the preference loss over the mined triplets.

    `optim.train_loop` trains a copy, so `ckpt` itself is never modified and
    serves as the frozen dpo reference. Epochs become a step count for
    `optim.train_loop`, which draws one permutation per epoch and runs at the
    `neg_*` rate, batch and warmup.
    """
    ref = ckpt if cfg.loss == "dpo" else None
    steps = cfg.neg_epochs * math.ceil(len(triplets) / cfg.neg_batch)
    return optim.train_loop(
        ckpt, triplets, lambda c, batch: preference_loss_and_grads(c, ref, batch, cfg),
        cfg.seed, cfg.neg_lr, cfg.neg_batch, cfg.neg_warmup, steps,
    )
