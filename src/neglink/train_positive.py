"""Stage-1 training: generate TF-IDF-selected gold synonyms.

Each mention contributes one instance per selected name, its top-k
`corpus.preferred_names`: its explicit targets, or else its gold synonyms
ranked by trigram similarity to the mention over the union of all its
gold concepts' names. The objective is label-smoothed cross-entropy over
the entity tokens, teacher-forced behind the prompt. Per-instance loss is
the mean over that instance's target positions; batch loss is the mean
over instances, so short and long names weigh equally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, optim
from .beam import name_tokens
from .config import RunConfig
from .corpus import EncodedInput, MentionExample, preferred_names, render
from .kb import KnowledgeBase
from .model import Checkpoint, ForwardCache
from .vocab import Vocab


@dataclass(frozen=True)
class PositiveInstance:
    input: EncodedInput
    target: tuple[int, ...]  # synonym tokens ending in EOS
    target_name: str


def build_positive_set(
    examples: list[MentionExample], kb: KnowledgeBase, vocab: Vocab, cfg: RunConfig
) -> list[PositiveInstance]:
    """One instance per name of each example's `cfg.syn_topk` `corpus.preferred_names`, in rank order."""
    instances: list[PositiveInstance] = []
    for ex in examples:
        enc = render(ex, vocab, max_ctx=cfg.max_ctx)
        for name in preferred_names(ex, kb, cfg.syn_topk):
            tokens = tuple(name_tokens(name, vocab))
            instances.append(PositiveInstance(input=enc, target=tokens, target_name=name))
    return instances


def ce_from_cache(
    cache: ForwardCache, targets: np.ndarray, target_mask: np.ndarray, smoothing: float
) -> tuple[float, np.ndarray]:
    """(batch loss, dloss/dlogits) for smoothed cross-entropy.

    Loss = mean over instances of (mean over target positions of
    -sum_v q_v log p_v), q = (1 - eps) * onehot + eps / V.
    """
    B, T, V = cache.logits.shape
    logp, picked = model.target_log_probs(cache.logits, targets)
    lengths = target_mask.sum(axis=1)
    # -sum_v q_v log p_v = -(1-eps) log p_target - eps/V * sum_v log p_v
    per_pos = -(1.0 - smoothing) * picked - (smoothing / V) * logp.sum(axis=2)
    per_seq = (per_pos * target_mask).sum(axis=1) / lengths
    loss = float(per_seq.mean())
    return loss, model.target_dlogits(cache, targets, target_mask / lengths[:, None] / B, smoothing)


def ce_loss_and_grads(
    ckpt: Checkpoint, instances: list[PositiveInstance], smoothing: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and exact gradients; used by training and gradient checks."""
    cache, tg, tm = model.forward_pairs(ckpt, [i.input for i in instances], [i.target for i in instances])
    loss, dlogits = ce_from_cache(cache, tg, tm, smoothing)
    grads = model.backward_from_dlogits(ckpt, cache, dlogits)
    return loss, grads


def train(
    ckpt: Checkpoint,
    instances: list[PositiveInstance],
    cfg: RunConfig,
) -> optim.TrainResult:
    """Stage-1 training: `cfg.pos_steps` steps of smoothed cross-entropy.

    Returns a trained copy of `ckpt` and the loss curve; the schedule
    is `optim.train_loop`'s, at the `pos_*` rate, batch and warmup.
    """
    return optim.train_loop(
        ckpt, instances, lambda c, batch: ce_loss_and_grads(c, batch, cfg.label_smoothing),
        cfg, cfg.pos_lr, cfg.pos_batch, cfg.pos_warmup, cfg.pos_steps,
    )
