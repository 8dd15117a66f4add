"""Stage-1 training: generate TF-IDF-selected gold synonyms.

Each mention contributes one instance per selected name, its top-k
`corpus.preferred_names`: its explicit targets, or else its gold synonyms
ranked by trigram similarity to the mention over the union of all its
gold concepts' names. The objective is cross-entropy over the entity
tokens, label-smoothed by LABEL_SMOOTHING and teacher-forced behind the
prompt. Per-instance loss is the mean over that instance's target
positions; batch loss is the mean over instances, so short and long names
weigh equally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, optim
from .beam import name_tokens
from .config import RunConfig
from .corpus import EncodedInput, MentionExample, preferred_names, render
from .kb import KnowledgeBase
from .model import Checkpoint
from .vocab import Vocab

LABEL_SMOOTHING = 0.1


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


def ce_loss_and_grads(
    ckpt: Checkpoint, instances: list[PositiveInstance], smoothing: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Smoothed cross-entropy batch loss and its exact gradients; used by training and gradient checks.

    Loss = mean over instances of (mean over target positions of
    -sum_v q_v log p_v), q = (1 - eps) * onehot + eps / V, eps = `smoothing`.
    """
    cache, targets, target_mask = model.forward_pairs(
        ckpt, [i.input for i in instances], [i.target for i in instances]
    )
    B, T, V = cache.logits.shape
    logp, picked = model.target_log_probs(cache.logits, targets)
    lengths = target_mask.sum(axis=1)
    # -sum_v q_v log p_v = -(1-eps) log p_target - eps/V * sum_v log p_v
    per_pos = -(1.0 - smoothing) * picked - (smoothing / V) * logp.sum(axis=2)
    del logp  # (B, T, V): freed before the backward pass, which sets the stage's peak memory
    per_seq = (per_pos * target_mask).sum(axis=1) / lengths
    dlogits = model.target_dlogits(cache, targets, target_mask / lengths[:, None] / B, smoothing)
    return float(per_seq.mean()), model.backward_from_dlogits(ckpt, cache, dlogits)


def train(
    ckpt: Checkpoint,
    instances: list[PositiveInstance],
    cfg: RunConfig,
) -> optim.TrainResult:
    """Stage-1 training: `cfg.pos_steps` steps of cross-entropy smoothed by LABEL_SMOOTHING.

    Returns a trained copy of `ckpt` and the loss curve; the schedule
    is `optim.train_loop`'s, at the `pos_*` rate, batch and warmup.
    """
    return optim.train_loop(
        ckpt, instances, lambda c, batch: ce_loss_and_grads(c, batch, LABEL_SMOOTHING),
        cfg.seed, cfg.pos_lr, cfg.pos_batch, cfg.pos_warmup, cfg.pos_steps,
    )
