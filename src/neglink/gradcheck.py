"""Finite-difference verification of every training loss.

For each loss (smoothed cross-entropy plus the dpo and cpo preference
losses) the suite samples random parameter coordinates, perturbs them by
±h, and compares the central difference quotient against the analytic
gradient at relative error |analytic - fd| / max(1, |analytic|). The
fixture is a tiny model over a fixed micro-corpus; seeds vary the
parameter draw and the sampled coordinates. A preference batch stacks each pair's input under
both of its entities, so the checks cover an encoder row that two decoder
rows read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .beam import name_tokens
from .config import LOSS_KINDS, RunConfig
from .corpus import MentionExample, render
from .errors import ConfigError
from .train_negative import PreferenceTriplet, preference_loss_and_grads
from .train_positive import LABEL_SMOOTHING, PositiveInstance, ce_loss_and_grads
from .vocab import Vocab

ALL_LOSSES = ("ce",) + LOSS_KINDS


@dataclass(frozen=True)
class LossCheck:
    loss_kind: str
    seed: int
    max_rel_err: float
    ok: bool


def _fixture(seed: int):
    texts = ["abac", "abad", "bacab", "dabac", "x y z", "abacs is"]
    vocab = Vocab.from_texts(texts)
    ckpt = model.init_checkpoint(vocab, 8, seed)
    ref = model.init_checkpoint(vocab, 8, seed + 1009)
    ex1 = MentionExample(left_context="x y", mention="abacs", right_context="z", gold_ids=frozenset({"C1"}))
    ex2 = MentionExample(left_context="", mention="bacab", right_context="x", gold_ids=frozenset({"C2"}))
    enc1, enc2 = (render(ex, vocab, max_ctx=RunConfig().max_ctx) for ex in (ex1, ex2))
    instances = [
        PositiveInstance(input=enc1, target=tuple(name_tokens("abac", vocab)), target_name="abac"),
        PositiveInstance(input=enc2, target=tuple(name_tokens("bacab", vocab)), target_name="bacab"),
    ]
    triplets = [
        PreferenceTriplet(input=enc1, preferred="abac", dispreferred="abad"),
        PreferenceTriplet(input=enc2, preferred="bacab", dispreferred="dabac"),
    ]
    return ckpt, ref, instances, triplets


def _loss_fn(kind: str, ckpt, ref, instances, triplets):
    if kind == "ce":
        return lambda: ce_loss_and_grads(ckpt, instances, LABEL_SMOOTHING)
    cfg = RunConfig(loss=kind)
    return lambda: preference_loss_and_grads(ckpt, ref, triplets, cfg)


def check_loss(kind: str, seed: int, n_coords: int = 20, h: float = 1e-5, tol: float = 1e-4) -> LossCheck:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_coords < 1:
        raise ConfigError(f"n_coords must be >= 1, got {n_coords}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {tol!r}")
    ckpt, ref, instances, triplets = _fixture(seed)
    fn = _loss_fn(kind, ckpt, ref, instances, triplets)
    _, grads = fn()
    rng = np.random.default_rng(seed * 7919 + 13)
    names = sorted(ckpt.params)
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        arr = ckpt.params[name]
        flat = int(rng.integers(arr.size))
        idx = np.unravel_index(flat, arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        plus, _ = fn()
        arr[idx] = orig - h
        minus, _ = fn()
        arr[idx] = orig
        fd = (plus - minus) / (2.0 * h)
        analytic = float(grads[name][idx])
        rel = abs(analytic - fd) / max(1.0, abs(analytic))
        worst = max(worst, rel)
    return LossCheck(loss_kind=kind, seed=seed, max_rel_err=worst, ok=worst <= tol)


def run_gradcheck(seeds=(0, 1, 2), n_coords: int = 20, h: float = 1e-5, tol: float = 1e-4) -> list[LossCheck]:
    """One check per loss and seed, the losses in ALL_LOSSES order."""
    return [check_loss(kind, seed, n_coords, h, tol) for kind in ALL_LOSSES for seed in seeds]
