"""Adam with decoupled weight decay, global-norm clipping, linear warmup,
and the training loop both stages share.

The learning rate ramps linearly from zero over `warmup_steps` optimizer
steps (step t, 0-based, uses rate lr * min(1, (t+1)/warmup_steps)) and
then stays constant; no decay schedule. Weight decay is decoupled and
scaled by the effective rate, so a zero learning rate leaves parameters
bitwise unchanged. Gradients are clipped jointly: if the global L2 norm
across every array exceeds GRAD_CLIP, all arrays are scaled by
GRAD_CLIP / norm before the moment updates.

The Adam constants, the weight decay and the clipping norm are fixed for
both stages; only the rate, batch, warmup and length vary between runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import Checkpoint, check_finite_loss, copy_checkpoint

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
GRAD_CLIP = 0.1  # global L2 norm


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for _, g in sorted(grads.items())))


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all arrays in place to global norm <= max_norm. Returns pre-clip norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def effective_rate(learning_rate: float, warmup_steps: int, step: int) -> float:
    """Rate for 0-based optimizer step `step`."""
    if warmup_steps > 0:
        return learning_rate * min(1.0, (step + 1) / warmup_steps)
    return learning_rate


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


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
    warmup_steps: int,
) -> float:
    """One in-place update over all parameters. Returns the rate used.

    The stage's base rate and warmup come from the caller. Parameter names
    are visited in sorted order so the arithmetic sequence is identical
    between runs.
    """
    state.step += 1
    t = state.step
    lr = effective_rate(learning_rate, warmup_steps, t - 1)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name in sorted(params):
        p, g = params[name], grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        p -= lr * WEIGHT_DECAY * p
    return lr


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    loss_log: list[tuple[int, float]]  # (step, batch loss)


def train_loop(
    ckpt: Checkpoint,
    items: Sequence,
    loss_and_grads: Callable[[Checkpoint, list], tuple[float, dict[str, np.ndarray]]],
    seed: int,
    learning_rate: float,
    batch_size: int,
    warmup_steps: int,
    steps: int,
) -> TrainResult:
    """`steps` clipped AdamW steps on a copy of `ckpt`, which is not modified.

    Each epoch draws one permutation of `items` from a generator seeded with
    `seed` and slices it into batches of `batch_size`; an epoch's short
    last batch is kept, and a `steps` that is not a multiple of the epoch
    length stops mid-epoch. The rate warms up over `warmup_steps` to
    `learning_rate`.
    `loss_and_grads(ckpt, batch)` returns the batch loss and the gradient of
    every parameter. The copy starts with a fresh optimizer state.
    """
    if not items:
        raise ValueError("nothing to train on")
    out = copy_checkpoint(ckpt)
    state = OptimizerState.fresh(out.params)
    rng = np.random.default_rng(seed)
    loss_log: list[tuple[int, float]] = []
    step = 0
    while step < steps:
        order = rng.permutation(len(items))
        for start in range(0, len(order), batch_size):
            if step >= steps:
                break
            batch = [items[i] for i in order[start : start + batch_size]]
            loss, grads = loss_and_grads(out, batch)
            check_finite_loss(loss, step_index=step)
            clip_grads(grads, GRAD_CLIP)
            adamw_step(out.params, grads, state, learning_rate, warmup_steps)
            loss_log.append((step, loss))
            step += 1
    return TrainResult(checkpoint=out, loss_log=loss_log)
