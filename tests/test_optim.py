"""AdamW with decoupled weight decay, warmup, and global-norm clipping."""

from __future__ import annotations

import numpy as np
import pytest

from neglink.config import RunConfig
from neglink.errors import ConfigError
from neglink import model
from neglink.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    WEIGHT_DECAY,
    OptimizerState,
    adamw_step,
    clip_grads,
    effective_rate,
    global_norm,
    train_loop,
)
from neglink.vocab import Vocab


def small_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,))}


def test_global_norm():
    grads = {"a": np.full((2, 2), 3.0), "b": np.full((4,), 2.0)}
    want = np.sqrt(4 * 9.0 + 4 * 4.0)
    assert abs(global_norm(grads) - want) < 1e-12


def test_clip_rescales_only_above_threshold():
    grads = {"a": np.array([3.0, 4.0])}
    pre = clip_grads(grads, max_norm=2.5)
    assert abs(pre - 5.0) < 1e-12
    assert abs(global_norm(grads) - 2.5) < 1e-12
    grads2 = {"a": np.array([0.3, 0.4])}
    clip_grads(grads2, max_norm=2.5)
    np.testing.assert_array_equal(grads2["a"], [0.3, 0.4])


def test_warmup_schedule():
    rates = [effective_rate(1.0, 4, t) for t in range(6)]
    assert rates == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]
    assert effective_rate(0.5, 0, 0) == 0.5


def test_zero_learning_rate_leaves_params_bitwise_unchanged():
    params = small_params()
    before = {k: v.copy() for k, v in params.items()}
    state = OptimizerState.fresh(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    for _ in range(3):
        adamw_step(params, {k: g.copy() for k, g in grads.items()}, state, 0.0, 0)
    for k in params:
        assert np.array_equal(params[k], before[k])
    assert state.step == 3


def test_adamw_matches_manual_reference():
    params = small_params(seed=1)
    reference = {k: v.copy() for k, v in params.items()}
    state = OptimizerState.fresh(params)
    learning_rate, warmup_steps = 1e-2, 2
    rng = np.random.default_rng(7)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t in range(5):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        lr = learning_rate * min(1.0, (t + 1) / warmup_steps)
        for k in sorted(reference):
            g = grads[k]
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v2[k] = ADAM_BETA2 * v2[k] + (1 - ADAM_BETA2) * g * g
            mhat = m[k] / (1 - ADAM_BETA1 ** (t + 1))
            vhat = v2[k] / (1 - ADAM_BETA2 ** (t + 1))
            reference[k] = reference[k] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            reference[k] = reference[k] - lr * WEIGHT_DECAY * reference[k]
        adamw_step(params, {k: g.copy() for k, g in grads.items()}, state, learning_rate, warmup_steps)
        for k in params:
            np.testing.assert_allclose(params[k], reference[k], atol=1e-14)


def test_weight_decay_is_decoupled_from_gradient():
    # with zero gradients and nonzero decay, parameters shrink multiplicatively
    params = {"a": np.array([2.0, -2.0])}
    state = OptimizerState.fresh(params)
    adamw_step(params, {"a": np.zeros(2)}, state, 0.1, 0)
    decay = 1 - 0.1 * WEIGHT_DECAY
    np.testing.assert_allclose(params["a"], [2.0 * decay, -2.0 * decay], atol=1e-15)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(pos_lr=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(pos_steps=0)


def test_train_loop_schedule():
    # 10 items in batches of 4 give epochs of 3 steps (4, 4, 2); 7 steps stop one batch into epoch 3
    ckpt = model.init_checkpoint(Vocab.from_texts(["ab"]), 4, 0)
    batches = []

    def record(c, batch):
        batches.append(list(batch))
        return 1.0, {k: np.zeros_like(p) for k, p in c.params.items()}

    result = train_loop(ckpt, list(range(10)), record, 5, 1e-3, 4, 0, 7)
    assert [len(b) for b in batches] == [4, 4, 2, 4, 4, 2, 4]
    for epoch in (batches[0:3], batches[3:6]):
        assert sorted(i for b in epoch for i in b) == list(range(10))
    assert result.loss_log == [(step, 1.0) for step in range(7)]
    with pytest.raises(ValueError):
        train_loop(ckpt, [], record, 5, 1e-3, 4, 0, 7)
