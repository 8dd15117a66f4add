"""Run configuration: defaults, named presets, file parsing, overrides.

Configuration files are plain text, one `key = value` per line, with `#`
comments. Precedence, lowest to highest: built-in defaults, named preset,
config file, command-line flags. The named presets carry the published
per-dataset hyperparameter rows verbatim; they describe the original
BART-scale recipes and are documentation-grade defaults, not tuned values
for this package's compact model. The `toy` preset is tuned for the
bundled confusable benchmark.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import artifacts
from .errors import ConfigError
from .optim import OptimizerConfig
from .train_negative import PreferenceConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    hidden_dim: int = 64
    max_ctx: int = 128
    syn_topk: int = 3  # positive synonyms per mention
    beam: int = 5
    topk: int = 5
    # stage 1
    pos_lr: float = 2e-3
    pos_steps: int = 1000
    pos_batch: int = 16
    pos_warmup: int = 0
    label_smoothing: float = 0.1
    # stage 2
    neg_lr: float = 5e-4
    neg_epochs: int = 1
    neg_batch: int = 16
    neg_warmup: int = 0
    loss: str = "dpo"
    beta: float = 0.1
    cpo_lambda: float = 1.0
    simpo_gamma: float = 0.5
    negatives: str = "pred"
    pairs: str = "filtered"
    # shared optimizer constants
    weight_decay: float = 0.01
    grad_clip: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def _optimizer(self, learning_rate: float, steps: int, batch_size: int, warmup_steps: int) -> OptimizerConfig:
        """Stage-specific rate and schedule; the Adam, decay, clipping and smoothing fields are shared."""
        return OptimizerConfig(
            learning_rate=learning_rate,
            steps=steps,
            batch_size=batch_size,
            warmup_steps=warmup_steps,
            adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2,
            adam_eps=self.adam_eps,
            weight_decay=self.weight_decay,
            grad_clip=self.grad_clip,
            label_smoothing=self.label_smoothing,
        )

    def positive_optimizer(self) -> OptimizerConfig:
        return self._optimizer(self.pos_lr, self.pos_steps, self.pos_batch, self.pos_warmup)

    def preference_config(self) -> PreferenceConfig:
        # Preference training is epoch-driven; the steps field is unused there.
        opt = self._optimizer(self.neg_lr, 1, self.neg_batch, self.neg_warmup)
        return PreferenceConfig(
            loss_kind=self.loss,
            beta=self.beta,
            cpo_lambda=self.cpo_lambda,
            simpo_gamma=self.simpo_gamma,
            epochs=self.neg_epochs,
            optimizer=opt,
        )


# Published per-dataset rows (positive-only steps/rate/batch/warmup, then
# negative-aware epochs/rate/batch), kept verbatim as documentation-grade
# presets. The pretrain column additionally used negative warmup 1000.
PRESETS: dict[str, dict] = {
    "pretrain": dict(pos_steps=80_000, pos_lr=4e-5, pos_batch=384, pos_warmup=1600,
                     neg_epochs=5, neg_lr=1e-5, neg_batch=64, neg_warmup=1000),
    "ncbi": dict(pos_steps=20_000, pos_lr=3e-7, pos_batch=16, pos_warmup=0,
                 neg_epochs=1, neg_lr=1e-5, neg_batch=16),
    "bc5cdr": dict(pos_steps=30_000, pos_lr=5e-6, pos_batch=16, pos_warmup=500,
                   neg_epochs=1, neg_lr=1e-6, neg_batch=16),
    "cometa": dict(pos_steps=40_000, pos_lr=2e-5, pos_batch=16, pos_warmup=1000,
                   neg_epochs=1, neg_lr=5e-6, neg_batch=32),
    "aap": dict(pos_steps=30_000, pos_lr=5e-6, pos_batch=16, pos_warmup=0,
                neg_epochs=1, neg_lr=5e-6, neg_batch=8),
    "mm": dict(pos_steps=40_000, pos_lr=3e-5, pos_batch=16, pos_warmup=1000,
               neg_epochs=1, neg_lr=5e-6, neg_batch=16),
    # Tuned for the bundled confusable benchmark and the compact model.
    "toy": dict(pos_steps=900, pos_lr=2e-3, pos_batch=16, pos_warmup=50,
                neg_epochs=1, neg_lr=1e-4, neg_batch=16, hidden_dim=64),
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    field = _FIELDS[key]
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} ({e})") from e


def parse_config_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in artifacts.read_lines(path, ConfigError):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_config(
    preset: str | None = None,
    config_file: str | Path | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Merge defaults, preset, file, and flag overrides into a RunConfig."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    for source in (
        parse_config_file(config_file) if config_file else {},
        overrides or {},
    ):
        for key, raw in source.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    return RunConfig(**values)
