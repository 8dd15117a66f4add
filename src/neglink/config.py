"""Run configuration: the one settings object, its preset, file parsing, overrides.

`RunConfig` holds the hyperparameters that vary between runs: the seed,
model size, each stage's steps, rate, batch and warmup, the stage-2 loss,
and decoding. The training loops, losses and CLI read it directly. The
AdamW constants and clipping (`optim`) and the stage-1 label smoothing
(`train_positive`) are fixed, as in the paper's recipe. It checks
every value once, when it is built: a non-finite float or an out-of-range
value raises `ConfigError`, whether or not the command uses that setting.

Configuration files are plain text, one `key = value` per line, with `#`
comments. Precedence, lowest to highest: built-in defaults, named preset,
config file, `--set key=value` overrides. The one preset, `toy`, is tuned
for the bundled confusable benchmark and lists only the settings it changes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from . import artifacts
from .errors import ConfigError

LOSS_KINDS = ("dpo", "cpo")


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
    # stage 2
    neg_lr: float = 5e-4
    neg_epochs: int = 1
    neg_batch: int = 16
    neg_warmup: int = 0
    loss: str = "dpo"
    beta: float = 0.1
    cpo_lambda: float = 1.0

    def __post_init__(self):
        # Every comparison is written so that NaN fails it.
        rules = [
            (f.name, math.isfinite(getattr(self, f.name)), "be finite")
            for f in dataclasses.fields(self) if f.type in ("float", float)
        ]
        rules += [
            ("seed", self.seed >= 0, "be >= 0"),
            ("hidden_dim", self.hidden_dim >= 2, "be >= 2"),
            ("max_ctx", self.max_ctx >= 0, "be >= 0"),
            ("syn_topk", self.syn_topk >= 1, "be >= 1"),
            ("beam", self.beam >= 1, "be >= 1"),
            ("topk", self.topk >= 1, "be >= 1"),
            ("pos_lr", self.pos_lr >= 0, "be >= 0"),
            ("pos_steps", self.pos_steps >= 1, "be >= 1"),
            ("pos_batch", self.pos_batch >= 1, "be >= 1"),
            ("pos_warmup", self.pos_warmup >= 0, "be >= 0"),
            ("neg_lr", self.neg_lr >= 0, "be >= 0"),
            ("neg_epochs", self.neg_epochs >= 1, "be >= 1"),
            ("neg_batch", self.neg_batch >= 1, "be >= 1"),
            ("neg_warmup", self.neg_warmup >= 0, "be >= 0"),
            ("loss", self.loss in LOSS_KINDS, f"be one of {LOSS_KINDS}"),
            ("beta", self.beta > 0, "be > 0"),
            ("cpo_lambda", self.cpo_lambda >= 0, "be >= 0"),
        ]
        for name, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{name} must {rule}, got {getattr(self, name)!r}")


# Tuned for the bundled confusable benchmark and the compact model.
PRESETS: dict[str, dict] = {
    "toy": dict(pos_steps=900, pos_warmup=50, neg_lr=1e-4),
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
    """Merge defaults, preset, file, and `--set` overrides into a RunConfig."""
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
