"""Configuration merging: defaults, presets, files, flag overrides."""

from __future__ import annotations

import dataclasses

import pytest

from neglink.config import PRESETS, RunConfig, build_config, parse_config_file
from neglink.errors import ConfigError


def test_defaults():
    cfg = build_config()
    assert cfg.seed == 0
    assert cfg.loss == "dpo"
    assert cfg.beta == 0.1
    assert cfg.beam == 5


def test_preset_values_applied():
    cfg = build_config(preset="toy")
    assert cfg.pos_steps == 900
    assert cfg.pos_warmup == 50
    assert cfg.neg_lr == 1e-4
    # untouched keys keep their defaults
    assert cfg.beta == 0.1
    assert cfg.pos_lr == RunConfig().pos_lr


def test_all_presets_are_buildable():
    for name in PRESETS:
        cfg = build_config(preset=name)
        assert isinstance(cfg, RunConfig)


def test_a_preset_lists_only_what_it_changes():
    defaults = RunConfig()
    for name, row in PRESETS.items():
        for key, value in row.items():
            assert getattr(defaults, key) != value, (name, key)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        """
        # a comment
        seed = 9
        loss = cpo   # trailing comment
        pos_lr = 1e-4
        """
    )
    raw = parse_config_file(p)
    assert raw == {"seed": "9", "loss": "cpo", "pos_lr": "1e-4"}
    cfg = build_config(config_file=p)
    assert cfg.seed == 9
    assert cfg.loss == "cpo"
    assert cfg.pos_lr == 1e-4


def test_precedence_defaults_preset_file_flags(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("pos_steps = 111\nseed = 5\n")
    cfg = build_config(preset="toy", config_file=p, overrides={"seed": "7"})
    assert cfg.pos_steps == 111      # file beats preset
    assert cfg.seed == 7             # flags beat file
    assert cfg.pos_warmup == 50      # preset beats defaults


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        build_config(overrides={"nope": "1"})
    # fixed training constants, kept in optim.py and train_positive.py, are not settings
    for key in ("weight_decay", "grad_clip", "adam_beta1", "adam_beta2", "adam_eps", "label_smoothing"):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(overrides={key: "0.1"})
    p = tmp_path / "run.cfg"
    p.write_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        build_config(config_file=p)
    with pytest.raises(ConfigError):
        build_config(preset="missing")


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        build_config(overrides={"seed": "not_an_int"})
    p = tmp_path / "run.cfg"
    p.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        build_config(config_file=p)


def test_non_finite_float_settings_rejected():
    floats = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("float", float)]
    assert "beta" in floats
    for key in floats:
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=key):
                build_config(overrides={key: raw})


def test_settings_are_checked_even_where_unused():
    # a stage-1 run never reads neg_batch, but the settings object is checked as a whole
    with pytest.raises(ConfigError, match="neg_batch"):
        build_config(preset="toy", overrides={"neg_batch": "0"})


def test_every_setting_rejects_an_out_of_range_value():
    # One bad value per field: a field added without a rule in RunConfig.__post_init__ fails here.
    bad = {
        "seed": "-1", "hidden_dim": "1", "max_ctx": "-3", "syn_topk": "0", "beam": "0", "topk": "0",
        "pos_lr": "-1e-3", "pos_steps": "0", "pos_batch": "0", "pos_warmup": "-1",
        "neg_lr": "-1e-3", "neg_epochs": "0", "neg_batch": "0", "neg_warmup": "-1", "loss": "hinge",
        "beta": "0", "cpo_lambda": "-1",
    }
    assert sorted(bad) == sorted(f.name for f in dataclasses.fields(RunConfig))
    for key, raw in bad.items():
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            build_config(overrides={key: raw})
