"""Fixtures shared by several test modules."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.kb import load_kb
from neglink.model import init_checkpoint
from neglink.train_positive import build_positive_set, train
from neglink.trie import build_trie

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


@pytest.fixture(scope="session")
def toy_linker():
    """Toy KB, trie, a 40-step stage-1 checkpoint, rendered test inputs and the toy config.

    Tests read these objects and must not modify them.
    """
    kb = load_kb(TOY / "kb.jsonl")
    cfg = build_config(preset="toy")
    vocab = vocab_from_sources(kb, [str(TOY / "train.jsonl"), str(TOY / "test.jsonl")], None)
    train_ex, _ = prepare_mentions(TOY / "train.jsonl", kb, None)
    test_ex, _ = prepare_mentions(TOY / "test.jsonl", kb, None)
    instances = build_positive_set(train_ex, kb, vocab, cfg)
    ckpt = train(init_checkpoint(vocab, cfg.hidden_dim, 0), instances, dataclasses.replace(cfg, pos_steps=40, seed=0))
    inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex]
    return kb, build_trie(kb.names(), vocab), ckpt.checkpoint, inputs, cfg
