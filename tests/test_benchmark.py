"""The bundled confusable-pairs benchmark generator."""

from __future__ import annotations

import json

from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.corpus import read_mentions
from neglink.kb import load_kb


def test_generation_is_deterministic():
    a = gen_benchmark(n_pairs=10, n_train=30, n_test=20, seed=5)
    b = gen_benchmark(n_pairs=10, n_train=30, n_test=20, seed=5)
    assert a.concepts == b.concepts
    assert a.train == b.train
    assert a.test == b.test
    c = gen_benchmark(n_pairs=10, n_train=30, n_test=20, seed=6)
    assert c.train != a.train


def test_counts_and_pairing():
    bench = gen_benchmark(n_pairs=12, n_train=40, n_test=24, seed=1)
    assert len(bench.concepts) == 24
    assert len(bench.train) == 40
    assert len(bench.test) == 24
    ids = [c["id"] for c in bench.concepts]
    assert len(set(ids)) == 24
    a_side = [c for c in bench.concepts if c["id"].startswith("A")]
    b_side = [c for c in bench.concepts if c["id"].startswith("B")]
    assert len(a_side) == len(b_side) == 12
    # A-side concepts carry definitions, B-side concepts do not
    assert all(c.get("definition") for c in a_side)
    assert all(not c.get("definition") for c in b_side)


def test_mentions_are_linkable_and_kinds_mixed(tmp_path):
    bench = gen_benchmark(n_pairs=20, n_train=120, n_test=60, seed=2)
    write_benchmark(bench, tmp_path)
    kb = load_kb(tmp_path / "kb.jsonl")
    name_owner = kb.name_index
    for fname in ("train.jsonl", "test.jsonl"):
        examples = [ex for _, ex in read_mentions(tmp_path / fname)]
        kinds = {"easy": 0, "variant": 0, "ambig": 0}
        for ex in examples:
            assert ex.gold_ids <= kb.concepts.keys()
            owners = name_owner.get(ex.mention, frozenset())
            if not owners:
                kinds["variant"] += 1
            elif owners & ex.gold_ids:
                kinds["easy"] += 1
            else:
                kinds["ambig"] += 1
        assert all(v > 0 for v in kinds.values()), (fname, kinds)


def test_written_files_round_trip(tmp_path):
    bench = gen_benchmark(n_pairs=5, n_train=15, n_test=10, seed=3)
    write_benchmark(bench, tmp_path)
    with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(l) for l in fh]
    assert lines == bench.concepts
    kb = load_kb(tmp_path / "kb.jsonl")
    assert kb.rejected_count == 0
    train = [ex for _, ex in read_mentions(tmp_path / "train.jsonl")]
    assert len(train) == 15


def test_bundled_dataset_matches_generator():
    """data/toy in the repository is the seed-318 default generation."""
    from pathlib import Path

    datadir = Path(__file__).resolve().parent.parent / "data" / "toy"
    bench = gen_benchmark(seed=318)
    with open(datadir / "kb.jsonl", encoding="utf-8") as fh:
        assert [json.loads(l) for l in fh] == bench.concepts
    with open(datadir / "test.jsonl", encoding="utf-8") as fh:
        assert [json.loads(l) for l in fh] == bench.test
