"""Self-test of the benchmark: the checks reject corrupted outputs, and a
short pass of both workloads runs clean and repeats exactly when traced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run

KB = {"alpha": {"A1"}, "alphine": {"A1"}, "beta": {"B1"}, "betol": {"B1"}}
GOOD = [("alpha", ["A1"], -1.0), ("alphine", ["A1"], -2.0), ("beta", ["B1"], -2.0)]

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMING_UNITS = {"s", "ms", "steps/s", "pairs/s", "mentions/s"}

# Small enough for seconds per run; same code paths as the real workloads.
SMOKE = {
    "pipeline-toy": {"generator": {"n_pairs": 10, "n_train": 40, "n_test": 20}, "pos_steps": 10,
                     "setup_runs": 1, "full_runs": 1},
    "link-closed-large": {"generator": {"n_pairs": 30, "n_train": 40, "n_test": 60}, "pos_steps": 10,
                          "warmup_requests": 3, "min_requests": 20, "setup_runs": 0, "full_runs": 2},
}


def in_trie(name: str) -> bool:
    return name in KB


def align(name: str) -> set[str]:
    return KB.get(name, set())


def problems(preds):
    return checks.check_prediction_list(preds, 5, in_trie, align)


def test_a_well_formed_list_passes():
    assert problems(GOOD) == []


def test_rejects_a_name_outside_the_kb():
    assert any("not a name in the decoding trie" in p for p in problems([("alphx", [], -0.5), *GOOD]))


def test_rejects_ids_other_than_the_kb_alignment():
    assert any("KB aligns" in p for p in problems([("alpha", ["B1"], -1.0), *GOOD[1:]]))


def test_rejects_a_misordered_score():
    assert any("ranked above" in p for p in problems([GOOD[1], GOOD[0], GOOD[2]]))


def test_rejects_a_tie_broken_the_wrong_way():
    assert any("ranked above" in p for p in problems([GOOD[0], GOOD[2], GOOD[1]]))


def test_rejects_more_than_k_predictions():
    assert any("expected 1..2" in p for p in checks.check_prediction_list(GOOD, 2, in_trie, align))


def test_rejects_a_prediction_file_with_a_rank_gap_or_missing_mention():
    records = [{"mention_index": 0, "rank": r, "name": n, "ids": ids, "score": s}
               for r, (n, ids, s) in zip((1, 3, 4), GOOD)]
    found = checks.check_prediction_file(records, 2, 5, in_trie, align)
    assert any("ranks [1, 3, 4]" in p for p in found)
    assert any("expected 0..1" in p for p in found)


@pytest.mark.parametrize("e_w,e_l,expected", [
    ("beta", "betol", "preferred 'beta' is not aligned"),
    ("alpha", "alphine", "dispreferred 'alphine' is aligned"),
    ("alpha", "alpha", "both 'alpha'"),
])
def test_rejects_a_corrupted_pair(e_w, e_l, expected):
    pair = {"mention_index": 0, "e_w": e_w, "e_l": e_l}
    assert any(expected in p for p in checks.check_pairs([pair], [frozenset({"A1"})], align))


def test_accepts_a_valid_pair_and_rejects_an_accuracy_mismatch():
    pair = {"mention_index": 0, "e_w": "alpha", "e_l": "beta"}
    assert checks.check_pairs([pair], [frozenset({"A1"})], align) == []
    assert checks.check_accuracy("s", 0.5, 0.5) == []
    assert checks.check_accuracy("s", 0.5, 0.51) != []


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_is_clean(workload):
    result = run.run(workload, seed=7, seconds=1, trace=0, spec=SMOKE[workload])
    assert result["correct"], result["problems"]
    for metric in BENCH["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_runs_repeat_counts_and_digests(workload):
    a, b = (run.run(workload, seed=7, seconds=0, trace=1, spec=SMOKE[workload]) for _ in range(2))
    assert a["correct"] and b["correct"], a["problems"] + b["problems"]
    assert a["digests"] == b["digests"]
    counts = [m["name"] for m in BENCH["per_layer"]
              if m["unit"] not in TIMING_UNITS and m["name"] != "trace.overhead_frac"]
    assert {n: a["metrics"].get(n) for n in counts} == {n: b["metrics"].get(n) for n in counts}
    assert a["metrics"]["beam.constrained_beam_search.calls"] > 0


def test_exits_nonzero_without_a_result_when_the_sources_are_missing():
    bare = run.ROOT / ".bench_runs" / f"bare-{time.time_ns()}"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-toy", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert not (bare / ".bench_runs").exists()
    finally:
        shutil.rmtree(bare)
