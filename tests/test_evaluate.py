"""Accuracy, bootstrap significance, and the two analysis reports."""

from __future__ import annotations

import random

import numpy as np
import pytest

from neglink import evaluate as evaluate_module
from neglink import model
from neglink.beam import Prediction
from neglink.config import RunConfig
from neglink.corpus import MentionExample
from neglink.evaluate import (
    acc_from_ranks,
    binned_error_report,
    bootstrap_paired_test,
    evaluate,
    fixed_and_broken,
    logprob_gap_report,
    ranks_of,
)
from neglink.kb import Concept, build_kb
from neglink.vocab import Vocab


def pred(name, ids, score=-1.0):
    return Prediction(name=name, ids=frozenset(ids), score=score)


def test_ranks_and_accuracy_hand_counted():
    preds = [
        [pred("a", {"C1"}), pred("b", {"C2"})],   # gold C1 -> rank 1
        [pred("a", {"C9"}), pred("b", {"C2"})],   # gold C2 -> rank 2
        [pred("a", {"C9"})],                      # gold C3 -> miss
        [],                                       # gold C4 -> miss
    ]
    golds = [frozenset({"C1"}), frozenset({"C2"}), frozenset({"C3"}), frozenset({"C4"})]
    ranks = ranks_of(preds, golds)
    assert ranks == [1, 2, None, None]
    assert acc_from_ranks(ranks, 1) == 0.25
    assert acc_from_ranks(ranks, 2) == 0.5
    assert evaluate(preds, golds, ks=(5,)).acc_at[5] == 0.5
    report = evaluate(preds, golds, ks=(1, 2))
    assert report.acc_at == {1: 0.25, 2: 0.5}
    assert report.n == 4
    assert report.per_example == ranks


def test_ambiguous_prediction_counts_when_any_id_matches():
    preds = [[pred("shared", {"C1", "C2"})]]
    assert evaluate(preds, [frozenset({"C2"})], ks=(1,)).acc_at[1] == 1.0


def test_bootstrap_identical_systems_give_p_one():
    ranks = [1, 2, None, 1, 3] * 10
    got = bootstrap_paired_test(ranks, list(ranks), k=1, resamples=100, seed=0)
    assert got.p_value == 1.0
    assert got.mean_diff == 0.0


def test_bootstrap_large_difference_is_significant():
    rng = random.Random(0)
    n = 500
    ranks_a = [1 if rng.random() < 0.8 else None for _ in range(n)]
    # system b disagrees downward on about 30 percent of examples
    ranks_b = [r if rng.random() > 0.3 else None for r in ranks_a]
    got = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=100, seed=1)
    assert got.mean_diff > 0
    assert got.p_value <= 0.05


def test_bootstrap_is_seeded():
    ranks_a = [1, None] * 50
    ranks_b = [None, 1] * 50
    r1 = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=50, seed=3)
    r2 = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=50, seed=3)
    assert r1 == r2


# Worst relative p-value error against SciPy, by degrees of freedom: the
# prefactor's lgamma(a + 1/2) - lgamma(a) cancels more as df grows.
@pytest.mark.parametrize(
    "dfs, bound",
    [((1, 2, 3, 4, 7, 10, 30, 50, 99, 100, 150, 199), 1e-12), ((200, 500, 999, 2000, 5000, 9999), 1e-10)],
)
def test_t_test_p_value_matches_scipy(dfs, bound):
    special = pytest.importorskip("scipy.special")
    ts = np.linspace(0.0, 200.0, 501)
    worst = 0.0
    for df in dfs:
        for t in ts:
            want = 2.0 * float(special.stdtr(df, -t))
            for signed in (float(t), -float(t)):
                got = evaluate_module._t_two_sided_p(signed, df)
                if want < np.finfo(float).tiny:
                    assert got < np.finfo(float).tiny, (df, signed)
                else:
                    worst = max(worst, abs(got - want) / want)
    assert worst <= bound


def test_bootstrap_p_value_matches_scipy_ttest():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    worst = 0.0
    for seed in range(40):
        n = int(rng.integers(5, 300))
        ranks_a = [int(r) if r <= 5 else None for r in rng.integers(1, 9, size=n)]
        ranks_b = [int(r) if r <= 5 else None for r in rng.integers(1, 9, size=n)]
        got = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=100, seed=seed)
        # The resampled differences, drawn as bootstrap_paired_test draws them.
        hit_a = np.array([r == 1 for r in ranks_a], dtype=np.float64)
        hit_b = np.array([r == 1 for r in ranks_b], dtype=np.float64)
        draw = np.random.default_rng(seed)
        draws = [draw.integers(0, n, size=n) for _ in range(100)]
        diffs = np.array([hit_a[idx].mean() - hit_b[idx].mean() for idx in draws])
        assert got.mean_diff == float(diffs.mean())
        sd = float(diffs.std(ddof=1))
        if sd == 0.0:  # no spread: the degenerate case, mapped by the mean alone
            assert got.p_value == (1.0 if got.mean_diff == 0.0 else 0.0)
            continue
        # Their spread is the standard error of the difference; n examples give n - 1 degrees of freedom.
        want = 2.0 * float(stats.t.sf(abs(float(diffs.mean()) / sd), n - 1))
        worst = max(worst, abs(got.p_value - want) / want)
    assert worst <= 1e-12


@pytest.mark.parametrize("resamples", [100, 10000])
def test_one_mention_of_300_is_not_significant_at_any_resample_count(resamples):
    ranks_a: list[int | None] = [1] * 300
    ranks_b = ranks_a[:-1] + [None]
    got = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=resamples, seed=0)
    assert got.mean_diff > 0.0
    assert got.p_value > 0.05


def test_fixed_and_broken_count_rank_one_changes():
    ranks_a = [1, 1, None, 2, 1, None, 3, 1]
    ranks_b = [1, 2, 1, 1, None, None, 1, 1]
    # fixed: A right, B wrong at rank 1 (indices 1, 4); broken: A wrong, B right (indices 2, 3, 6)
    assert fixed_and_broken(ranks_a, ranks_b) == (2, 3)
    assert fixed_and_broken(ranks_b, ranks_a) == (3, 2)
    assert fixed_and_broken(ranks_a, list(ranks_a)) == (0, 0)
    with pytest.raises(ValueError):
        fixed_and_broken([1], [1, 2])


def test_bootstrap_input_validation():
    with pytest.raises(ValueError):
        bootstrap_paired_test([1], [1, 2], k=1)
    with pytest.raises(ValueError):
        bootstrap_paired_test([], [], k=1)
    with pytest.raises(ValueError):
        bootstrap_paired_test([1], [1], k=1, resamples=1)


def binned_setup():
    kb = build_kb(
        [
            Concept("C1", ("abcdef",), None),     # high-similarity mentions
            Concept("C2", ("zzzzz",), None),      # low-similarity mentions
        ]
    )
    return kb


def test_binned_error_report_strata():
    kb = binned_setup()
    examples = [
        MentionExample("", "abcdef", "", frozenset({"C1"})),  # sim 1.0 -> top bin
        MentionExample("", "qqqq", "", frozenset({"C2"})),    # sim 0.0 -> bottom bin
    ]
    preds = [
        [pred("abcdef", {"C1"})],  # correct
        [pred("abcdef", {"C1"})],  # wrong
    ]
    bins = binned_error_report(examples, preds, kb)
    assert len(bins) == 5
    top, bottom = bins[4], bins[0]
    assert (top.count, top.errors, top.accuracy) == (1, 0, 1.0)
    assert (bottom.count, bottom.errors, bottom.accuracy) == (1, 1, 0.0)
    empty = bins[2]
    assert empty.count == 0 and empty.accuracy is None
    assert [b.lo for b in bins] == [0.0, 0.2, 0.4, 0.6, 0.8]


def test_binned_error_report_bins_are_left_closed(monkeypatch):
    """0.6 / 0.2 is 2.9999999999999996 in floats, so dividing by the width would count 0.6 in [0.4, 0.6)."""
    monkeypatch.setattr(evaluate_module, "similarity", lambda a, b, idx: 0.6)
    kb = binned_setup()
    bins = binned_error_report([MentionExample("", "abcdef", "", frozenset({"C1"}))], [[pred("abcdef", {"C1"})]], kb)
    assert [(b.lo, b.hi, b.count) for b in bins if b.count] == [(0.6, 0.8, 1)]


def test_gap_report_uses_top_correct_and_bins_negatives():
    kb = build_kb([Concept("C1", ("aaa",), None), Concept("C2", ("aab",), None),
                   Concept("C3", ("zzz",), None)])
    vocab = Vocab.from_texts(kb.names() + ["m is"])
    ckpt = model.init_checkpoint(vocab, 4, 0)
    examples = [MentionExample("", "aaa", "", frozenset({"C1"}))]
    preds = [[
        pred("aab", {"C2"}, score=-1.0),   # negative, sim(aaa, aab) high
        pred("aaa", {"C1"}, score=-2.0),   # the positive
        pred("zzz", {"C3"}, score=-5.0),   # negative, sim 0
    ]]
    bins = logprob_gap_report(ckpt, examples, preds, kb, RunConfig().max_ctx)
    assert len(bins) == 10
    populated = [b for b in bins if b.count]
    assert len(populated) == 2
    low, high = populated[0], populated[-1]
    assert low.lo == 0.0
    assert low.mean_gap == pytest.approx(-2.0 - (-5.0))
    assert high.mean_gap == pytest.approx(-2.0 - (-1.0))


def test_gap_report_scores_fallback_positive_when_gold_missing():
    kb = build_kb([Concept("C1", ("aaa",), None), Concept("C2", ("bbb",), None)])
    vocab = Vocab.from_texts(kb.names() + ["m is"])
    ckpt = model.init_checkpoint(vocab, 4, 1)
    examples = [MentionExample("", "aaa", "", frozenset({"C1"}))]
    preds = [[pred("bbb", {"C2"}, score=-1.5)]]
    bins = logprob_gap_report(ckpt, examples, preds, kb, RunConfig().max_ctx)
    populated = [b for b in bins if b.count]
    assert len(populated) == 1
    assert populated[0].count == 1
    # the fallback gap is finite and uses the model's own score for "aaa"
    assert populated[0].mean_gap is not None
    assert np.isfinite(populated[0].mean_gap)


def test_gap_report_similarity_one_folds_into_top_bin():
    # the mention text equals another concept's name, so that name is a
    # genuine negative with similarity exactly 1.0
    kb2 = build_kb([Concept("C1", ("mmm",), None), Concept("C2", ("qqq",), None)])
    vocab = Vocab.from_texts(kb2.names() + ["m is"])
    ckpt = model.init_checkpoint(vocab, 4, 2)
    examples = [MentionExample("", "qqq", "", frozenset({"C1"}))]
    preds = [[pred("mmm", {"C1"}, -1.0), pred("qqq", {"C2"}, -2.0)]]
    bins = logprob_gap_report(ckpt, examples, preds, kb2, RunConfig().max_ctx)
    assert bins[9].count == 1
    assert bins[9].mean_gap == pytest.approx(1.0)

