"""Accuracy metrics, bootstrap significance, and the two analysis reports.

Rank here always means the 1-based position of the first prediction whose
identifier set intersects the gold set; None when the gold never appears.
The bootstrap test resamples example indices with replacement and
computes the paired Acc@k difference per resample. The spread of those
resampled differences estimates the standard error of the observed one,
so the statistic is t = mean / sd (the resamples' mean and sample
standard deviation), taken two-sided with n - 1 degrees of freedom for n
examples. The number of resamples sharpens both estimates but does not
enter the statistic: more resamples cannot make a difference
significant. The p-value is computed in this module, from the
regularized incomplete beta function. Zero spread is degenerate, so it is
mapped to p=1.0 when the mean difference is zero and p=0.0 otherwise.

`eval --preds-b` also counts the mentions the two systems disagree on at
rank 1 (`fixed_and_broken`): the same Acc@1 gain can come from a few
fixes or from many fixes and almost as many breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import Prediction, name_tokens, rank_of_gold, sequence_score
from .corpus import MentionExample, preferred_names, render
from .errors import ConfigError, NumericError
from .kb import KnowledgeBase
from .model import Checkpoint
from .tfidf import similarity

ERROR_BINS = 5  # equal-width gold-synonym similarity bins of the binned error report
GAP_BINS = 10  # equal-width mention-negative similarity bins of the log-prob gap report


@dataclass
class EvalReport:
    acc_at: dict[int, float]
    n: int
    per_example: list[int | None]


@dataclass(frozen=True)
class BinRecord:
    lo: float
    hi: float
    count: int
    errors: int
    accuracy: float | None


@dataclass(frozen=True)
class GapBin:
    lo: float
    hi: float
    count: int
    mean_gap: float | None


@dataclass(frozen=True)
class BootstrapResult:
    p_value: float
    mean_diff: float


def ranks_of(prediction_lists: list[list[Prediction]], gold_sets: list[frozenset[str]]) -> list[int | None]:
    if len(prediction_lists) != len(gold_sets):
        raise ValueError("prediction and gold lists differ in length")
    return [rank_of_gold(preds, gold) for preds, gold in zip(prediction_lists, gold_sets)]


def acc_from_ranks(ranks: list[int | None], k: int) -> float:
    if k < 1:
        raise ConfigError(f"Acc@k needs k >= 1, got {k}")
    if not ranks:
        raise ValueError("no examples to score")
    return sum(1 for r in ranks if r is not None and r <= k) / len(ranks)


def evaluate(prediction_lists, gold_sets, ks=(1, 5)) -> EvalReport:
    ranks = ranks_of(prediction_lists, list(gold_sets))
    return EvalReport(
        acc_at={k: acc_from_ranks(ranks, k) for k in ks},
        n=len(ranks),
        per_example=ranks,
    )


def bootstrap_paired_test(
    ranks_a: list[int | None],
    ranks_b: list[int | None],
    k: int,
    resamples: int = 100,
    seed: int = 0,
) -> BootstrapResult:
    """Resampled paired Acc@k comparison of two systems on the same examples."""
    if len(ranks_a) != len(ranks_b):
        raise ValueError("rank lists differ in length")
    if resamples < 2:
        raise ConfigError("resamples must be >= 2")
    n = len(ranks_a)
    if n == 0:
        raise ValueError("no examples to compare")
    hit_a = np.array([r is not None and r <= k for r in ranks_a], dtype=np.float64)
    hit_b = np.array([r is not None and r <= k for r in ranks_b], dtype=np.float64)
    rng = np.random.default_rng(seed)
    diffs = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, n, size=n)
        diffs[i] = hit_a[idx].mean() - hit_b[idx].mean()
    mean, sd = float(diffs.mean()), float(diffs.std(ddof=1))
    if sd == 0.0:  # also every n == 1: each resample draws the one example
        return BootstrapResult(p_value=1.0 if mean == 0.0 else 0.0, mean_diff=mean)
    return BootstrapResult(p_value=_t_two_sided_p(mean / sd, n - 1), mean_diff=mean)


def fixed_and_broken(ranks_a: list[int | None], ranks_b: list[int | None]) -> tuple[int, int]:
    """(fixed, broken): mentions right at rank 1 in A and wrong in B, and those wrong in A and right in B."""
    if len(ranks_a) != len(ranks_b):
        raise ValueError("rank lists differ in length")
    fixed = sum(1 for a, b in zip(ranks_a, ranks_b) if a == 1 and b != 1)
    broken = sum(1 for a, b in zip(ranks_a, ranks_b) if a != 1 and b == 1)
    return fixed, broken


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    This is I_x(df/2, 1/2) with x = df / (df + t^2). With r = t^2 / df,
    x = 1 / (1 + r) and 1 - x = r / (1 + r), so both logarithms of the
    prefactor come from log1p(r) without cancellation.
    """
    a, b = 0.5 * df, 0.5
    r = t * t / df
    if r == 0.0:
        return 1.0
    log1p_r = math.log1p(r)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) - a * log1p_r + b * (math.log(r) - log1p_r)
    )
    x = 1.0 / (1.0 + r)
    # The fraction converges fast for x < (a + 1) / (a + b + 2); above that,
    # use I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, r / (1.0 + r)) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4)."""
    tiny = 1e-300

    def nonzero(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        # Even step, then odd step, of the fraction's coefficients.
        aa = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / nonzero(1.0 + aa * d)
        c = nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / nonzero(1.0 + aa * d)
        c = nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= math.ulp(1.0):
            return h
    raise NumericError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _bin_index(s: float, n: int) -> int:
    # Bin i of n equal-width bins is [i / n, (i + 1) / n); similarity 1.0 folds into the top bin. Multiplying by n,
    # not dividing by the width, puts each edge in its own bin: 0.6 / 0.2 is 2.9999999999999996, 0.6 * 5 is 3.0.
    return min(int(s * n), n - 1)


def binned_error_report(
    examples: list[MentionExample], prediction_lists: list[list[Prediction]], kb: KnowledgeBase
) -> list[BinRecord]:
    """Acc@1 stratified by the mention's best gold-synonym similarity, one record per bin."""
    if len(examples) != len(prediction_lists):
        raise ValueError("examples and predictions differ in length")
    counts = [0] * ERROR_BINS
    errors = [0] * ERROR_BINS
    for ex, preds in zip(examples, prediction_lists):
        best = max(similarity(ex.mention, name, kb.tfidf) for name in kb.synonyms(ex.gold_ids))
        b = _bin_index(best, ERROR_BINS)
        counts[b] += 1
        if rank_of_gold(preds, ex.gold_ids) != 1:
            errors[b] += 1
    return [
        BinRecord(
            lo=i / ERROR_BINS, hi=(i + 1) / ERROR_BINS, count=c, errors=e,
            accuracy=None if c == 0 else (c - e) / c,
        )
        for i, (c, e) in enumerate(zip(counts, errors))
    ]


def logprob_gap_report(
    ckpt: Checkpoint,
    examples: list[MentionExample],
    prediction_lists: list[list[Prediction]],
    kb: KnowledgeBase,
    max_ctx: int,
) -> list[GapBin]:
    """Mean (positive score - negative score) in GAP_BINS bins of mention-negative similarity.

    The positive score is the best-ranked correct prediction's score; when
    no correct name appears in the list, the example's first
    `corpus.preferred_names` is scored directly so every negative still
    contributes a pair.
    Scores on both sides include the shared prompt log-prob, so the gap is
    a pure entity log-prob difference.
    """
    if len(examples) != len(prediction_lists):
        raise ValueError("examples and predictions differ in length")
    sums = [0.0] * GAP_BINS
    counts = [0] * GAP_BINS
    for ex, preds in zip(examples, prediction_lists):
        negatives = [p for p in preds if not (p.ids & ex.gold_ids)]
        if not negatives:
            continue
        pos_score = None
        for p in preds:
            if p.ids & ex.gold_ids:
                pos_score = p.score
                break
        if pos_score is None:
            enc = render(ex, ckpt.vocab, max_ctx=max_ctx)
            entity = name_tokens(preferred_names(ex, kb, 1)[0], ckpt.vocab)
            pos_score = sequence_score(ckpt, enc, entity)
        for neg in negatives:
            s = similarity(ex.mention, neg.name, kb.tfidf)
            b = _bin_index(s, GAP_BINS)
            sums[b] += pos_score - neg.score
            counts[b] += 1
    return [
        GapBin(
            lo=i / GAP_BINS, hi=(i + 1) / GAP_BINS, count=c,
            mean_gap=None if c == 0 else sums[i] / c,
        )
        for i, c in enumerate(counts)
    ]
