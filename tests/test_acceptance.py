"""Acceptance gate: eleven go/no-go checks across the whole package.

Each check prints a single PASS/FAIL verdict line (with capture lifted
so the verdicts always appear in the run log) and then asserts, so a
red criterion is both visible and fatal. A1-A5 and A8-A10 verify
components against independent oracles at tight tolerances; A6-A7
train the bundled confusable benchmark over five seeds and check that
preference training moves accuracy and the log-prob gap the right way;
A11 reruns the whole command-line pipeline and byte-compares every
artifact.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from neglink.beam import (
    Prediction,
    constrained_beam_search,
    constrained_beam_search_batch,
    name_tokens,
    sequence_score,
)
from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.cli import main as cli_main
from neglink.cli import vocab_from_sources
from neglink.config import RunConfig, build_config
from neglink.corpus import MentionExample, prepare_mentions, render
from neglink.evaluate import bootstrap_paired_test, evaluate, logprob_gap_report
from neglink.gradcheck import run_gradcheck
from neglink.kb import Concept, build_kb, load_kb
from neglink.model import check_finite_loss, copy_checkpoint, init_checkpoint, input_tables, softmax, step_batch
from neglink.tfidf import build_index, rank_synonyms, similarity, trigrams
from neglink.train_negative import (
    PreferenceTriplet,
    mine_pairs,
    preference_loss_and_grads,
    train_preference,
    triplets_from_predictions,
)
from neglink.train_positive import build_positive_set, train
from neglink.trie import allowed_next, build_trie
from neglink.vocab import Vocab
from neglink.workers import map_split

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


@pytest.fixture
def verdict(capfd):
    def check(criterion: str, ok: bool, detail: str) -> None:
        line = f"{criterion}: {'PASS' if ok else 'FAIL'}  ({detail})"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return check


def _random_name(rng: np.random.Generator, alphabet: str, lo: int = 3, hi: int = 9) -> str:
    n = int(rng.integers(lo, hi))
    return "".join(alphabet[rng.integers(len(alphabet))] for _ in range(n))


def _mutate(name: str, rng: np.random.Generator, alphabet: str) -> str:
    pos = int(rng.integers(len(name)))
    repl = alphabet[int(rng.integers(len(alphabet)))]
    return name[:pos] + repl + name[pos + 1 :]


# ---------------------------------------------------------------------------
# A1: every constrained search emits KB members only, and every KB name
# walks the trie to EOS without ever meeting an empty allowed set.


def test_a1_constrained_decoding_sound_and_complete(verdict):
    t0 = time.monotonic()
    bench = gen_benchmark(n_pairs=167, n_train=1, n_test=1, seed=97)
    kb = build_kb(
        [Concept(id=c["id"], names=tuple(c["names"]), definition=c.get("definition")) for c in bench.concepts]
    )
    names = kb.names()
    assert len(names) >= 1000
    vocab = Vocab.from_texts([" is"] + names)
    trie = build_trie(names, vocab)
    eos = vocab.eos_id

    walked = 0
    for name in names:
        toks = vocab.encode_chars(name)
        for j, tok in enumerate(toks):
            legal = allowed_next(trie, toks[:j], eos)
            assert legal and tok in legal, f"trie loses {name!r} at position {j}"
        assert eos in allowed_next(trie, toks, eos), f"trie never terminates {name!r}"
        walked += 1

    ckpt = init_checkpoint(vocab, 32, 5)
    alphabet = "".join(sorted({ch for n in names for ch in n}))
    rng = np.random.default_rng(11)
    name_set = set(names)
    outputs = 0
    for _ in range(1000):
        base = names[rng.integers(len(names))]
        mention = base if rng.random() < 0.5 else _mutate(base, rng, alphabet)
        enc = render(MentionExample("", mention, "", frozenset({"A000"})), vocab, max_ctx=RunConfig().max_ctx)
        preds = constrained_beam_search(ckpt, enc, trie, kb, beam=3, k=3)
        assert preds
        for p in preds:
            assert p.name in name_set, f"decoded {p.name!r} is not a KB name"
            assert p.ids == kb.align(p.name)
            outputs += 1
    elapsed = time.monotonic() - t0
    verdict(
        "A1 trie soundness+completeness",
        elapsed < 30.0,
        f"{walked} names walked, {outputs} outputs from 1000 searches all in KB, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A2: analytic gradients of all three losses (ce, dpo, cpo) vs central finite differences.


def test_a2_all_loss_gradients_match_finite_differences(verdict):
    checks = run_gradcheck(seeds=(0, 1, 2), n_coords=20, h=1e-5, tol=1e-4)
    worst = max(c.max_rel_err for c in checks)
    verdict(
        "A2 gradient correctness",
        all(c.ok for c in checks),
        f"{len(checks)} loss/seed checks, 20 coords each, worst rel err {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# A3: at policy == reference the dpo loss is ln 2 for every pair.


def test_a3_dpo_loss_is_ln2_at_the_reference(verdict):
    rng = np.random.default_rng(23)
    alphabet = "abcdelmnorst"
    pool = list(dict.fromkeys(_random_name(rng, alphabet) for _ in range(60)))
    vocab = Vocab.from_texts([" is"] + pool)
    ckpt = init_checkpoint(vocab, 16, 11)
    ref = copy_checkpoint(ckpt)
    cfg = RunConfig(loss="dpo", neg_lr=0.0, neg_batch=1)
    worst = 0.0
    for _ in range(100):
        w, l = rng.permutation(len(pool))[:2]
        enc = render(MentionExample("", pool[rng.integers(len(pool))], "", frozenset({"X"})), vocab, max_ctx=cfg.max_ctx)
        t = PreferenceTriplet(input=enc, preferred=pool[w], dispreferred=pool[l])
        loss, _ = preference_loss_and_grads(ckpt, ref, [t], cfg)
        worst = max(worst, abs(check_finite_loss(loss) - math.log(2.0)))
    verdict("A3 dpo anchor at ln 2", worst <= 1e-9, f"100 triplets, worst |loss - ln 2| = {worst:.2e}")


# ---------------------------------------------------------------------------
# A4: sparse TF-IDF similarity and ranking vs a dense numpy oracle.


def _dense_similarity(a: str, b: str, df: Counter, n_docs: int) -> float:
    grams = sorted(set(trigrams(a)) | set(trigrams(b)))

    def vec(s: str) -> np.ndarray:
        counts = trigrams(s)
        v = np.array(
            [counts.get(g, 0) * (math.log((1 + n_docs) / (1 + df.get(g, 0))) + 1.0) for g in grams],
            dtype=np.float64,
        )
        norm = np.linalg.norm(v)
        return v / norm if norm > 0.0 else v

    return float(np.dot(vec(a), vec(b)))


def test_a4_tfidf_matches_a_dense_oracle(verdict):
    rng = np.random.default_rng(31)
    alphabet = "abcdeghilmnoprst"
    corpus = list(dict.fromkeys(_random_name(rng, alphabet, 3, 10) for _ in range(80)))
    idx = build_index(corpus)
    df: Counter = Counter()
    for name in corpus:
        df.update(set(trigrams(name)))
    n_docs = len(corpus)

    probes = [_random_name(rng, alphabet + "xyz", 2, 8) for _ in range(39)] + [""]
    everything = corpus + probes
    worst = 0.0
    for _ in range(500):
        a = everything[rng.integers(len(everything))]
        b = a if rng.random() < 0.05 else everything[rng.integers(len(everything))]
        worst = max(worst, abs(similarity(a, b, idx) - _dense_similarity(a, b, df, n_docs)))

    order_ok = True
    for _ in range(100):
        mention = everything[rng.integers(len(everything) - 1)]  # skip the empty probe
        m = int(rng.integers(8, 16))
        cands = [corpus[i] for i in rng.permutation(len(corpus))[:m]]
        k = int(rng.integers(1, m + 1))
        want = sorted(cands, key=lambda s: (-_dense_similarity(mention, s, df, n_docs), s))[:k]
        if rank_synonyms(mention, cands, k, idx) != want:
            order_ok = False
            break
    verdict(
        "A4 tf-idf vs dense oracle",
        worst <= 1e-12 and order_ok,
        f"500 pairs worst abs err {worst:.1e}, 100 rankings order {'match' if order_ok else 'MISMATCH'}",
    )


# ---------------------------------------------------------------------------
# A5: pairing rules vs an independent brute-force enumeration.


def _reference_pairs(preds, gold_ids, mention, gold_names, idx):
    ranked = list(enumerate(preds, start=1))
    right = [(r, p.name) for r, p in ranked if p.ids & gold_ids]
    wrong = [(r, p.name) for r, p in ranked if not (p.ids & gold_ids)]
    out = set()
    for rw, w in right:
        out.update((w, l, rw, rl) for rl, l in wrong if rl < rw)
    if right and right[0][0] == 1 and wrong:
        out.add((right[0][1], wrong[0][1], 1, wrong[0][0]))
    if not right:
        best = min(dict.fromkeys(gold_names), key=lambda s: (-similarity(mention, s, idx), s))
        out.update((best, l, None, rl) for rl, l in wrong[:3])
    return out


def test_a5_mining_matches_brute_force_rules(verdict):
    rng = np.random.default_rng(41)
    alphabet = "abcdelmnors"
    pool = list(dict.fromkeys(_random_name(rng, alphabet) for _ in range(40)))[:24]
    kb = build_kb([Concept(id=f"K{i}", names=tuple(pool[3 * i : 3 * i + 3])) for i in range(8)])
    idx = build_index(kb.names())
    vocab = Vocab.from_texts([" is"] + pool)
    enc = render(MentionExample("", pool[0], "", frozenset({"K0"})), vocab, max_ctx=RunConfig().max_ctx)

    all_names = kb.names()
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        picked = [all_names[i] for i in rng.permutation(len(all_names))[:n]]
        scores = np.sort(rng.normal(size=n))[::-1]
        preds = [Prediction(name=nm, ids=kb.align(nm), score=float(s)) for nm, s in zip(picked, scores)]
        cid = f"K{rng.integers(8)}"
        gold_ids = frozenset({cid})
        gold_names = list(kb.concepts[cid].names)
        mention = _mutate(pool[rng.integers(len(pool))], rng, alphabet)
        got = triplets_from_predictions(enc, preds, MentionExample("", mention, "", gold_ids), kb)
        got_set = {(t.preferred, t.dispreferred, t.rank_w, t.rank_l) for t in got}
        want = _reference_pairs(preds, gold_ids, mention, gold_names, idx)
        assert len(got) == len(got_set), f"trial {trial}: duplicate triplets"
        assert got_set == want, f"trial {trial}: {got_set ^ want}"
        checked += 1
    verdict("A5 mining vs brute force", checked == 1000, f"{checked} synthetic prediction lists, exact set equality")


# ---------------------------------------------------------------------------
# A6 + A7: five-seed run of the bundled confusable benchmark.


@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.monotonic()
    kb = load_kb(DATA / "kb.jsonl")
    cfg = build_config(preset="toy")
    vocab = vocab_from_sources(kb, [str(DATA / "train.jsonl"), str(DATA / "test.jsonl")], None)
    trie = build_trie(kb.names(), vocab)
    train_ex, _ = prepare_mentions(DATA / "train.jsonl", kb, None)
    test_ex, _ = prepare_mentions(DATA / "test.jsonl", kb, None)
    gold = [ex.gold_ids for ex in test_ex]
    instances = build_positive_set(train_ex, kb, vocab, cfg)

    def link(ckpt):
        inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex]
        return constrained_beam_search_batch(ckpt, inputs, trie, kb, beam=cfg.beam, k=cfg.topk)

    def run(seed: int) -> dict:
        base = init_checkpoint(vocab, cfg.hidden_dim, seed)
        seeded = dataclasses.replace(cfg, seed=seed)
        stage1 = train(base, instances, seeded).checkpoint
        triplets = mine_pairs(stage1, train_ex, kb, trie, cfg)
        result2 = train_preference(stage1, triplets, seeded)
        stage2 = result2.checkpoint
        preds1, preds2 = link(stage1), link(stage2)
        gaps1 = logprob_gap_report(stage1, test_ex, preds1, kb, max_ctx=cfg.max_ctx)
        gaps2 = logprob_gap_report(stage2, test_ex, preds2, kb, max_ctx=cfg.max_ctx)
        return {
            "seed": seed,
            "acc1": evaluate(preds1, gold, ks=(1,)).acc_at[1],
            "acc2": evaluate(preds2, gold, ks=(1,)).acc_at[1],
            "top_gap1": gaps1[-1].mean_gap,
            "top_gap2": gaps2[-1].mean_gap,
            "mean_pref_loss": sum(l for _, l in result2.loss_log) / len(result2.loss_log),
        }

    runs = map_split(run, range(5))  # the seeds on every usable CPU, results in seed order
    return runs, time.monotonic() - t0


def test_a6_preference_stage_lifts_top1_accuracy(benchmark_runs, verdict):
    runs, elapsed = benchmark_runs
    deltas = [r["acc2"] - r["acc1"] for r in runs]
    mean_delta = sum(deltas) / len(deltas)
    losses_ok = all(r["mean_pref_loss"] < math.log(2.0) for r in runs)
    ok = mean_delta >= 0.02 and elapsed < 600.0 and losses_ok
    verdict(
        "A6 preference stage lifts Acc@1",
        ok,
        f"mean delta {100 * mean_delta:+.1f} pts over 5 seeds "
        f"(min {100 * min(deltas):+.1f}), mean dpo loss < ln 2: {losses_ok}, {elapsed:.0f}s",
    )


def test_a7_top_similarity_bin_gap_grows(benchmark_runs, verdict):
    runs, _ = benchmark_runs
    ups = sum(
        1
        for r in runs
        if r["top_gap1"] is not None and r["top_gap2"] is not None and r["top_gap2"] > r["top_gap1"]
    )
    verdict("A7 top-bin log-prob gap grows", ups >= 4, f"gap strictly larger after stage 2 in {ups}/5 seeds")


# ---------------------------------------------------------------------------
# A8: next-token distributions stay normalized, including extreme logits.


def test_a8_next_token_distributions_are_normalized(verdict):
    vocab = Vocab.from_texts(["abcdefgh xyz"])
    d = 24
    ckpt = init_checkpoint(vocab, d, 3)
    rng = np.random.default_rng(13)
    scale = np.concatenate([np.ones(50), np.full(50, 1e3)])[:, None]  # half the states are huge
    states = rng.normal(size=(100, d)) * scale
    tokens = rng.integers(0, len(vocab), size=100)
    summaries = rng.normal(size=(100, d))
    _, logits = step_batch(states, tokens, np.arange(100), input_tables(ckpt, "dec", summaries), ckpt)
    sums = softmax(logits, axis=1).sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    verdict("A8 probability normalization", worst <= 1e-9, f"100 states, worst |sum - 1| = {worst:.1e}")


# ---------------------------------------------------------------------------
# A9: with beam = |KB| the search reproduces the exhaustive ranking.


def test_a9_full_width_beam_equals_exhaustive_ranking(verdict):
    rng = np.random.default_rng(29)
    alphabet = "abcdels"
    pool = list(dict.fromkeys(_random_name(rng, alphabet) for _ in range(400)))
    vocab = Vocab.from_texts([" is"] + pool)
    ckpt = init_checkpoint(vocab, 16, 7)

    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 51))
        names = [pool[i] for i in rng.permutation(len(pool))[:n]]
        kb = build_kb([Concept(id=f"C{i}", names=(nm,)) for i, nm in enumerate(names)])
        trie = build_trie(kb.names(), vocab)
        mention = _mutate(names[rng.integers(n)], rng, alphabet)
        enc = render(MentionExample("", mention, "", frozenset({"C0"})), vocab, max_ctx=RunConfig().max_ctx)
        preds = constrained_beam_search(ckpt, enc, trie, kb, beam=n, k=n)
        oracle = sorted(
            kb.names(), key=lambda nm: (-sequence_score(ckpt, enc, name_tokens(nm, vocab)), nm)
        )
        assert [p.name for p in preds] == oracle, f"trial {trial}: order diverges"
        for p in preds:
            worst = max(worst, abs(p.score - sequence_score(ckpt, enc, name_tokens(p.name, vocab))))
    verdict("A9 beam equals exhaustive", worst <= 1e-9, f"50 KBs up to 50 names, worst score gap {worst:.1e}")


# ---------------------------------------------------------------------------
# A10: paired bootstrap behaves at the two calibration points.


def test_a10_bootstrap_test_calibration(verdict):
    ranks = [1 if i % 4 else 3 for i in range(500)]
    same = bootstrap_paired_test(ranks, list(ranks), k=1, resamples=100, seed=3)

    rng = np.random.default_rng(17)
    ranks_a: list[int | None] = [1] * 500
    ranks_b: list[int | None] = [1] * 500
    for i in rng.permutation(500)[:150]:
        ranks_b[i] = None
    diff = bootstrap_paired_test(ranks_a, ranks_b, k=1, resamples=100, seed=3)
    ok = same.p_value == 1.0 and diff.p_value <= 0.05
    verdict(
        "A10 bootstrap sanity",
        ok,
        f"identical p = {same.p_value:.1f}, 30% difference on 500 p = {diff.p_value:.2e}",
    )


# ---------------------------------------------------------------------------
# A11: the full command-line pipeline is byte-for-byte repeatable.

PIPELINE_ARTIFACTS = (
    "cache/vocab.json",
    "cache/trie.bin",
    "cache/kb_info.json",
    "s1.ckpt",
    "s1.ckpt.losses.jsonl",
    "pairs.jsonl",
    "s2.ckpt",
    "s2.ckpt.losses.jsonl",
    "preds.jsonl",
    "report.json",
    "bins.jsonl",
    "gaps.jsonl",
)


def test_a11_pipeline_reruns_are_byte_identical(tmp_path, verdict):
    data = tmp_path / "data"
    write_benchmark(gen_benchmark(n_pairs=12, n_train=48, n_test=24, seed=63), data)
    kb = str(data / "kb.jsonl")
    train_m = str(data / "train.jsonl")
    test_m = str(data / "test.jsonl")
    fast = ["--preset", "toy", "--set", "pos_steps=80", "--set", "pos_warmup=5", "--set", "hidden_dim=32"]

    def run_pipeline(outdir: Path) -> None:
        outdir.mkdir()
        cache = str(outdir / "cache")
        s1, s2 = str(outdir / "s1.ckpt"), str(outdir / "s2.ckpt")
        pairs, preds = str(outdir / "pairs.jsonl"), str(outdir / "preds.jsonl")
        steps = [
            ["kb", "build", "--kb", kb, "--mentions", train_m, "--mentions", test_m, "--out", cache],
            ["train-positive", *fast, "--kb", kb, "--mentions", train_m, "--cache", cache, "--out", s1],
            ["mine", *fast, "--kb", kb, "--mentions", train_m, "--cache", cache, "--ckpt", s1, "--out", pairs],
            ["train-negative", *fast, "--kb", kb, "--mentions", train_m, "--cache", cache,
             "--ckpt", s1, "--pairs", pairs, "--out", s2],
            ["link", *fast, "--kb", kb, "--mentions", test_m, "--cache", cache, "--ckpt", s2, "--out", preds],
            ["eval", "--kb", kb, "--mentions", test_m, "--cache", cache, "--preds", preds,
             "--out", str(outdir / "report.json")],
            ["analyze", "--kb", kb, "--mentions", test_m, "--cache", cache, "--ckpt", s2, "--preds", preds,
             "--out-bins", str(outdir / "bins.jsonl"), "--out-gaps", str(outdir / "gaps.jsonl")],
        ]
        for argv in steps:
            rc = cli_main(argv)
            assert rc == 0, f"exit {rc} for {argv[0]}"

    run_pipeline(tmp_path / "run1")
    run_pipeline(tmp_path / "run2")
    differing = [
        rel
        for rel in PIPELINE_ARTIFACTS
        if (tmp_path / "run1" / rel).read_bytes() != (tmp_path / "run2" / rel).read_bytes()
    ]
    verdict(
        "A11 byte-identical reruns",
        not differing,
        f"{len(PIPELINE_ARTIFACTS)} artifacts compared" + (f", differing: {differing}" if differing else ""),
    )
