"""Evaluation: Acc@k, the paired bootstrap test, and the two reports.

Compares a trained stage-1 model against an untrained one on the toy
test set, then walks the full evaluation toolbox: accuracy at several
cutoffs, a bootstrap paired significance test of the difference, the
mentions the trained model fixed and broke at rank 1, the error rate
stratified by gold-synonym similarity, and the log-prob gap
between positives and decoded negatives stratified by mention-negative
similarity. Takes about half a minute.

Run from the repository root:

    python3 demos/05_evaluate_and_analyze.py
"""

from __future__ import annotations

from pathlib import Path

from neglink import model
from neglink.beam import constrained_beam_search_batch
from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.evaluate import (
    binned_error_report,
    bootstrap_paired_test,
    evaluate,
    fixed_and_broken,
    logprob_gap_report,
)
from neglink.kb import load_kb
from neglink.train_positive import build_positive_set, train
from neglink.trie import build_trie

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


def main() -> None:
    cfg = build_config(preset="toy")
    kb = load_kb(DATA / "kb.jsonl")
    vocab = vocab_from_sources(kb, [str(DATA / "train.jsonl"), str(DATA / "test.jsonl")], None)
    trie = build_trie(kb.names(), vocab)
    train_ex, _ = prepare_mentions(DATA / "train.jsonl", kb, None)
    test_ex, _ = prepare_mentions(DATA / "test.jsonl", kb, None)
    gold = [ex.gold_ids for ex in test_ex]

    untrained = model.init_checkpoint(vocab, cfg.hidden_dim, cfg.seed)
    instances = build_positive_set(train_ex, kb, vocab, cfg)
    trained = train(untrained, instances, cfg).checkpoint

    def link(ckpt):
        return constrained_beam_search_batch(
            ckpt, [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex], trie, kb, beam=cfg.beam, k=cfg.topk
        )

    preds_a, preds_b = link(trained), link(untrained)

    print("=== Acc@k ===")
    report_a = evaluate(preds_a, gold, ks=(1, 3, 5))
    report_b = evaluate(preds_b, gold, ks=(1, 3, 5))
    for k in (1, 3, 5):
        print(f"Acc@{k}: trained {report_a.acc_at[k]:.3f}   untrained {report_b.acc_at[k]:.3f}")

    print("\n=== paired bootstrap test (is the difference real?) ===")
    boot = bootstrap_paired_test(report_a.per_example, report_b.per_example, k=1,
                                 resamples=200, seed=0)
    print(f"mean Acc@1 difference over 200 resamples: {boot.mean_diff:+.4f}")
    print(f"two-sided p-value: {boot.p_value:.2e}")
    fixed, broken = fixed_and_broken(report_a.per_example, report_b.per_example)
    print(f"right at rank 1 only when trained (fixed): {fixed}; only when untrained (broken): {broken}")

    print("\n=== error rate by gold-synonym similarity ===")
    print("(how mention-like is the *correct* answer? errors cluster where")
    print(" the gold surface form is far from the mention)")
    for b in binned_error_report(test_ex, preds_a, kb):
        acc = "     -" if b.accuracy is None else f"{b.accuracy:.3f}"
        print(f"  sim [{b.lo:.1f}, {b.hi:.1f}): n={b.count:4d}  errors={b.errors:4d}  Acc@1={acc}")

    print("\n=== log-prob gap by mention-negative similarity ===")
    print("(positive score minus negative score, binned by how confusable the")
    print(" negative is; preference training widens the high-similarity bins)")
    for g in logprob_gap_report(trained, test_ex, preds_a, kb, cfg.max_ctx):
        if g.count == 0:
            continue
        print(f"  sim [{g.lo:.1f}, {g.hi:.1f}): pairs={g.count:4d}  mean gap={g.mean_gap:+.3f}")


if __name__ == "__main__":
    main()
