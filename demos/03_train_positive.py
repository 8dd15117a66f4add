"""Stage-1 training: generate the nearest gold synonym.

Builds the positive training set (each mention paired with its TF-IDF
nearest gold synonyms), trains the recurrent encoder-decoder with
label-smoothed cross-entropy and AdamW using the calibrated `toy`
preset, and measures Acc@1 before and after. Takes roughly half a
minute.

Run from the repository root:

    python3 demos/03_train_positive.py
"""

from __future__ import annotations

import math
from pathlib import Path

from neglink import model
from neglink.beam import constrained_beam_search_batch
from neglink.cli import vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.evaluate import evaluate
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

    print("=== the positive training set ===")
    instances = build_positive_set(train_ex, kb, vocab, cfg)
    print(f"{len(train_ex)} mentions -> {len(instances)} (input, synonym) instances")
    sample = instances[0]
    print(f"example target: mention {train_ex[0].mention!r} -> generate {sample.target_name!r}")

    def acc(ckpt) -> float:
        preds = constrained_beam_search_batch(
            ckpt, [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex], trie, kb, beam=cfg.beam, k=cfg.topk
        )
        return evaluate(preds, [ex.gold_ids for ex in test_ex], ks=(1,)).acc_at[1]

    ckpt = model.init_checkpoint(vocab, cfg.hidden_dim, cfg.seed)
    print(f"\nuntrained Acc@1 on {len(test_ex)} test mentions: {acc(ckpt):.3f}")
    # With zero training the expected cross-entropy is ln(vocab size):
    print(f"(an untrained loss should sit near ln {len(vocab)} = {math.log(len(vocab)):.3f})")

    print(f"\n=== training ({cfg.pos_steps} steps, lr {cfg.pos_lr}, batch {cfg.pos_batch}) ===")
    result = train(ckpt, instances, cfg)
    losses = [l for _, l in result.loss_log]
    for lo in range(0, len(losses), 150):
        window = losses[lo : lo + 150]
        print(f"steps {lo:3d}-{lo + len(window) - 1:3d}: mean loss {sum(window) / len(window):.4f}")

    print(f"\ntrained Acc@1: {acc(result.checkpoint):.3f}")
    print("Stage 1 only ever sees correct names; telling confusable concepts")
    print("apart is what the preference stage (demo 04) adds.")


if __name__ == "__main__":
    main()
