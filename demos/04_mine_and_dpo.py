"""Stage-2 training: mine preference pairs, optimize the dpo loss.

Trains the stage-1 model with the calibrated `toy` preset, runs the
constrained decoder over the training mentions to mine (preferred,
dispreferred) name pairs, then fine-tunes with the dpo objective
against the frozen stage-1 reference. Prints the mined-pair anatomy,
the ln 2 starting anchor, and the Acc@1 movement. Takes about a
minute.

Run from the repository root:

    python3 demos/04_mine_and_dpo.py
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
from neglink.train_negative import mine_pairs, preference_loss_and_grads, train_preference
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

    print("=== stage 1 (positive-only) ===")
    instances = build_positive_set(train_ex, kb, vocab, cfg)
    base = model.init_checkpoint(vocab, cfg.hidden_dim, cfg.seed)
    stage1 = train(base, instances, cfg).checkpoint

    def link(ckpt):
        return constrained_beam_search_batch(
            ckpt, [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex], trie, kb, beam=cfg.beam, k=cfg.topk
        )

    preds1 = link(stage1)
    acc1 = evaluate(preds1, gold, ks=(1,)).acc_at[1]
    print(f"stage-1 Acc@1 on {len(test_ex)} test mentions: {acc1:.3f}")

    print("\n=== mining preference pairs ===")
    triplets = mine_pairs(stage1, train_ex, kb, trie, cfg)
    print(f"{len(train_ex)} mentions -> {len(triplets)} deduplicated pairs")
    with_rank = next(t for t in triplets if t.rank_w is not None)
    print(f"from the decoder's own list: prefer {with_rank.preferred!r} (rank {with_rank.rank_w})"
          f" over {with_rank.dispreferred!r} (rank {with_rank.rank_l})")
    fallback = next((t for t in triplets if t.rank_w is None), None)
    if fallback is not None:
        print(f"fallback when nothing was correct: prefer the nearest gold synonym "
              f"{fallback.preferred!r} over {fallback.dispreferred!r} (rank {fallback.rank_l})")

    print("\n=== dpo against the frozen stage-1 reference ===")
    # Before any update the policy equals the reference, so every pair's
    # loss is -ln sigmoid(0) = ln 2.
    anchor, _ = preference_loss_and_grads(stage1, stage1, triplets[:1], cfg)
    print(f"loss at the reference: {anchor:.9f}  (ln 2 = {math.log(2.0):.9f})")

    result = train_preference(stage1, triplets, cfg)
    losses = [l for _, l in result.loss_log]
    print(f"epoch mean loss: {sum(losses) / len(losses):.4f} "
          f"(first batch {losses[0]:.4f}, last batch {losses[-1]:.4f})")

    preds2 = link(result.checkpoint)
    acc2 = evaluate(preds2, gold, ks=(1,)).acc_at[1]
    print(f"\nstage-2 Acc@1: {acc2:.3f} (stage-1 was {acc1:.3f}, delta {100 * (acc2 - acc1):+.1f} pts)")
    print("The gain concentrates on mentions whose surface form points at the")
    print("wrong concept; demo 05 breaks that down by similarity bin.")


if __name__ == "__main__":
    main()
