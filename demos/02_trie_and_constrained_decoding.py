"""The prefix trie and trie-constrained beam search.

Shows how KB names become token paths in a trie, how the trie masks the
decoder so every generated string is a KB name, and what the beam
returns for an untrained model (uniform log-probs, so candidates are
ranked purely by length and the lexicographic tie-break).

Run from the repository root:

    python3 demos/02_trie_and_constrained_decoding.py
"""

from __future__ import annotations

from pathlib import Path

from neglink import model
from neglink.beam import constrained_beam_search
from neglink.config import RunConfig
from neglink.corpus import MentionExample, render
from neglink.kb import load_kb
from neglink.trie import allowed_next, build_trie
from neglink.vocab import Vocab

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


def main() -> None:
    cfg = RunConfig()
    kb = load_kb(DATA / "kb.jsonl")
    names = kb.names()
    # The vocabulary needs every character the model will ever read: here
    # the KB names, the prompt suffix " is", and the demo's context words.
    left, right = "chronic case with", "during review"
    vocab = Vocab.from_texts([" is", left, right] + names)
    print(f"KB names: {len(names)}, vocabulary: {len(vocab)} tokens")
    print(f"special tokens: {[vocab.token(i) for i in range(5)]}")

    print("\n=== the trie as a mask ===")
    trie = build_trie(names, vocab)
    name = names[0]
    toks = vocab.encode_chars(name)
    print(f"walking {name!r} ({toks}):")
    for j in (0, 1, len(toks)):
        legal = allowed_next(trie, toks[:j], vocab.eos_id)
        chars = [vocab.token(t) if t != vocab.eos_id else "<eos>" for t in legal]
        prefix = name[:j] or "<root>"
        shown = ", ".join(chars[:12]) + (" ..." if len(chars) > 12 else "")
        print(f"  after {prefix!r}: {len(legal)} legal tokens: {shown}")

    print("\n=== constrained decoding with an untrained model ===")
    ckpt = model.init_checkpoint(vocab, hidden_dim=32, seed=0)
    ex = MentionExample(
        left_context=left,
        mention=name,
        right_context=right,
        gold_ids=kb.align(name),
    )
    enc = render(ex, vocab, max_ctx=cfg.max_ctx)
    # Encoder input wraps the mention in marker tokens; the decoder prompt
    # is "<bos>" + the mention + " is", after which generation is masked
    # by the trie until EOS.
    print(f"encoder tokens: {len(enc.encoder_tokens)}, prompt tokens: {len(enc.prompt_tokens)}")

    preds = constrained_beam_search(ckpt, enc, trie, kb, beam=10, k=5)
    print(f"\ntop 5 of beam 10 for mention {ex.mention!r}:")
    for rank, p in enumerate(preds, start=1):
        marker = "<- gold" if p.ids & ex.gold_ids else ""
        print(f"  {rank}. {p.name!r:20s} score={p.score:9.4f} ids={sorted(p.ids)} {marker}")
    print("\nEvery candidate above is a KB name: the trie makes invalid strings")
    print("unreachable, so the model never needs to learn what *not* to spell.")


if __name__ == "__main__":
    main()
