"""Knowledge base loading and the character-trigram TF-IDF index.

Walks through the first layer of the linker: the KB file format, name
normalization, the name -> identifier alignment map (including names
shared by several concepts), and the KB's trigram similarity index
(`kb.tfidf`) used to pick training synonyms.

Run from the repository root:

    python3 demos/01_kb_and_tfidf.py
"""

from __future__ import annotations

from pathlib import Path

from neglink.kb import load_kb, normalize_name
from neglink.tfidf import rank_synonyms, similarity, trigrams

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


def main() -> None:
    print("=== loading the toy knowledge base ===")
    kb = load_kb(DATA / "kb.jsonl")
    print(f"concepts: {len(kb.concepts)}, distinct names: {len(kb.name_index)}")

    # Names are normalized on load: lowercased, trimmed, inner whitespace
    # collapsed. The same normalization is applied to anything we align.
    print("\nnormalize_name('  Heart   Attack ') ->", repr(normalize_name("  Heart   Attack ")))

    some_id = sorted(kb.concepts)[0]
    concept = kb.concepts[some_id]
    print(f"\nfirst concept {concept.id}: names={list(concept.names)}")
    if concept.definition:
        print(f"definition: {concept.definition!r}")

    # align() maps a surface form to every identifier that uses it. The toy
    # KB is engineered so paired concepts share confusable stems; exact
    # name collisions would show up here as multi-id alignments.
    name = concept.names[0]
    print(f"\nalign({name!r}) -> {sorted(kb.align(name))}")
    print(f"align('no such name') -> {sorted(kb.align('no such name'))}")

    print("\n=== trigram TF-IDF similarity ===")
    # Strings are padded with '#' and cut into 3-character windows.
    print(f"trigrams('abc') -> {dict(trigrams('abc'))}")

    # The KB owns its index over all its names, built on first use.
    idx = kb.tfidf
    a, b = concept.names[0], concept.names[1]
    print(f"\nsimilarity({a!r}, {b!r}) = {similarity(a, b, idx):.4f}   (same concept)")
    partner = kb.concepts["B" + concept.id[1:]]  # the confusable sibling
    c = partner.names[0]
    print(f"similarity({a!r}, {c!r}) = {similarity(a, c, idx):.4f}   (paired concept, shared stem)")
    print(f"similarity({a!r}, 'zzz') = {similarity(a, 'zzz', idx):.4f}   (unrelated)")

    # rank_synonyms picks the mention-nearest gold synonyms: this is how
    # stage-1 chooses its generation targets.
    mention = a[:-1] + a[-1] * 2  # a distorted spelling of `a`
    print(f"\nmention {mention!r}, nearest synonyms of {concept.id}:")
    for s in rank_synonyms(mention, kb.synonyms(frozenset({concept.id})), 3, idx):
        print(f"  {s!r}  sim={similarity(mention, s, idx):.4f}")

    # The sibling's names are the confusable ones. Preference training does
    # not look them up: it mines the wrong names the model itself ranks in
    # its top k (demos/04), and on this KB those are mostly the sibling's.
    print(f"\nmention {mention!r}, nearest names of the sibling {partner.id}:")
    for s in rank_synonyms(mention, kb.synonyms(frozenset({partner.id})), 3, idx):
        print(f"  {s!r}  sim={similarity(mention, s, idx):.4f}  ids={sorted(kb.align(s))}")


if __name__ == "__main__":
    main()
