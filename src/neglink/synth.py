"""KB-derived synthetic pre-training data.

Each KB concept is turned into clause-template mentions that mark one of
its synonyms as the mention. Concepts with definitions use

    [ST] synonym [ET] is defined as <definition>

and concepts without definitions but with several names use

    [ST] synonym [ET] has synonyms such as <another synonym>

Each is an ordinary `corpus.MentionExample`: an empty left context, the
template clause as the right context, the concept's id as `gold_ids`, and
as `targets` one real name of the same concept, chosen by trigram
similarity. So every stage reads these mentions like human-annotated
ones, and `corpus.preferred_names` makes the target the name they should
generate. Stage 1 trains on it, and `mine` pairs the pre-training model's
own top-k mistakes, preferring the target where no prediction is correct
(rule (c)).
"""

from __future__ import annotations

from .corpus import MentionExample
from .errors import ConfigError
from .kb import KnowledgeBase, normalize_name
from .tfidf import rank_synonyms

DEFINITION_TEMPLATE = "is defined as"
SYNONYM_TEMPLATE = "has synonyms such as"


def gen_definition_examples(kb: KnowledgeBase, cap: int = 8) -> list[MentionExample]:
    """One example per (concept with definition, synonym), capped per concept.

    The target is the synonym's most similar sibling name; a single-name
    concept targets that name itself.
    """
    out: list[MentionExample] = []
    for cid in sorted(kb.concepts):
        concept = kb.concepts[cid]
        if not concept.definition:
            continue
        right = normalize_name(f"{DEFINITION_TEMPLATE} {concept.definition}")
        for s in concept.names[:cap]:
            others = [n for n in concept.names if n != s]
            target = rank_synonyms(s, others, 1, kb.tfidf)[0] if others else s
            out.append(MentionExample("", s, right, frozenset({cid}), targets=(target,)))
    return out


def gen_synonym_examples(kb: KnowledgeBase, cap: int = 8) -> list[MentionExample]:
    """Definition-free concepts with >= 2 names, capped per concept.

    The context names the mention's most similar sibling; the target is the
    next most similar name beyond that sibling when a third one exists.
    """
    out: list[MentionExample] = []
    for cid in sorted(kb.concepts):
        concept = kb.concepts[cid]
        if concept.definition or len(concept.names) < 2:
            continue
        for s1 in concept.names[:cap]:
            others = [n for n in concept.names if n != s1]
            ranked = rank_synonyms(s1, others, 2, kb.tfidf)
            s2, target = ranked[0], ranked[-1]
            out.append(MentionExample("", s1, f"{SYNONYM_TEMPLATE} {s2}", frozenset({cid}), targets=(target,)))
    return out


def gen_pretrain_examples(kb: KnowledgeBase, cap: int = 8) -> list[MentionExample]:
    """Both template families, definition examples first."""
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    return gen_definition_examples(kb, cap) + gen_synonym_examples(kb, cap)
