"""KB-derived synthetic pre-training data.

Each KB concept is turned into clause-template inputs that mark one of its
synonyms as the mention. Concepts with definitions use

    [ST] synonym [ET] is defined as <definition>

and concepts without definitions but with several names use

    [ST] synonym [ET] has synonyms such as <another synonym>

The generation target is always a real name of the same concept, chosen
by trigram similarity, so stage-1 training can consume these records
exactly like human-annotated mentions (the explicit target rides along in
the mention record's "targets" field). Preference pairs take the target
as preferred and the most mention-similar names of other concepts as
dispreferred.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import EncodedInput, MentionExample, render
from .errors import ConfigError
from .kb import KnowledgeBase, normalize_name
from .tfidf import TfIdfIndex, hard_negatives, rank_synonyms
from .train_negative import PreferenceTriplet
from .vocab import Vocab

DEFINITION_TEMPLATE = "is defined as"
SYNONYM_TEMPLATE = "has synonyms such as"


@dataclass(frozen=True)
class SyntheticExample:
    mention: str
    right_context: str
    target: str
    concept_id: str
    source_kind: str  # "definition" or "synonym"

    def to_mention_example(self) -> MentionExample:
        return MentionExample(
            left_context="",
            mention=self.mention,
            right_context=self.right_context,
            gold_ids=frozenset({self.concept_id}),
            targets=(self.target,),
        )

    def encoded(self, vocab: Vocab, max_ctx: int = 128) -> EncodedInput:
        return render(self.to_mention_example(), vocab, max_ctx=max_ctx)


def _nearest_other(name: str, others: list[str], idx: TfIdfIndex, rank: int = 1) -> str | None:
    ranked = rank_synonyms(name, others, rank, idx)
    return ranked[rank - 1] if len(ranked) >= rank else None


def gen_definition_examples(kb: KnowledgeBase, idx: TfIdfIndex, cap: int = 8) -> list[SyntheticExample]:
    """One example per (concept with definition, synonym), capped per concept.

    The target is the synonym's most similar sibling name; a single-name
    concept targets that name itself.
    """
    out: list[SyntheticExample] = []
    for cid in sorted(kb.concepts):
        concept = kb.concepts[cid]
        if not concept.definition:
            continue
        right = normalize_name(f"{DEFINITION_TEMPLATE} {concept.definition}")
        for s in concept.names[:cap]:
            others = [n for n in concept.names if n != s]
            target = _nearest_other(s, others, idx) if others else s
            out.append(
                SyntheticExample(
                    mention=s, right_context=right, target=target or s,
                    concept_id=cid, source_kind="definition",
                )
            )
    return out


def gen_synonym_examples(kb: KnowledgeBase, idx: TfIdfIndex, cap: int = 8) -> list[SyntheticExample]:
    """Definition-free concepts with >= 2 names, capped per concept.

    The context names the mention's most similar sibling; the target is the
    next most similar name beyond that sibling when a third one exists.
    """
    out: list[SyntheticExample] = []
    for cid in sorted(kb.concepts):
        concept = kb.concepts[cid]
        if concept.definition or len(concept.names) < 2:
            continue
        for s1 in concept.names[:cap]:
            others = [n for n in concept.names if n != s1]
            s2 = _nearest_other(s1, others, idx)
            target = _nearest_other(s1, others, idx, rank=2) or s2
            out.append(
                SyntheticExample(
                    mention=s1,
                    right_context=f"{SYNONYM_TEMPLATE} {s2}",
                    target=target,
                    concept_id=cid,
                    source_kind="synonym",
                )
            )
    return out


def gen_pretrain_examples(kb: KnowledgeBase, idx: TfIdfIndex, cap: int = 8) -> list[SyntheticExample]:
    """Both template families, definition examples first."""
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    return gen_definition_examples(kb, idx, cap) + gen_synonym_examples(kb, idx, cap)


def gen_pretrain_pairs(
    kb: KnowledgeBase,
    idx: TfIdfIndex,
    vocab: Vocab,
    examples: list[SyntheticExample],
    k: int = 3,
    max_ctx: int = 128,
) -> list[PreferenceTriplet]:
    """Preference triplets for synthetic examples without running the model.

    Dispreferred names are the k most mention-similar names carried by
    other concepts only; mention_index points into the example list.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    out: list[PreferenceTriplet] = []
    for i, ex in enumerate(examples):
        enc = ex.encoded(vocab, max_ctx=max_ctx)
        for e_l in hard_negatives(ex.mention, kb, {ex.concept_id}, k, idx):
            out.append(
                PreferenceTriplet(
                    input=enc, preferred=ex.target, dispreferred=e_l, mention_index=i
                )
            )
    return out
