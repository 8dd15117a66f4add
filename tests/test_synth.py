"""KB-derived synthetic training data: templates and targets.

The generators return ordinary `corpus.MentionExample`s: the concept's id
is the one gold id, the generation target the one target, and the right
context starts with the template of the generator that made it.
"""

from __future__ import annotations

from neglink.config import RunConfig
from neglink.corpus import render
from neglink.kb import Concept, build_kb
from neglink.synth import (
    DEFINITION_TEMPLATE,
    SYNONYM_TEMPLATE,
    gen_definition_examples,
    gen_pretrain_examples,
    gen_synonym_examples,
)
from neglink.vocab import Vocab


def make_kb():
    return build_kb(
        [
            Concept("C1", ("abc", "abd", "azz"), "Some  Thing"),
            Concept("C2", ("bcd", "bce"), None),
            Concept("C3", ("solo",), "Alone."),
            Concept("C4", ("one name", "two name"), None),
        ]
    )


def test_definition_examples_use_template_and_sibling_target():
    kb = make_kb()
    got = gen_definition_examples(kb)
    by_mention = {(cid, e.mention): e for e in got for cid in e.gold_ids}
    assert all(len(e.gold_ids) == 1 and e.right_context.startswith(DEFINITION_TEMPLATE) for e in got)
    # every synonym of every defined concept appears
    assert set(by_mention) == {("C1", "abc"), ("C1", "abd"), ("C1", "azz"), ("C3", "solo")}
    e = by_mention[("C1", "abc")]
    assert e.right_context == f"{DEFINITION_TEMPLATE} some thing"
    assert e.targets[0] == "abd"  # nearest sibling by trigram overlap
    # a single-name concept falls back to generating its own name
    assert by_mention[("C3", "solo")].targets[0] == "solo"


def test_synonym_examples_only_for_undefined_multiname_concepts():
    kb = make_kb()
    got = gen_synonym_examples(kb)
    assert {cid for e in got for cid in e.gold_ids} == {"C2", "C4"}
    e = next(x for x in got if x.mention == "bcd")
    assert e.right_context == f"{SYNONYM_TEMPLATE} bce"
    # only two names exist, so the target falls back to the named sibling
    assert e.targets[0] == "bce"
    assert e.right_context.startswith(SYNONYM_TEMPLATE)


def test_cap_limits_examples_per_concept():
    kb = make_kb()
    got = gen_definition_examples(kb, cap=1)
    assert sum(1 for e in got if e.gold_ids == {"C1"}) == 1


def test_examples_render_like_ordinary_mentions():
    kb = make_kb()
    vocab = Vocab.from_texts(kb.names() + [DEFINITION_TEMPLATE, SYNONYM_TEMPLATE, "some thing alone. is"])
    for e in gen_pretrain_examples(kb):
        assert len(e.targets) == 1 and e.targets[0] in kb.names()
        assert len(e.gold_ids) == 1 and e.gold_ids <= kb.align(e.targets[0])
        assert e.left_context == "" and e.fold is None
        enc = render(e, vocab, max_ctx=RunConfig().max_ctx)
        assert enc.encoder_tokens[0] == vocab.bos_id
        assert enc.encoder_tokens[-1] == vocab.eos_id


def test_generation_is_deterministic():
    kb = make_kb()
    assert gen_pretrain_examples(kb) == gen_pretrain_examples(kb)
