"""Mention loading, preprocessing, and encoder/prompt rendering."""

from __future__ import annotations

import json

import pytest

from neglink import model
from neglink.beam import Prediction, name_tokens, sequence_score
from neglink.config import RunConfig
from neglink.corpus import (
    MAX_INPUT_TOKENS,
    MentionExample,
    filter_linkable,
    load_abbreviations,
    read_mentions,
    preferred_names,
    prepare_mentions,
    preprocess,
    render,
)
from neglink.errors import MentionFormatError
from neglink.evaluate import logprob_gap_report
from neglink.kb import Concept, build_kb
from neglink.train_negative import triplets_from_predictions
from neglink.train_positive import build_positive_set
from neglink.vocab import Vocab


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def example(**kw):
    base = dict(left_context="", mention="m", right_context="", gold_ids=frozenset({"C1"}))
    base.update(kw)
    return MentionExample(**base)


def text(v, ids) -> str:
    return "".join(v.token(i) for i in ids)


def test_load_mentions_order_and_fields(tmp_path):
    path = write_lines(
        tmp_path,
        "m.jsonl",
        [
            json.dumps({"left": "a", "mention": "b", "right": "c", "gold_ids": ["C1", "C2"], "fold": 3}),
            json.dumps({"mention": "x", "gold_ids": ["C9"], "targets": ["name one"]}),
        ],
    )
    got = [ex for _, ex in read_mentions(path)]
    assert got[0].left_context == "a"
    assert got[0].gold_ids == frozenset({"C1", "C2"})
    assert got[0].fold == 3
    assert got[0].targets is None
    assert got[1].left_context == ""
    assert got[1].targets == ("name one",)


@pytest.mark.parametrize(
    "record",
    [
        {"gold_ids": ["C1"]},
        {"mention": "  ", "gold_ids": ["C1"]},
        {"mention": "x"},
        {"mention": "x", "gold_ids": []},
        {"mention": "x", "gold_ids": [3]},
        {"mention": "x", "gold_ids": ["C1"], "fold": "a"},
        {"mention": "x", "gold_ids": ["C1"], "targets": [1]},
        {"mention": "x", "gold_ids": ["C1"], "targets": []},
        {"mention": "x", "gold_ids": ["C1"], "fold": True},  # a bool is not fold 1
        {"left": 5, "mention": "x", "gold_ids": ["C1"]},
        {"mention": "x", "right": ["x"], "gold_ids": ["C1"]},
    ],
)
def test_malformed_mention_records(tmp_path, record):
    path = write_lines(tmp_path, "m.jsonl", [json.dumps(record)])
    with pytest.raises(MentionFormatError) as err:
        list(read_mentions(path))
    assert "line 1" in str(err.value)


def test_abbreviation_table_loading(tmp_path):
    path = write_lines(tmp_path, "ab.tsv", ["MI\tmyocardial infarction", "HT\tHypertension"])
    table = load_abbreviations(path)
    assert table == {"mi": "myocardial infarction", "ht": "hypertension"}


def test_abbreviation_table_errors(tmp_path):
    path = write_lines(tmp_path, "ab.tsv", ["only one column"])
    with pytest.raises(MentionFormatError):
        load_abbreviations(path)


def test_preprocess_lowercases_and_collapses():
    ex = example(left_context="The  Patient", mention="  MI ", right_context="was\tstable")
    got = preprocess(ex, {"mi": "myocardial infarction"})
    assert got.left_context == "the patient"
    assert got.mention == "myocardial infarction"
    assert got.right_context == "was stable"


def test_abbreviation_expansion_is_whole_word():
    ex = example(mention="mi", left_context="mix of mi cases", right_context="")
    got = preprocess(ex, {"mi": "infarction"})
    assert got.left_context == "mix of infarction cases"
    assert got.mention == "infarction"


def test_abbreviation_longest_key_wins():
    ex = example(mention="acute mi", right_context="")
    got = preprocess(ex, {"mi": "wrong", "acute mi": "acute myocardial infarction"})
    assert got.mention == "acute myocardial infarction"
    # A longer key that matches only part of a word gives way to a shorter whole-word key.
    got = preprocess(example(mention="acute mix"), {"acute": "severe", "acute mi": "wrong"})
    assert got.mention == "severe mix"


def test_filter_linkable_drops_unknown_ids():
    kb = build_kb([Concept("C1", ("a",), None)])
    keep = example(gold_ids=frozenset({"C1"}))
    drop = example(gold_ids=frozenset({"C1", "C9"}))
    kept, dropped = filter_linkable([keep, drop], kb)
    assert kept == [keep]
    assert dropped == 1


def test_render_structure():
    v = Vocab.from_texts(["left right mention is"])
    ex = example(left_context="left", mention="men", right_context="right")
    enc = render(ex, v, max_ctx=RunConfig().max_ctx)
    toks = list(enc.encoder_tokens)
    assert toks[0] == v.bos_id
    assert toks[-1] == v.eos_id
    st, et = toks.index(v.st_id), toks.index(v.et_id)
    assert text(v, toks[1:st]) == "left"
    assert text(v, toks[st + 1 : et]) == "men"
    assert text(v, toks[et + 1 : -1]) == "right"
    prompt = list(enc.prompt_tokens)
    assert prompt[0] == v.bos_id
    assert text(v, prompt[1:]) == "men is"


def test_render_clips_context_adjacent_to_mention():
    v = Vocab.from_texts(["ab is m"])
    ex = example(left_context="a" * 300, mention="m", right_context="b" * 300)
    enc = render(ex, v, max_ctx=128)
    toks = list(enc.encoder_tokens)
    st, et = toks.index(v.st_id), toks.index(v.et_id)
    assert st - 1 == 128
    assert len(toks) - 2 - et == 128
    # left keeps its tail, right keeps its head
    assert text(v, toks[1:st]) == "a" * 128
    assert text(v, toks[et + 1 : -1]) == "b" * 128


def test_render_bounds_the_rendered_input():
    v = Vocab.from_texts(["ab is m"])
    # [BOS] left [ST] mention [ET] right [EOS]: the encoder input is 4 tokens longer than its text.
    at_bound = example(left_context="a" * 128, mention="m" * (MAX_INPUT_TOKENS - 260), right_context="b" * 128)
    assert len(render(at_bound, v, max_ctx=128).encoder_tokens) == MAX_INPUT_TOKENS
    over = example(left_context="a" * 128, mention="m" * (MAX_INPUT_TOKENS - 259), right_context="b" * 128)
    with pytest.raises(MentionFormatError) as err:
        render(over, v, max_ctx=128)
    assert f"rendered input of {MAX_INPUT_TOKENS + 1} tokens, over the bound of {MAX_INPUT_TOKENS}" in str(err.value)
    assert f"mention {'m' * 60!r}... ({MAX_INPUT_TOKENS - 259} characters)" in str(err.value)


def test_prepare_mentions_pipeline(tmp_path):
    kb = build_kb([Concept("C1", ("aspirin",), None)])
    path = write_lines(
        tmp_path,
        "m.jsonl",
        [
            json.dumps({"mention": "ASA", "gold_ids": ["C1"]}),
            json.dumps({"mention": "x", "gold_ids": ["C9"]}),
        ],
    )
    ab = write_lines(tmp_path, "ab.tsv", ["asa\taspirin"])
    kept, dropped = prepare_mentions(path, kb, ab)
    assert dropped == 1
    assert kept[0].mention == "aspirin"


@pytest.mark.parametrize("target, why", [
    ("abe", "target 'abe' aligns to ['C2'], not to a gold id"),
    ("abx", "target 'abx' is not a KB name"),
], ids=["another-concept", "no-kb-name"])
def test_prepare_mentions_rejects_a_target_that_names_no_gold_concept(tmp_path, target, why):
    kb = build_kb([Concept("C1", ("abc", "abd")), Concept("C2", ("abe",))])
    good = {"mention": "abc", "gold_ids": ["C1"], "targets": ["abd"]}
    path = write_lines(tmp_path, "m.jsonl", [json.dumps(good), json.dumps({**good, "targets": ["abd", target]})])
    with pytest.raises(MentionFormatError) as err:
        prepare_mentions(path, kb)
    assert str(err.value) == f"{path}: line 2: {why}"
    path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert prepare_mentions(path, kb)[0][0].targets == ("abd",)


def test_preferred_names_put_targets_first_in_stage_1_mining_rule_c_and_the_gap_report():
    kb = build_kb([Concept("C1", ("abc", "abd", "xyz")), Concept("C2", ("abe",))])
    vocab = Vocab.from_texts(kb.names() + ["m is"])
    ckpt = model.init_checkpoint(vocab, 4, 0)
    cfg = RunConfig(syn_topk=3)
    plain = example(mention="abc")
    targeted = example(mention="abc", targets=("xyz",))
    assert preferred_names(plain, kb, 3) == ["abc", "abd", "xyz"]  # by similarity to the mention
    assert preferred_names(targeted, kb, 3) == ["xyz"]
    wrong = [Prediction(name="abe", ids=frozenset({"C2"}), score=-1.0)]  # no correct name: rule (c), the fallback
    for ex, best in ((plain, "abc"), (targeted, "xyz")):
        assert [i.target_name for i in build_positive_set([ex], kb, vocab, cfg)] == preferred_names(ex, kb, 3)
        enc = render(ex, vocab, max_ctx=cfg.max_ctx)
        assert [t.preferred for t in triplets_from_predictions(enc, wrong, ex, kb)] == [best]
        gaps = [b for b in logprob_gap_report(ckpt, [ex], [wrong], kb, cfg.max_ctx) if b.count]
        assert [g.mean_gap for g in gaps] == [sequence_score(ckpt, enc, name_tokens(best, vocab)) - -1.0]
