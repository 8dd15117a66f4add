"""Knowledge-base loading, normalization, the alignment index and the KB's TF-IDF view."""

from __future__ import annotations

import json

import pytest

from neglink import kb as kb_module
from neglink.errors import KBFormatError
from neglink.kb import Concept, KnowledgeBase, build_kb, load_kb, normalize_name


def write_kb(tmp_path, records):
    path = tmp_path / "kb.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def test_normalize_name():
    assert normalize_name("  Heart\tAttack \n") == "heart attack"
    assert normalize_name("ASPIRIN") == "aspirin"
    assert normalize_name(" \t ") == ""


def test_load_dedupes_and_normalizes(tmp_path):
    path = write_kb(tmp_path, [{"id": "C1", "names": ["Aspirin", "aspirin ", "ASA"]}])
    kb = load_kb(path)
    assert kb.concepts["C1"].names == ("aspirin", "asa")
    assert kb.align("aspirin") == frozenset({"C1"})


def test_ambiguous_name_maps_to_both_ids(tmp_path):
    path = write_kb(
        tmp_path,
        [
            {"id": "C1", "names": ["cold", "common cold"]},
            {"id": "C2", "names": ["cold", "low temperature"]},
        ],
    )
    kb = load_kb(path)
    assert kb.align("cold") == frozenset({"C1", "C2"})
    assert kb.align("common cold") == frozenset({"C1"})
    assert kb.align("missing") == frozenset()


def test_names_sorted_and_distinct(tmp_path):
    path = write_kb(
        tmp_path,
        [
            {"id": "C1", "names": ["b", "a"]},
            {"id": "C2", "names": ["a", "c"]},
        ],
    )
    kb = load_kb(path)
    assert kb.names() == ["a", "b", "c"]


def test_concept_with_no_usable_names_rejected_and_counted(tmp_path):
    path = write_kb(
        tmp_path,
        [
            {"id": "C1", "names": ["  ", ""]},
            {"id": "C2", "names": ["fine"]},
        ],
    )
    kb = load_kb(path)
    assert "C1" not in kb.concepts
    assert kb.rejected_count == 1
    assert kb.align("fine") == frozenset({"C2"})


def test_duplicate_id_rejected(tmp_path):
    path = write_kb(tmp_path, [{"id": "C1", "names": ["a"]}, {"id": "C1", "names": ["b"]}])
    with pytest.raises(KBFormatError):
        load_kb(path)


@pytest.mark.parametrize(
    "record",
    [
        {"names": ["a"]},
        {"id": "C1"},
        {"id": "", "names": ["a"]},
        {"id": "C1", "names": "a"},
        {"id": "C1", "names": [1]},
        {"id": "C1", "names": ["a"], "definition": 5},
    ],
)
def test_malformed_records_raise_with_line_number(tmp_path, record):
    path = write_kb(tmp_path, [record])
    with pytest.raises(KBFormatError) as err:
        load_kb(path)
    assert "line 1" in str(err.value)


def test_invalid_json_raises(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"id": "C1", "names": ["a"]}\n{bad\n', encoding="utf-8")
    with pytest.raises(KBFormatError) as err:
        load_kb(path)
    assert "line 2" in str(err.value)


def test_definition_preserved(tmp_path):
    path = write_kb(tmp_path, [{"id": "C1", "names": ["a"], "definition": "A thing."}])
    kb = load_kb(path)
    assert kb.concepts["C1"].definition == "A thing."


def test_build_kb_equality():
    a = build_kb([Concept("C1", ("x",), None)])
    b = build_kb([Concept("C1", ("x",), None)])
    assert a == b
    assert a != build_kb([Concept("C2", ("x",), None)])
    assert isinstance(a, KnowledgeBase)


def test_synonyms_union_sorted():
    kb = build_kb([Concept("C1", ("abc", "abd", "xyz"), None), Concept("C2", ("bcd",), None)])
    assert kb.synonyms(frozenset({"C1", "C2"})) == ["abc", "abd", "bcd", "xyz"]
    assert kb.synonyms(frozenset({"C2"})) == ["bcd"]


def test_tfidf_is_built_once_on_first_use_over_all_names(monkeypatch):
    built = []
    monkeypatch.setattr(kb_module, "build_index", lambda names: built.append(names) or object())
    kb = build_kb([Concept("C1", ("b", "a"), None), Concept("C2", ("a", "c"), None)])
    assert built == []
    first = kb.tfidf
    assert kb.tfidf is first
    assert built == [["a", "b", "c"]]
