"""Vocabulary construction, encoding, and error behavior."""

from __future__ import annotations

import random

import pytest

from neglink.errors import VocabError
from neglink.vocab import SPECIALS, Vocab


def test_specials_occupy_first_ids_in_order():
    v = Vocab.from_texts(["abc"])
    assert v.tokens[: len(SPECIALS)] == SPECIALS
    assert v.pad_id == 0
    assert v.bos_id == 1
    assert v.eos_id == 2
    assert v.st_id == 3
    assert v.et_id == 4


def test_from_texts_sorts_characters():
    v = Vocab.from_texts(["ba", "c a"])
    assert v.tokens[len(SPECIALS):] == (" ", "a", "b", "c")


def test_encode_decode_round_trip():
    v = Vocab.from_texts(["hello world"])
    ids = v.encode_chars("hold")
    assert "".join(v.token(i) for i in ids) == "hold"


def test_encode_unknown_character_names_it():
    v = Vocab.from_texts(["abc"])
    with pytest.raises(VocabError) as err:
        v.encode_chars("abz")
    assert "z" in str(err.value)


def test_literal_marker_text_is_characters_not_special():
    v = Vocab.from_texts(["[BOS]"])
    ids = v.encode_chars("[BOS]")
    assert len(ids) == 5
    assert v.bos_id not in ids


def test_duplicate_tokens_rejected():
    with pytest.raises(VocabError):
        Vocab(list(SPECIALS) + ["a", "a"])


def test_missing_special_rejected():
    with pytest.raises(VocabError):
        Vocab(["a", "b"])


def test_round_trip_random_texts():
    rng = random.Random(7)
    alphabet = "abcdefghij XYZ.,#"
    v = Vocab.from_texts([alphabet])
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        assert "".join(v.token(i) for i in v.encode_chars(s)) == s


def test_token_and_id_are_inverse():
    v = Vocab.from_texts(["xyz"])
    for i, tok in enumerate(v.tokens):
        assert v.token(i) == tok
    for i, tok in enumerate(v.tokens[len(SPECIALS):], start=len(SPECIALS)):
        assert v.encode_chars(tok) == [i]
    assert [v.pad_id, v.bos_id, v.eos_id, v.st_id, v.et_id] == [v.tokens.index(s) for s in SPECIALS]
