"""Tests for text utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.text import (
    char_ngrams,
    content_tokens,
    dice_similarity,
    name_similarity,
    normalize_name,
    tokenize,
    tokenize_with_offsets,
    window,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Joe Root hits a hundred!") == ["joe", "root", "hits", "a", "hundred"]

    def test_offsets_align(self):
        text = "Hello, World"
        for token, start, end in tokenize_with_offsets(text):
            assert text[start:end] == token

    def test_apostrophes_kept(self):
        assert "i've" in tokenize("I've added comments")

    def test_content_tokens_drop_stopwords(self):
        assert content_tokens("the cat and the hat") == ["cat", "hat"]


class TestNormalizeName:
    def test_whitespace_collapsed(self):
        assert normalize_name("  Benicio  del Toro ") == "benicio del toro"

    def test_accents_stripped(self):
        assert normalize_name("José Martí") == "jose marti"

    def test_punctuation_removed(self):
        assert normalize_name("O'Brien, J.") == "o brien j"

    def test_idempotent(self):
        once = normalize_name("Some  Náme!")
        assert normalize_name(once) == once

    @given(st.text(max_size=40))
    def test_property_idempotent(self, text):
        once = normalize_name(text)
        assert normalize_name(once) == once


class TestSimilarity:
    def test_identical_names(self):
        assert name_similarity("Tim Smith", "tim smith") == 1.0

    def test_disjoint_names_low(self):
        assert name_similarity("Aaa Bbb", "Zzz Qqq") < 0.3

    def test_typo_tolerant(self):
        assert name_similarity("Smith", "Smiht") > 0.4

    def test_dice_empty(self):
        assert dice_similarity(char_ngrams(""), char_ngrams("abc")) == 0.0

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_property_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= name_similarity(a, b) <= 1.0

    @given(st.text(min_size=1, max_size=20))
    def test_property_self_similarity_is_one(self, a):
        if normalize_name(a):
            assert name_similarity(a, a) == pytest.approx(1.0)


class TestMisc:
    def test_window_excludes_center(self):
        tokens = ["a", "b", "c", "d", "e"]
        assert window(tokens, 2, 1) == ["b", "d"]

    def test_window_clips_at_edges(self):
        tokens = ["a", "b"]
        assert window(tokens, 0, 3) == ["b"]
