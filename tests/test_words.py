import pytest
from hypothesis import given, strategies as st

from subforge.words import (
    GeneratorAlphabet,
    PresentationError,
    cyclically_reduce,
    free_reduce,
    inverse_word,
)

from reference import exponent_vector

F2 = GeneratorAlphabet.from_case_pairs(["a", "A", "b", "B"])

words = st.lists(st.integers(0, 3), max_size=12).map(tuple)


def test_case_pair_construction():
    assert F2.size == 4
    assert F2.inverse == (1, 0, 3, 2)
    assert F2.pairs == (0, 2)


def test_alphabet_validation():
    with pytest.raises(PresentationError):
        GeneratorAlphabet.from_case_pairs(["a", "A", "b"])  # odd
    with pytest.raises(PresentationError):
        GeneratorAlphabet.from_case_pairs(["a", "A", "a", "A"])  # dup
    with pytest.raises(PresentationError):
        GeneratorAlphabet.from_case_pairs(["a", "b"])  # no inverses
    with pytest.raises(PresentationError):
        GeneratorAlphabet(("a", "A"), (0, 1))  # fixed point
    with pytest.raises(PresentationError, match="single ASCII letter"):
        GeneratorAlphabet(('"', "x"), (1, 0))  # exports would not escape it


def test_parse_format_roundtrip():
    w = F2.parse_word("abAB")
    assert w == (0, 2, 1, 3)
    assert F2.format_word(w) == "abAB"
    assert F2.parse_word("1") == ()
    assert F2.format_word(()) == "1"
    with pytest.raises(PresentationError):
        F2.parse_word("ax")


def test_free_reduce_examples():
    assert free_reduce(F2.parse_word("aAb"), F2) == F2.parse_word("b")
    assert free_reduce((), F2) == ()
    assert free_reduce(F2.parse_word("abBa"), F2) == F2.parse_word("aa")


@given(words)
def test_free_reduce_idempotent(w):
    once = free_reduce(w, F2)
    assert free_reduce(once, F2) == once


@given(words)
def test_free_reduce_inverse_cancels(w):
    assert free_reduce(w + inverse_word(w, F2), F2) == ()


def test_cyclic_reduce():
    assert cyclically_reduce(F2.parse_word("AbaBa"), F2) == F2.parse_word("a")
    assert cyclically_reduce(F2.parse_word("Aba"), F2) == F2.parse_word("b")
    assert cyclically_reduce(F2.parse_word("abAB"), F2) == F2.parse_word("abAB")
    assert cyclically_reduce(F2.parse_word("aa"), F2) == F2.parse_word("aa")


def test_exponent_vector():
    assert exponent_vector(F2.parse_word("abAB"), F2) == (0, 0)
    assert exponent_vector(F2.parse_word("aab"), F2) == (2, 1)
    assert exponent_vector(F2.parse_word("BB"), F2) == (0, -2)
