import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subforge.presentation import (
    DehnOracle,
    Presentation,
    PresentationError,
    WordOracle,
    letter_symmetries,
    parse_presentation,
    preset,
    verify_small_cancellation,
)
from subforge.words import free_reduce, inverse_word

from bruteforce import naive_pieces
from reference import odd_relator_presentation, word_oracle


def test_parse_f2():
    p = parse_presentation("gens: a A b B\n")
    assert p.alphabet.symbols == ("a", "A", "b", "B")
    assert p.relators == ()
    assert type(word_oracle(p)) is WordOracle


def test_parse_z():
    p = parse_presentation("gens: a A\n")
    assert p.alphabet.size == 2
    assert type(word_oracle(p)) is WordOracle


def test_parse_surface_defaults_to_dehn():
    p = parse_presentation("gens: a A b B c C d D\nrelators: abABcdCD\n")
    assert isinstance(word_oracle(p), DehnOracle)
    assert [p.alphabet.format_word(r) for r in p.relators] == ["abABcdCD"]


def test_parse_errors():
    with pytest.raises(PresentationError):
        parse_presentation("relators: ab\n")  # no gens
    with pytest.raises(PresentationError):
        parse_presentation("gens: a A\nrelators: ab\n")  # undeclared letter
    with pytest.raises(PresentationError):
        parse_presentation("gens: a A b B\nrelators: abAB\noracle: free\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a A\noracle: magic\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a A\nrelators: aaa\n")  # not C'(1/6)
    # exports write words unescaped into DOT labels and JSON templates, so
    # a generator symbol must be a single ASCII letter
    for symbol in ('"', "\\", "é", "1", "ab"):
        with pytest.raises(PresentationError, match="single ASCII letter"):
            parse_presentation(f"gens: a A {symbol} {symbol.swapcase()}\n")
    # there is no oracle choice any more, so its old key is an unknown line
    with pytest.raises(PresentationError, match="unrecognized line"):
        parse_presentation("gens: a A b B c C d D\nrelators: abABcdCD\noracle: dehn\n")


def test_relators_cyclically_reduced_on_ingest():
    p = parse_presentation("gens: a A b B c C d D\nrelators: aabABcdCDA\n")
    assert [p.alphabet.format_word(r) for r in p.relators] == ["abABcdCD"]


def test_presets():
    assert preset("f2").alphabet.size == 4
    assert preset("z").alphabet.size == 2
    assert isinstance(word_oracle(preset("surface2")), DehnOracle)
    with pytest.raises(PresentationError):
        preset("nope")


# -- small cancellation -------------------------------------------------------


def test_pieces_surface():
    rep = verify_small_cancellation(preset("surface2"))
    assert (rep.max_piece_len, rep.min_relator_len, rep.satisfies_c16) == (1, 8, True)
    assert rep.max_piece_len == naive_pieces(preset("surface2"))


def test_pieces_vacuous():
    rep = verify_small_cancellation(preset("f2"))
    assert rep.satisfies_c16 and rep.vacuous


def test_pieces_proper_power():
    alpha_text = "gens: a A\nrelators: aaa\n"
    with pytest.raises(PresentationError):
        parse_presentation(alpha_text)
    # build the presentation object directly to inspect the report
    from subforge.words import GeneratorAlphabet

    alphabet = GeneratorAlphabet.from_case_pairs(["a", "A"])
    p = Presentation(alphabet, (alphabet.parse_word("aaa"),))
    rep = verify_small_cancellation(p)
    assert (rep.max_piece_len, rep.min_relator_len, rep.satisfies_c16) == (2, 3, False)
    assert rep.max_piece_len == naive_pieces(p)


def test_pieces_torus_fails():
    from subforge.words import GeneratorAlphabet

    alphabet = GeneratorAlphabet.from_case_pairs(["a", "A", "b", "B"])
    p = Presentation(alphabet, (alphabet.parse_word("abAB"),))
    rep = verify_small_cancellation(p)
    assert not rep.satisfies_c16
    assert rep.max_piece_len == naive_pieces(p) == 1


def test_short_relator_inside_a_longer_one_is_a_piece():
    # "a" is the whole relator a and a prefix of ab: a piece of length 1,
    # not below 1/6 of the relator's length
    text = "gens: a A b B\nrelators: a ab\n"
    with pytest.raises(PresentationError):
        parse_presentation(text)
    from subforge.words import GeneratorAlphabet

    alphabet = GeneratorAlphabet.from_case_pairs(["a", "A", "b", "B"])
    p = Presentation(alphabet, tuple(alphabet.parse_word(w) for w in ("a", "ab")))
    rep = verify_small_cancellation(p)
    assert (rep.max_piece_len, rep.min_relator_len, rep.satisfies_c16) == (1, 1, False)
    assert rep.max_piece_len == naive_pieces(p)


GENUS3 = "gens: a A b B c C d D e E f F\nrelators: abABcdCDefEF\n"


def test_genus3_surface_is_c16():
    p = parse_presentation(GENUS3)
    rep = verify_small_cancellation(p)
    assert (rep.max_piece_len, rep.min_relator_len, rep.satisfies_c16) == (1, 12, True)
    assert rep.max_piece_len == naive_pieces(p)
    assert isinstance(word_oracle(p), DehnOracle)
    assert word_oracle(p).reduce(p.alphabet.parse_word("abABcdCDefEF")) == ()


def test_duplicate_relators_are_degenerate():
    from subforge.words import GeneratorAlphabet

    alphabet = GeneratorAlphabet.from_case_pairs(["a", "A", "b", "B", "c", "C", "d", "D"])
    r = alphabet.parse_word("abABcdCD")
    p = Presentation(alphabet, (r, r))
    rep = verify_small_cancellation(p)
    # every proper subword occurs in both copies
    assert rep.max_piece_len == len(r) - 1
    assert not rep.satisfies_c16


# -- Dehn reduction -----------------------------------------------------------


def test_dehn_examples():
    p = preset("surface2")
    fmt = p.alphabet.format_word
    dehn = word_oracle(p).reduce
    assert dehn(p.alphabet.parse_word("abABcdCD")) == ()
    assert fmt(dehn(p.alphabet.parse_word("abABc"))) == "dcD"
    assert fmt(dehn(p.alphabet.parse_word("ab"))) == "ab"


def test_dehn_quotient_example_is_equality():
    # abABc -> dcD is a genuine group equality: the quotient word is trivial
    p = preset("surface2")
    w = p.alphabet.parse_word("abABc")
    out = word_oracle(p).reduce(w)
    assert word_oracle(p).is_identity(w + inverse_word(out, p.alphabet))


surface_words = st.lists(st.integers(0, 7), max_size=14).map(tuple)


@given(surface_words)
@settings(max_examples=200)
def test_dehn_idempotent(w):
    dehn = word_oracle(preset("surface2")).reduce
    once = dehn(w)
    assert dehn(once) == once


def _conjugated_relator_product(p, rng, factors):
    alphabet = p.alphabet
    word = ()
    for _ in range(factors):
        r = rng.choice(p.relators)
        if rng.random() < 0.5:
            r = inverse_word(r, alphabet)
        conj = tuple(rng.randrange(alphabet.size) for _ in range(rng.randrange(0, 7)))
        word = word + conj + r + inverse_word(conj, alphabet)
    return word


def test_dehn_kills_relator_consequences():
    p = preset("surface2")
    rng = random.Random(7)
    for _ in range(300):
        w = _conjugated_relator_product(p, rng, rng.randrange(1, 5))
        assert word_oracle(p).reduce(w) == ()


def test_degenerate_dehn_agrees_with_free_reduction():
    # no relators: the Dehn oracle degenerates to free reduction
    dehn = DehnOracle(preset("f2"))
    alphabet = dehn.alphabet
    for L in range(0, 7):
        for w in itertools.product(range(4), repeat=L):
            assert dehn.reduce(w) == free_reduce(w, alphabet)


@given(st.lists(st.integers(0, 3), min_size=7, max_size=10).map(tuple))
@settings(max_examples=150)
def test_degenerate_dehn_agrees_longer(w):
    dehn = DehnOracle(preset("f2"))
    assert dehn.reduce(w) == free_reduce(w, dehn.alphabet)


@pytest.mark.parametrize("name, count", [("f2", 8), ("z", 2), ("surface2", 4), ("odd_relator", 1)])
def test_letter_symmetries(name, count):
    p = odd_relator_presentation() if name == "odd_relator" else preset(name)
    syms = letter_symmetries(p)
    assert len(syms) == len(set(syms)) == count
    assert syms[0] == tuple(range(p.alphabet.size))
    inv = p.alphabet.inverse
    for sigma in syms:
        assert sorted(sigma) == list(range(p.alphabet.size))
        assert all(sigma[inv[x]] == inv[sigma[x]] for x in sigma)


def test_letter_symmetries_surface2():
    p = preset("surface2")
    fmt = p.alphabet.format_word
    # a<->c, b<->d rotates abABcdCD; a<->b, c<->d turns it into a
    # conjugate of its inverse
    assert [fmt(s) for s in letter_symmetries(p)] == ["aAbBcCdD", "bBaAdDcC", "cCdDaAbB", "dDcCbBaA"]
    # a<->b alone sends abABcdCD to baBAcdCD, no conjugate of r or r^-1
    swap_ab = tuple(p.alphabet.parse_word("bBaAcCdD"))
    assert swap_ab not in letter_symmetries(p)
