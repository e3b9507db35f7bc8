"""Ordered generator alphabets and plain word operations.

A letter is a small integer indexing the alphabet's symbol table and a word
is a tuple of letters.  The declaration order of the symbols is the only
order used anywhere downstream: shortlex comparisons, BFS tie-breaking and
normal forms all derive from it.
"""

from __future__ import annotations

from typing import NamedTuple

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

IDENTITY_SYMBOL = "1"


class PresentationError(ValueError):
    """Malformed alphabet, word or presentation input."""


def _check_symbols(symbols) -> None:
    # exports write words unescaped into DOT labels and JSON templates
    for t in symbols:
        if len(t) != 1 or not t.isalpha() or not t.isascii():
            raise PresentationError(f"generator symbol must be a single ASCII letter: {t!r}")


class GeneratorAlphabet(NamedTuple("GeneratorAlphabet", [("symbols", tuple[str, ...]), ("inverse", tuple[int, ...])])):
    """Symmetric generating set with a declared total order.

    ``symbols[i]`` is the display symbol of letter ``i`` and ``inverse[i]``
    is the letter index of its formal inverse.  The order on letters is
    index order.  The involution must be fixed-point free: a letter is
    never its own inverse.  Every symbol is a single ASCII letter.
    """

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...], inverse: tuple[int, ...]):
        _check_symbols(symbols)
        if len(symbols) != len(set(symbols)):
            raise PresentationError("duplicate letter symbol in alphabet")
        n = len(symbols)
        if len(inverse) != n:
            raise PresentationError("inverse table does not match symbol count")
        for i, j in enumerate(inverse):
            if not 0 <= j < n:
                raise PresentationError(f"inverse of {symbols[i]!r} out of range")
            if j == i:
                raise PresentationError(f"letter {symbols[i]!r} is its own inverse")
            if inverse[j] != i:
                raise PresentationError(f"involution broken at {symbols[i]!r}")
        return super().__new__(cls, symbols, inverse)

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make (and _replace, which calls it) would build
        # through tuple.__new__ and skip the checks above
        return cls(*iterable)

    @classmethod
    def from_case_pairs(cls, tokens: list[str] | tuple[str, ...]) -> "GeneratorAlphabet":
        """Build an alphabet from a flat symbol list using the lowercase /
        uppercase pairing convention (``a`` and ``A`` are mutual inverses).

        The list must have even length and contain both members of every
        pair; the declared order is kept verbatim.
        """
        tokens = list(tokens)
        if len(tokens) % 2 != 0:
            raise PresentationError("generator list must pair every letter with its inverse")
        _check_symbols(tokens)
        index = {}
        for i, t in enumerate(tokens):
            if t in index:
                raise PresentationError(f"duplicate generator symbol {t!r}")
            index[t] = i
        inverse = []
        for t in tokens:
            partner = t.swapcase()
            if partner not in index:
                raise PresentationError(f"generator {t!r} has no declared inverse {partner!r}")
            inverse.append(index[partner])
        return cls(tuple(tokens), tuple(inverse))

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def pairs(self) -> tuple[int, ...]:
        """Letters that represent their generator pair (the member that
        appears first in the declared order)."""
        return tuple(i for i, j in enumerate(self.inverse) if i < j)

    def letter(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise PresentationError(f"unknown letter {symbol!r}") from None

    def parse_word(self, text: str) -> Word:
        """Parse a word written as a run of symbols (``abAB``); spaces are
        ignored and ``1`` denotes the empty word."""
        text = text.replace(" ", "")
        if text in ("", IDENTITY_SYMBOL):
            return EMPTY_WORD
        return tuple(self.letter(ch) for ch in text)

    def format_word(self, word: Word) -> str:
        if not word:
            return IDENTITY_SYMBOL
        return "".join(self.symbols[x] for x in word)


def free_reduce(word: Word, alphabet: GeneratorAlphabet) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    inv = alphabet.inverse
    out: list[int] = []
    for x in word:
        if out and out[-1] == inv[x]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word: Word, alphabet: GeneratorAlphabet) -> Word:
    inv = alphabet.inverse
    return tuple(inv[x] for x in reversed(word))


def cyclically_reduce(word: Word, alphabet: GeneratorAlphabet) -> Word:
    """Freely reduce, then strip cancelling first/last letters."""
    w = free_reduce(word, alphabet)
    inv = alphabet.inverse
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == inv[w[hi - 1]]:
        lo += 1
        hi -= 1
    return w[lo:hi]

