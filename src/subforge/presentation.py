"""Group presentations, small cancellation and the word-problem oracles.

The pipeline decides every group fact on the Cayley ball, whose
enumeration needs the C'(1/6) certificate; ``verify_small_cancellation``
computes it and the parser checks it.  ``letter_symmetries`` finds the
generator permutations that preserve the relators, which the delta stage
uses to compute one triangle per orbit.  The word oracles (``WordOracle``:
free reduction, ``DehnOracle``: Dehn's algorithm) are an independent second
route for the tests, which pick Dehn's algorithm when there are relators;
no pipeline stage calls them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import log
from .words import (
    GeneratorAlphabet,
    PresentationError,
    Word,
    cyclically_reduce,
    free_reduce,
    inverse_word,
)


class Presentation(NamedTuple("Presentation", [("alphabet", GeneratorAlphabet), ("relators", tuple[Word, ...]),
                                                ("name", str | None)])):
    """Alphabet plus cyclically reduced relators."""

    __slots__ = ()

    def __new__(cls, alphabet: GeneratorAlphabet, relators: tuple[Word, ...], name: str | None = None):
        for r in relators:
            if not r:
                raise PresentationError("empty relator")
            if cyclically_reduce(r, alphabet) != r:
                raise PresentationError("relator not cyclically reduced")
        return super().__new__(cls, alphabet, relators, name)

    def text(self) -> str:
        """Round-trippable presentation-file form (used for cache keys)."""
        lines = ["gens: " + " ".join(self.alphabet.symbols)]
        if self.relators:
            lines.append(
                "relators: " + " ".join(self.alphabet.format_word(r) for r in self.relators)
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Small cancellation
# ---------------------------------------------------------------------------

PieceWitness = tuple[tuple[int, int, int], tuple[int, int, int]]


class PieceReport(NamedTuple):
    """Outcome of the C'(1/6) check.

    ``max_piece_len`` is the longest proper subword occurring in two
    distinct places among the cyclic conjugates of the relators and their
    inverses; occurrences are indexed by (relator, sign, offset).
    """

    max_piece_len: int
    min_relator_len: int
    satisfies_c16: bool
    witness: PieceWitness | None = None

    @property
    def vacuous(self) -> bool:
        return self.min_relator_len == 0


def _rotations(word: Word) -> list[Word]:
    return [word[i:] + word[:i] for i in range(len(word))]


def relator_conjugates(pres: Presentation) -> set[Word]:
    """The distinct cyclic conjugates of the relators and their inverses."""
    conjugates: set[Word] = set()
    for r in pres.relators:
        conjugates.update(_rotations(r))
        conjugates.update(_rotations(inverse_word(r, pres.alphabet)))
    return conjugates


def letter_symmetries(pres: Presentation) -> list[tuple[int, ...]]:
    """Every letter permutation sigma (a table, sigma[x] the image of letter
    x) that commutes with inversion and maps ``relator_conjugates`` onto
    itself; the identity comes first.

    Such a sigma sends every relator to a conjugate of a relator or of its
    inverse, and so does its inverse: it extends to an automorphism of the
    group, which is an automorphism of the Cayley graph that fixes the
    identity, keeps word length and relabels every edge x as sigma[x].  The
    search runs over the 2^k k! signed permutations of the k generator
    pairs.
    """
    alphabet = pres.alphabet
    inv = alphabet.inverse
    pairs = alphabet.pairs
    conjugates = relator_conjugates(pres)
    found = []
    for targets in itertools.permutations(pairs):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            sigma = [0] * alphabet.size
            for x, t, flip in zip(pairs, targets, flips):
                if flip:
                    t = inv[t]
                sigma[x], sigma[inv[x]] = t, inv[t]
            # sigma is injective on words of one length, so into is onto
            if all(tuple(sigma[x] for x in c) in conjugates for c in conjugates):
                found.append(tuple(sigma))
    return found


def verify_small_cancellation(pres: Presentation) -> PieceReport:
    """Enumerate pieces over all cyclic conjugates of relators and their
    inverses and compare the longest one against min relator length / 6.

    Two occurrences of one cyclic word (a relator that is a proper power,
    or a repeated relator) share pieces up to one letter short of its full
    length.  A shorter word that is a prefix of a longer one is a piece in
    full: "a" is a piece of the relators a and ab.
    """
    if not pres.relators:
        return PieceReport(0, 0, True)
    occ: list[tuple[Word, tuple[int, int, int]]] = []
    for ri, r in enumerate(pres.relators):
        for sign, base in ((1, r), (-1, inverse_word(r, pres.alphabet))):
            for off, rot in enumerate(_rotations(base)):
                occ.append((rot, (ri, sign, off)))
    best = 0
    witness: PieceWitness | None = None
    for i in range(len(occ)):
        wi, oi = occ[i]
        for j in range(i + 1, len(occ)):
            wj, oj = occ[j]
            cap = len(wi) - 1 if wi == wj else min(len(wi), len(wj))
            lcp = 0
            while lcp < cap and wi[lcp] == wj[lcp]:
                lcp += 1
            if lcp > best:
                best = lcp
                witness = (oi, oj)
    min_len = min(len(r) for r in pres.relators)
    return PieceReport(best, min_len, best < min_len / 6, witness)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class WordOracle:
    """Reduces words to a deterministic representative; the representative
    is empty iff the word represents the identity."""

    def __init__(self, alphabet: GeneratorAlphabet):
        self.alphabet = alphabet

    def reduce(self, word: Word) -> Word:
        return free_reduce(word, self.alphabet)

    def is_identity(self, word: Word) -> bool:
        return not self.reduce(word)


class DehnOracle(WordOracle):
    """Classical greedy Dehn's algorithm.

    Any subword that is more than half of a cyclic conjugate of a relator
    (or relator inverse) is replaced by the inverse of the complementary
    part; replacements are applied leftmost-then-longest, so the output is
    deterministic.  Complete for the word problem on certified C'(1/6)
    presentations.
    """

    _REPL = -1  # trie key marking a terminal node's replacement

    def __init__(self, pres: Presentation):
        super().__init__(pres.alphabet)
        table: dict[Word, Word] = {}
        for t in sorted(relator_conjugates(pres)):
            half = len(t) // 2
            for cut in range(half + 1, len(t) + 1):
                prefix = t[:cut]
                repl = inverse_word(t[cut:], pres.alphabet)
                old = table.get(prefix)
                if old is None or (len(repl), repl) < (len(old), old):
                    table[prefix] = repl
        trie: dict = {}
        for prefix, repl in table.items():
            node = trie
            for x in prefix:
                node = node.setdefault(x, {})
            node[self._REPL] = repl
        self._trie = trie

    def reduce(self, word: Word) -> Word:
        w = free_reduce(word, self.alphabet)
        trie = self._trie
        repl_key = self._REPL
        while True:
            hit = None
            n = len(w)
            for i in range(n):
                node = trie
                j = i
                while j < n:
                    node = node.get(w[j])
                    if node is None:
                        break
                    j += 1
                    repl = node.get(repl_key)
                    if repl is not None:
                        hit = (i, j - i, repl)  # longest match at this i wins
                if hit:
                    break
            if not hit:
                return w
            i, length, repl = hit
            w = free_reduce(w[:i] + repl + w[i + length :], self.alphabet)


# ---------------------------------------------------------------------------
# Parsing and presets
# ---------------------------------------------------------------------------

PRESET_TEXTS = {
    "f2": "gens: a A b B\n",
    "z": "gens: a A\n",
    "surface2": "gens: a A b B c C d D\nrelators: abABcdCD\n",
}


def parse_presentation(text: str, name: str | None = None) -> Presentation:
    """Parse the line-oriented presentation format.

    Line 1: ``gens:`` and an even-length symbol list in declaration order,
    inverse pairs given by letter case.  Line 2 (optional): ``relators:``
    and space-separated words.  Any other line is an error.  Relators are
    freely and cyclically reduced on ingest (with a warning if that changed
    them).  When relators are present the C'(1/6) certificate is checked
    here, since ball enumeration requires it.
    """
    gens: list[str] | None = None
    relator_words: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "gens":
            if gens is not None:
                raise PresentationError(f"line {lineno}: duplicate gens line")
            gens = rest.split()
        elif key == "relators":
            relator_words.extend(rest.split())
        else:
            raise PresentationError(f"line {lineno}: unrecognized line {raw!r}")
    if gens is None:
        raise PresentationError("missing gens line")
    alphabet = GeneratorAlphabet.from_case_pairs(gens)

    relators: list[Word] = []
    for wtext in relator_words:
        w = alphabet.parse_word(wtext)
        reduced = cyclically_reduce(w, alphabet)
        if reduced != w:
            log.warning("relator %r cyclically reduced to %r", wtext, alphabet.format_word(reduced))
        if reduced:
            relators.append(reduced)

    pres = Presentation(alphabet, tuple(relators), name=name)
    if relators:
        report = verify_small_cancellation(pres)
        if not report.satisfies_c16:
            raise PresentationError(
                "presentation is not C'(1/6) "
                f"(max piece {report.max_piece_len}, min relator {report.min_relator_len}); "
                "ball enumeration requires it"
            )
    return pres


def preset(name: str) -> Presentation:
    """Built-in presentations: ``f2``, ``z``, ``surface2``."""
    try:
        text = PRESET_TEXTS[name]
    except KeyError:
        raise PresentationError(f"unknown preset {name!r}") from None
    return parse_presentation(text, name=name)
