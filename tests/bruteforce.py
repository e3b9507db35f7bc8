"""Independent brute-force oracles used to derive expected test values.

Everything here works from first principles (word enumeration plus the
reduction oracles) and deliberately avoids the production BFS, cone-type
and closeness machinery, so it can serve as the second route for the
acceptance checks.
"""

from __future__ import annotations

from subforge.presentation import Presentation
from subforge.words import Word, free_reduce, inverse_word

from reference import word_oracle


def reduced_words(alphabet, max_len: int) -> list[Word]:
    """All freely reduced words of length <= max_len, in shortlex order."""
    inv = alphabet.inverse
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in range(alphabet.size):
                if w and inv[w[-1]] == x:
                    continue
                nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def naive_ball(pres: Presentation, radius: int) -> list[Word]:
    """Canonical (shortlex-least) words of the ball, found by scanning all
    reduced words in shortlex order and keeping those the oracle cannot
    match to an earlier word."""
    oracle = word_oracle(pres)
    alphabet = pres.alphabet
    canon: list[Word] = []
    for w in reduced_words(alphabet, radius):
        if not any(oracle.is_identity(w + inverse_word(c, alphabet)) for c in canon):
            canon.append(w)
    return canon


def naive_sphere_sizes(pres: Presentation, radius: int) -> list[int]:
    sizes = [0] * (radius + 1)
    for w in naive_ball(pres, radius):
        sizes[len(w)] += 1
    return sizes


def free_distance(alphabet, w1: Word, w2: Word) -> int:
    return len(free_reduce(inverse_word(w1, alphabet) + w2, alphabet))


def naive_free_cone_classes(alphabet, radius: int, k: int) -> dict[Word, int]:
    """Cone-type classes of a free group via the level-fingerprint
    definition, using only free reduction."""
    probes = reduced_words(alphabet, k)
    classes: dict[tuple, int] = {}
    out: dict[Word, int] = {}
    for g in reduced_words(alphabet, radius - k):
        fp = tuple(
            h for h in probes if len(free_reduce(g + h, alphabet)) < len(g)
        )
        if fp not in classes:
            classes[fp] = len(classes)
        out[g] = classes[fp]
    return out


def naive_free_transition_count(alphabet, radius: int, k: int) -> int:
    """Number of acceptor transitions for a free group, derived by counting
    the extending letters per cone class (asserting they are constant)."""
    classes = naive_free_cone_classes(alphabet, radius, k)
    per_class: dict[int, set] = {}
    for g, cls in classes.items():
        if len(g) > radius - k - 1:
            continue
        letters = frozenset(
            x
            for x in range(alphabet.size)
            if len(free_reduce(g + (x,), alphabet)) == len(g) + 1
        )
        seen = per_class.setdefault(cls, set())
        seen.add(letters)
    assert all(len(s) == 1 for s in per_class.values()), "cone classes disagree"
    return sum(len(next(iter(s))) for s in per_class.values())


def naive_free_close(alphabet, u1: Word, u2: Word, horizon: int) -> bool:
    """Geodesic closeness in a free group by exhaustive cone enumeration:
    outward geodesics are exactly the reduced extensions."""
    ext_len = horizon - len(u1)
    cone1 = [u1 + t for t in reduced_words(alphabet, ext_len) if free_reduce(u1 + t, alphabet) == u1 + t]
    cone2 = {
        u2 + t
        for t in reduced_words(alphabet, horizon - len(u2))
        if free_reduce(u2 + t, alphabet) == u2 + t
    }
    for w1 in cone1:
        for w2 in cone2:
            if free_distance(alphabet, w1, w2) <= 1:
                return True
    return False


def naive_pieces(pres: Presentation) -> int:
    """Max piece length by direct occurrence counting: a piece is a proper
    subword of the cyclic relator forms with two distinct occurrences, or
    a whole form that occurs inside a longer one."""
    occurrences: dict[Word, set] = {}
    for ri, r in enumerate(pres.relators):
        for sign, base in ((1, r), (-1, inverse_word(r, pres.alphabet))):
            doubled = base + base
            for off in range(len(base)):
                for length in range(1, len(base)):
                    sub = doubled[off : off + length]
                    occurrences.setdefault(sub, set()).add((ri, sign, off))
    best = 0
    for sub, occ in occurrences.items():
        if len(occ) >= 2:
            best = max(best, len(sub))
    # a whole cyclic relator form is a piece when it is also a proper
    # subword of a longer one (all keys above are proper subwords)
    for r in pres.relators:
        for base in (r, inverse_word(r, pres.alphabet)):
            for off in range(len(base)):
                if base[off:] + base[:off] in occurrences:
                    best = max(best, len(base))
    return best
