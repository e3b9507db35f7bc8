"""Lexicographically-first geodesic tree, cone types and the word acceptor.

The lexicographically-first geodesic to an element is its shortlex normal
form (all geodesics to an element share a length, so the lexicographic
order among them is shortlex), which makes the geodesic tree exactly the
parent-link tree of the ball: no copy of it is built, and the children
of v are read off the ball (``CayleyBall.children``).

Cone types are classed by level fingerprints: the n-level of g is the set
of h in the ball of radius n with |gh| < |g|, held as the sorted tuple of
the ids of those h.  The products g h come from translating B_n by g
(``CayleyBall.translate``), as do the probe cones of the cone lemma.  Ids
are shortlex-ordered and agree across radii, so this tuple names the same
set as the normal forms would.  Two elements share a class id iff their
K-level fingerprints coincide; interning follows shortlex order so ids
are reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

from .ball import CayleyBall, TrustRadiusError
from .words import Word


class Verdict(NamedTuple):
    """What one check decided: whether it passed, the size of the domain it
    quantified over, its first counterexample and a note.  In a
    counterexample an int is an element id, a string a letter or a kind,
    and a tuple holds either."""

    passed: bool
    domain: int
    counterexample: tuple | None = None
    note: str = ""


def build_gamma(ball: CayleyBall) -> int:
    """The edge count of the geodesic tree: one parent link per element
    but the identity.  Axiom 3 (``verify_axioms``) checks that each link
    goes one level down, and prefix closure that it spells its element."""
    return ball.size - 1


def level_fingerprint(ball: CayleyBall, g: int, n: int) -> tuple[int, ...]:
    """Sorted ids of the h in B_n with |g h| < |g|.

    Requires |g| + n <= ball radius so every product resolves in-ball.
    """
    depth = ball.sphere_of[g]
    sphere_of = ball.sphere_of
    return tuple(h for h, gh in enumerate(ball.translate(g, n)) if sphere_of[gh] < depth)


class ConeTypeTable(NamedTuple):
    """Interned K-level fingerprint classes on the trusted region."""

    k: int
    trusted_depth: int  # classes known for |g| <= trusted_depth
    class_of: dict[int, int]
    fingerprints: tuple[tuple[int, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.fingerprints)


def cone_type_classes(ball: CayleyBall, k: int) -> ConeTypeTable:
    """Class every element of the trusted region |g| <= R - K by its
    K-level fingerprint, interned in order of first appearance."""
    if k < 0:
        raise ValueError("K must be >= 0")
    trusted = ball.radius - k
    if trusted < 0:
        raise TrustRadiusError(f"K={k} exceeds ball radius {ball.radius}")
    intern: dict[tuple[int, ...], int] = {}
    fingerprints: list[tuple[int, ...]] = []
    class_of: dict[int, int] = {}
    for e in range(ball.size):
        if ball.sphere_of[e] > trusted:
            break
        fp = level_fingerprint(ball, e, k)
        cls = intern.get(fp)
        if cls is None:
            cls = len(fingerprints)
            intern[fp] = cls
            fingerprints.append(fp)
        class_of[e] = cls
    return ConeTypeTable(k, trusted, class_of, tuple(fingerprints))


def _probe_cone(ball: CayleyBall, g: int, probe: int) -> frozenset[int]:
    """Elements h of B_probe with |g h| = |g| + |h| (the metric restatement
    of 'some geodesic to g h passes through g')."""
    depth = ball.sphere_of[g]
    sphere_of = ball.sphere_of
    return frozenset(
        h for h, gh in enumerate(ball.translate(g, probe)) if sphere_of[gh] == depth + sphere_of[h]
    )


def verify_cone_lemma(ball: CayleyBall, table: ConeTypeTable, probe: int) -> Verdict:
    """Check that equal K-level fingerprints (K = ``table.k``) imply equal
    observed cones to depth ``probe`` on |g| <= R - max(K, probe), where
    both are resolvable.  The domain is the pairs compared, each member of
    a class against its first; the counterexample is the first pair that
    differs, with an h in one cone but not the other."""
    max_depth = ball.radius - max(table.k, probe)
    groups: dict[int, list[int]] = {}
    for e in range(ball.size):
        if ball.sphere_of[e] > max_depth:
            break
        groups.setdefault(table.class_of[e], []).append(e)
    pairs = 0
    counterexample = None
    for members in groups.values():
        if len(members) < 2:
            continue
        base = members[0]
        base_cone = _probe_cone(ball, base, probe)
        for other in members[1:]:
            pairs += 1
            cone = _probe_cone(ball, other, probe)
            if cone != base_cone and counterexample is None:
                counterexample = (base, other, min(cone.symmetric_difference(base_cone)))
    return Verdict(counterexample is None, pairs, counterexample)


class WordAcceptor(NamedTuple):
    """Deterministic acceptor of the normal-form language.

    States are cone-type class ids; every state accepts, so the language is
    prefix-closed by construction.
    """

    states: tuple[int, ...]
    initial: int
    transitions: dict[tuple[int, int], int]  # (state, letter) -> state

    def accepts(self, word: Word) -> bool:
        s = self.initial
        for x in word:
            nxt = self.transitions.get((s, x))
            if nxt is None:
                return False
            s = nxt
        return True


def build_acceptor(ball: CayleyBall, table: ConeTypeTable) -> tuple[WordAcceptor, Verdict]:
    """Record class transitions along tree edges inside the trusted region
    and verify they are well defined.

    The domain is the (class, letter) slots decided.  A conflict means the
    K-level fingerprint failed to determine the cone type on this data,
    i.e. K was too small; the counterexample is the first one, as (letter,
    kind, witness, witness), with the count and the class in the note.
    """
    transitions: dict[tuple[int, int], int] = {}
    trans_witness: dict[tuple[int, int], int] = {}
    conflicts: list[tuple] = []
    votes: dict[tuple[int, int], dict[bool, int]] = {}
    for e in range(ball.size):
        depth = ball.sphere_of[e]
        if depth > table.trusted_depth - 1:
            break
        cls = table.class_of[e]
        for x, child in enumerate(ball.row(e)):
            is_tree_child = (
                child >= 0
                and ball.parent[child] == e
                and ball.last_letter[child] == x
            )
            slot = votes.setdefault((cls, x), {})
            if is_tree_child not in slot:
                slot[is_tree_child] = e
            if not is_tree_child:
                continue
            key = (cls, x)
            target = table.class_of[child]
            if key in transitions and transitions[key] != target:
                conflicts.append((cls, x, "two-targets", trans_witness[key], e))
            elif key not in transitions:
                transitions[key] = target
                trans_witness[key] = e
    for (cls, x), slot in sorted(votes.items()):
        if len(slot) == 2:
            conflicts.append((cls, x, "presence-differs", slot[True], slot[False]))
    acceptor = WordAcceptor(
        states=tuple(range(table.class_count)),
        initial=table.class_of[0],
        transitions=transitions,
    )
    if not conflicts:
        return acceptor, Verdict(True, len(votes))
    cls, x, kind, a, b = conflicts[0]
    letter = ball.presentation.alphabet.symbols[x]
    note = f"{len(conflicts)} conflicts; the first in class {cls}"
    return acceptor, Verdict(False, len(votes), (letter, kind, a, b), note)


def check_prefix_closure(ball: CayleyBall) -> Verdict:
    """Exhaustive check over the N - 1 parent links that every element is
    its parent times its last letter, with the parent earlier in id order;
    the counterexample is the first failing link (element, parent).  This
    makes the normal forms read up the parent chain prefix-closed, makes
    each one spell its element, and makes every vertical edge of the
    subdivision graph a Cayley edge."""
    parent, last_letter, table, a = ball.parent, ball.last_letter, ball.table, ball.degree
    bad = None
    for e in range(1, ball.size):
        p = parent[e]
        if bad is None and not (0 <= p < e and table[p * a + last_letter[e]] == e):
            bad = (e, p)
    return Verdict(bad is None, ball.size - 1, bad)
