"""Lexicographically-first geodesic tree, cone types and the word acceptor.

The lexicographically-first geodesic to an element is its shortlex normal
form (all geodesics to an element share a length, so the lexicographic
order among them is shortlex), which makes the geodesic tree exactly the
parent-link tree of the ball.

Cone types are classed by level fingerprints: the n-level of g is the set
of h in the ball of radius n with |gh| < |g|.  Two elements share a class
id iff their K-level fingerprints coincide; interning follows shortlex
order so ids are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ball import CayleyBall, TrustRadiusError
from .words import Word


class InternalConsistencyError(RuntimeError):
    """A structural invariant that construction should guarantee failed."""


@dataclass
class GeodesicTree:
    """Parent-link tree over the whole ball; edge count is verified."""

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def edge_count(self) -> int:
        return self.size - 1


def build_gamma(ball: CayleyBall) -> GeodesicTree:
    """Assemble the geodesic tree from parent links and verify the tree
    property (edge count and reachability of the root)."""
    n = ball.size
    children: list[list[int]] = [[] for _ in range(n)]
    edges = 0
    for e in range(1, n):
        p = ball.parent[e]
        if not 0 <= p < n or ball.sphere_of[p] != ball.sphere_of[e] - 1:
            raise InternalConsistencyError(f"bad parent link at element {e}")
        children[p].append(e)
        edges += 1
    if edges != n - 1:
        raise InternalConsistencyError("tree edge count mismatch")
    # reachability: walk parent chains with a visited set
    reached = [False] * n
    reached[0] = True
    for e in range(n):
        chain = []
        v = e
        while not reached[v]:
            chain.append(v)
            v = ball.parent[v]
        for c in chain:
            reached[c] = True
    if not all(reached):
        raise InternalConsistencyError("tree not connected")
    return GeodesicTree(tuple(ball.parent), tuple(tuple(c) for c in children))


def level_fingerprint(ball: CayleyBall, g: int, n: int) -> tuple[Word, ...]:
    """Sorted normal forms of the h in B_n with |g h| < |g|.

    Requires |g| + n <= ball radius so every product resolves in-ball.
    """
    depth = ball.sphere_of[g]
    if depth + n > ball.radius:
        raise TrustRadiusError(
            f"level fingerprint of |g|={depth} at n={n} needs radius {depth + n}"
        )
    members: list[Word] = []
    for h in range(ball.size):
        if ball.sphere_of[h] > n:
            break
        nf = ball.normal_forms[h]
        gh = ball.walk(g, nf)
        if gh is None:
            raise InternalConsistencyError("in-trust walk left the ball")
        if ball.sphere_of[gh] < depth:
            members.append(nf)
    return tuple(members)


@dataclass
class ConeTypeTable:
    """Interned K-level fingerprint classes on the trusted region."""

    k: int
    trusted_depth: int  # classes known for |g| <= trusted_depth
    class_of: dict[int, int]
    fingerprints: tuple[tuple[Word, ...], ...]

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
    intern: dict[tuple[Word, ...], int] = {}
    fingerprints: list[tuple[Word, ...]] = []
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


@dataclass
class ConeLemmaReport:
    passed: bool
    k: int
    probe: int
    tested_depth: int
    elements_tested: int
    pairs_checked: int
    counterexample: tuple[int, int, int] | None  # (g, g_prime, h)


def _probe_cone(ball: CayleyBall, g: int, probe: int) -> frozenset[int]:
    """Elements h of B_probe with |g h| = |g| + |h| (the metric restatement
    of 'some geodesic to g h passes through g')."""
    depth = ball.sphere_of[g]
    cone = []
    for h in range(ball.size):
        hl = ball.sphere_of[h]
        if hl > probe:
            break
        gh = ball.walk(g, ball.normal_forms[h])
        if gh is None:
            raise InternalConsistencyError("in-trust walk left the ball")
        if ball.sphere_of[gh] == depth + hl:
            cone.append(h)
    return frozenset(cone)


def verify_cone_lemma(
    ball: CayleyBall, k: int, probe: int, table: ConeTypeTable | None = None
) -> ConeLemmaReport:
    """Check that equal K-level fingerprints imply equal observed cones to
    depth ``probe`` on the region where both are resolvable."""
    if table is None or table.k != k:
        table = cone_type_classes(ball, k)
    max_depth = ball.radius - max(k, probe)
    groups: dict[int, list[int]] = {}
    tested = 0
    for e in range(ball.size):
        if ball.sphere_of[e] > max_depth:
            break
        tested += 1
        groups.setdefault(table.class_of[e], []).append(e)
    pairs = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        base = members[0]
        base_cone = _probe_cone(ball, base, probe)
        for other in members[1:]:
            pairs += 1
            cone = _probe_cone(ball, other, probe)
            if cone != base_cone:
                h = min(cone.symmetric_difference(base_cone))
                return ConeLemmaReport(False, k, probe, max_depth, tested, pairs, (base, other, h))
    return ConeLemmaReport(True, k, probe, max_depth, tested, pairs, None)


@dataclass
class WordAcceptor:
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


@dataclass
class AcceptorReport:
    consistent: bool
    state_count: int
    transition_count: int
    conflicts: tuple[tuple, ...]  # (class, letter, kind, witness_a, witness_b)


def build_acceptor(ball: CayleyBall, table: ConeTypeTable) -> tuple[WordAcceptor, AcceptorReport]:
    """Record class transitions along tree edges inside the trusted region
    and verify they are well defined.

    A conflict means the K-level fingerprint failed to determine the cone
    type on this data, i.e. K was too small.
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
        for x in range(ball.presentation.alphabet.size):
            child = ball.neighbors[e].get(x)
            is_tree_child = (
                child is not None
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
    report = AcceptorReport(
        consistent=not conflicts,
        state_count=table.class_count,
        transition_count=len(transitions),
        conflicts=tuple(conflicts),
    )
    return acceptor, report


def check_prefix_closure(ball: CayleyBall) -> bool:
    """Exhaustive check that the stored normal forms are prefix-closed and
    spelled by the parent chain."""
    forms = set(ball.normal_forms)
    for e in range(ball.size):
        nf = ball.normal_forms[e]
        if nf and nf[:-1] not in forms:
            return False
        if e and ball.normal_forms[ball.parent[e]] != nf[:-1]:
            return False
    return True
