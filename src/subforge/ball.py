"""Cayley ball enumeration with canonical shortlex normal forms.

Elements are dense integer ids in shortlex-BFS discovery order (0 is the
identity), so id order is exactly shortlex order of the normal forms and
ids agree across balls of different radii over the same presentation.

Only enumeration decides group equality, by a two-stage scheme: candidates
are bucketed by an abelianization fingerprint (exponent vector reduced
modulo the lattice spanned by the relator exponent vectors, plus
word-length parity when every relator has even length), and only
same-bucket pairs are confirmed through the word-problem oracle.  The
fingerprint is a true homomorphism invariant, so it is sound as a negative
filter and never used as an equality proof.  The finished ball keeps only
the Cayley graph; its queries walk that graph, and only ``element_of``
falls back to the oracle for words that leave the ball.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

from .presentation import ORACLE_FREE, Presentation
from .words import EMPTY_WORD, Word, exponent_vector, inverse_word

DEFAULT_ELEMENT_CAP = 5_000_000


class BallCapExceeded(RuntimeError):
    """Element cap hit during enumeration; carries partial sphere sizes."""

    def __init__(self, cap: int, sphere_sizes: list[int]):
        super().__init__(f"element cap {cap} exceeded (sphere sizes so far: {sphere_sizes})")
        self.cap = cap
        self.sphere_sizes = sphere_sizes


class TrustRadiusError(ValueError):
    """A query needed data beyond the enumerated radius."""


class GeodesicCapExceeded(RuntimeError):
    def __init__(self, cap: int, count: int):
        super().__init__(f"geodesic cap {cap} exceeded ({count} found so far)")
        self.cap = cap
        self.count = count


class IntegerLattice:
    """Canonical coset representatives modulo an integer row lattice.

    Rows are brought to Hermite normal form by a left-to-right column
    sweep (all rows entering column c already vanish on earlier columns);
    ``reduce`` maps a vector to the unique representative of its coset
    with every pivot coordinate in [0, pivot).
    """

    def __init__(self, rows):
        self.dim = len(rows[0]) if rows else 0
        pending = [list(r) for r in rows if any(r)]
        hnf: list[list[int]] = []
        pivots: list[int] = []
        for col in range(self.dim):
            active = [r for r in pending if r[col] != 0]
            pending = [r for r in pending if r[col] == 0]
            if not active:
                continue
            pivot = active[0]
            for r in active[1:]:
                while r[col]:
                    q = pivot[col] // r[col]
                    for k in range(col, self.dim):
                        pivot[k] -= q * r[k]
                    pivot, r = r, pivot
                if any(r):
                    pending.append(r)
            if pivot[col] < 0:
                pivot = [-v for v in pivot]
            hnf.append(pivot)
            pivots.append(col)
        # reduce entries above each pivot into [0, pivot)
        for idx in range(len(hnf) - 1, -1, -1):
            c = pivots[idx]
            p = hnf[idx][c]
            for above in range(idx):
                q = hnf[above][c] // p
                if q:
                    for k in range(self.dim):
                        hnf[above][k] -= q * hnf[idx][k]
        self._rows = hnf
        self._pivots = pivots

    @property
    def is_trivial(self) -> bool:
        return not self._rows

    def reduce(self, vec) -> tuple[int, ...]:
        if not self._rows:
            return tuple(vec)
        v = list(vec)
        for idx, c in enumerate(self._pivots):
            q = v[c] // self._rows[idx][c]
            if q:
                row = self._rows[idx]
                for k in range(self.dim):
                    v[k] -= q * row[k]
        return tuple(v)


# Everything the cache stores besides the presentation text.
_GRAPH_FIELDS = ("radius", "normal_forms", "sphere_of", "parent", "last_letter", "neighbors", "spheres")


@dataclass
class CayleyBall:
    """Enumerated ball with normal forms, parents and in-ball adjacency.

    Immutable after construction; safe for concurrent shared reads.
    ``neighbors[e]`` maps letters to target ids for every generator move
    that lands inside the ball (boundary sphere included).
    """

    presentation: Presentation
    radius: int
    normal_forms: list[Word]
    sphere_of: list[int]
    parent: list[int]
    last_letter: list[int]
    neighbors: list[dict[int, int]]
    spheres: list[list[int]]

    # -- queries ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.normal_forms)

    @property
    def sphere_sizes(self) -> list[int]:
        return [len(s) for s in self.spheres]

    def sphere(self, n: int) -> list[int]:
        if not 0 <= n <= self.radius:
            raise TrustRadiusError(f"sphere {n} outside ball of radius {self.radius}")
        return list(self.spheres[n])

    def walk(self, start: int, word: Word) -> int | None:
        """Follow ``word`` through in-ball edges; None means the walk left
        the ball at some prefix (the endpoint may or may not be inside)."""
        e = start
        for x in word:
            nxt = self.neighbors[e].get(x)
            if nxt is None:
                return None
            e = nxt
        return e

    def element_of(self, word: Word | str) -> int | None:
        """Resolve a word to its element id, or None when the element lies
        outside the ball.  Raises on letters not in the alphabet."""
        if isinstance(word, str):
            word = self.presentation.alphabet.parse_word(word)
        for x in word:
            if not 0 <= x < self.presentation.alphabet.size:
                raise ValueError(f"letter {x} not in alphabet")
        e = self.walk(0, word)
        if e is not None:
            return e
        oracle = self.presentation.oracle()
        reduced = oracle.reduce(word)
        e = self.walk(0, reduced)
        if e is not None:
            return e
        # The reduced word still strayed outside.  Any element it equals is
        # no longer than it, so an oracle scan in id (shortlex) order up to
        # that length decides membership.
        limit = min(len(reduced), self.radius)
        alphabet = self.presentation.alphabet
        for u in range(self.size):
            if self.sphere_of[u] > limit:
                break
            if oracle.is_identity(reduced + inverse_word(self.normal_forms[u], alphabet)):
                return u
        return None

    def relative_element(self, u: int, v: int) -> int | None:
        """Id of u^-1 v when it lies in the ball.

        The letters of an in-ball path from u to v spell u^-1 v, and when
        the path has at most R letters every prefix stays inside the ball,
        so walking it from the identity is exact.  Only pairs with no such
        path go through ``element_of``."""
        path = self._path_word(u, v)
        if path is not None:
            return self.walk(0, path)
        word = inverse_word(self.normal_forms[u], self.presentation.alphabet) + self.normal_forms[v]
        return self.element_of(word)

    def _path_word(self, u: int, v: int) -> Word | None:
        """Letters of a shortest in-ball path from u to v, or None when it
        is longer than the radius."""
        back: dict[int, tuple[int, int] | None] = {u: None}
        frontier = [u]
        for _ in range(self.radius):
            if v in back:
                break
            nxt = []
            for w in frontier:
                for x, t in self.neighbors[w].items():
                    if t not in back:
                        back[t] = (w, x)
                        nxt.append(t)
            frontier = nxt
        if v not in back:
            return None
        letters = []
        while v != u:
            v, x = back[v]
            letters.append(x)
        return tuple(reversed(letters))

    def distance_between(self, u: int, v: int, limit: int) -> int | None:
        """Graph distance of u, v measured inside the ball, or None if it
        exceeds ``limit``.  Exact whenever some true geodesic between them
        stays inside the ball (guaranteed e.g. when
        (|u| + |v| + limit) / 2 <= radius)."""
        if u == v:
            return 0
        seen = {u}
        frontier = [u]
        for depth in range(1, limit + 1):
            nxt = []
            for w in frontier:
                for t in self.neighbors[w].values():
                    if t in seen:
                        continue
                    if t == v:
                        return depth
                    seen.add(t)
                    nxt.append(t)
            if not nxt:
                return None
            frontier = nxt
        return None

    # -- cache -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = {"text": self.presentation.text()}
        payload.update((name, getattr(self, name)) for name in _GRAPH_FIELDS)
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes, presentation: Presentation) -> "CayleyBall":
        payload = pickle.loads(data)
        if payload["text"] != presentation.text():
            raise ValueError("cached ball belongs to a different presentation")
        return cls(presentation, **{name: payload[name] for name in _GRAPH_FIELDS})


def cache_key(pres: Presentation, radius: int) -> str:
    h = hashlib.sha256()
    h.update(pres.text().encode())
    h.update(str(radius).encode())
    return h.hexdigest()[:24]


def enumerate_ball(pres: Presentation, radius: int, cap: int = DEFAULT_ELEMENT_CAP) -> CayleyBall:
    """Shortlex-BFS enumeration of the ball of the given radius.

    Candidates of sphere n+1 are generated from sphere n in shortlex order,
    so the first word reaching a new element is its shortlex normal form
    and every prefix of a stored normal form is itself stored.  A candidate
    from sphere n lies in sphere n-1, n or n+1; every edge into sphere n-1
    was recorded while that sphere was processed, so only spheres n and
    n+1 are searched, which keeps the oracle work near-linear after
    fingerprint bucketing.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    alphabet = pres.alphabet
    inv = alphabet.inverse
    oracle = pres.oracle()
    units = []
    pairs = alphabet.pairs
    slot = {}
    for k, i in enumerate(pairs):
        slot[i] = (k, 1)
        slot[alphabet.inverse[i]] = (k, -1)
    for x in range(alphabet.size):
        k, sign = slot[x]
        u = [0] * len(pairs)
        u[k] = sign
        units.append(tuple(u))

    lattice = IntegerLattice([exponent_vector(r, alphabet) for r in pres.relators])
    parity_key = bool(pres.relators) and all(len(r) % 2 == 0 for r in pres.relators)
    # A free shortcut is sound whenever there are no relators, but it is
    # only taken for the free-reduction oracle so that degenerate-Dehn runs
    # exercise the general resolution path (useful for cross-validation).
    free_shortcut = not pres.relators and pres.oracle_kind == ORACLE_FREE

    normal_forms: list[Word] = [EMPTY_WORD]
    inv_forms: list[Word] = [EMPTY_WORD]
    sphere_of: list[int] = [0]
    parent: list[int] = [-1]
    last_letter: list[int] = [-1]
    neighbors: list[dict[int, int]] = [{}]
    vecs: list[tuple[int, ...]] = [tuple([0] * len(pairs))]
    spheres: list[list[int]] = [[0]]
    # key -> sphere -> ids, so a candidate only scans the spheres it can hit
    buckets: dict[tuple, dict[int, list[int]]] = {}

    def key_of(vec: tuple[int, ...]) -> tuple:
        return lattice.reduce(vec) if not lattice.is_trivial else vec

    buckets[key_of(vecs[0])] = {0: [0]}
    is_identity = oracle.is_identity

    def resolve(cand_word: Word, cand_vec: tuple[int, ...], allowed) -> int | None:
        by_sphere = buckets.get(key_of(cand_vec))
        if not by_sphere:
            return None
        for s in allowed:
            for u in by_sphere.get(s, ()):
                if is_identity(cand_word + inv_forms[u]):
                    return u
        return None

    def add_element(cand: Word, vec, g: int, x: int, n: int, new_ids: list[int]) -> None:
        e = len(normal_forms)
        if e >= cap:
            raise BallCapExceeded(cap, [len(s) for s in spheres] + [len(new_ids)])
        normal_forms.append(cand)
        inv_forms.append(inverse_word(cand, alphabet))
        sphere_of.append(n + 1)
        parent.append(g)
        last_letter.append(x)
        neighbors.append({inv[x]: g})
        vecs.append(vec)
        neighbors[g][x] = e
        buckets.setdefault(key_of(vec), {}).setdefault(n + 1, []).append(e)
        new_ids.append(e)

    for n in range(radius):
        new_ids: list[int] = []
        for g in spheres[n]:
            nf_g = normal_forms[g]
            vec_g = vecs[g]
            for x in range(alphabet.size):
                if x in neighbors[g]:
                    continue  # edge already known from the other endpoint
                cand = nf_g + (x,)
                vec = tuple(a + b for a, b in zip(vec_g, units[x]))
                if free_shortcut:
                    found = None
                else:
                    # edges into sphere n-1 are already in neighbors[g];
                    # with even relators parity rules out sphere n
                    allowed = (n + 1,) if parity_key else (n + 1, n)
                    found = resolve(cand, vec, allowed)
                if found is not None:
                    neighbors[g][x] = found
                    neighbors[found].setdefault(inv[x], g)
                    continue
                add_element(cand, vec, g, x, n, new_ids)
        spheres.append(new_ids)

    # Boundary sweep: edges from the outer sphere downward were already
    # recorded while the lower spheres were processed, so only same-sphere
    # edges on the boundary remain -- and with even relators those cannot
    # exist (a length homomorphism to Z/2 separates adjacent elements).
    if radius > 0 and not free_shortcut and not parity_key:
        for g in spheres[radius]:
            nf_g = normal_forms[g]
            vec_g = vecs[g]
            for x in range(alphabet.size):
                if x in neighbors[g]:
                    continue
                vec = tuple(a + b for a, b in zip(vec_g, units[x]))
                found = resolve(nf_g + (x,), vec, (radius,))
                if found is not None:
                    neighbors[g][x] = found
                    neighbors[found].setdefault(inv[x], g)

    return CayleyBall(
        presentation=pres,
        radius=radius,
        normal_forms=normal_forms,
        sphere_of=sphere_of,
        parent=parent,
        last_letter=last_letter,
        neighbors=neighbors,
        spheres=spheres,
    )
