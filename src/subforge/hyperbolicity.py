"""Thin-triangle constant estimation on finite balls.

Triangles are anchored: one vertex is the identity and the other two range
over the ball of the check radius r (translation invariance of the Cayley
metric makes this cover every triangle shape of diameter <= r).  For every
triangle, every geodesic realization of every side is enumerated, and the
thinness of a point p on one side is

    min over the other two sides of (max over that side's geodesics of
        d(p, geodesic))

which is exactly the largest deviation any choice of geodesic triple can
exhibit at p.  The reported delta is the maximum over all points; it is a
lower bound for the true constant, since bigger triangles may exist
outside the checked radius.

Distances are measured inside the ball, and every one the thinness
search uses is exact.  Every vertex of a geodesic from p to v lies within
(|p| + |v| + d(p, v)) / 2 of the identity, so the in-ball BFS measures
d(p, v) exactly when |p| + |v| + d(p, v) <= 2R.  The search from p stops
by its depth D to an endpoint shared with the other sides.  For p on a
side from the identity to x, |p| <= r and D <= min(|p|, d(p, x)) <= r/2,
so every hit v at depth d <= D has |p| + |v| + d <= 2|p| + 2D <= 3r.  For
p on the side from x to y, say with d(p, x) <= d(p, y), the other sides
lie in B_r, D <= d(p, x) <= d(x, y) / 2 <= r and |p| <= r + d(p, x), so
|p| + |v| + d <= 2r + 2 d(p, x) <= 4r.  ``compute_delta`` requires
2r <= R, so 4r <= 2R: the estimate is exact on the ball and a lower bound
for the group.

Every side's geodesics are enumerated in full, with no cap.  In a free
group the geodesic between two points is unique; in a C'(1/6) group two
geodesics with the same endpoints bound a ladder of relator cells
(Strebel's classification of geodesic bigons), and on the surface preset
no anchored side up to R=6 has more than two.

The Cayley graph is vertex-transitive, so a side from x to y is x times a
side from the identity to z = x^-1 y, whose geodesics walk down the levels
the ball already stores: no distance map from x is built.  The pairs come
x by x, and z is read off the translate x^-1 B_r of the current x
(``CayleyBall.translate``, exact since |x| + r <= 2r <= R), one per x.
One walker (``enumerate_pair_geodesics``) goes back from y and from z in
step: the letters that take z's side one level down are the letters that
take the x-y side one step toward x.  Each element's descending letters
are found once per run and kept (``_Descents``), and a side with several
geodesics has them sorted by the walk back from y.  The sides from the
identity are walked by the same walker (z = y) and kept for the run with
the vertex set of each geodesic and the vertices on all of them.  The only
BFS left is the thinness search from a point, grown one layer at a time to
the first depth where every geodesic of one other side has been met; its
layers are shallow and kept for the run.

Every anchored triangle is covered, but only one per symmetry orbit is
computed.  A letter symmetry sigma of the presentation
(``letter_symmetries``) is a Cayley graph automorphism that fixes the
identity and keeps word length, so it maps B_R onto itself with in-ball
distances intact: the triangle (1, sigma x, sigma y) has the same
thinness as (1, x, y).  Only the pairs (x, y) that are lexicographically
least in their orbit {sorted(sigma x, sigma y)} are computed.  The first maximal pair in
enumeration order is least in its own orbit, so the witness is the one
the unreduced loop finds.  The search for the symmetries grows as
2^k k! in the number k of generator pairs, so it is run only when that
count is at most the number of triangles; otherwise every triangle is
computed.

Each end of a side lies on every geodesic of one of the other two sides,
so a point at distance i from one end of a side of length L has thinness
at most min(i, L - i) <= L // 2.  The sides have lengths |x|, |y| and
|z| = d(x, y), so no value of the triangle (1, x, y) exceeds
max(|x|, |y|, |z|) // 2, one list read once z is known.  A chunk passes
its running value v to each triangle: one with max(|x|, |y|, |z|) // 2 <= v
is not searched, and on each geodesic only the points farther than the
larger of v and the triangle's best so far from both ends are measured.
A point on every geodesic of another side has thinness 0, read off that
side's kept intersection without a search; once the value to beat is 0 or
more it is skipped.  What is skipped cannot exceed the value it would be
compared with, so every strict comparison that can change the result takes
the same branch, and the value and witness are those of the full search.

The triangles are independent, so from ``FORK_PAIRS`` computed pairs on
they are cut into one contiguous chunk per CPU (``parallel.fork_map``).
Each chunk keeps its own ``_DeltaRun`` and returns its
first maximal triangle; the chunks are merged in order with the same
strict comparison, so the value and witness are those of one loop over
every triangle, whatever the chunk count.  Below ``FORK_PAIRS`` the pairs
run as one chunk in the process, where a fork does not pay for itself (and
a second chunk starts with no running value to prune by).  One chunk
against two, in process on a 2-vCPU VM: surface2 R=7 (26,335 pairs)
0.14-0.26 against 0.17-0.35 s, ``BBAABabAAbABA`` R=11 (117,855) 0.64-0.76
against 0.47-0.57 s, and f2 R=12 (133,246) 1.14-1.54 against 0.84-1.80 s.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from . import log
from .ball import CayleyBall, TrustRadiusError
from .parallel import cpu_count, fork_map, split
from .presentation import letter_symmetries
from .words import inverse_word

# computed pairs from which the triangles are split over the CPUs: the
# break-even lies between 26,335 and 117,855 (module docstring)
FORK_PAIRS = 100_000


class _Descents:
    """The letters that step each element one level down, learned the
    first time a walk passes the element and kept for the run.
    ``kinds[code[e]]`` is e's tuple of descending letters in increasing
    order, and the empty tuple (code 0) until e is learned.  Few distinct
    tuples occur, so ``code`` is an array of small indices into ``kinds``:
    two bytes per element of B_2r while the alphabet has at most 16
    letters, and at most 2^16 tuples can occur."""

    __slots__ = ("ball", "code", "kinds")

    def __init__(self, ball: CayleyBall, n: int):
        self.ball = ball
        self.code = array("H" if ball.degree <= 16 else "I", [0]) * n
        self.kinds: list[tuple[int, ...]] = [()]

    def learn(self, e: int) -> tuple[int, ...]:
        sphere_of, table, a = self.ball.sphere_of, self.ball.table, self.ball.degree
        level = sphere_of[e]
        letters = tuple(b for b, t in enumerate(table[e * a : e * a + a]) if t >= 0 and sphere_of[t] < level)
        kinds = self.kinds
        if letters not in kinds:
            kinds.append(letters)
        self.code[e] = kinds.index(letters)
        return letters


def _with_sets(geodesics: list[tuple[int, ...]]):
    """A side: its geodesics, the vertex set of each, and the vertices on
    every one of them."""
    sets = [set(geo) for geo in geodesics]
    return geodesics, sets, sets[0].intersection(*sets[1:]) if len(sets) > 1 else sets[0]


class _DeltaRun:
    """What one delta computation keeps for the run: the BFS layers over
    the in-ball graph around each thinness point, grown on demand (a
    search from a point rarely goes past a few layers), each side from the
    identity with its vertex sets, which most triangles share, the
    descending letters of every element a side walk has passed, and the
    translate x^-1 B_r of the current x, from which each x^-1 y is read.
    The pairs come x by x, so one translate serves every pair of an x."""

    def __init__(self, ball: CayleyBall, r: int):
        self.ball, self.r = ball, r
        self.descents = _Descents(ball, ball.sphere(2 * r).stop)
        self._state: dict[int, tuple[set[int], list[list[int]]]] = {}
        self._anchored: dict[int, tuple] = {}
        self._x, self._image = 0, None

    def expand(self, source: int, depth: int) -> list[list[int]]:
        """Layers of the BFS from ``source`` out to ``depth`` (or until the
        ball is exhausted)."""
        st = self._state.get(source)
        if st is None:
            st = self._state[source] = ({source}, [[source]])
        seen, layers = st
        table, a = self.ball.table, self.ball.degree
        while len(layers) - 1 < depth and layers[-1]:
            nxt = []
            for v in layers[-1]:
                for w in table[v * a : v * a + a]:
                    if w >= 0 and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            layers.append(nxt)
        return layers

    def quotient(self, x: int, y: int) -> int:
        """x^-1 y for y in B_r, read off the translate x^-1 B_r, which is
        exact because |x| + r <= 2r <= R."""
        if not x:
            return y
        if x != self._x:
            ball = self.ball
            x_inv = ball.walk(0, inverse_word(ball.normal_form(x), ball.presentation.alphabet))
            self._x, self._image = x, ball.translate(x_inv, self.r)
        return self._image[y]

    def anchored(self, b: int):
        """The side from the identity to b (``_with_sets``), walked once
        per run."""
        side = self._anchored.get(b)
        if side is None:
            geos = enumerate_pair_geodesics(self.ball, 0, b, z=b, descents=self.descents)
            side = self._anchored[b] = _with_sets(geos)
        return side

    def sides(self, x: int, y: int, z: int):
        """The sides id-x, id-y and x-y of a triangle, z = x^-1 y."""
        if not x:
            side = self.anchored(y)
            return self.anchored(0), side, side
        geos = enumerate_pair_geodesics(self.ball, x, y, z=z, descents=self.descents)
        return self.anchored(x), self.anchored(y), _with_sets(geos)


def enumerate_pair_geodesics(ball: CayleyBall, x: int, y: int, z: int | None = None,
                             descents: _Descents | None = None) -> list[tuple[int, ...]]:
    """Every geodesic vertex path from x to y, in deterministic order (the
    paths walked back from y, taking neighbours in increasing id order).

    The geodesics from x to y are x times the geodesics from the identity
    to z = x^-1 y, so no distance map from x is needed: the walk goes back
    from y and from z in step, and a letter b steps toward x exactly where
    it steps z's side one level down.  A caller that knows z passes it,
    and ``descents`` keeps each element's descending letters across calls.
    Requires |x| + |y| <= radius, so that z and every geodesic between x
    and y lie inside the ball.
    """
    sphere_of, table, a = ball.sphere_of, ball.table, ball.degree
    if sphere_of[x] + sphere_of[y] > ball.radius:
        raise TrustRadiusError(
            f"geodesics between lengths {sphere_of[x]} and {sphere_of[y]} need radius "
            f"{sphere_of[x] + sphere_of[y]}"
        )
    if z is None:
        x_inv = inverse_word(ball.normal_form(x), ball.presentation.alphabet)
        z = ball.walk(0, x_inv + ball.normal_form(y))
    if descents is None:
        descents = _Descents(ball, z + 1)  # the walk only goes down from z
    code, kinds = descents.code, descents.kinds
    # each walk: its path from y so far, the path's end v and v's image
    # l = x^-1 v on the side from the identity to z
    paths: list[list[int]] = []
    walks = [([y], y, z)]
    while walks:
        path, v, l = walks.pop()
        while l:
            letters = kinds[code[l]] or descents.learn(l)
            for b in letters[1:]:  # a branch: walked after this path
                w = table[v * a + b]
                walks.append((path + [w], w, table[l * a + b]))
            b = letters[0]
            v = table[v * a + b]
            l = table[l * a + b]
            path.append(v)
        paths.append(path)
    if len(paths) > 1:
        paths.sort()  # by the walk back from y, neighbours in id order
    return [tuple(reversed(path)) for path in paths]


class TriangleWitness(NamedTuple):
    """Triangle (identity, x, y) realizing the reported thinness at
    ``point`` on side ``side`` (0: id-x, 1: id-y, 2: x-y)."""

    x: int
    y: int
    side: int
    point: int
    value: int


class DeltaEstimate(NamedTuple):
    delta: float
    radius_checked: int
    witness: TriangleWitness | None
    triangles: int  # anchored triangles checked
    triangles_computed: int  # of which computed: one per symmetry orbit
    is_lower_bound: bool = True


def _point_thinness(run, p, other_sides):
    """min over the two other sides of (max over geodesics of d(p, geo)).

    ``other_sides`` holds, per side, the vertex set of each of its
    geodesics.  The BFS from p is expanded one layer at a time and stops
    as soon as one side has every geodesic hit.
    """
    targets = list(other_sides)
    maxima = [0, 0]
    depth = 0
    while True:
        layers = run.expand(p, depth)
        if depth >= len(layers):
            raise AssertionError("thinness BFS exhausted the ball")
        layer = set(layers[depth])
        for si in (0, 1):
            remaining = []
            for geo in targets[si]:
                if geo.isdisjoint(layer):
                    remaining.append(geo)
                elif depth > maxima[si]:
                    maxima[si] = depth
            targets[si] = remaining
            if not remaining:
                return maxima[si]
        depth += 1


def triangle_thinness(run, x, y, floor=-1):
    """Worst thinness value over all points of all sides of the anchored
    triangle (identity, x, y); returns (value, witness).  A triangle or a
    point that cannot exceed the larger of ``floor`` and the best value
    found so far is not measured (module docstring): a triangle whose
    worst value is at most ``floor`` may return less, down to (-1, None),
    and any other returns the value and witness of the full search."""
    sphere_of = run.ball.sphere_of
    z = run.quotient(x, y)
    if max(sphere_of[x], sphere_of[y], sphere_of[z]) // 2 <= floor:
        return -1, None
    sides = run.sides(x, y, z)
    best = (-1, None)
    v = floor
    for si in range(3):
        _, sets1, on1 = sides[(si + 1) % 3]
        _, sets2, on2 = sides[(si + 2) % 3]
        others = (sets1, sets2)
        geos = sides[si][0]
        # points already measured on another geodesic of this side
        seen_points = set() if len(geos) > 1 else None
        for geo in geos:
            # a point within v of an end of its side is within v of another side
            for p in geo[v + 1 : len(geo) - 1 - v]:
                if seen_points is not None:
                    if p in seen_points:
                        continue
                    seen_points.add(p)
                if p in on1 or p in on2:
                    # on every geodesic of another side: thinness 0, which
                    # beats nothing once the value to beat is 0 or more
                    if v >= 0:
                        continue
                    value = 0
                else:
                    value = _point_thinness(run, p, others)
                if value > best[0]:
                    best = (value, TriangleWitness(x, y, si, p, value))
                    v = max(value, floor)
    return best


def _orbit_representatives(n, images):
    """The pairs x <= y of range(n), in lexicographic order, that are least
    in their orbit {sorted(image[x], image[y]) for image in images}."""
    for x in range(n):
        if any(image[x] < x for image in images):
            continue  # every pair (x, y) has an image below it
        for y in range(x, n):
            for image in images:
                a, b = image[x], image[y]
                if a > b:
                    a, b = b, a
                if a < x or (a == x and b < y):
                    break
            else:
                yield x, y


def compute_delta(ball: CayleyBall, r: int) -> DeltaEstimate:
    """Max thinness over anchored triangles with the two free vertices in
    the ball of radius r.  Requires 2r <= ball.radius so that every side
    geodesic stays inside the ball.

    Every pair x <= y of B_r is covered, but only one per orbit of the
    presentation's letter symmetries is computed (module docstring).  From
    ``FORK_PAIRS`` computed pairs on, the triangles are computed in
    parallel chunks, one per CPU, with the result of a single loop."""
    if r < 0:
        raise ValueError("delta radius must be >= 0")
    if 2 * r > ball.radius:
        raise ValueError(f"delta radius {r} needs ball radius >= {2 * r}")
    n = ball.sphere(r).stop  # B_r is range(n)
    triangles = n * (n + 1) // 2
    images = []
    # The search tries the 2^k k! signed permutations of the k generator
    # pairs; each symmetry it keeps (every candidate, in a free group) is
    # mapped over B_r and tested against the pairs.  Per candidate that is
    # a fraction of one triangle's cost, so the quotient is taken only
    # when there are no more candidates than triangles: F5 (3,840
    # candidates) is 6x slower with it at r=1 (66 triangles) and 2x faster
    # at r=2 (5,151).
    k = len(ball.presentation.alphabet.pairs)
    if 2**k * math.factorial(k) <= triangles:
        # the identity comes first and is left out
        images = [ball.translate(0, r, s) for s in letter_symmetries(ball.presentation)[1:]]
    pairs = list(_orbit_representatives(n, images))

    def chunk_thinness(chunk):
        # the first maximal triangle of the chunk, its witness as a tuple
        # so that it crosses the pipe
        run = _DeltaRun(ball, r)
        value, witness = -1, None
        for x, y in chunk:
            v, w = triangle_thinness(run, x, y, value)
            if v > value:
                value, witness = v, w
        return value, None if witness is None else tuple(witness)

    chunks = split(pairs) if len(pairs) >= FORK_PAIRS else [pairs]
    log.info(
        "delta: %s computed triangles in %d chunk(s), %d CPU(s) in the affinity mask",
        f"{len(pairs):,}", len(chunks), cpu_count(),
    )
    value, witness = -1, None
    for v, w in fork_map(chunk_thinness, chunks):
        if v > value:
            value, witness = v, TriangleWitness(*w)
    return DeltaEstimate(
        delta=float(max(value, 0)),
        radius_checked=r,
        witness=witness,
        triangles=triangles,
        triangles_computed=len(pairs),
    )
