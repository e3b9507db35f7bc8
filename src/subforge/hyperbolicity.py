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
side from the identity to x^-1 y, whose geodesics walk down the levels
the ball already stores: no distance map from x is built.  The only BFS
left is the thinness search from a point, grown one layer at a time to
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
at most min(i, L - i).  No side is longer than |x| + |y|, so no value of
the triangle (1, x, y) exceeds (|x| + |y|) // 2.  A chunk passes its
running value v to each triangle: one with (|x| + |y|) // 2 <= v is not
searched, and on each geodesic only the points farther than the larger
of v and the triangle's best so far from both ends are measured.  What
is skipped cannot exceed the value it would be compared with, so every
strict comparison that can change the result takes the same branch, and
the value and witness are those of the full search.

The triangles are independent, so from ``FORK_PAIRS`` computed pairs on
they are cut into one contiguous chunk per CPU (``parallel.fork_map``).
Each chunk keeps its own BFS layers and anchored sides and returns its
first maximal triangle; the chunks are merged in order with the same
strict comparison, so the value and witness are those of one loop over
every triangle, whatever the chunk count.  Below ``FORK_PAIRS`` the pairs
run as one chunk in the process, where a fork does not pay for itself (and
a second chunk starts with no running value to prune by).  One chunk
against two on a 2-vCPU VM: surface2 R=5 (561 pairs) 5 against 13 ms,
f2 R=8 (1,691) 40-60 ms either way, surface2 R=7 (26,335) 0.56-0.72
against 0.67-0.76 s in the CLI, and f2 R=12 (133,246) 3.9-4.8 against
2.9 s.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import log
from .ball import CayleyBall, TrustRadiusError
from .parallel import cpu_count, fork_map, split
from .presentation import letter_symmetries
from .words import inverse_word

# computed pairs from which the triangles are split over the CPUs: the
# break-even lies between 26,335 and 133,246 (module docstring)
FORK_PAIRS = 100_000


class _DeltaRun:
    """What one delta computation keeps for the run: the BFS layers over
    the in-ball graph around each thinness point, grown on demand (a
    search from a point rarely goes past a few layers), and the geodesics
    of each side from the identity, which most triangles share."""

    def __init__(self, ball: CayleyBall):
        self.ball = ball
        self._state: dict[int, tuple[set[int], list[list[int]]]] = {}
        self._anchored: dict[int, list[tuple[int, ...]]] = {}

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

    def side(self, a: int, b: int) -> list[tuple[int, ...]]:
        """Every geodesic from a to b (``enumerate_pair_geodesics``); a
        side from the identity is enumerated once per run."""
        if a == b:
            return [(a,)]
        if a:
            return enumerate_pair_geodesics(self.ball, a, b)
        geos = self._anchored.get(b)
        if geos is None:
            geos = self._anchored[b] = enumerate_pair_geodesics(self.ball, 0, b)
        return geos


def enumerate_pair_geodesics(ball: CayleyBall, x: int, y: int) -> list[tuple[int, ...]]:
    """Every geodesic vertex path from x to y, in deterministic order (the
    paths walked back from y, taking neighbours in increasing id order).

    The geodesics from x to y are x times the geodesics from the identity
    to z = x^-1 y, so no distance map from x is needed: the walk goes back
    from y and from z in step, and a letter a steps toward x exactly where
    it steps z's side one level down.  Requires |x| + |y| <= radius, so
    that z and every geodesic between x and y lie inside the ball.
    """
    sphere_of, table, a = ball.sphere_of, ball.table, ball.degree
    if sphere_of[x] + sphere_of[y] > ball.radius:
        raise TrustRadiusError(
            f"geodesics between lengths {sphere_of[x]} and {sphere_of[y]} need radius "
            f"{sphere_of[x] + sphere_of[y]}"
        )
    if x == 0:
        z = y
    else:
        x_inv = inverse_word(ball.normal_form(x), ball.presentation.alphabet)
        z = ball.walk(0, x_inv + ball.normal_form(y))
    paths: list[tuple[int, ...]] = []
    stack = [y]

    def rec(v: int, l: int) -> None:
        if l == 0:
            paths.append(tuple(reversed(stack)))
            return
        level = sphere_of[l]
        i, j = v * a, l * a
        steps = [(table[i + b], t) for b, t in enumerate(table[j : j + a]) if t >= 0 and sphere_of[t] < level]
        if len(steps) > 1:
            steps.sort()
        for w, t in steps:
            stack.append(w)
            rec(w, t)
            stack.pop()

    rec(y, z)
    return paths


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


def _side_geodesics(run, x, y):
    return [run.side(a, b) for a, b in ((0, x), (0, y), (x, y))]


def _point_thinness(run, p, other_sides):
    """min over the two other sides of (max over geodesics of d(p, geo)).

    ``other_sides`` holds, per side, the vertex set of each of its
    geodesics.  A point on every geodesic of one side has thinness 0 and
    builds no BFS state; otherwise the BFS from p is expanded one layer at
    a time and stops as soon as one side has every geodesic hit.
    """
    # plain loops: written as any(all(...)), the generators cost more than
    # the BFS state saved (delta on f2 R=8 r=4 +10%, against -40% here)
    for side in other_sides:
        for geo in side:
            if p not in geo:
                break
        else:
            return 0
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
    triangle (identity, x, y); returns (value, witness).  A point that
    cannot exceed the larger of ``floor`` and the best value found so far
    is not measured (module docstring): a triangle whose worst value is at most
    ``floor`` may return less, down to (-1, None), and any other returns
    the value and witness of the full search."""
    sphere_of = run.ball.sphere_of
    if (sphere_of[x] + sphere_of[y]) // 2 <= floor:
        return -1, None
    sides = _side_geodesics(run, x, y)
    vertex_sets = [[set(geo) for geo in side] for side in sides]
    best = (-1, None)
    for si in range(3):
        others = [vertex_sets[(si + 1) % 3], vertex_sets[(si + 2) % 3]]
        seen_points = set()
        for geo in sides[si]:
            # a point within v of an end of its side is within v of another side
            v = max(best[0], floor)
            for p in geo[v + 1 : len(geo) - 1 - v]:
                if p in seen_points:
                    continue
                seen_points.add(p)
                value = _point_thinness(run, p, others)
                if value > best[0]:
                    best = (value, TriangleWitness(x, y, si, p, value))
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
        run = _DeltaRun(ball)
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
