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

Distances are measured inside the ball.  A measured distance d(p, v) is
certified exact when (|p| + |v| + d) / 2 <= R, which forces some true
geodesic to stay inside; measurements failing the certificate only ever
overestimate and are flagged so the estimate never silently stops being a
lower bound.

Every side's geodesics are enumerated in full, with no cap.  In a free
group the geodesic between two points is unique; in a C'(1/6) group two
geodesics with the same endpoints bound a ladder of relator cells
(Strebel's classification of geodesic bigons), and on the surface preset
no anchored side up to R=6 has more than two.  The mode reported is
always the mode requested.

All distances come from one BFS per source vertex, kept for the whole run
and grown only as far as a query needs: the geodesics of a side from x to
y stop at the first layer that holds y, and the thinness search from a
point stops at the first depth where every geodesic of one other side has
been met.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ball import CayleyBall

MODE_EXHAUSTIVE = "exhaustive-triangles"
MODE_SAMPLED = "sampled-triangles"
DELTA_MODES = (MODE_EXHAUSTIVE, MODE_SAMPLED)


class _LazyDistances:
    """Per-source BFS over the in-ball graph, grown on demand and kept.

    Each source keeps its distance map and its layers, and a query expands
    them only as far as its answer needs: ``expand`` out to a depth (the
    thinness search from a point), ``reach`` until the layer that holds a
    target (the geodesics of one pair).
    """

    def __init__(self, ball: CayleyBall):
        self.ball = ball
        self._state: dict[int, tuple[dict[int, int], list[list[int]]]] = {}

    def _entry(self, source: int):
        st = self._state.get(source)
        if st is None:
            st = ({source: 0}, [[source]])
            self._state[source] = st
        return st

    def expand(self, source: int, depth: int) -> list[list[int]]:
        """Layers of the BFS from ``source`` out to ``depth`` (or until the
        ball is exhausted)."""
        dist, layers = self._entry(source)
        neighbors = self.ball.neighbors
        while len(layers) - 1 < depth and layers[-1]:
            nxt = []
            d = len(layers)
            for v in layers[-1]:
                for w in neighbors[v].values():
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            layers.append(nxt)
        return layers

    def reach(self, source: int, target: int, limit: int) -> dict[int, int] | None:
        """Distance map from ``source``, grown one layer at a time until the
        layer that holds ``target``; None when ``target`` lies farther than
        ``limit`` or outside the component.

        Every distance below d(source, target) in the map is final, and a
        vertex missing from it is at least that far, which is all a walk
        down from ``target`` along decreasing distances reads.
        """
        dist, layers = self._entry(source)
        while target not in dist and layers[-1] and len(layers) <= limit:
            self.expand(source, len(layers))
        return dist if target in dist else None


def enumerate_pair_geodesics(
    ball: CayleyBall, dists: _LazyDistances, x: int, y: int
) -> list[tuple[int, ...]]:
    """Every geodesic vertex path from x to y, in deterministic order (the
    paths walked back from y, taking neighbours in increasing id order).

    Valid whenever the true geodesics stay in the ball, which holds for
    the anchored-triangle sides used here.
    """
    field = dists.reach(x, y, 2 * ball.radius)
    if field is None:
        raise ValueError("pair not connected inside the ball")
    paths: list[tuple[int, ...]] = []
    stack = [y]

    def rec(v: int) -> None:
        if v == x:
            paths.append(tuple(reversed(stack)))
            return
        dv = field[v]
        for w in sorted(ball.neighbors[v].values()):
            if field.get(w) == dv - 1:
                stack.append(w)
                rec(w)
                stack.pop()

    rec(y)
    return paths


@dataclass(frozen=True)
class TriangleWitness:
    """Triangle (identity, x, y) realizing the reported thinness at
    ``point`` on side ``side`` (0: id-x, 1: id-y, 2: x-y)."""

    x: int
    y: int
    side: int
    point: int
    value: int


@dataclass
class DeltaEstimate:
    delta: float
    radius_checked: int
    mode: str
    witness: TriangleWitness | None
    triangles: int  # anchored triangles checked
    is_lower_bound: bool = True
    exact_distances: bool = True


def _side_geodesics(ball, dists, x, y):
    return [
        [(a,)] if a == b else enumerate_pair_geodesics(ball, dists, a, b)
        for a, b in ((0, x), (0, y), (x, y))
    ]


def _point_thinness(ball, dists, p, other_sides):
    """min over the two other sides of (max over geodesics of d(p, geo)).

    ``other_sides`` holds, per side, the vertex set of each of its
    geodesics.  Expands the BFS from p one layer at a time and stops as
    soon as one side has every geodesic hit.  Returns (value, exact_flag).
    """
    targets = list(other_sides)
    maxima = [0, 0]
    exact = True
    depth = 0
    while True:
        layers = dists.expand(p, depth)
        if depth >= len(layers):
            raise AssertionError("thinness BFS exhausted the ball")
        layer = set(layers[depth])
        for si in (0, 1):
            remaining = []
            for geo in targets[si]:
                common = geo & layer
                if common:
                    if depth > maxima[si]:
                        maxima[si] = depth
                    hit = next(iter(common))
                    if ball.sphere_of[p] + ball.sphere_of[hit] + depth > 2 * ball.radius:
                        exact = False
                else:
                    remaining.append(geo)
            targets[si] = remaining
            if not remaining:
                return maxima[si], exact
        depth += 1


def triangle_thinness(ball, dists, x, y):
    """Worst thinness value over all points of all sides of the anchored
    triangle (identity, x, y); returns (value, witness, exact_flag)."""
    sides = _side_geodesics(ball, dists, x, y)
    vertex_sets = [[set(geo) for geo in side] for side in sides]
    best = (-1, None, True)
    for si in range(3):
        others = [vertex_sets[(si + 1) % 3], vertex_sets[(si + 2) % 3]]
        seen_points = set()
        for geo in sides[si]:
            for p in geo:
                if p in seen_points:
                    continue
                seen_points.add(p)
                value, exact = _point_thinness(ball, dists, p, others)
                if value > best[0]:
                    best = (value, TriangleWitness(x, y, si, p, value), exact)
                elif value == best[0] and not exact:
                    best = (best[0], best[1], best[2] and exact)
    return best


def _pairs_exhaustive(ids):
    for i, x in enumerate(ids):
        for y in ids[i:]:
            yield x, y


def compute_delta(
    ball: CayleyBall,
    r: int,
    mode: str = MODE_EXHAUSTIVE,
    samples: int = 2000,
    seed: int = 0,
) -> DeltaEstimate:
    """Max thinness over anchored triangles with the two free vertices in
    the ball of radius r.  Requires 2r <= ball.radius so that every side
    geodesic stays inside the ball."""
    if r < 0:
        raise ValueError("delta radius must be >= 0")
    if 2 * r > ball.radius:
        raise ValueError(f"delta radius {r} needs ball radius >= {2 * r}")
    ids = range(ball.sphere(r).stop)  # B_r
    if mode == MODE_EXHAUSTIVE:
        pairs = _pairs_exhaustive(ids)
    elif mode == MODE_SAMPLED:
        rng = random.Random(seed)
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(samples)]
    else:
        raise ValueError(f"unknown delta mode {mode!r}")

    dists = _LazyDistances(ball)
    value, witness, exact = -1, None, True
    triangles = 0
    for x, y in pairs:
        triangles += 1
        v, w, ex = triangle_thinness(ball, dists, x, y)
        if v > value:
            value, witness = v, w
        exact = exact and ex
    return DeltaEstimate(
        delta=float(max(value, 0)),
        radius_checked=r,
        mode=mode,
        witness=witness,
        triangles=triangles,
        exact_distances=exact,
    )
