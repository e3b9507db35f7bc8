"""Reference routines that only tests use.

Unlike ``bruteforce``, these are built on the production ball, delta and
closeness machinery: they re-derive, by a second and slower route, values
the pipeline computes (all geodesics to an element, the acceptor's
language, a witness triangle's thinness, a vertex's cone neighborhood).
"""

from __future__ import annotations

import random

from subforge.ball import CayleyBall, GeodesicCapExceeded
from subforge.hyperbolicity import (
    DEFAULT_GEODESIC_CAP,
    TriangleWitness,
    _LazyDistances,
    _point_thinness,
    _side_geodesics,
    triangle_thinness,
)
from subforge.language import ConeTypeTable, InternalConsistencyError, WordAcceptor
from subforge.subdivision import VertexLabel, geodesically_close
from subforge.words import Word

# -- geodesics from the identity ---------------------------------------------


def _geodesic_layers(ball: CayleyBall, g: int) -> list[dict[int, None]]:
    """Layer t holds the vertices v on geodesics from the identity to g
    with d(v, g) = t (so |v| = |g| - t)."""
    target_len = ball.sphere_of[g]
    layers: list[dict[int, None]] = [{g: None}]
    for t in range(1, target_len + 1):
        want = target_len - t
        layer: dict[int, None] = {}
        for v in layers[t - 1]:
            for w in ball.neighbors[v].values():
                if ball.sphere_of[w] == want:
                    layer[w] = None
        layers.append(layer)
    return layers


def geodesics_between(ball: CayleyBall, g: int, cap: int | None = None):
    """Yield every geodesic word from the identity to g, in shortlex
    order; the first word is the normal form.  Raises
    GeodesicCapExceeded past ``cap``."""
    layers = _geodesic_layers(ball, g)
    n = ball.sphere_of[g]
    on_geodesic = [set(layer) for layer in layers]
    count = 0
    stack: list[int] = []

    def rec(v: int, depth: int):
        nonlocal count
        if depth == n:
            if v == g:
                count += 1
                if cap is not None and count > cap:
                    raise GeodesicCapExceeded(cap, count - 1)
                yield tuple(stack)
            return
        allowed = on_geodesic[n - depth - 1]
        for x in sorted(ball.neighbors[v]):
            w = ball.neighbors[v][x]
            if w in allowed:
                stack.append(x)
                yield from rec(w, depth + 1)
                stack.pop()

    yield from rec(0, 0)


def count_geodesics(ball: CayleyBall, g: int) -> int:
    layers = _geodesic_layers(ball, g)
    n = ball.sphere_of[g]
    ways = {0: 1}
    for depth in range(n):
        allowed = layers[n - depth - 1]
        nxt: dict[int, int] = {}
        for v, c in ways.items():
            for w in ball.neighbors[v].values():
                if w in allowed:
                    nxt[w] = nxt.get(w, 0) + c
        ways = nxt
    return ways.get(g, 0)


# -- acceptor ------------------------------------------------------------------


def language(acceptor: WordAcceptor, max_len: int):
    """Yield accepted words up to ``max_len`` in shortlex order."""
    frontier: list[tuple[Word, int]] = [((), acceptor.initial)]
    yield ()
    for _ in range(max_len):
        nxt: list[tuple[Word, int]] = []
        for word, s in frontier:
            for (state, letter), t in sorted(acceptor.transitions.items()):
                if state == s:
                    w = word + (letter,)
                    yield w
                    nxt.append((w, t))
        frontier = nxt


# -- thin triangles ------------------------------------------------------------


def reevaluate_witness(ball: CayleyBall, witness: TriangleWitness, geo_cap=DEFAULT_GEODESIC_CAP) -> int:
    """Recompute the thinness value of a stored witness triangle."""
    dists = _LazyDistances(ball)
    warnings: list[str] = []
    sides, _ = _side_geodesics(ball, dists, witness.x, witness.y, geo_cap, warnings)
    others = [sides[(witness.side + 1) % 3], sides[(witness.side + 2) % 3]]
    value, _ = _point_thinness(ball, dists, witness.point, others)
    return value


def validate_delta(
    ball: CayleyBall,
    delta: float,
    samples: int,
    seed: int = 0,
    r: int | None = None,
    geo_cap: int = DEFAULT_GEODESIC_CAP,
):
    """Sample anchored triangles and check delta-thinness; returns
    (passed, counterexample witness or None)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if r is None:
        r = ball.radius // 2
    rng = random.Random(seed)
    ids = [e for e in range(ball.size) if ball.sphere_of[e] <= r]
    dists = _LazyDistances(ball)
    warnings: list[str] = []
    for _ in range(samples):
        x, y = rng.choice(ids), rng.choice(ids)
        value, witness, _, _ = triangle_thinness(ball, dists, x, y, geo_cap, warnings)
        if value > delta:
            return False, witness
    return True, None


# -- vertex labels -------------------------------------------------------------


def cone_neighborhood(
    ball: CayleyBall, table: ConeTypeTable, g: int, horizon: int | None = None
) -> VertexLabel:
    """Cone K-neighborhood of g: each h with |h| < K and (g, g h)
    geodesically close, tagged with the cone type of g h."""
    k = table.k
    horizon = ball.radius if horizon is None else horizon
    level = ball.sphere_of[g]
    if level + k > ball.radius:
        raise ValueError(f"cone neighborhood of |g|={level} needs radius {level + k}")
    members = []
    for h in range(1, ball.size):
        if ball.sphere_of[h] >= k:
            break
        gh = ball.walk(g, ball.normal_forms[h])
        if gh is None:
            raise InternalConsistencyError("in-trust walk left the ball")
        if gh == g or ball.sphere_of[gh] != level:
            continue
        if geodesically_close(ball, g, gh, horizon) is not None:
            members.append((ball.normal_forms[h], table.class_of[gh]))
    members.sort(key=lambda m: ((len(m[0]), m[0]), m[1]))
    return VertexLabel(own_type=table.class_of[g], neighborhood=tuple(members))
