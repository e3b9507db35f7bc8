"""Quasi-isometry checks between the subdivision graph and the Cayley graph.

The vertex correspondence is the canonical bijection (same ids), so the
density clause of a quasi-isometry holds with constant 0 and is not a
check; the work is in the four directed edge-distance checks:

  (a) every vertical edge is a Cayley edge;
  (b) endpoints of a horizontal edge are less than 2*delta + 2 apart (the
      closeness lemma: for an integer length d this is
      d <= ceil(2*delta) + 1; a pipeline run searches candidates within
      that K, so there (b) restates the candidate radius, and it fails
      only on a graph built with a larger ``k_override`` or given a
      longer edge);
  (c) a same-level Cayley edge forces a horizontal edge;
  (d) a level-changing Cayley edge maps to distance <= 2 (via the upper
      endpoint's predecessor).

Checks quantify over the levels where horizontal-edge data is complete.
The empirical QI constant measures sampled vertex pairs in one loop, in
the process (``estimate_qi_constants``).  One chunk against two forked
ones, in process on a 2-vCPU VM with equal results: surface2 R=5 at delta
1.0 (36 pairs) 0.3 against 3.1-3.4 ms, R=6 at delta 1.0 (2,000 pairs,
both graphs searched over rows) 42-49 against 50-56 ms, R=7 at delta 0.5
(rows over all 1,085,905 elements, built before any fork) 1.9-2.8
against 2.2-3.0 s, and R=8 at delta 1.0 (rows over 7.58M elements)
11.6-13.2 against 10.2-14.3 s in single runs.  R=7 at delta 1.0 was
within 2% either way, so a fork gains at most about a second, at R=8.

Each pair's Cayley distance is measured over the rows of B_c, where c is
the geodesic ceiling of the trusted levels (``_geodesic_ceiling``); this
gives the in-ball distance that the whole ball gives.  Two facts bound c.

From above: for trusted u and v the tree path through the identity gives
d(u, v) <= |u| + |v| <= 2 n_max, and every vertex w on a u-v geodesic has
|w| <= (|u| + |v| + d(u, v)) / 2 <= 2 n_max, so no such geodesic leaves
B_{2 n_max}, and a shortest in-ball path stays in B_M, M = min(R, 2 n_max).

From the tree: call a table entry a tree entry when it is a parent link
of the geodesic tree, read from either end (w's entry for its parent, or
a parent's entry for its child).  Take a shortest in-ball path between u
and v whose highest level m lies above |u| and |v|.  Its vertices on
level m come in runs, each entered from level m - 1 and left to it.  A
run of one vertex w has two distinct neighbours on the path one level
down (else the path backtracks), and at most one is w's parent; a longer
run starts with a vertex whose next vertex shares its level.  Either way
a row on level m holds an entry that is not a tree entry.  So no shortest
in-ball path between trusted vertices climbs above the highest level in
(n_max, M] whose rows hold such an entry, or above n_max when none does.

When a graph's rows are exactly the geodesic tree on their vertices, a
pair's distance is read off the tree and no rows are built.  The Cayley
graph of B_c is that tree when the entries of B_c's rows that lie in B_c
number 2(|B_c| - 1) (``_is_geodesic_tree``): each parent link is such an
entry at both of its ends, in two distinct places, so any other entry,
a repeated one included, raises the count.  The subdivision graph of the
trusted levels is that tree when they hold no horizontal edge.  On a tree
the only path between u and v without backtracking runs through their
lowest common ancestor, so the search over the rows returns the tree
distance |u| + |v| - 2|lca(u, v)| (``_tree_distance``), which for the
Cayley rows is the in-ball distance by the argument above.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .ball import CayleyBall, bidirectional_distance
from .subdivision import SubdivisionGraph, horizontal_edge_length, working_constant

log = logging.getLogger(__name__)

# rows compared per step of the geodesic-ceiling scan: a level with an
# entry off the tree usually stops the scan after one small slice
_CEILING_CHUNK = 4096


@dataclass
class QiCheck:
    name: str
    description: str
    domain_size: int
    max_observed: float | None
    bound: float | None
    passed: bool
    witness: tuple | None = None


@dataclass
class QiReport:
    checks: list[QiCheck]
    empirical_k: float | None
    extremal_pair: tuple[int, int] | None
    pairs_sampled: int
    exhaustive_pairs: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _trusted_vertices(graph: SubdivisionGraph) -> range:
    return range(graph.ball.sphere(graph.n_max).stop if graph.n_max >= 0 else 0)


def _xi_adjacency(graph: SubdivisionGraph) -> list[list[int]]:
    """Unit-length adjacency of the subdivision graph restricted to the
    trusted levels (vertical tree edges plus horizontal edges): one row of
    neighbour ids per trusted vertex."""
    rows: list[list[int]] = [[] for _ in _trusted_vertices(graph)]
    parent = graph.ball.parent
    for v in range(1, len(rows)):
        rows[v].append(parent[v])
        rows[parent[v]].append(v)
    for _, (u, v) in graph.all_level_edges():
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _geodesic_ceiling(ball: CayleyBall, n: int) -> int:
    """The highest level a shortest in-ball path between two vertices of
    B_n can reach: the highest level in (n, min(R, 2n)] whose rows hold an
    entry that is not a tree entry, or n when none does (module docstring).

    Scans down from level min(R, 2n), ``_CEILING_CHUNK`` rows at a time,
    and compares a chunk's entries other than -1 with its tree entries:
    one parent link per row plus one per child.  Ids are shortlex, so
    ``parent`` never decreases along a sphere, and the children of a run
    of ids are a run of the next sphere, counted by bisection.  An extra
    entry that leaves the top level upward also stops the scan there,
    which gives the bound from above."""
    table, a, parent = ball.table, ball.degree, ball.parent
    for m in range(min(ball.radius, 2 * n), n, -1):
        level = ball.sphere(m)
        up = ball.sphere(m + 1) if m < ball.radius else range(0)
        for lo in range(level.start, level.stop, _CEILING_CHUNK):
            hi = min(lo + _CEILING_CHUNK, level.stop)
            entries = table[lo * a : hi * a]
            children = bisect_left(parent, hi, up.start, up.stop) - bisect_left(parent, lo, up.start, up.stop)
            if len(entries) - entries.count(-1) > hi - lo + children:
                return m
    return n


def _is_geodesic_tree(ball: CayleyBall, stop: int) -> bool:
    """Whether the Cayley graph of the first ``stop`` ids, a ball B_c, is
    its geodesic tree: whether the entries of their rows that lie in
    [0, stop) number 2(stop - 1) (module docstring).  Only rows on the top
    level of B_c can hold an entry at or above ``stop``."""
    a = ball.degree
    entries = ball.table[: stop * a]
    top = ball.sphere(ball.sphere_of[stop - 1]).start * a
    above = sum(1 for t in entries[top:] if t >= stop)
    return len(entries) - entries.count(-1) - above == 2 * (stop - 1)


def _cayley_adjacency(ball: CayleyBall, stop: int) -> list[tuple[int, ...]]:
    """The Cayley graph of the first ``stop`` ids as one row of neighbour
    ids per element.  For B_c, c = ``_geodesic_ceiling(ball, n)``: a
    shortest in-ball path between two vertices of B_n that climbs above
    both ends meets an entry off the geodesic tree on its highest level,
    and no such path climbs above B_min(R, 2n), so every one stays inside
    B_c (module docstring) and a search over these rows gives their
    in-ball distance."""
    table, a = ball.table, ball.degree
    return [tuple([t for t in table[i : i + a] if 0 <= t < stop]) for i in range(0, stop * a, a)]


def _tree_distance(parent: Sequence[int], u: int, v: int) -> int:
    """Distance from u to v along the geodesic tree: the larger id moves
    to its parent until the two meet.  Ids are shortlex, so a parent id is
    smaller than its child's and the larger id is never the shallower."""
    d = 0
    while u != v:
        if u > v:
            u = parent[u]
        else:
            v = parent[v]
        d += 1
    return d


def _distance(rows: Sequence[Sequence[int]], u: int, v: int, graph_name: str) -> int:
    # no distance exceeds the vertex count
    d = bidirectional_distance(rows, u, v, len(rows))
    if d is None:
        raise ValueError(f"{v} not reachable from {u} in the {graph_name}")
    return d


def verify_qi_bounds(graph: SubdivisionGraph) -> QiReport:
    ball = graph.ball
    checks: list[QiCheck] = []

    # (a) vertical edges are Cayley edges
    domain = 0
    bad = None
    table, a = ball.table, ball.degree
    for e in range(1, ball.size):
        domain += 1
        p = ball.parent[e]
        if table[p * a + ball.last_letter[e]] != e:
            bad = (e, p)
            break
    checks.append(
        QiCheck("a", "vertical edge implies Cayley adjacency", domain, 1 if domain else None, 1, bad is None, bad)
    )

    # (b) horizontal edges stay within 2*delta + 2 in the Cayley graph
    bound_b = 2 * graph.delta + 2
    # for an integer d, d < 2*delta + 2 is d <= ceil(2*delta) + 1, which
    # floating point decides exactly (2*delta + 2 itself may round)
    longest = working_constant(graph.delta)
    worst = 0
    bad = None
    domain = 0
    for _, (u, v) in graph.all_level_edges():
        domain += 1
        d = horizontal_edge_length(graph, u, v)
        worst = max(worst, d)
        if d > longest and bad is None:
            bad = (u, v)
    checks.append(
        QiCheck("b", "horizontal edge implies Cayley distance < 2*delta + 2", domain, worst if domain else None, bound_b, bad is None, bad)
    )

    # (c) same-level Cayley edges force horizontal edges
    domain = 0
    bad = None
    for n in range(1, max(graph.n_max, 0) + 1):
        for u in ball.sphere(n):
            for w in ball.row(u):
                if w > u and ball.sphere_of[w] == n:
                    domain += 1
                    if bad is None and w not in graph.partners(u):
                        bad = (u, w)
    checks.append(
        QiCheck("c", "same-level Cayley edge implies horizontal edge", domain, None, None, bad is None, bad)
    )

    # (d) level-changing Cayley edges map to distance <= 2
    domain = 0
    worst = 0
    bad = None
    for n in range(1, max(graph.n_max, -1) + 2):
        if n > ball.radius:
            break
        for u in ball.sphere(n):
            p = ball.parent[u]
            for w in ball.row(u):
                if w < 0 or ball.sphere_of[w] != n - 1:
                    continue
                domain += 1
                if w == p:
                    worst = max(worst, 1)
                    continue
                if (min(p, w), max(p, w)) in graph.witnesses:
                    worst = max(worst, 2)
                else:
                    if bad is None:
                        bad = (u, w)
                    worst = max(worst, 3)
    checks.append(
        QiCheck("d", "level-changing Cayley edge maps to distance <= 2", domain, worst if domain else None, 2, bad is None, bad)
    )

    return QiReport(checks, None, None, 0, False)


def _pair_constant(d_cayley: int, d_xi: int) -> float:
    """Least K >= 1 with d_cayley/K - K <= d_xi <= K*d_cayley + K."""
    upper = d_xi / (d_cayley + 1)
    lower = (-d_xi + math.sqrt(d_xi * d_xi + 4 * d_cayley)) / 2
    return max(1.0, upper, lower)


def estimate_qi_constants(
    graph: SubdivisionGraph, sample_pairs: int = 2000, seed: int = 0
) -> tuple[float | None, tuple[int, int] | None, int, bool]:
    """Empirical QI constant over sampled trusted vertex pairs under the
    identity correspondence; returns (K, extremal pair, pairs used,
    exhaustive flag).

    Each graph is decided once: one that is the geodesic tree gives its
    distances off the parent links, and any other is searched over its
    neighbour rows, built once beforehand.  The pairs are measured in one
    loop, in order, and the extremal pair is the first one of maximal K
    (module docstring)."""
    trusted = _trusted_vertices(graph)
    if len(trusted) < 2:
        return None, None, 0, True
    all_pairs = len(trusted) * (len(trusted) - 1) // 2
    exhaustive = all_pairs <= sample_pairs
    if exhaustive:
        pairs = [
            (trusted[i], trusted[j])
            for i in range(len(trusted))
            for j in range(i + 1, len(trusted))
        ]
    else:
        rng = random.Random(seed)
        pairs = []
        for _ in range(sample_pairs):
            u = rng.choice(trusted)
            v = rng.choice(trusted)
            while v == u:
                v = rng.choice(trusted)
            pairs.append((u, v))
    ball = graph.ball
    ceiling = _geodesic_ceiling(ball, graph.n_max)
    stop = ball.sphere(ceiling).stop
    cayley = None if _is_geodesic_tree(ball, stop) else _cayley_adjacency(ball, stop)
    xi = None if graph.edge_count() == 0 else _xi_adjacency(graph)
    log.info(
        "qi: distances over B_%d of B_%d (%s of %s elements): Cayley graph by %s, subdivision graph by %s",
        ceiling, ball.radius, f"{stop:,}", f"{ball.size:,}",
        *("geodesic tree" if rows is None else "search over rows" for rows in (cayley, xi)),
    )
    parent = ball.parent
    best, extremal = 0.0, None
    for u, v in pairs:
        tree = _tree_distance(parent, u, v) if cayley is None or xi is None else None
        d_cayley = tree if cayley is None else _distance(cayley, u, v, "Cayley graph")
        d_xi = tree if xi is None else _distance(xi, u, v, "subdivision graph")
        k = _pair_constant(d_cayley, d_xi)
        if k > best:
            best, extremal = k, (u, v)
    return best, extremal, len(pairs), exhaustive
