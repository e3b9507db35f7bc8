"""Quasi-isometry checks between the subdivision graph and the Cayley graph.

The vertex correspondence is the canonical bijection (same ids), so the
density clause of a quasi-isometry holds with constant 0 and is not a
check; the work is in the four directed edge-distance checks:

  (a) every vertical edge is a Cayley edge;
  (b) endpoints of a horizontal edge are less than 2*delta + 2 apart (the
      closeness lemma: for an integer length d this is
      d <= ceil(2*delta) + 1, so on a built graph (b) can fail only where
      K was bumped or forced above that);
  (c) a same-level Cayley edge forces a horizontal edge;
  (d) a level-changing Cayley edge maps to distance <= 2 (via the upper
      endpoint's predecessor).

Checks quantify over the levels where horizontal-edge data is complete.
The empirical QI constant measures independent vertex pairs, which are
split over the CPUs (``estimate_qi_constants``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .ball import bidirectional_distance
from .parallel import fork_map, split
from .subdivision import SubdivisionGraph, horizontal_edge_length, working_constant


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


def _xi_adjacency(graph: SubdivisionGraph) -> tuple[list[int], int]:
    """Unit-length adjacency of the subdivision graph restricted to the
    trusted levels (vertical tree edges plus horizontal edges), as a flat
    table of rows of ``degree`` neighbour ids padded with -1 (the layout
    of the ball's letter table); returns (table, degree)."""
    rows: list[list[int]] = [[] for _ in _trusted_vertices(graph)]
    parent = graph.ball.parent
    for v in range(1, len(rows)):
        rows[v].append(parent[v])
        rows[parent[v]].append(v)
    for _, (u, v) in graph.all_level_edges():
        rows[u].append(v)
        rows[v].append(u)
    degree = max(map(len, rows), default=0)
    table: list[int] = []
    for row in rows:
        table += row
        table += [-1] * (degree - len(row))
    return table, degree


def _bfs_distance(adj: tuple[list[int], int], source: int, target: int) -> int:
    table, degree = adj
    # no distance exceeds the vertex count len(table) / degree
    d = bidirectional_distance(table, degree, source, target, len(table))
    if d is None:
        raise ValueError("target not reachable in the trusted subdivision graph")
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

    The pairs are measured in parallel, one contiguous chunk per CPU
    (``parallel.fork_map``) over the subdivision graph's adjacency built
    once beforehand; the chunks' first maximal pairs are merged in order,
    so the extremal pair is the first one a single loop would find."""
    ball = graph.ball
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
    adj = _xi_adjacency(graph)
    limit = 2 * max(graph.n_max, 0) + 2

    def chunk_constant(chunk):
        best, extremal = 0.0, None
        for u, v in chunk:
            d_x = ball.distance_between(u, v, limit)
            if d_x is None:
                raise ValueError("Cayley distance exceeded its in-ball limit")
            k = _pair_constant(d_x, _bfs_distance(adj, u, v))
            if k > best:
                best, extremal = k, (u, v)
        return best, extremal

    best, extremal = 0.0, None
    for k, pair in fork_map(chunk_constant, split(pairs)):
        if k > best:
            best, extremal = k, pair
    return best, extremal, len(pairs), exhaustive
