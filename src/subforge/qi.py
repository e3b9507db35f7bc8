"""Quasi-isometry checks between the subdivision graph and the Cayley graph.

The vertex correspondence is the canonical bijection (same ids), so the
density clause of a quasi-isometry holds with constant 0 and is not a
check.  That every vertical edge is a Cayley edge is prefix closure's
verdict (``language.check_prefix_closure``): each element is its parent
times its last letter.  The work here is in three directed edge-distance
checks:

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
Each returns a ``Verdict`` (``verify_qi_bounds``): its domain is the
horizontal edges for (b), the same-level and the level-changing Cayley
edges for (c) and (d), and its counterexample the first failing edge.
The largest distance (b) and (d) observed is reported beside them.  The
empirical QI constant measures sampled vertex pairs in one loop, in
the process (``estimate_qi_constants``).

Each pair's Cayley distance is its in-ball distance, searched over the
ball's own letter table (``CayleyBall.distance_between``) with the limit
2 n_max.  For trusted u and v the tree path through the identity gives
d(u, v) <= |u| + |v| <= 2 n_max, so the search finds v within the limit,
and every vertex w on a u-v geodesic has
|w| <= (|u| + |v| + d(u, v)) / 2 <= 2 n_max, so every shortest in-ball
path stays in B_M, M = min(R, 2 n_max).

When a graph is exactly the geodesic tree on its vertices, a pair's
distance is read off the tree and nothing is searched.  The Cayley graph
of B_M is that tree when the entries of B_M's rows that lie in B_M number
2(|B_M| - 1) (``_is_geodesic_tree``): each parent link is such an entry
at both of its ends, in two distinct places, so any other entry, a
repeated one included, raises the count.  The subdivision graph of the
trusted levels is that tree when they hold no horizontal edge.  On a tree
the only path between u and v without backtracking runs through their
lowest common ancestor, so a search returns the tree distance
|u| + |v| - 2|lca(u, v)| (``_tree_distance``), which for the Cayley graph
of B_M is the in-ball distance by the bound above.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from itertools import islice
from operator import countOf

from . import log
from .ball import CayleyBall, bidirectional_distance
from .language import Verdict
from .subdivision import SubdivisionGraph, working_constant


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
    for u, v in graph.edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _is_geodesic_tree(ball: CayleyBall, stop: int) -> bool:
    """Whether the Cayley graph of the first ``stop`` ids, a ball B_M, is
    its geodesic tree: whether the entries of their rows that lie in
    [0, stop) number 2(stop - 1) (module docstring).  Counted in place,
    without a copy of the table: when B_M is the whole ball every entry
    but -1 lies in it (a plain count, 0.3 s over surface2 R=8's 60.6M
    entries, where a count through ``islice`` takes 1.1 s); otherwise
    only rows on the top level of B_M can hold an entry at or above
    ``stop``."""
    table, a = ball.table, ball.degree
    if stop == ball.size:
        return len(table) - table.count(-1) == 2 * (stop - 1)
    end = stop * a
    top = ball.sphere(ball.sphere_of[stop - 1]).start * a
    inside = end - countOf(islice(table, end), -1) - sum(1 for t in islice(table, top, end) if t >= stop)
    return inside == 2 * (stop - 1)


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


def _distance(d: int | None, u: int, v: int, graph_name: str) -> int:
    """A searched distance from u to v, or a fault when the search did not
    reach v: a trusted pair is always joined by its tree path."""
    if d is None:
        raise ValueError(f"{v} not reachable from {u} in the {graph_name}")
    return d


def verify_qi_bounds(graph: SubdivisionGraph) -> tuple[dict[str, Verdict], dict[str, int | None]]:
    """The verdicts ``qi_b`` to ``qi_d``, and the largest distance (b) and
    (d) observed (None over an empty domain)."""
    ball = graph.ball
    verdicts: dict[str, Verdict] = {}
    observed: dict[str, int | None] = {}

    # (b) horizontal edges stay within 2*delta + 2 in the Cayley graph;
    # for an integer d, d < 2*delta + 2 is d <= ceil(2*delta) + 1, which
    # floating point decides exactly (2*delta + 2 itself may round); an
    # edge's Cayley length d(u, v) is the length of its u^-1 v, as v = u h
    longest = working_constant(graph.delta)
    worst = 0
    bad = None
    for (u, v), edge in graph.edges.items():
        d = ball.sphere_of[edge.relative]
        worst = max(worst, d)
        if d > longest and bad is None:
            bad = (u, v)
    verdicts["qi_b"] = Verdict(bad is None, len(graph.edges), bad)
    observed["b"] = worst if graph.edges else None

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
    verdicts["qi_c"] = Verdict(bad is None, domain, bad)

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
                if (min(p, w), max(p, w)) in graph.edges:
                    worst = max(worst, 2)
                else:
                    if bad is None:
                        bad = (u, w)
                    worst = max(worst, 3)
    verdicts["qi_d"] = Verdict(bad is None, domain, bad)
    observed["d"] = worst if domain else None
    return verdicts, observed


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
    distances off the parent links; otherwise the Cayley graph is searched
    over the ball's letter table within 2 n_max, and the subdivision graph
    over its neighbour rows, built once beforehand.  The pairs are
    measured in one loop, in order, and the extremal pair is the first one
    of maximal K (module docstring)."""
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
    limit = 2 * graph.n_max
    m = min(ball.radius, limit)
    stop = ball.sphere(m).stop
    cayley_tree = _is_geodesic_tree(ball, stop)
    xi = _xi_adjacency(graph) if graph.edges else None
    log.info(
        "qi: distances within B_%d of B_%d (%s of %s elements): Cayley graph by %s, subdivision graph by %s",
        m, ball.radius, f"{stop:,}", f"{ball.size:,}",
        "geodesic tree" if cayley_tree else "search of the ball's table",
        "geodesic tree" if xi is None else "search over rows",
    )
    parent = ball.parent
    best, extremal = 0.0, None
    for u, v in pairs:
        tree = _tree_distance(parent, u, v) if cayley_tree or xi is None else None
        d_cayley = tree if cayley_tree else _distance(ball.distance_between(u, v, limit), u, v, "Cayley graph")
        d_xi = tree if xi is None else _distance(bidirectional_distance(xi, u, v, len(xi)), u, v, "subdivision graph")
        k = _pair_constant(d_cayley, d_xi)
        if k > best:
            best, extremal = k, (u, v)
    return best, extremal, len(pairs), exhaustive
