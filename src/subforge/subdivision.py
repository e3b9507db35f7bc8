"""The leveled subdivision graph: construction, labels and the six axioms.

The graph contains the geodesic tree (vertical edges) plus a horizontal
edge between every pair of same-level vertices that are geodesically
close: each admits an outward geodesic (|v| = |u| + d(u, v) all along) and
the two geodesics pass within distance 1 of each other at vertices no
closer to the origin.  The witness search is exhaustive out to the ball's
radius and returns the witness minimizing (depth of first vertex,
shortlex, shortlex), so results are reproducible.  Candidate partners are
read by translation: the vertices within distance K of u are u h for h in
B_K, so each edge (u, v) comes with h = u^-1 v and no path search between
u and v is needed.  Each edge keeps one record, its minimal witness and h,
in one dict keyed by (u, v), u < v, that every reader goes through.

Levels up to n_max = R - K - 1 (K = ceil(2*delta) + 1) carry complete label
data: vertex labels are cone K-neighborhoods (every geodesically close
partner g h, |h| <= K as QI (b)'s bound d <= ceil(2*delta) + 1 allows,
tagged with its cone type), horizontal edge labels carry the endpoint
cone types and the relative group element, and all vertical edges share
one reserved label.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ball import CayleyBall
from .labeled_graph import LabeledGraph, find_isomorphism
from .language import ConeTypeTable, Verdict
from .words import Word, inverse_word


class Witness(NamedTuple):
    """Outward vertices certifying a geodesically close pair."""

    first: int
    second: int
    separation: int  # 0: geodesics meet, 1: adjacent vertices


class VertexLabel(NamedTuple):
    own_type: int
    neighborhood: tuple[tuple[Word, int], ...]  # (relative normal form, cone type)


class EdgeLabel(NamedTuple):
    type_a: int
    type_b: int
    relative: Word  # normal form of u^-1 v, the edge read from u toward v


class HorizontalEdge(NamedTuple):
    """One horizontal edge (u, v): its minimal witness and the id of u^-1 v
    that its candidate search found."""

    witness: Witness
    relative: int


class SubdivisionGraph:
    """The horizontal edges, (u, v) -> ``HorizontalEdge`` with u < v, in id
    order of (u, v), which is level order since ids are level-sorted;
    ``assign_labels`` fills in the labels.  Slots, as the axioms and QI
    read the fields per vertex."""

    __slots__ = ("ball", "k", "n_max", "delta", "edges", "unstable_levels", "vertex_labels", "edge_labels",
                 "_partners")

    def __init__(self, ball: CayleyBall, k: int, n_max: int, delta: float,
                 edges: dict[tuple[int, int], HorizontalEdge], unstable_levels: tuple[int, ...],
                 vertex_labels: dict[int, VertexLabel] | None = None,
                 edge_labels: dict[tuple[int, int], EdgeLabel] | None = None):
        self.ball, self.k, self.n_max, self.delta = ball, k, n_max, delta
        self.edges, self.unstable_levels = edges, unstable_levels
        self.vertex_labels = {} if vertex_labels is None else vertex_labels
        self.edge_labels = {} if edge_labels is None else edge_labels
        self._partners = None

    def partners(self, v: int) -> tuple[int, ...]:
        """Horizontal partners of v, in edge order, from an index read once
        off ``edges`` (which are not changed after construction)."""
        if self._partners is None:
            index: dict[int, list[int]] = {}
            for u, w in self.edges:
                index.setdefault(u, []).append(w)
                index.setdefault(w, []).append(u)
            self._partners = {u: tuple(ps) for u, ps in index.items()}
        return self._partners.get(v, ())


def outward_vertices(ball: CayleyBall, u: int) -> set[int]:
    """Vertices v of the ball with |v| = |u| + d(u, v) (vertices on
    geodesics from the origin through u, by the layered-closure argument)."""
    sphere_of, table, a = ball.sphere_of, ball.table, ball.degree
    out = {u}
    frontier = [u]
    for level in range(sphere_of[u] + 1, ball.radius + 1):
        nxt = []
        for v in frontier:
            for w in table[v * a : v * a + a]:
                if w >= 0 and sphere_of[w] == level and w not in out:
                    out.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return out


def _outward(ball: CayleyBall, u: int, cache: dict[int, set[int]] | None) -> set[int]:
    if cache is None:
        return outward_vertices(ball, u)
    got = cache.get(u)
    if got is None:
        got = cache[u] = outward_vertices(ball, u)
    return got


def same_level_neighbours(ball: CayleyBall, vertices: set[int]) -> set[int]:
    """The in-ball neighbours of the vertices that lie on their own level."""
    sphere_of, table, a = ball.sphere_of, ball.table, ball.degree
    out = set()
    for v in vertices:
        level = sphere_of[v]
        out.update(w for w in table[v * a : v * a + a] if w >= 0 and sphere_of[w] == level)
    return out


def geodesically_close(
    ball: CayleyBall,
    u1: int,
    u2: int,
    _outward_cache: dict[int, set[int]] | None = None,
) -> Witness | None:
    """Exhaustive witness search within the ball; returns the minimal
    witness or None.  Requires distinct same-level vertices."""
    if u1 == u2:
        raise ValueError("geodesically close is only defined for distinct vertices")
    if ball.sphere_of[u1] != ball.sphere_of[u2]:
        raise ValueError("geodesically close requires equal levels")
    o1 = _outward(ball, u1, _outward_cache)
    o2 = _outward(ball, u2, _outward_cache)
    table, a = ball.table, ball.degree
    for v1 in sorted(o1):
        candidates = []
        if v1 in o2:
            candidates.append((v1, 0))
        for w in table[v1 * a : v1 * a + a]:
            if w in o2:
                candidates.append((w, 1))
        if candidates:
            v2, sep = min(candidates)
            return Witness(v1, v2, sep)
    return None


def close_candidates(ball: CayleyBall, u: int, k: int) -> list[tuple[int, int]]:
    """Same-level vertices v > u at Cayley distance <= k from u, each with
    the id h of u^-1 v, in id order of v: the same-level images of B_k
    translated by u.  Requires |u| + k <= ball radius."""
    level = ball.sphere_of[u]
    sphere_of = ball.sphere_of
    return sorted((v, h) for h, v in enumerate(ball.translate(u, k)) if v > u and sphere_of[v] == level)


def working_constant(delta: float) -> int:
    """Integer working radius ceil(2*delta) + 1 used for cone typing and
    the horizontal-edge candidates."""
    return math.ceil(2 * delta) + 1


def build_subdivision_graph(
    ball: CayleyBall,
    delta: float,
    k_override: int | None = None,
) -> SubdivisionGraph:
    """Detect all geodesically close pairs on levels <= n_max and attach
    them as horizontal edges.

    The candidate partners of u are the same-level vertices within Cayley
    distance K (``close_candidates``), which loses nothing by the closeness
    lemma (the tests compare the edges with an all-pairs search).  Each
    edge (u, v) keeps its minimal witness and the id of u^-1 v that its
    candidate search found, and the edges are found in id order.  A
    level is flagged unstable when some edge's minimal witness reaches the
    ball's outer sphere: its edges needed the whole ball, so a larger ball
    may add more.

    A witness for (u, v) exists exactly when the outward vertices o(v)
    meet o(u) or its in-ball neighbours, and set tests reject the other
    pairs; only the pairs they pass are searched for their minimal
    witness.  No neighbour on another level is needed: take x in o(u) and
    y in o(v) adjacent on consecutive levels.  The lower of the two lies
    below the outer sphere, so the outward search from it reaches the upper
    one, which thus lies in both o(u) and o(v).  That leaves o(u) and the
    same-level neighbours of o(u), built for one u at a time.  A Cayley
    graph whose relators all have even length has no same-level edges
    (word length mod 2 is a homomorphism), so there o(u) alone is tested
    and no table row is read again.
    """
    k = working_constant(delta) if k_override is None else k_override
    n_max = ball.radius - k - 1
    edges: dict[tuple[int, int], HorizontalEdge] = {}
    unstable = set()
    cache: dict[int, set[int]] = {}
    bipartite = all(len(r) % 2 == 0 for r in ball.presentation.relators)
    for n in range(1, n_max + 1):
        for u in ball.sphere(n):
            candidates = close_candidates(ball, u, k)
            if not candidates:
                continue
            out = _outward(ball, u, cache)
            beside = set() if bipartite else same_level_neighbours(ball, out)
            for v, h in candidates:
                other = _outward(ball, v, cache)
                if other.isdisjoint(out) and other.isdisjoint(beside):
                    continue
                w = geodesically_close(ball, u, v, cache)
                edges[(u, v)] = HorizontalEdge(w, h)
                if max(ball.sphere_of[w.first], ball.sphere_of[w.second]) == ball.radius:
                    unstable.add(n)
        cache.clear()
    return SubdivisionGraph(
        ball=ball,
        k=k,
        n_max=n_max,
        delta=delta,
        edges=edges,
        unstable_levels=tuple(sorted(unstable)),
    )


def assign_labels(graph: SubdivisionGraph, table: ConeTypeTable) -> SubdivisionGraph:
    """Attach vertex and edge labels on levels <= n_max, in place.

    Every horizontal edge is labelled once in each orientation: (u, v)
    by the normal form of the u^-1 v its candidate search kept, (v, u) by
    the normal form of the inverse, with the endpoint types swapped.
    Vertex neighborhoods list every partner with the label of the edge
    leaving the vertex toward it; each partner lies within K, the
    candidate radius, which QI (b)'s bound d <= ceil(2*delta) + 1 allows.
    """
    if table.k != graph.k:
        raise ValueError("cone-type table K does not match the graph")
    ball = graph.ball
    class_of = table.class_of
    alphabet = ball.presentation.alphabet
    edge_labels: dict[tuple[int, int], EdgeLabel] = {}
    for (u, v), edge in graph.edges.items():
        form = ball.normal_form(edge.relative)
        back = ball.normal_form(ball.element_of(inverse_word(form, alphabet)))
        edge_labels[(u, v)] = EdgeLabel(class_of[u], class_of[v], form)
        edge_labels[(v, u)] = EdgeLabel(class_of[v], class_of[u], back)

    vertex_labels: dict[int, VertexLabel] = {}
    for n in range(0, graph.n_max + 1):
        for v in ball.sphere(n):
            members = [(edge_labels[(v, p)].relative, class_of[p]) for p in graph.partners(v)]
            members.sort(key=lambda m: ((len(m[0]), m[0]), m[1]))
            vertex_labels[v] = VertexLabel(own_type=class_of[v], neighborhood=tuple(members))
    graph.vertex_labels = vertex_labels
    graph.edge_labels = edge_labels
    return graph


def _label_sort_key(label: EdgeLabel):
    return (label.type_a, label.type_b, len(label.relative), label.relative)


def orientation_free_label(graph: SubdivisionGraph, u: int, v: int) -> EdgeLabel:
    """Canonical value-min of the two orientations (used inside comparison
    graphs so vertex numbering cannot flip labels)."""
    return min(graph.edge_labels[(u, v)], graph.edge_labels[(v, u)], key=_label_sort_key)


# ---------------------------------------------------------------------------
# Axioms 1-6
# ---------------------------------------------------------------------------


def _star_summary(graph: SubdivisionGraph, v: int):
    up = 1 if v != 0 else 0
    down = len(graph.ball.children(v))
    horizontal = sorted(
        (_label_sort_key(graph.edge_labels[(v, p)]) for p in graph.partners(v)),
    )
    return (up, down, tuple(horizontal))


def _vertex_subdivision(graph: SubdivisionGraph, v: int) -> LabeledGraph:
    """Children of v with their labels plus the horizontal edges among
    them (the predecessor-map preimage of v's open star)."""
    kids = graph.ball.children(v)
    pos = {c: i for i, c in enumerate(kids)}
    labels = tuple(graph.vertex_labels[c] for c in kids)
    edges = []
    for a in kids:
        for b in graph.partners(a):
            if b > a and b in pos:
                i, j = sorted((pos[a], pos[b]))
                edges.append((i, j, _label_sort_key(orientation_free_label(graph, a, b))))
    return LabeledGraph(labels, tuple(sorted(edges)))


def _edge_subdivision(graph: SubdivisionGraph, u: int, v: int, swap: bool = False) -> LabeledGraph:
    """Bipartite preimage of the edge (u, v): children of both endpoints,
    side-tagged, with the horizontal edges crossing between the sides."""
    side_a, side_b = (v, u) if swap else (u, v)
    kids_a = graph.ball.children(side_a)
    kids_b = graph.ball.children(side_b)
    labels = tuple(
        [(0, graph.vertex_labels[c]) for c in kids_a]
        + [(1, graph.vertex_labels[c]) for c in kids_b]
    )
    pos = {c: i for i, c in enumerate(kids_a)}
    pos.update({c: len(kids_a) + i for i, c in enumerate(kids_b)})
    edges = []
    for a in kids_a:
        for b in graph.partners(a):
            if b in pos and graph.ball.parent[b] == side_b:
                edges.append((pos[a], pos[b], _label_sort_key(graph.edge_labels[(a, b)])))
    return LabeledGraph(labels, tuple(sorted(edges)))


def _predecessor_failure(graph: SubdivisionGraph, u: int, v: int) -> tuple[tuple, str] | None:
    """Axiom 4 on the horizontal edge (u, v): None when the predecessors
    are equal, or connected with the edge's witness inherited by them;
    else (counterexample, note)."""
    ball = graph.ball
    pu, pv = ball.parent[u], ball.parent[v]
    if pu == pv:
        return None
    if (min(pu, pv), max(pu, pv)) not in graph.edges:
        return (u, v, pu, pv), ""
    # witness inheritance: the witness for (u, v) certifies the parents
    w = graph.edges[(u, v)].witness
    for parent, outer in ((pu, w.first), (pv, w.second)):
        need = ball.sphere_of[outer] - ball.sphere_of[parent]
        if ball.distance_between(parent, outer, need) != need:
            return (u, v, parent, outer), "witness not inherited by predecessors"
    return None


Subdivisions = tuple[dict[VertexLabel, LabeledGraph], dict[EdgeLabel, LabeledGraph]]


def verify_axioms(graph: SubdivisionGraph) -> tuple[dict[str, Verdict], Subdivisions | None]:
    """Check the six combinatorial-subdivision-graph conditions, as the
    verdicts ``axiom_1`` to ``axiom_6``, and return with them the vertex
    and edge subdivision tables, or None when conditions 5 and 6 give none.

    Structural conditions (1-3) are checked on the full ball; conditions
    that need horizontal edges or labels quantify only over levels where
    that data is complete (4: levels <= n_max, 5: vertices at levels
    <= n_max, 6: preimages living at levels <= n_max).  Each condition
    runs over its whole domain and reports the first counterexample.
    """
    ball = graph.ball
    verdicts: dict[str, Verdict] = {}

    # 1: the bottom level is a single vertex
    verdicts["axiom_1"] = Verdict(list(ball.sphere(0)) == [0], 1)

    # 2: levels partition the vertices
    spheres = [ball.sphere(n) for n in range(ball.radius + 1)]
    total = sum(len(s) for s in spheres)
    ok2 = total == ball.size and all(
        ball.sphere_of[e] == n for n, s in enumerate(spheres) for e in s
    )
    verdicts["axiom_2"] = Verdict(ok2, ball.size)

    # 3: unique predecessor one level down
    bad3 = None
    for e in range(1, ball.size):
        p = ball.parent[e]
        if bad3 is None and ball.sphere_of[p] != ball.sphere_of[e] - 1:
            bad3 = (e, p)
    verdicts["axiom_3"] = Verdict(bad3 is None, ball.size - 1, bad3)

    # 4: predecessors of edge endpoints are equal or connected
    failures4 = [f for u, v in graph.edges if (f := _predecessor_failure(graph, u, v))]
    bad4, note4 = failures4[0] if failures4 else (None, "")
    verdicts["axiom_4"] = Verdict(bad4 is None, len(graph.edges), bad4, note4)

    labels_ready = graph.n_max >= 0 and (graph.vertex_labels or ball.size == 0)

    # 5: open stars of same-label vertices are isomorphic
    domain5 = 0
    bad5 = None
    star_groups: dict[VertexLabel, tuple[int, tuple]] = {}
    if labels_ready:
        for n in range(0, graph.n_max + 1):
            for v in ball.sphere(n):
                domain5 += 1
                label = graph.vertex_labels[v]
                summary = _star_summary(graph, v)
                rep = star_groups.get(label)
                if rep is None:
                    star_groups[label] = (v, summary)
                elif rep[1] != summary and bad5 is None:
                    bad5 = (rep[0], v)
    verdicts["axiom_5"] = Verdict(bad5 is None, domain5, bad5)

    # 6: same-label predecessor-map preimages are isomorphic; a preimage
    # equal to its group's representative is, by the identity map, and
    # needs no search
    domain6 = 0
    bad6 = None
    note6 = ""
    subdivisions = None
    if labels_ready:
        vs_groups: dict[VertexLabel, tuple[int, LabeledGraph]] = {}
        for n in range(0, graph.n_max):
            for v in ball.sphere(n):
                domain6 += 1
                label = graph.vertex_labels[v]
                sub = _vertex_subdivision(graph, v)
                rep = vs_groups.get(label)
                if rep is None:
                    vs_groups[label] = (v, sub)
                elif bad6 is None and rep[1] != sub and find_isomorphism(rep[1], sub) is None:
                    bad6 = ("vertex", rep[0], v)
                    note6 = "vertex-subdivision mismatch"
        # edges are grouped by the orientation-normalized label: min of the
        # labels of its two orientations, with the preimage sides ordered to
        # match that normalization
        es_groups: dict[tuple, tuple[tuple[int, int], LabeledGraph, EdgeLabel]] = {}
        for u, v in graph.edges:
            if ball.sphere_of[u] >= graph.n_max:
                continue
            domain6 += 1
            stored = graph.edge_labels[(u, v)]
            inverted = graph.edge_labels[(v, u)]
            canon = min(stored, inverted, key=_label_sort_key)
            symmetric = _label_sort_key(stored) == _label_sort_key(inverted)
            sub = _edge_subdivision(graph, u, v, swap=canon is inverted and not symmetric)
            key = _label_sort_key(canon)
            rep = es_groups.get(key)
            if rep is None:
                es_groups[key] = ((u, v), sub, canon)
            elif bad6 is None and rep[1] != sub and find_isomorphism(rep[1], sub) is None:
                swapped = _edge_subdivision(graph, u, v, swap=True) if symmetric else None
                if swapped is None or find_isomorphism(rep[1], swapped) is None:
                    bad6 = ("edge", rep[0], (u, v))
                    note6 = "edge-subdivision mismatch"
        if bad5 is None and bad6 is None:
            subdivisions = (
                {label: sub for label, (_, sub) in vs_groups.items()},
                {canon: sub for _, (_, sub, canon) in es_groups.items()},
            )
    verdicts["axiom_6"] = Verdict(bad6 is None, domain6, bad6, note6)
    return verdicts, subdivisions
