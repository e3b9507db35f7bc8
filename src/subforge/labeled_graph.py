"""Small labeled graphs and deterministic isomorphism search.

Graphs here are tiny (bounded by local degree in the subdivision graph),
so a backtracking matcher with signature-based partition refinement is
plenty; it returns the lexicographically least label-preserving map when
one exists.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import NamedTuple


class LabeledGraph(NamedTuple("LabeledGraph", [("vertex_labels", tuple), ("edges", tuple)])):
    """Vertices 0..n-1 with hashable labels; undirected labeled edges
    stored as (i, j, label) with i < j."""

    __slots__ = ()

    def __new__(cls, vertex_labels: tuple[Hashable, ...], edges: tuple[tuple[int, int, Hashable], ...]):
        n = len(vertex_labels)
        for i, j, _ in edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge ({i}, {j}) in graph of size {n}")
        return super().__new__(cls, vertex_labels, edges)

    @property
    def size(self) -> int:
        return len(self.vertex_labels)

    def edge_map(self) -> dict[tuple[int, int], Hashable]:
        return {(i, j): lab for i, j, lab in self.edges}


def _signatures(g: LabeledGraph) -> list[tuple]:
    incident: list[list[Hashable]] = [[] for _ in range(g.size)]
    for i, j, lab in g.edges:
        incident[i].append(lab)
        incident[j].append(lab)
    # repr gives a canonical orderable key; labels are NamedTuples and
    # tuples, for which repr equality is value equality
    return [
        (repr(g.vertex_labels[v]), tuple(sorted(map(repr, incident[v]))))
        for v in range(g.size)
    ]


def find_isomorphism(g1: LabeledGraph, g2: LabeledGraph) -> dict[int, int] | None:
    """Label-preserving vertex bijection inducing a label-preserving edge
    bijection, or None.  Deterministic: the returned map is the
    lexicographically least one (by image sequence of vertices 0, 1, ...).
    """
    if g1.size != g2.size or len(g1.edges) != len(g2.edges):
        return None
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    e1, e2 = g1.edge_map(), g2.edge_map()
    candidates = [
        [w for w in range(g2.size) if sig2[w] == sig1[v]] for v in range(g1.size)
    ]
    mapping: dict[int, int] = {}
    used = [False] * g2.size

    def extend(v: int) -> bool:
        if v == g1.size:
            return True
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u, img in mapping.items():
                a = e1.get((min(u, v), max(u, v)))
                b = e2.get((min(img, w), max(img, w)))
                if (a is None) != (b is None) or (a is not None and a != b):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                del mapping[v]
        return False

    if extend(0):
        return dict(mapping)
    return None
