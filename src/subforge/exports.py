"""Deterministic DOT and JSON writers for the pipeline artifacts.

Given identical inputs the emitted bytes are identical: ids and keys are
sorted, JSON uses sorted keys and a fixed indent, and no timestamps or
timing data appear in graph exports (timings live only in report.json
under the "timings" key, which consumers are expected to strip before
diffing).

``export_graph`` streams each file, so no file is ever held whole in
memory. The geodesic tree and the subdivision graph go through fixed
templates, rendered ``CHUNK`` records at a time by one list comprehension
and written with one ``write``; each distinct vertex label is rendered
once. Words are quoted as they are, since generator symbols are ASCII
letters. Every JSON file equals, byte for byte,
``json.dumps(obj, sort_keys=True, indent=2)`` of the object it describes,
plus a final newline. When the pipeline did not produce an artifact,
``export_graph`` raises ``MissingArtifact`` and writes no file.
"""

from __future__ import annotations

import json
import os
from itertools import islice

from .ball import CayleyBall
from .labeled_graph import LabeledGraph
from .language import WordAcceptor
from .pipeline import Artifacts
from .subdivision import EdgeLabel, SubdivisionGraph, VertexLabel

EXPORT_KINDS = ("gamma", "xi", "acceptor", "subdivisions")
EXPORT_FORMATS = ("dot", "json")

# records rendered per write: the writes cost little next to the rendering,
# and one chunk's strings add little to the peak memory
CHUNK = 1024


class MissingArtifact(RuntimeError):
    pass


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _nested(obj, depth: int) -> str:
    """``obj`` laid out as ``json.dumps(indent=2)`` lays it out ``depth``
    levels deep: the encoder writes no raw newline inside a string, so
    shifting every line break is exact."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _batches(items):
    """``items`` in lists of at most ``CHUNK``, in order."""
    it = iter(items)
    while batch := list(islice(it, CHUNK)):
        yield batch


def _array(write, chunks, pad: str) -> None:
    """Write a JSON array of rendered records, given as non-empty lists of
    records each already indented one level inside the array, whose
    brackets sit at indent ``pad``."""
    sep = "[\n"
    for records in chunks:
        write(sep)
        write(",\n".join(records))
        sep = ",\n"
    write("[]" if sep == "[\n" else "\n" + pad + "]")


def _words(ball: CayleyBall):
    """Formatted normal form of every element, a batch of ids at a time:
    yields (ids, words) for each of ``_batches(ball.sphere(n))``, sphere by
    sphere.  Each word is its parent's plus the last letter, and the parent
    lies on the sphere below, so a batch is formed by one comprehension.
    Only the words inside the outer sphere are kept, since no element's
    parent lies on it; at R=7 on surface2 that is a fifth of the ball."""
    alphabet = ball.presentation.alphabet
    symbols, parent, last_letter = alphabet.symbols, ball.parent, ball.last_letter
    yield [0], [alphabet.format_word(())]
    inner = [""]
    for n in range(1, ball.radius + 1):
        for ids in _batches(ball.sphere(n)):
            words = [inner[parent[e]] + symbols[last_letter[e]] for e in ids]
            if n < ball.radius:
                inner += words
            yield ids, words


def _tree_edges(ball: CayleyBall):
    parent = ball.parent
    for ids in _batches(range(1, ball.size)):
        yield [f"    [\n      {e},\n      {parent[e]}\n    ]" for e in ids]


# -- gamma -------------------------------------------------------------------


def gamma_json(arts: Artifacts, write) -> None:
    ball = arts.ball
    level = ball.sphere_of
    write('{\n  "edges": ')
    _array(write, _tree_edges(ball), "  ")
    write(',\n  "vertices": ')
    _array(
        write,
        (
            [
                f'    {{\n      "id": {e},\n      "level": {level[e]},\n      "word": "{word}"\n    }}'
                for e, word in zip(ids, words)
            ]
            for ids, words in _words(ball)
        ),
        "  ",
    )
    write("\n}\n")


def gamma_dot(arts: Artifacts, write) -> None:
    ball = arts.ball
    write("graph gamma {\n")
    for ids, words in _words(ball):
        write("".join([f'  v{e} [label="{word}"];\n' for e, word in zip(ids, words)]))
    parent = ball.parent
    for ids in _batches(range(1, ball.size)):
        write("".join([f"  v{e} -- v{parent[e]};\n" for e in ids]))
    write("}\n")


# -- xi ----------------------------------------------------------------------


def _vertex_label_json(ball: CayleyBall, label: VertexLabel) -> dict:
    fmt = ball.presentation.alphabet.format_word
    return {
        "own_type": label.own_type,
        "neighborhood": [[fmt(w), t] for w, t in label.neighborhood],
    }


def _edge_label_json(ball: CayleyBall, label: EdgeLabel) -> dict:
    fmt = ball.presentation.alphabet.format_word
    return {"type_a": label.type_a, "type_b": label.type_b, "relative": fmt(label.relative)}


def _horizontal_edge(graph: SubdivisionGraph, n: int, u: int, v: int) -> str:
    entry = {"level": n, "u": u, "v": v}
    label = graph.edge_labels.get((u, v))
    if label is not None:
        entry["label"] = _edge_label_json(graph.ball, label)
    w = graph.witnesses[(u, v)]
    entry["witness"] = {"first": w.first, "second": w.second, "separation": w.separation}
    return "    " + _nested(entry, 2)


def _xi_vertices(graph: SubdivisionGraph):
    ball = graph.ball
    level = ball.sphere_of
    labels = graph.vertex_labels
    rendered = {label: _nested(_vertex_label_json(ball, label), 3) for label in set(labels.values())}
    for ids, words in _words(ball):
        yield [
            f'    {{\n      "id": {e},\n      "label": {rendered.get(labels.get(e), "null")},\n'
            f'      "level": {level[e]},\n      "word": "{word}"\n    }}'
            for e, word in zip(ids, words)
        ]


def xi_json(arts: Artifacts, write) -> None:
    graph: SubdivisionGraph = arts.graph
    write(f'{{\n  "horizon": {graph.ball.radius},\n  "horizontal_edges": ')
    _array(
        write,
        ([_horizontal_edge(graph, n, u, v) for n, (u, v) in edges] for edges in _batches(graph.all_level_edges())),
        "  ",
    )
    write(
        f',\n  "k": {graph.k},\n  "n_max": {graph.n_max},'
        f'\n  "unstable_levels": {_nested(list(graph.unstable_levels), 1)},'
        '\n  "vertical_edges": '
    )
    _array(write, _tree_edges(graph.ball), "  ")
    write(',\n  "vertices": ')
    _array(write, _xi_vertices(graph), "  ")
    write("\n}\n")


def xi_dot(arts: Artifacts, write) -> None:
    graph: SubdivisionGraph = arts.graph
    ball = graph.ball
    words = _words(ball)  # its batches run through the spheres in order
    write("graph xi {\n")
    for level in range(ball.radius + 1):
        write(f'  subgraph cluster_level_{level} {{\n    label="level {level}"; rank=same;\n')
        for _ in _batches(ball.sphere(level)):
            ids, chunk = next(words)
            write("".join([f'    v{e} [label="{word}"];\n' for e, word in zip(ids, chunk)]))
        write("  }\n")
    parent = ball.parent
    for ids in _batches(range(1, ball.size)):
        write("".join([f"  v{e} -- v{parent[e]} [kind=vertical];\n" for e in ids]))
    for edges in _batches(graph.all_level_edges()):
        write("".join([f"  v{u} -- v{v} [kind=horizontal];\n" for _, (u, v) in edges]))
    write("}\n")


# -- acceptor ------------------------------------------------------------------


def acceptor_json(arts: Artifacts, write) -> None:
    acc: WordAcceptor = arts.acceptor
    alphabet = arts.ball.presentation.alphabet
    write(
        _dumps(
            {
                "states": list(acc.states),
                "initial": acc.initial,
                "all_accepting": True,
                "transitions": [
                    {"from": s, "letter": alphabet.symbols[x], "to": t}
                    for (s, x), t in sorted(acc.transitions.items())
                ],
            }
        )
    )


def acceptor_dot(arts: Artifacts, write) -> None:
    acc: WordAcceptor = arts.acceptor
    alphabet = arts.ball.presentation.alphabet
    write("digraph acceptor {\n")
    for s in acc.states:
        shape = "doublecircle" if s == acc.initial else "circle"
        write(f"  s{s} [shape={shape}];\n")
    for (s, x), t in sorted(acc.transitions.items()):
        write(f'  s{s} -> s{t} [label="{alphabet.symbols[x]}"];\n')
    write("}\n")


# -- subdivisions ---------------------------------------------------------------


def _labeled_graph_json(ball: CayleyBall, g: LabeledGraph, kind: str) -> dict:
    fmt = ball.presentation.alphabet.format_word

    def vlabel(lab):
        if kind == "edge":
            side, vl = lab
            return {"side": side, **_vertex_label_json(ball, vl)}
        return _vertex_label_json(ball, lab)

    def elabel(lab):
        type_a, type_b, _, rel = lab
        return {"type_a": type_a, "type_b": type_b, "relative": fmt(rel)}

    return {
        "vertices": [vlabel(lab) for lab in g.vertex_labels],
        "edges": [[i, j, elabel(lab)] for i, j, lab in g.edges],
    }


def _by_repr(table: dict) -> list:
    """(label, subdivision) pairs of one table, in the labels' repr order."""
    return sorted(table.items(), key=lambda kv: repr(kv[0]))


def subdivisions_json(arts: Artifacts, write) -> None:
    ball = arts.ball
    vertex_entries = [
        {
            "label": _vertex_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "vertex"),
        }
        for label, sub in _by_repr(arts.axiom_report.vertex_subdivisions)
    ]
    edge_entries = [
        {
            "label": _edge_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "edge"),
        }
        for label, sub in _by_repr(arts.axiom_report.edge_subdivisions)
    ]
    write(_dumps({"vertex_subdivisions": vertex_entries, "edge_subdivisions": edge_entries}))


def subdivisions_dot(arts: Artifacts, write) -> None:
    vertex_tables = _by_repr(arts.axiom_report.vertex_subdivisions)
    edge_tables = _by_repr(arts.axiom_report.edge_subdivisions)
    if not vertex_tables and not edge_tables:
        write("\n")  # no graph at all: the document is one empty line
    for idx, (_, sub) in enumerate(vertex_tables):
        write(f"graph vertex_subdivision_{idx} {{\n")
        for v in range(sub.size):
            write(f"  v{v};\n")
        for i, j, _ in sub.edges:
            write(f"  v{i} -- v{j};\n")
        write("}\n")
    for idx, (_, sub) in enumerate(edge_tables):
        write(f"graph edge_subdivision_{idx} {{\n")
        for v in range(sub.size):
            write(f"  v{v} [side={sub.vertex_labels[v][0]}];\n")
        for i, j, _ in sub.edges:
            write(f"  v{i} -- v{j};\n")
        write("}\n")


def _missing(arts: Artifacts, what: str) -> str | None:
    """Why the pipeline left no ``what`` to export, or None."""
    if what == "gamma" and arts.ball is None:
        return "geodesic tree not built"
    if what == "xi" and arts.graph is None:
        return "subdivision graph not built"
    if what == "acceptor" and arts.acceptor is None:
        return "acceptor not built"
    if what == "subdivisions":
        rep = arts.axiom_report
        if rep is None or rep.vertex_subdivisions is None or rep.edge_subdivisions is None:
            return "subdivision tables unavailable (axioms not verified)"
    return None


_WRITERS = {
    ("gamma", "json"): gamma_json,
    ("gamma", "dot"): gamma_dot,
    ("xi", "json"): xi_json,
    ("xi", "dot"): xi_dot,
    ("acceptor", "json"): acceptor_json,
    ("acceptor", "dot"): acceptor_dot,
    ("subdivisions", "json"): subdivisions_json,
    ("subdivisions", "dot"): subdivisions_dot,
}


def export_graph(arts: Artifacts, what: str, fmt: str, path: str) -> None:
    """Write one artifact to ``path`` as it is rendered; raises
    MissingArtifact, before ``path`` is created, when the pipeline did not
    produce it."""
    try:
        writer = _WRITERS[(what, fmt)]
    except KeyError:
        raise ValueError(f"unknown export {what}/{fmt}") from None
    reason = _missing(arts, what)
    if reason is not None:
        raise MissingArtifact(reason)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        writer(arts, fh.write)


def export_report(report: dict) -> str:
    return _dumps(report)
