"""Deterministic DOT and JSON writers for the pipeline artifacts.

Given identical inputs the emitted bytes are identical: ids and keys are
sorted, JSON uses sorted keys and a fixed indent, and no timestamps or
timing data appear in graph exports (timings live only in report.json
under the "timings" key, which consumers are expected to strip before
diffing).

``export_graph`` streams each file a line or a record at a time, so no
file is ever held whole in memory. The geodesic tree and the subdivision
graph go through fixed templates. Every JSON file equals, byte for byte,
``json.dumps(obj, sort_keys=True, indent=2)`` of the object it describes,
plus a final newline. When the pipeline did not produce an artifact,
``export_graph`` raises ``MissingArtifact`` and writes no file.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

from .ball import CayleyBall
from .labeled_graph import LabeledGraph
from .language import WordAcceptor
from .pipeline import Artifacts
from .subdivision import EdgeLabel, SubdivisionGraph, VertexLabel

EXPORT_KINDS = ("gamma", "xi", "acceptor", "subdivisions")
EXPORT_FORMATS = ("dot", "json")


class MissingArtifact(RuntimeError):
    pass


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _nested(obj, depth: int) -> str:
    """``obj`` laid out as ``json.dumps(indent=2)`` lays it out ``depth``
    levels deep: the encoder writes no raw newline inside a string, so
    shifting every line break is exact."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _array(write, records, pad: str) -> None:
    """Write a JSON array of the rendered ``records`` (each already
    indented one level inside it) whose brackets sit at indent ``pad``."""
    sep = "[\n"
    for record in records:
        write(sep)
        write(record)
        sep = ",\n"
    write("[]" if sep == "[\n" else "\n" + pad + "]")


def _words(ball: CayleyBall):
    """Formatted normal form of every element, in id order: each is its
    parent's plus the last letter.  Only the words inside the outer sphere
    are kept, since no element's parent lies on it; at R=7 on surface2 that
    is a fifth of the ball."""
    alphabet = ball.presentation.alphabet
    symbols, parent, last_letter = alphabet.symbols, ball.parent, ball.last_letter
    yield alphabet.format_word(())
    inner = [""]
    outer = max(1, ball.sphere(ball.radius).start)  # the identity is yielded above
    for e in range(1, outer):
        word = inner[parent[e]] + symbols[last_letter[e]]
        inner.append(word)
        yield word
    for e in range(outer, ball.size):
        yield inner[parent[e]] + symbols[last_letter[e]]


def _tree_edges(ball: CayleyBall):
    parent = ball.parent
    return (f"    [\n      {e},\n      {parent[e]}\n    ]" for e in range(1, ball.size))


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
            f'    {{\n      "id": {e},\n      "level": {level[e]},\n'
            f'      "word": {encode_basestring_ascii(word)}\n    }}'
            for e, word in enumerate(_words(ball))
        ),
        "  ",
    )
    write("\n}\n")


def gamma_dot(arts: Artifacts, write) -> None:
    ball = arts.ball
    write("graph gamma {\n")
    for e, word in enumerate(_words(ball)):
        write(f'  v{e} [label="{word}"];\n')
    parent = ball.parent
    for e in range(1, ball.size):
        write(f"  v{e} -- v{parent[e]};\n")
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


def _horizontal_edges(graph: SubdivisionGraph):
    for n, (u, v) in graph.all_level_edges():
        entry = {"level": n, "u": u, "v": v}
        label = graph.edge_labels.get((u, v))
        if label is not None:
            entry["label"] = _edge_label_json(graph.ball, label)
        w = graph.witnesses[(u, v)]
        entry["witness"] = {"first": w.first, "second": w.second, "separation": w.separation}
        yield "    " + _nested(entry, 2)


def _xi_vertices(graph: SubdivisionGraph):
    ball = graph.ball
    level = ball.sphere_of
    labels = graph.vertex_labels
    for e, word in enumerate(_words(ball)):
        label = labels.get(e)
        rendered = "null" if label is None else _nested(_vertex_label_json(ball, label), 3)
        yield (
            f'    {{\n      "id": {e},\n      "label": {rendered},\n      "level": {level[e]},\n'
            f'      "word": {encode_basestring_ascii(word)}\n    }}'
        )


def xi_json(arts: Artifacts, write) -> None:
    graph: SubdivisionGraph = arts.graph
    write(f'{{\n  "horizon": {graph.ball.radius},\n  "horizontal_edges": ')
    _array(write, _horizontal_edges(graph), "  ")
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
    words = _words(ball)  # the spheres are consecutive runs of ids
    write("graph xi {\n")
    for level in range(ball.radius + 1):
        write(f'  subgraph cluster_level_{level} {{\n    label="level {level}"; rank=same;\n')
        for e in ball.sphere(level):
            write(f'    v{e} [label="{next(words)}"];\n')
        write("  }\n")
    parent = ball.parent
    for e in range(1, ball.size):
        write(f"  v{e} -- v{parent[e]} [kind=vertical];\n")
    for _, (u, v) in graph.all_level_edges():
        write(f"  v{u} -- v{v} [kind=horizontal];\n")
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
