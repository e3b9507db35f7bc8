"""Deterministic DOT and JSON writers for the pipeline artifacts.

Given identical inputs the emitted bytes are identical: ids and keys are
sorted, JSON uses sorted keys and a fixed indent, and no timestamps or
timing data appear in graph exports (timings live only in report.json
under the "timings" key, which consumers are expected to strip before
diffing).

``export_graph`` streams each file, so no file is ever held whole in
memory, and renders only the files asked for. The geodesic tree and the
subdivision graph go through fixed templates, rendered ``CHUNK`` records
at a time and written with one ``write`` per file; each distinct vertex
label is rendered once. Every JSON file equals, byte for byte,
``json.dumps(obj, sort_keys=True, indent=2)`` of the object it describes,
plus a final newline. When the pipeline did not produce an artifact,
``export_graph`` raises ``MissingArtifact`` and writes no file.

The gamma and xi files asked for are open at once and written in two
passes over the sphere-aligned chunks of ids (``_chunks``), since in JSON
the tree edges come before the vertices and in DOT after them:

- pass 1 writes the DOT vertex lines and the JSON tree edges;
- pass 2 writes the JSON vertex records and the DOT tree edges.

Within a pass each chunk formats its ids once, and a block shared by two
files is rendered once: the JSON tree edges are the same bytes in
gamma.json ("edges") and xi.json ("vertical_edges"). xi.dot's vertex and
tree-edge lines differ from gamma.dot's only by a wider indent and a
``[kind=vertical]`` attribute, so its blocks are gamma.dot's after
``str.replace("  v", "    v")`` and ``str.replace(";\\n", " [kind=vertical];\\n")``.
Likewise a chunk of xi.json vertex records with no labeled vertex is
gamma.json's with ``"label": null`` put before each ``"level"`` key.
That is exact because words are quoted as they are and hold only ASCII
letters (``words._check_symbols``): no pattern replaced can occur inside
a word, only where the template puts it.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from itertools import islice

from .ball import CayleyBall
from .labeled_graph import LabeledGraph
from .language import WordAcceptor
from .pipeline import Artifacts
from .subdivision import EdgeLabel, SubdivisionGraph, VertexLabel, Witness

EXPORT_KINDS = ("gamma", "xi", "acceptor", "subdivisions")
EXPORT_FORMATS = ("dot", "json")
# the files written together, in two passes
GRAPH_FILES = (("gamma", "json"), ("gamma", "dot"), ("xi", "json"), ("xi", "dot"))

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


def _records(head: str, mid: str, tail: str, sep: str, firsts, seconds) -> str:
    """``sep.join(head + a + mid + b + tail for a, b in zip(firsts, seconds))``
    for non-empty iterables of strings, by C-level joins: about a fifth
    faster than a comprehension of f-strings."""
    return head + (tail + sep + head).join(map(mid.join, zip(firsts, seconds))) + tail


def _chunks(ball: CayleyBall, words: bool):
    """Yields (n, ids, words) for each run ``ids`` of at most ``CHUNK``
    consecutive ids of sphere n, sphere by sphere; ``words`` holds their
    formatted normal forms, or is None when not asked for.  Each word is
    its parent's plus the last letter, and the parent lies on the sphere
    below, so a chunk's words are formed by one comprehension.  Only the
    words inside the outer sphere are kept, since no element's parent lies
    on it; at R=7 on surface2 that is a fifth of the ball."""
    alphabet = ball.presentation.alphabet
    symbols, parent, last_letter = alphabet.symbols, ball.parent, ball.last_letter
    yield 0, range(1), [alphabet.format_word(())] if words else None
    inner = [""]
    for n in range(1, ball.radius + 1):
        sphere = ball.sphere(n)
        for lo in range(sphere.start, sphere.stop, CHUNK):
            hi = min(lo + CHUNK, sphere.stop)
            chunk = None
            if words:
                chunk = [inner[p] + symbols[x] for p, x in zip(parent[lo:hi], last_letter[lo:hi])]
                if n < ball.radius:
                    inner += chunk
            yield n, range(lo, hi), chunk


# -- gamma and xi ------------------------------------------------------------


def _vertex_label_json(ball: CayleyBall, label: VertexLabel) -> dict:
    fmt = ball.presentation.alphabet.format_word
    return {
        "own_type": label.own_type,
        "neighborhood": [[fmt(w), t] for w, t in label.neighborhood],
    }


def _edge_label_json(ball: CayleyBall, label: EdgeLabel) -> dict:
    fmt = ball.presentation.alphabet.format_word
    return {"type_a": label.type_a, "type_b": label.type_b, "relative": fmt(label.relative)}


def _horizontal_edge(graph: SubdivisionGraph, u: int, v: int, w: Witness) -> str:
    entry = {"level": graph.ball.sphere_of[u], "u": u, "v": v}
    label = graph.edge_labels.get((u, v))
    if label is not None:
        entry["label"] = _edge_label_json(graph.ball, label)
    entry["witness"] = {"first": w.first, "second": w.second, "separation": w.separation}
    return "    " + _nested(entry, 2)


def _xi_json_head(graph: SubdivisionGraph, write) -> None:
    """xi.json up to its vertical edges: the keys that sort before them."""
    write(f'{{\n  "horizon": {graph.ball.radius},\n  "horizontal_edges": ')
    _array(
        write,
        ([_horizontal_edge(graph, u, v, edge.witness) for (u, v), edge in edges]
         for edges in _batches(graph.edges.items())),
        "  ",
    )
    write(
        f',\n  "k": {graph.k},\n  "n_max": {graph.n_max},'
        f'\n  "unstable_levels": {_nested(list(graph.unstable_levels), 1)},'
        '\n  "vertical_edges": '
    )


def _xi_clusters(start: int, stop: int) -> str:
    """xi.dot from inside level ``start``'s cluster (-1: before the first)
    to inside level ``stop``'s."""
    return "".join(
        ("  }\n" if m else "") + f'  subgraph cluster_level_{m} {{\n    label="level {m}"; rank=same;\n'
        for m in range(start + 1, stop + 1)
    )


def _write_graphs(arts: Artifacts, files: dict) -> None:
    """Write the gamma and xi files among ``files``, which maps (kind,
    format) to the ``write`` of the open file, in two passes over
    ``_chunks`` (module docstring)."""
    ball, graph = arts.ball, arts.graph
    gj, gd, xj, xd = map(files.get, GRAPH_FILES)
    jsons = [write for write in (gj, xj) if write]
    dots = [write for write in (gd, xd) if write]
    parent = ball.parent
    if gj:
        gj('{\n  "edges": ')
    if xj:
        _xi_json_head(graph, xj)
    if gd:
        gd("graph gamma {\n")
    if xd:
        xd("graph xi {\n")

    # pass 1: the DOT vertex lines and the JSON tree edges
    sep, level = "[\n", -1
    for n, ids, words in _chunks(ball, bool(dots)):
        es = list(map(str, ids))
        if dots:
            lines = _records("  v", ' [label="', '"];\n', "", es, words)
            if gd:
                gd(lines)
            if xd:
                if n > level:
                    xd(_xi_clusters(level, n))
                    level = n
                # exact, as words hold only ASCII letters (module docstring)
                xd(lines.replace("  v", "    v"))
        if jsons and n:
            ps = map(str, parent[ids.start : ids.stop])
            edges = sep + _records("    [\n      ", ",\n      ", "\n    ]", ",\n", es, ps)
            sep = ",\n"
            for write in jsons:
                write(edges)
    if xd:
        xd(_xi_clusters(level, ball.radius) + "  }\n")
    for write in jsons:
        write(("[]" if sep == "[\n" else "\n  ]") + ',\n  "vertices": [\n')

    # pass 2: the JSON vertex records and the DOT tree edges
    if xj:
        labels = graph.vertex_labels
        rendered = {label: _nested(_vertex_label_json(ball, label), 3) for label in set(labels.values())}
    sep = ""
    for n, ids, words in _chunks(ball, bool(jsons)):
        es = list(map(str, ids))
        if jsons:
            mid = f',\n      "level": {n},\n      "word": "'
            records = sep + _records('    {\n      "id": ', mid, '"\n    }', ",\n", es, words)
            if gj:
                gj(records)
            if xj and labels.keys().isdisjoint(ids):
                xj(records.replace(',\n      "level"', ',\n      "label": null,\n      "level"'))
            elif xj:
                labeled = [
                    f'    {{\n      "id": {e},\n      "label": {rendered.get(labels.get(i), "null")},\n'
                    f'      "level": {n},\n      "word": "{w}"\n    }}'
                    for i, e, w in zip(ids, es, words)
                ]
                xj(sep + ",\n".join(labeled))
            sep = ",\n"
        if dots and n:
            ps = map(str, parent[ids.start : ids.stop])
            lines = _records("  v", " -- v", ";\n", "", es, ps)
            if gd:
                gd(lines)
            if xd:
                xd(lines.replace(";\n", " [kind=vertical];\n"))
    for write in jsons:
        write("\n  ]\n}\n")
    if gd:
        gd("}\n")
    if xd:
        for edges in _batches(graph.edges):
            xd("".join([f"  v{u} -- v{v} [kind=horizontal];\n" for u, v in edges]))
        xd("}\n")


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
    vertex_subs, edge_subs = arts.subdivisions
    vertex_entries = [
        {
            "label": _vertex_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "vertex"),
        }
        for label, sub in _by_repr(vertex_subs)
    ]
    edge_entries = [
        {
            "label": _edge_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "edge"),
        }
        for label, sub in _by_repr(edge_subs)
    ]
    write(_dumps({"vertex_subdivisions": vertex_entries, "edge_subdivisions": edge_entries}))


def subdivisions_dot(arts: Artifacts, write) -> None:
    vertex_tables, edge_tables = map(_by_repr, arts.subdivisions)
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


def missing(arts: Artifacts, what: str) -> str | None:
    """Why the pipeline left no ``what`` to export, or None."""
    if what == "gamma" and arts.ball is None:
        return "geodesic tree not built"
    if what == "xi" and arts.graph is None:
        return "subdivision graph not built"
    if what == "acceptor" and arts.acceptor is None:
        return "acceptor not built"
    if what == "subdivisions" and arts.subdivisions is None:
        return "subdivision tables unavailable (axioms not verified)"
    return None


_WRITERS = {
    ("acceptor", "json"): acceptor_json,
    ("acceptor", "dot"): acceptor_dot,
    ("subdivisions", "json"): subdivisions_json,
    ("subdivisions", "dot"): subdivisions_dot,
}


def export_graph(arts: Artifacts, out_dir: str, kinds, formats) -> None:
    """Write ``{kind}.{format}`` in ``out_dir`` for every kind and format
    asked for, each as it is rendered; the gamma and xi files are written
    together.  Raises MissingArtifact, before any file is created, when
    the pipeline did not produce one of the kinds."""
    for what in kinds:
        if what not in EXPORT_KINDS:
            raise ValueError(f"unknown export {what}")
    for fmt in formats:
        if fmt not in EXPORT_FORMATS:
            raise ValueError(f"unknown export format {fmt}")
    for what in kinds:
        reason = missing(arts, what)
        if reason is not None:
            raise MissingArtifact(reason)
    os.makedirs(out_dir or ".", exist_ok=True)
    with ExitStack() as stack:
        writes = {
            (what, fmt): stack.enter_context(open(os.path.join(out_dir, f"{what}.{fmt}"), "w", encoding="utf-8")).write
            for what in kinds
            for fmt in formats
        }
        for key, write in writes.items():
            if key in _WRITERS:
                _WRITERS[key](arts, write)
        graphs = {key: write for key, write in writes.items() if key in GRAPH_FILES}
        if graphs:
            _write_graphs(arts, graphs)


def export_report(report: dict) -> str:
    return _dumps(report)
