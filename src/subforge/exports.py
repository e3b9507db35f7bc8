"""Deterministic DOT and JSON writers for the pipeline artifacts.

Given identical inputs the emitted bytes are identical: ids and keys are
sorted, JSON uses sorted keys and a fixed indent, and no timestamps or
timing data appear in graph exports (timings live only in report.json
under the "timings" key, which consumers are expected to strip before
diffing).
"""

from __future__ import annotations

import json

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


def _words(ball: CayleyBall) -> list[str]:
    """Formatted normal form of every element, in one pass in id order:
    each is its parent's plus the last letter."""
    alphabet = ball.presentation.alphabet
    words = [""]
    for e in range(1, ball.size):
        words.append(words[ball.parent[e]] + alphabet.symbols[ball.last_letter[e]])
    words[0] = alphabet.format_word(())
    return words


# -- gamma -------------------------------------------------------------------


def gamma_json(arts: Artifacts) -> str:
    ball = arts.ball
    if ball is None:
        raise MissingArtifact("geodesic tree not built")
    words = _words(ball)
    return _dumps(
        {
            "vertices": [
                {"id": e, "word": words[e], "level": ball.sphere_of[e]}
                for e in range(ball.size)
            ],
            "edges": [[e, ball.parent[e]] for e in range(1, ball.size)],
        }
    )


def gamma_dot(arts: Artifacts) -> str:
    ball = arts.ball
    if ball is None:
        raise MissingArtifact("geodesic tree not built")
    words = _words(ball)
    lines = ["graph gamma {"]
    for e in range(ball.size):
        lines.append(f'  v{e} [label="{words[e]}"];')
    for e in range(1, ball.size):
        lines.append(f"  v{e} -- v{ball.parent[e]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def xi_json(arts: Artifacts) -> str:
    graph: SubdivisionGraph = arts.graph
    if graph is None:
        raise MissingArtifact("subdivision graph not built")
    ball = graph.ball
    words = _words(ball)
    horizontal = []
    for n, (u, v) in graph.all_level_edges():
        entry = {"level": n, "u": u, "v": v}
        label = graph.edge_labels.get((u, v))
        if label is not None:
            entry["label"] = _edge_label_json(ball, label)
        w = graph.witnesses[(u, v)]
        entry["witness"] = {"first": w.first, "second": w.second, "separation": w.separation}
        horizontal.append(entry)
    return _dumps(
        {
            "k": graph.k,
            "n_max": graph.n_max,
            "horizon": graph.horizon,
            "unstable_levels": list(graph.unstable_levels),
            "vertices": [
                {
                    "id": e,
                    "word": words[e],
                    "level": ball.sphere_of[e],
                    "label": None
                    if e not in graph.vertex_labels
                    else _vertex_label_json(ball, graph.vertex_labels[e]),
                }
                for e in range(ball.size)
            ],
            "vertical_edges": [[e, ball.parent[e]] for e in range(1, ball.size)],
            "horizontal_edges": horizontal,
        }
    )


def xi_dot(arts: Artifacts) -> str:
    graph: SubdivisionGraph = arts.graph
    if graph is None:
        raise MissingArtifact("subdivision graph not built")
    ball = graph.ball
    words = _words(ball)
    lines = ["graph xi {"]
    for level in range(ball.radius + 1):
        lines.append(f"  subgraph cluster_level_{level} {{")
        lines.append(f'    label="level {level}"; rank=same;')
        for e in ball.sphere(level):
            lines.append(f'    v{e} [label="{words[e]}"];')
        lines.append("  }")
    for e in range(1, ball.size):
        lines.append(f"  v{e} -- v{ball.parent[e]} [kind=vertical];")
    for _, (u, v) in graph.all_level_edges():
        lines.append(f"  v{u} -- v{v} [kind=horizontal];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- acceptor ------------------------------------------------------------------


def acceptor_json(arts: Artifacts) -> str:
    acc: WordAcceptor = arts.acceptor
    if acc is None:
        raise MissingArtifact("acceptor not built")
    alphabet = arts.ball.presentation.alphabet
    return _dumps(
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


def acceptor_dot(arts: Artifacts) -> str:
    acc: WordAcceptor = arts.acceptor
    if acc is None:
        raise MissingArtifact("acceptor not built")
    alphabet = arts.ball.presentation.alphabet
    lines = ["digraph acceptor {"]
    for s in acc.states:
        shape = "doublecircle" if s == acc.initial else "circle"
        lines.append(f"  s{s} [shape={shape}];")
    for (s, x), t in sorted(acc.transitions.items()):
        lines.append(f'  s{s} -> s{t} [label="{alphabet.symbols[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def subdivisions_json(arts: Artifacts) -> str:
    rep = arts.axiom_report
    if rep is None or rep.vertex_subdivisions is None or rep.edge_subdivisions is None:
        raise MissingArtifact("subdivision tables unavailable (axioms not verified)")
    ball = arts.ball
    vertex_entries = [
        {
            "label": _vertex_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "vertex"),
        }
        for label, sub in sorted(
            rep.vertex_subdivisions.items(), key=lambda kv: repr(kv[0])
        )
    ]
    edge_entries = [
        {
            "label": _edge_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "edge"),
        }
        for label, sub in sorted(rep.edge_subdivisions.items(), key=lambda kv: repr(kv[0]))
    ]
    return _dumps(
        {"vertex_subdivisions": vertex_entries, "edge_subdivisions": edge_entries}
    )


def subdivisions_dot(arts: Artifacts) -> str:
    rep = arts.axiom_report
    if rep is None or rep.vertex_subdivisions is None or rep.edge_subdivisions is None:
        raise MissingArtifact("subdivision tables unavailable (axioms not verified)")
    lines = []
    for idx, (_, sub) in enumerate(
        sorted(rep.vertex_subdivisions.items(), key=lambda kv: repr(kv[0]))
    ):
        lines.append(f"graph vertex_subdivision_{idx} {{")
        for v in range(sub.size):
            lines.append(f"  v{v};")
        for i, j, _ in sub.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
    for idx, (_, sub) in enumerate(
        sorted(rep.edge_subdivisions.items(), key=lambda kv: repr(kv[0]))
    ):
        lines.append(f"graph edge_subdivision_{idx} {{")
        for v in range(sub.size):
            side = sub.vertex_labels[v][0]
            lines.append(f"  v{v} [side={side}];")
        for i, j, _ in sub.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
    return "\n".join(lines) + "\n"


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


def export_graph(arts: Artifacts, what: str, fmt: str) -> str:
    """Render one artifact; raises MissingArtifact when the pipeline did
    not produce it."""
    try:
        writer = _WRITERS[(what, fmt)]
    except KeyError:
        raise ValueError(f"unknown export {what}/{fmt}") from None
    return writer(arts)


def export_report(report: dict) -> str:
    return _dumps(report)
