"""Trace one ``subforge`` CLI run from outside the package.

The tracer wraps public entry points of the subforge modules (see
``TARGETS``), runs the CLI in-process and, when it returns, writes the
recorded spans and per-function aggregates as JSON.  Nothing inside the
package is changed on disk.

Calls marked hot (the word oracle, the per-triangle and per-pair kernels)
are aggregated as call count plus summed and self time; every other call
becomes one span with its parent span, start, end and self time.  A span's
self time is its duration minus the time of the traced calls it made.

Usage::

    python3 perfbench/tracer.py --spans trace.json -- run --preset f2 --radius 8 ...
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

# (module, attribute path, layer, hot)
TARGETS = (
    ("subforge.pipeline", "load_presentation", "pipeline", False),
    ("subforge.presentation", "WordOracle.is_identity", "presentation", True),
    ("subforge.presentation", "WordOracle.reduce", "presentation", True),
    ("subforge.presentation", "DehnOracle.reduce", "presentation", True),
    ("subforge.ball", "enumerate_ball", "ball", False),
    ("subforge.ball", "CayleyBall.to_bytes", "ball", False),
    ("subforge.ball", "CayleyBall.from_bytes", "ball", False),
    ("subforge.ball", "CayleyBall.distance_between", "ball", True),
    ("subforge.hyperbolicity", "compute_delta", "hyperbolicity", False),
    ("subforge.hyperbolicity", "triangle_thinness", "hyperbolicity", True),
    ("subforge.hyperbolicity", "enumerate_pair_geodesics", "hyperbolicity", True),
    ("subforge.language", "check_prefix_closure", "language", False),
    ("subforge.language", "build_gamma", "language", False),
    ("subforge.language", "cone_type_classes", "language", False),
    ("subforge.language", "build_acceptor", "language", False),
    ("subforge.language", "verify_cone_lemma", "language", False),
    ("subforge.subdivision", "build_subdivision_graph", "subdivision", False),
    ("subforge.subdivision", "geodesically_close", "subdivision", True),
    ("subforge.subdivision", "assign_labels", "subdivision", False),
    ("subforge.subdivision", "verify_axioms", "subdivision", False),
    ("subforge.subdivision", "find_isomorphism", "labeled_graph", True),
    ("subforge.qi", "verify_qi_bounds", "qi", False),
    ("subforge.qi", "estimate_qi_constants", "qi", False),
    ("subforge.exports", "export_graph", "exports", False),
)


class Tracer:
    """In-memory span recorder.

    ``functions`` maps a traced name to ``[calls, total_s, self_s, truthy]``
    where ``truthy`` counts calls that returned a true value.  ``layers``
    maps a layer to ``[entries, total_s]`` over calls entering the layer
    from outside it, so nested calls within one layer count once.
    """

    def __init__(self):
        self.spans: list[dict | None] = []
        self.functions: dict[str, list] = {}
        self.layers: dict[str, list] = {}
        # frames: [child_s, layer, span id]; the root frame is never popped
        self._stack: list[list] = [[0.0, None, None]]

    def wrap(self, fn, name: str, layer: str, hot: bool):
        stats = self.functions.setdefault(name, [0, 0.0, 0.0, 0])
        layer_stats = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                sid = parent[2]
            else:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, layer, sid]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if result:
                    stats[3] += 1
                if parent[1] != layer:
                    layer_stats[0] += 1
                    layer_stats[1] += dur
                if not hot:
                    spans[sid] = {
                        "id": sid,
                        "parent": parent[2],
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "self_s": dur - frame[0],
                    }

        return traced

    def dump(self) -> dict:
        return {
            "spans": [s for s in self.spans if s is not None],
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s, "truthy": h}
                for name, (c, t, s, h) in self.functions.items()
            },
            "layers": {name: {"entries": n, "total_s": t} for name, (n, t) in self.layers.items()},
        }


def install(tracer: Tracer) -> None:
    """Replace every target by its traced wrapper: on its class, or in every
    loaded subforge module that bound the function by name."""
    for module_name, path, layer, hot in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, path, layer, hot)))
            else:
                setattr(owner, attr, tracer.wrap(raw, path, layer, hot))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(original, f"{module_name.split('.')[-1]}.{path}", layer, hot)
        for name, mod in list(sys.modules.items()):
            if (name == "subforge" or name.startswith("subforge.")) and getattr(mod, path, None) is original:
                setattr(mod, path, wrapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the trace JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments for the subforge CLI after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import subforge.cli  # noqa: F401  (loads every module before patching)

    tracer = Tracer()
    install(tracer)
    code = subforge.cli.main(cli_args)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
