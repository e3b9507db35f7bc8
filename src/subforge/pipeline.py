"""End-to-end pipeline: parse, enumerate, estimate delta, build the
language machinery and the subdivision graph, then verify everything.

Each fact is decided by one check, and each check can fail on some
input: prefix closure (which also makes every vertical edge a Cayley
edge), the cone lemma, acceptor consistency, the six axioms (axiom 3
covers the geodesic tree's parent links) and QI (b)-(d) (QI (b) covers the
closeness-lemma bound on horizontal edges).  Each returns a ``Verdict``,
and ``report["checks"]`` maps its name to ``{passed, domain,
counterexample, note}``, the one place the report states it: every check
reports the size of the domain it quantified over, so a vacuous pass reads
``domain: 0``, and a failure its first counterexample, each element in it
as ``{id, word}``.  The stage blocks keep only statistics.  The
C'(1/6) certificate is reported but is not a verdict: the parser rejects
a presentation that fails it, so on a run it always holds. K is
ceil(2*delta) + 1, clamped to the radius, and is decided once; an
inconsistent acceptor at that K fails its verdict.

Three values are constants of every run: delta is computed over the
triangles of B_{R//2}, the cone lemma probes cones to depth min(2, R) and
QI samples 2,000 pairs (``estimate_qi_constants``' default).  An overridden
delta (``delta_override``) is the one way to trade delta for time.

The pipeline keeps going after verification failures so the report carries
every verdict; operational problems (bad config, resource caps) abort.
Exit status contract: 0 all checks passed, 2 some verification check
failed, 1 operational error.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from . import ball as ball_mod
from . import hyperbolicity as hyp
from . import log
from .ball import BallCapExceeded, CayleyBall, enumerate_ball
from .language import (
    ConeTypeTable,
    Verdict,
    WordAcceptor,
    build_acceptor,
    build_gamma,
    check_prefix_closure,
    cone_type_classes,
    verify_cone_lemma,
)
from .presentation import Presentation, parse_presentation, preset, verify_small_cancellation
from .qi import estimate_qi_constants, verify_qi_bounds
from .subdivision import Subdivisions, assign_labels, build_subdivision_graph, verify_axioms, working_constant

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    preset: str | None = None
    file: str | None = None
    radius: int = 4
    delta_override: float | None = None
    element_cap: int = ball_mod.DEFAULT_ELEMENT_CAP
    seed: int = 2024
    cache_dir: str | None = None

    def validate(self) -> None:
        if (self.preset is None) == (self.file is None):
            raise ConfigError("exactly one of preset/file must be given")
        if self.radius < 1:
            raise ConfigError("radius must be >= 1")
        if self.element_cap <= 0:
            raise ConfigError("element cap must be positive")
        # the working constant is ceil(2*delta) + 1, so 2*delta must be finite
        if self.delta_override is not None and not 0 <= 2 * self.delta_override < math.inf:
            raise ConfigError("delta override must be >= 0 with 2*delta finite")


class Artifacts:
    """What a run built, filled in stage by stage; None where it stopped
    short."""

    __slots__ = ("presentation", "ball", "delta", "table", "acceptor", "graph", "subdivisions")

    def __init__(self, presentation: Presentation | None = None, ball: CayleyBall | None = None,
                 delta: hyp.DeltaEstimate | None = None, table: ConeTypeTable | None = None,
                 acceptor: WordAcceptor | None = None, graph: object | None = None,
                 subdivisions: Subdivisions | None = None):
        self.presentation, self.ball, self.delta, self.table = presentation, ball, delta, table
        self.acceptor, self.graph, self.subdivisions = acceptor, graph, subdivisions


class PipelineResult(NamedTuple):
    report: dict
    artifacts: Artifacts
    exit_code: int


def load_presentation(config: RunConfig) -> Presentation:
    if config.preset is not None:
        return preset(config.preset)
    with open(config.file, encoding="utf-8") as fh:
        return parse_presentation(fh.read(), name=os.path.basename(config.file))


def _ball_with_cache(pres: Presentation, config: RunConfig) -> CayleyBall:
    if not config.cache_dir:
        return enumerate_ball(pres, config.radius, cap=config.element_cap)
    path = os.path.join(config.cache_dir, ball_mod.cache_key(pres, config.radius) + ".ball")
    if os.path.exists(path):
        # A file that does not load as this presentation's ball of this
        # radius (truncated, corrupt, foreign) is a cache miss: it is
        # re-enumerated and overwritten.
        try:
            with open(path, "rb") as fh:
                ball = CayleyBall.from_bytes(fh.read(), pres)
            if ball.radius != config.radius:
                raise ValueError(f"cached ball has radius {ball.radius}")
            return ball
        except Exception as exc:
            log.warning("ball cache %s unusable (%s: %s); re-enumerating", path, type(exc).__name__, exc)
    ball = enumerate_ball(pres, config.radius, cap=config.element_cap)
    # write to a temp file and rename, so readers never see a partial file;
    # a cache that cannot be written costs the next run its time, not this
    # run its report
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(config.cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(ball.to_bytes())
        os.replace(tmp, path)
    except OSError as exc:
        log.warning("ball cache %s not written (%s: %s)", path, type(exc).__name__, exc)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return ball


def _describe(ball: CayleyBall, e: int) -> dict:
    return {"id": e, "word": ball.presentation.alphabet.format_word(ball.normal_form(e))}


def _render(ball: CayleyBall, item):
    """A counterexample or a pair as JSON, by what each entry is
    (``Verdict``): an element id as ``{id, word}``, a tuple entry by entry,
    a letter, a kind or None as it is."""
    if isinstance(item, int):
        return _describe(ball, item)
    if isinstance(item, tuple):
        return [_render(ball, x) for x in item]
    return item


def run_pipeline(config: RunConfig) -> PipelineResult:
    config.validate()
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    verdicts: dict[str, Verdict] = {}
    report: dict = {
        "tool": "subforge",
        "status": "completed",
        # every setting but the cache directory, so cold and cached runs
        # write the same report
        "config": {k: v for k, v in config._asdict().items() if k != "cache_dir"},
    }
    artifacts = Artifacts()

    last = [t0]

    def stage(name):
        now = time.perf_counter()
        timings[name] = now - last[0]
        last[0] = now
        log.info("%s: %.3f s", name, timings[name])

    # parse + small cancellation certificate, which the parser has already
    # required of any relators
    pres = load_presentation(config)
    artifacts.presentation = pres
    report["presentation"] = {
        "name": pres.name,
        "generators": list(pres.alphabet.symbols),
        "relators": [pres.alphabet.format_word(r) for r in pres.relators],
    }
    pieces = verify_small_cancellation(pres)
    report["small_cancellation"] = {
        "max_piece_len": pieces.max_piece_len,
        "min_relator_len": pieces.min_relator_len,
        "satisfies_c16": pieces.satisfies_c16,
        "vacuous": pieces.vacuous,
    }
    stage("parse")

    # ball enumeration
    try:
        ball = _ball_with_cache(pres, config)
    except BallCapExceeded as exc:
        report["status"] = "aborted"
        report["error"] = str(exc)
        report["ball"] = {"radius": config.radius, "partial_sphere_sizes": exc.sphere_sizes}
        report["timings"] = timings
        return PipelineResult(report, artifacts, EXIT_ERROR)
    artifacts.ball = ball
    report["ball"] = {"radius": ball.radius, "size": ball.size, "sphere_sizes": ball.sphere_sizes}
    verdicts["prefix_closure"] = check_prefix_closure(ball)
    stage("ball")
    log.info("ball: %d elements, sphere sizes %s", ball.size, ball.sphere_sizes)

    # delta
    if config.delta_override is not None:
        delta = config.delta_override
        estimate = None
        report["delta"] = {"value": delta, "source": "override", "is_lower_bound": True}
    else:
        estimate = hyp.compute_delta(ball, ball.radius // 2)
        artifacts.delta = estimate
        delta = estimate.delta
        report["delta"] = {
            "value": delta,
            "source": "computed",
            "radius_checked": estimate.radius_checked,
            "triangles": estimate.triangles,
            "triangles_computed": estimate.triangles_computed,
            "is_lower_bound": True,
            "witness": None
            if estimate.witness is None
            else {
                "x": _describe(ball, estimate.witness.x),
                "y": _describe(ball, estimate.witness.y),
                "side": estimate.witness.side,
                "point": _describe(ball, estimate.witness.point),
                "value": estimate.witness.value,
            },
        }
    stage("delta")

    # geodesic tree: the parent links, which axiom 3 checks
    report["gamma"] = {"vertices": ball.size, "edges": build_gamma(ball)}
    stage("gamma")

    # cone types at K = ceil(2*delta) + 1, clamped to the ball
    k = min(working_constant(delta), ball.radius)
    table = cone_type_classes(ball, k)
    probe = min(2, ball.radius)
    verdicts["cone_lemma"] = verify_cone_lemma(ball, table, probe)
    acceptor, verdicts["acceptor_consistent"] = build_acceptor(ball, table)
    artifacts.table = table
    artifacts.acceptor = acceptor
    tested_depth = ball.radius - max(k, probe)
    report["cone_types"] = {
        "k": k,
        "k_clamped_to_radius": k != working_constant(delta),
        "count": table.class_count,
        "trusted_depth": table.trusted_depth,
        # K is decided once. The one-entry list stays because the
        # benchmark reads its length as language.k_attempts, and its
        # traced runs fail with a KeyError without it
        "adaptation": [{"k": k}],
    }
    report["cone_lemma"] = {
        "probe": probe,
        "tested_depth": tested_depth,
        "elements_tested": ball.sphere(tested_depth).stop if tested_depth >= 0 else 0,
    }
    report["acceptor"] = {
        "states": len(acceptor.states),
        "transitions": len(acceptor.transitions),
        "initial": acceptor.initial,
    }
    stage("language")

    # subdivision graph
    graph = build_subdivision_graph(ball, delta, k_override=k)
    assign_labels(graph, table)
    artifacts.graph = graph
    report["xi"] = {
        "k": graph.k,
        "n_max": graph.n_max,
        "conventions": [
            "geodesic closeness is witnessed on outward geodesics from the "
            "origin through each endpoint (|v| = |u| + d(u, v)), meeting at "
            "distance <= 1; witnesses are searched exhaustively within the "
            "ball, so the relation under-approximates the unbounded one "
            "(see unstable_levels)",
            "equal levels are required for closeness, as defined",
        ],
        "level_edge_counts": {str(n): len(es) for n, es in graph.level_edges.items()},
        "total_horizontal": graph.edge_count(),
        "unstable_levels": list(graph.unstable_levels),
        "vertical_edges": ball.size - 1,
    }
    stage("xi")

    axiom_verdicts, subdivisions = verify_axioms(graph)
    verdicts.update(axiom_verdicts)
    artifacts.subdivisions = subdivisions
    vertex_classes, edge_classes = map(len, subdivisions) if subdivisions else (None, None)
    report["subdivisions"] = {"vertex_classes": vertex_classes, "edge_classes": edge_classes}
    stage("axioms")

    qi_verdicts, max_observed = verify_qi_bounds(graph)
    verdicts.update(qi_verdicts)
    empirical_k, extremal, used, exhaustive = estimate_qi_constants(graph, seed=config.seed)
    report["qi"] = {
        "max_observed": max_observed,
        "empirical_k": empirical_k,
        "extremal_pair": _render(ball, extremal),
        "pairs_sampled": used,
        "exhaustive_pairs": exhaustive,
    }
    stage("qi")

    report["checks"] = {
        name: {
            "passed": v.passed,
            "domain": v.domain,
            "counterexample": _render(ball, v.counterexample),
            "note": v.note,
        }
        for name, v in verdicts.items()
    }
    report["timings"] = timings
    exit_code = EXIT_OK if all(v.passed for v in verdicts.values()) else EXIT_CHECK_FAILED
    return PipelineResult(report, artifacts, exit_code)

