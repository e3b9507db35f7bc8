"""End-to-end pipeline: parse, enumerate, estimate delta, build the
language machinery and the subdivision graph, then verify everything.

Each fact is decided by one verdict in ``report["checks"]``: the small
cancellation certificate, prefix closure, the cone lemma, acceptor
consistency, the six axioms (axiom 3 covers the geodesic tree's parent
links) and QI (a)-(d) (QI (b) covers the closeness-lemma bound on
horizontal edges). K is ceil(2*delta) + 1, clamped to the radius, and is
decided once; an inconsistent acceptor at that K fails its verdict.

The pipeline keeps going after verification failures so the report carries
every verdict; operational problems (bad config, resource caps) abort.
Exit status contract: 0 all checks passed, 2 some verification check
failed, 1 operational error.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import asdict, dataclass

from . import ball as ball_mod
from . import hyperbolicity as hyp
from .ball import BallCapExceeded, CayleyBall, enumerate_ball
from .language import (
    ConeTypeTable,
    WordAcceptor,
    build_acceptor,
    build_gamma,
    check_prefix_closure,
    cone_type_classes,
    verify_cone_lemma,
)
from .parallel import cpu_count
from .presentation import Presentation, parse_presentation, preset, verify_small_cancellation
from .qi import estimate_qi_constants, verify_qi_bounds
from .subdivision import assign_labels, build_subdivision_graph, verify_axioms, working_constant

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = None
    file: str | None = None
    radius: int = 4
    delta_override: float | None = None
    delta_radius: int | None = None
    element_cap: int = ball_mod.DEFAULT_ELEMENT_CAP
    probe: int = 2
    qi_samples: int = 2000
    seed: int = 2024
    cache_dir: str | None = None

    def validate(self) -> None:
        if (self.preset is None) == (self.file is None):
            raise ConfigError("exactly one of preset/file must be given")
        if self.radius < 1:
            raise ConfigError("radius must be >= 1")
        if self.element_cap <= 0:
            raise ConfigError("element cap must be positive")
        if self.delta_radius is not None and not 0 <= 2 * self.delta_radius <= self.radius:
            raise ConfigError("delta radius must satisfy 0 <= 2*r <= radius")
        # the working constant is ceil(2*delta) + 1, so 2*delta must be finite
        if self.delta_override is not None and not 0 <= 2 * self.delta_override < math.inf:
            raise ConfigError("delta override must be >= 0 with 2*delta finite")
        # a check handed nothing to test would still read as a pass
        if self.qi_samples < 1:
            raise ConfigError("qi samples must be >= 1")
        if not 0 <= self.probe <= self.radius:
            raise ConfigError(f"probe depth {self.probe} must lie in [0, {self.radius}]")


@dataclass
class Artifacts:
    presentation: Presentation | None = None
    ball: CayleyBall | None = None
    delta: hyp.DeltaEstimate | None = None
    table: ConeTypeTable | None = None
    acceptor: WordAcceptor | None = None
    acceptor_report: object | None = None
    graph: object | None = None
    axiom_report: object | None = None
    qi_report: object | None = None


@dataclass
class PipelineResult:
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
    os.makedirs(config.cache_dir, exist_ok=True)
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
    # write to a temp file and rename, so readers never see a partial file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(ball.to_bytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return ball


def _describe(ball: CayleyBall, e: int) -> dict:
    return {"id": e, "word": ball.presentation.alphabet.format_word(ball.normal_form(e))}


def _maybe_describe(ball, item):
    if item is None:
        return None
    return [_describe(ball, e) if isinstance(e, int) and 0 <= e < ball.size else e for e in item]


def run_pipeline(config: RunConfig) -> PipelineResult:
    config.validate()
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    checks: dict[str, bool] = {}
    report: dict = {
        "tool": "subforge",
        "status": "completed",
        # every setting but the cache directory, so cold and cached runs
        # write the same report
        "config": {k: v for k, v in asdict(config).items() if k != "cache_dir"},
    }
    artifacts = Artifacts()
    log.info("chunks per parallel loop: at most %d, one per CPU in the affinity mask", cpu_count())

    last = [t0]

    def stage(name):
        now = time.perf_counter()
        timings[name] = now - last[0]
        last[0] = now
        log.info("%s: %.3f s", name, timings[name])

    # parse + small cancellation certificate
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
    checks["small_cancellation"] = pieces.satisfies_c16
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
    checks["prefix_closure"] = check_prefix_closure(ball)
    report["prefix_closure"] = {"passed": checks["prefix_closure"], "domain": ball.size}
    stage("ball")
    log.info("ball: %d elements, sphere sizes %s", ball.size, ball.sphere_sizes)

    # delta
    delta_radius = config.delta_radius if config.delta_radius is not None else ball.radius // 2
    if config.delta_override is not None:
        delta = config.delta_override
        estimate = None
        report["delta"] = {"value": delta, "source": "override", "is_lower_bound": True}
    else:
        estimate = hyp.compute_delta(ball, delta_radius)
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

    # geodesic tree (axiom 3 reports the parent links as a verdict)
    edges = build_gamma(ball)
    report["gamma"] = {"vertices": ball.size, "edges": edges}
    stage("gamma")

    # cone types at K = ceil(2*delta) + 1, clamped to the ball
    k = min(working_constant(delta), ball.radius)
    table = cone_type_classes(ball, k)
    acceptor, acc_report = build_acceptor(ball, table)
    artifacts.table = table
    artifacts.acceptor = acceptor
    artifacts.acceptor_report = acc_report
    lemma = verify_cone_lemma(ball, table, config.probe)
    report["cone_types"] = {
        "k": k,
        "k_clamped_to_radius": k != working_constant(delta),
        "count": table.class_count,
        "trusted_depth": table.trusted_depth,
        # K is decided once. The one-entry list stays because the
        # benchmark reads its length as language.k_attempts, and its
        # traced runs fail with a KeyError without it
        "adaptation": [{"k": k, "consistent": acc_report.consistent}],
    }
    report["cone_lemma"] = {
        "passed": lemma.passed,
        "k": lemma.k,
        "probe": lemma.probe,
        "tested_depth": lemma.tested_depth,
        "elements_tested": lemma.elements_tested,
        "pairs_checked": lemma.pairs_checked,
        "counterexample": _maybe_describe(ball, lemma.counterexample),
    }
    checks["cone_lemma"] = lemma.passed
    report["acceptor"] = {
        "consistent": acc_report.consistent,
        "states": acc_report.state_count,
        "transitions": acc_report.transition_count,
        "initial": acceptor.initial,
        "conflicts": [list(map(str, c)) for c in acc_report.conflicts],
    }
    checks["acceptor_consistent"] = acc_report.consistent
    stage("language")

    # subdivision graph
    graph = build_subdivision_graph(ball, delta, k_override=k)
    assign_labels(graph, table)
    artifacts.graph = graph
    report["xi"] = {
        "k": graph.k,
        "n_max": graph.n_max,
        "horizon": ball.radius,
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
        "label_warnings": list(graph.label_warnings),
        "vertical_edges": ball.size - 1,
    }
    stage("xi")

    axioms = verify_axioms(graph)
    artifacts.axiom_report = axioms
    report["axioms"] = [
        {
            "index": c.index,
            "name": c.name,
            "passed": c.passed,
            "domain": c.domain_size,
            "counterexample": _maybe_describe(ball, c.counterexample),
            "note": c.note,
        }
        for c in axioms.conditions
    ]
    for c in axioms.conditions:
        checks[f"axiom_{c.index}"] = c.passed
    report["subdivisions"] = {
        "vertex_classes": None if axioms.vertex_subdivisions is None else len(axioms.vertex_subdivisions),
        "edge_classes": None if axioms.edge_subdivisions is None else len(axioms.edge_subdivisions),
    }
    stage("axioms")

    qi = verify_qi_bounds(graph)
    empirical_k, extremal, used, exhaustive = estimate_qi_constants(
        graph, sample_pairs=config.qi_samples, seed=config.seed
    )
    qi.empirical_k = empirical_k
    qi.extremal_pair = extremal
    qi.pairs_sampled = used
    qi.exhaustive_pairs = exhaustive
    artifacts.qi_report = qi
    report["qi"] = {
        "checks": [
            {
                "name": c.name,
                "description": c.description,
                "domain": c.domain_size,
                "max_observed": c.max_observed,
                "bound": c.bound,
                "passed": c.passed,
                "witness": _maybe_describe(ball, c.witness),
            }
            for c in qi.checks
        ],
        "empirical_k": empirical_k,
        "extremal_pair": _maybe_describe(ball, extremal),
        "pairs_sampled": used,
        "exhaustive_pairs": exhaustive,
    }
    for c in qi.checks:
        checks[f"qi_{c.name}"] = c.passed
    stage("qi")

    report["checks"] = checks
    report["timings"] = timings
    exit_code = EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED
    return PipelineResult(report, artifacts, exit_code)

