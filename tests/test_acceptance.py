"""Acceptance suite: one test per criterion, one printed verdict line each.

Expected values are derived by the independent brute-force oracles in
``bruteforce.py`` (word enumeration plus reduction only), not hard-coded,
and every tolerance is exact as pinned below.
"""

import json
import math
import time

import pytest

from subforge.cli import main
from subforge.pipeline import RunConfig, run_pipeline
from subforge.presentation import preset
from subforge.words import inverse_word

from bruteforce import (
    naive_ball,
    naive_free_close,
    naive_free_cone_classes,
    naive_free_transition_count,
    naive_pieces,
    naive_sphere_sizes,
)
from reference import corrupt_pipeline_labels, word_oracle


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- criterion 1: F2 golden run ------------------------------------------------


def test_criterion_1_f2_golden_run():
    alphabet = preset("f2").alphabet
    t0 = time.perf_counter()
    result = run_pipeline(RunConfig(preset="f2", radius=6))
    elapsed = time.perf_counter() - t0
    report = result.report
    arts = result.artifacts

    _verdict("1a: runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s")

    expected_classes = len(set(naive_free_cone_classes(alphabet, 6, 1).values()))
    _verdict(
        "1b: cone types at K=1",
        report["cone_types"]["count"] == expected_classes,
        f"{report['cone_types']['count']} == {expected_classes} (brute force)",
    )

    expected_transitions = naive_free_transition_count(alphabet, 6, 1)
    acc = report["acceptor"]
    _verdict(
        "1c: acceptor 5 states / 16 transitions, all accepting",
        acc["states"] == expected_classes
        and acc["transitions"] == expected_transitions
        and acc["consistent"],
        f"states={acc['states']} transitions={acc['transitions']}",
    )

    ball_size = len(naive_ball(preset("f2"), 6))
    _verdict(
        "1d: geodesic tree has |B_6| - 1 edges",
        report["gamma"]["edges"] == ball_size - 1,
        f"{report['gamma']['edges']} == {ball_size - 1}",
    )

    # brute-force closeness search over every trusted level
    graph = arts.graph
    ball = arts.ball
    close_pairs = 0
    for level in range(1, graph.n_max + 1):
        sphere = ball.sphere(level)
        for i, u in enumerate(sphere):
            for v in sphere[i + 1 :]:
                if naive_free_close(alphabet, ball.normal_form(u), ball.normal_form(v), 6):
                    close_pairs += 1
    _verdict(
        "1e: zero horizontal edges",
        graph.edge_count() == 0 and close_pairs == 0,
        f"graph={graph.edge_count()} brute force={close_pairs}",
    )

    _verdict(
        "1f: all six conditions pass",
        all(c["passed"] for c in report["axioms"]),
        str([(c["index"], c["domain"]) for c in report["axioms"]]),
    )

    qi = {c["name"]: c for c in report["qi"]["checks"]}
    _verdict(
        "1g: QI (a),(c),(d) pass exhaustively, (b) vacuous",
        qi["a"]["passed"]
        and qi["c"]["passed"]
        and qi["d"]["passed"]
        and qi["a"]["domain"] > 0
        and qi["d"]["domain"] > 0
        and qi["b"]["domain"] == 0
        and qi["b"]["passed"],
        str({k: (v["passed"], v["domain"]) for k, v in qi.items()}),
    )

    _verdict("1h: empirical K = 1", report["qi"]["empirical_k"] == 1.0)
    _verdict("1: exit status 0", result.exit_code == 0)


# -- criterion 2: Z golden run -------------------------------------------------


def test_criterion_2_z_golden_run():
    t0 = time.perf_counter()
    result = run_pipeline(RunConfig(preset="z", radius=8))
    elapsed = time.perf_counter() - t0
    report = result.report

    _verdict("2a: runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f}s")

    expected_classes = len(set(naive_free_cone_classes(preset("z").alphabet, 8, 1).values()))
    _verdict(
        "2b: 3 cone types",
        report["cone_types"]["count"] == expected_classes == 3,
        f"{report['cone_types']['count']}",
    )

    sizes = naive_sphere_sizes(preset("z"), 8)
    _verdict(
        "2c: two rays",
        report["ball"]["sphere_sizes"] == sizes
        and all(s == 2 for s in sizes[1:])
        and report["xi"]["total_horizontal"] == 0,
        str(sizes),
    )

    _verdict(
        "2d: all conditions and QI checks pass",
        all(report["checks"].values()) and result.exit_code == 0,
        str([k for k, v in report["checks"].items() if not v]),
    )


# -- criterion 3: genus-2 run ---------------------------------------------------


def test_criterion_3_surface_run():
    t0 = time.perf_counter()
    result = run_pipeline(RunConfig(preset="surface2", radius=5))
    elapsed = time.perf_counter() - t0
    report = result.report

    _verdict("3a: runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s")

    sc = report["small_cancellation"]
    expected_pieces = naive_pieces(preset("surface2"))
    _verdict(
        "3b: C'(1/6) with max piece 1 / relator length 8 (exact)",
        sc["max_piece_len"] == expected_pieces == 1
        and sc["min_relator_len"] == 8
        and sc["satisfies_c16"],
        str(sc),
    )

    _verdict(
        "3c: prefix closure holds exhaustively",
        report["prefix_closure"]["passed"]
        and report["prefix_closure"]["domain"] == report["ball"]["size"],
        f"domain {report['prefix_closure']['domain']}",
    )

    k_expected = math.ceil(2 * report["delta"]["value"]) + 1
    lemma = report["cone_lemma"]
    _verdict(
        "3d: cone lemma passes at K = ceil(2*delta)+1, probe 2",
        lemma["passed"] and lemma["k"] == k_expected and lemma["probe"] == 2,
        f"k={lemma['k']} pairs={lemma['pairs_checked']} tested={lemma['elements_tested']}",
    )

    qi_b = next(c for c in report["qi"]["checks"] if c["name"] == "b")
    _verdict(
        "3e: closeness-lemma bound (QI (b)), 0 violations",
        qi_b["passed"] and (qi_b["domain"] == 0 or qi_b["max_observed"] <= k_expected),
        f"max {qi_b['max_observed']} <= {k_expected} over {qi_b['domain']} edges",
    )

    _verdict(
        "3f: all six conditions pass on levels <= n_max",
        all(c["passed"] for c in report["axioms"]),
        f"n_max={report['xi']['n_max']} domains="
        + str([(c["index"], c["domain"]) for c in report["axioms"]]),
    )

    qi = {c["name"]: c for c in report["qi"]["checks"]}
    _verdict(
        "3g: all four QI checks pass on trusted levels",
        all(qi[n]["passed"] for n in "abcd"),
        str({n: (qi[n]["passed"], qi[n]["domain"]) for n in "abcd"}),
    )
    _verdict("3: exit status 0", result.exit_code == 0)


# -- criterion 4: stability across radii ----------------------------------------


@pytest.mark.parametrize(
    "name,radius",
    [("f2", 6), ("z", 8), ("surface2", 5)],
)
def test_criterion_4_stability(name, radius):
    big = run_pipeline(RunConfig(preset=name, radius=radius))
    small = run_pipeline(RunConfig(preset=name, radius=radius - 1))
    tb = big.artifacts.table
    ts = small.artifacts.table

    # cone-type count restricted to the shared trusted region
    shared_depth = min(tb.trusted_depth, ts.trusted_depth)
    fps_big = {
        tb.fingerprints[tb.class_of[e]]
        for e in tb.class_of
        if big.artifacts.ball.sphere_of[e] <= shared_depth
    }
    fps_small = {
        ts.fingerprints[ts.class_of[e]]
        for e in ts.class_of
        if small.artifacts.ball.sphere_of[e] <= shared_depth
    }
    _verdict(
        f"4-{name}: cone-type count agrees on shared region",
        fps_big == fps_small,
        f"{len(fps_big)} classes",
    )
    _verdict(
        f"4-{name}: full class counts stabilize",
        tb.class_count == ts.class_count,
        f"{ts.class_count} -> {tb.class_count}",
    )

    shared_nmax = min(big.artifacts.graph.n_max, small.artifacts.graph.n_max)
    edges_big = {n: big.artifacts.graph.level_edges.get(n, ()) for n in range(1, shared_nmax + 1)}
    edges_small = {n: small.artifacts.graph.level_edges.get(n, ()) for n in range(1, shared_nmax + 1)}
    _verdict(
        f"4-{name}: per-level horizontal edges agree on shared levels",
        edges_big == edges_small,
        f"levels 1..{shared_nmax}",
    )


# -- criterion 5: negative controls ---------------------------------------------


def test_criterion_5_negative_controls(tmp_path, monkeypatch):
    # delta 0.5 is undersized for the surface group, and K = 2 follows from it
    out1 = tmp_path / "k2"
    code1 = main(["run", "--preset", "surface2", "--radius", "5", "--delta", "0.5", "--out", str(out1)])
    report1 = json.loads((out1 / "report.json").read_text())
    _verdict(
        "5a: undersized delta (K=2) makes the cone lemma fail with a concrete witness (exit 2)",
        code1 == 2
        and report1["cone_types"]["k"] == 2
        and not report1["cone_lemma"]["passed"]
        and report1["cone_lemma"]["counterexample"] is not None,
        str(report1["cone_lemma"]["counterexample"]),
    )

    out2 = tmp_path / "corrupt"
    corrupt_pipeline_labels(monkeypatch)
    code2 = main(["run", "--preset", "f2", "--radius", "5", "--out", str(out2)])
    report2 = json.loads((out2 / "report.json").read_text())
    cond5 = next(c for c in report2["axioms"] if c["index"] == 5)
    _verdict(
        "5b: corrupted vertex label makes condition 5 fail with counterexample (exit 2)",
        code2 == 2 and not cond5["passed"] and cond5["counterexample"] is not None,
        str(cond5["counterexample"]),
    )


# -- criterion 6: oracle cross-validation ----------------------------------------


def test_criterion_6_oracle_cross_validation():
    import random

    from subforge.ball import enumerate_ball

    p = preset("surface2")
    oracle = word_oracle(p)
    rng = random.Random(20240)
    failures = 0
    for _ in range(1000):
        word = ()
        for _ in range(rng.randrange(1, 5)):
            r = rng.choice(p.relators)
            if rng.random() < 0.5:
                r = inverse_word(r, p.alphabet)
            conj = tuple(rng.randrange(p.alphabet.size) for _ in range(rng.randrange(0, 7)))
            word = word + conj + r + inverse_word(conj, p.alphabet)
        if oracle.reduce(word) != ():
            failures += 1
    _verdict(
        "6b: 1000 conjugated-relator products reduce to empty (0 failures)",
        failures == 0,
        f"{failures} failures",
    )

    from reference import normal_forms, odd_relator_presentation, reference_ball

    for name, pres, radius in (
        ("surface2", preset("surface2"), 5),
        ("odd relator", odd_relator_presentation(), 4),
    ):
        walked = enumerate_ball(pres, radius)
        searched, searched_forms = reference_ball(pres, radius)
        spheres = range(radius + 1)
        _verdict(
            f"6c: relator-loop walk and Dehn-oracle search build identical {name} balls at R={radius}",
            normal_forms(walked) == searched_forms
            and walked.table == searched.table
            and [walked.sphere(n) for n in spheres] == [searched.sphere(n) for n in spheres],
            f"{walked.size} elements",
        )


# -- criterion 7: determinism -----------------------------------------------------


@pytest.mark.parametrize(
    "name,radius",
    [("f2", 6), ("z", 8), ("surface2", 5)],
)
def test_criterion_7_determinism(tmp_path, name, radius):
    outs = []
    for run_idx in (0, 1):
        out = tmp_path / f"{name}-{run_idx}"
        code = main(
            [
                "run",
                "--preset",
                name,
                "--radius",
                str(radius),
                "--out",
                str(out),
                "--export",
                "dot,json",
            ]
        )
        assert code == 0
        outs.append(out)

    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    identical = True
    for fname in files:
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        if fname == "report.json":
            ra = json.loads(a)
            rb = json.loads(b)
            ra.pop("timings")
            rb.pop("timings")
            if ra != rb:
                identical = False
        elif a != b:
            identical = False
    _verdict(
        f"7-{name}: repeated runs byte-identical (timings excluded)",
        identical,
        f"{len(files)} files",
    )
