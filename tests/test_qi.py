import copy
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from subforge.ball import bidirectional_distance, enumerate_ball
from subforge.presentation import preset
from subforge.qi import (
    _cayley_adjacency,
    _distance,
    _pair_constant,
    _trusted_vertices,
    _xi_adjacency,
    estimate_qi_constants,
    verify_qi_bounds,
)
from subforge.subdivision import build_subdivision_graph, working_constant

from bruteforce import free_distance
from reference import one_sided_distance


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_f2_checks(f2_run):
    qi = f2_run.artifacts.qi_report
    assert qi.all_passed
    assert _check(qi, "a").domain_size == f2_run.artifacts.ball.size - 1
    assert _check(qi, "b").domain_size == 0  # vacuous: no horizontal edges
    assert _check(qi, "c").domain_size == 0
    assert _check(qi, "d").domain_size > 0
    assert qi.empirical_k == 1.0


def test_z_checks(z_run):
    qi = z_run.artifacts.qi_report
    assert qi.all_passed
    assert qi.empirical_k == 1.0


def test_surface_labeled_checks(surface_labeled_run):
    qi = surface_labeled_run.artifacts.qi_report
    assert qi.all_passed
    b = _check(qi, "b")
    assert b.domain_size == 8
    assert b.max_observed == 2  # octagon partners sit at distance 2
    assert b.max_observed < 2 * 1.0 + 2
    # the sharper closeness-lemma bound also holds for the observed max
    assert b.max_observed <= surface_labeled_run.artifacts.graph.k
    assert _check(qi, "d").domain_size > 0


def test_f2_empirical_k_matches_tree_distances(f2_run):
    # independent route: in a tree the level graph equals the Cayley graph,
    # so distances agree and the per-pair constant is exactly 1
    ball = f2_run.artifacts.ball
    alphabet = ball.presentation.alphabet
    for u, v in [(1, 2), (5, 40), (9, 100), (0, 60)]:
        d = free_distance(alphabet, ball.normal_form(u), ball.normal_form(v))
        assert _pair_constant(d, d) == 1.0


def test_sampled_never_exceeds_exhaustive(f2_run):
    graph = f2_run.artifacts.graph
    k_full, _, n_full, exhaustive = estimate_qi_constants(graph, sample_pairs=10**9)
    assert exhaustive
    k_sample, _, n_sample, ex2 = estimate_qi_constants(graph, sample_pairs=50, seed=3)
    assert not ex2 and n_sample == 50
    assert k_sample <= k_full


def test_pair_constant_formula():
    assert _pair_constant(5, 5) == 1.0
    assert _pair_constant(1, 7) == 3.5  # needs K >= d_y/(d_x+1)
    k = _pair_constant(9, 1)
    assert k >= 1.0 and (1 / k) * 9 - k <= 1 + 1e-9


def test_injected_same_level_edge_fails_check_c(surface_labeled_run):
    graph = copy.deepcopy(surface_labeled_run.artifacts.graph)
    ball = graph.ball
    a, b, c, d = (ball.element_of(x) for x in "abcd")
    for u, w in ((a, b), (c, d)):
        letter = next(x for x, t in enumerate(ball.row(u)) if t >= 0 and ball.sphere_of[t] == 2)
        ball.table[u * ball.degree + letter] = w
    qi = verify_qi_bounds(graph)
    check = _check(qi, "c")
    assert not check.passed
    # the first counterexample, not the last
    assert check.witness == (a, b) == (1, 3)


def test_injected_level_changing_edges_fail_check_d(surface_labeled_run):
    graph = copy.deepcopy(surface_labeled_run.artifacts.graph)
    ball = graph.ball
    a, b, c, aa, ab = (ball.element_of(x) for x in ("a", "b", "c", "aa", "ab"))
    # aa and ab hang off a, and neither b nor c is a horizontal partner of a
    assert ball.parent[aa] == ball.parent[ab] == a
    assert b not in graph.partners(a) and c not in graph.partners(a)
    for u, w in ((aa, b), (ab, c)):
        letter = next(x for x, t in enumerate(ball.row(u)) if t >= 0 and ball.sphere_of[t] == 3)
        ball.table[u * ball.degree + letter] = w
    d = _check(verify_qi_bounds(graph), "d")
    assert not d.passed and d.max_observed == 3
    # the first counterexample, not the last
    assert d.witness == (aa, b)


@pytest.mark.parametrize(
    "delta",
    [0.0, 1.0, 2.0, 5.0, 0.5, 1.5, 2.5, 0.1, 0.3, 1 / 3, 0.7, 2.05, 3.9, math.nextafter(0.5, 1.0)],
)
def test_closeness_bound_is_the_working_constant(delta):
    # for an integer length d, d < 2*delta + 2 (evaluated exactly) is
    # d <= ceil(2*delta) + 1: QI (b) decides the closeness-lemma bound on
    # the same constant that limits the candidate search
    for d in range(13):
        assert (d < 2 * Fraction(delta) + 2) == (d <= working_constant(delta)), (d, delta)


def test_b_is_exact_where_the_float_bound_rounds(surface_ball):
    # at the least positive delta, 2*delta + 2 rounds to 2.0, yet the
    # length-2 octagon edges lie below the exact bound
    graph = build_subdivision_graph(surface_ball, math.nextafter(0.0, 1.0))
    b = _check(verify_qi_bounds(graph), "b")
    assert b.bound == 2.0 and b.max_observed == 2 and b.domain_size > 0
    assert b.passed
    assert not _check(verify_qi_bounds(replace(graph, delta=0.0)), "b").passed


@pytest.mark.parametrize("which", ["f2-r8", "surface2-labeled"])
def test_xi_distance_matches_one_sided_bfs(which, surface_labeled_run):
    if which == "f2-r8":
        ball = enumerate_ball(preset("f2"), 8)
        graph = build_subdivision_graph(ball, 0.0)
    else:
        graph = surface_labeled_run.artifacts.graph
    rows = _xi_adjacency(graph)
    assert len(rows) == graph.ball.sphere(graph.n_max).stop
    assert all(0 <= t < len(rows) for row in rows for t in row)  # no padding

    vertices = range(len(rows))
    rng = random.Random(8)
    for _ in range(300):
        u, v = rng.choice(vertices), rng.choice(vertices)
        assert _distance(rows, u, v, "subdivision graph") == one_sided_distance(rows.__getitem__, u, v), (u, v)


# (run, Cayley rows): surface2 R=5 at delta 1.0 has n_max 1, so its rows
# are B_2, 65 of the ball's 22,289 elements; the others have 2 n_max >= R,
# so their rows are the whole ball
@pytest.mark.parametrize(
    "run, row_count",
    [("surface_labeled_run", 65), ("f2_r5_run", 485), ("z_run", 17), ("odd_r4_run", 161)],
)
def test_cayley_rows_of_b_m_give_the_in_ball_distance(run, row_count, request):
    graph = request.getfixturevalue(run).artifacts.graph
    ball = graph.ball
    rows = _cayley_adjacency(graph)
    assert len(rows) == row_count == ball.sphere(min(ball.radius, 2 * graph.n_max)).stop
    assert all(0 <= t < len(rows) for row in rows for t in row)
    trusted = _trusted_vertices(graph)
    assert len(trusted) >= 2
    for u in trusted:
        for v in trusted:
            if u < v:
                d = ball.distance_between(u, v, 2 * ball.radius)
                assert _distance(rows, u, v, "Cayley graph") == d, (u, v)


def test_unreachable_pair_is_a_fault():
    rows = [[1], [0], []]
    assert bidirectional_distance(rows, 0, 2, len(rows)) is None
    with pytest.raises(ValueError, match="2 not reachable from 0 in the Cayley graph"):
        _distance(rows, 0, 2, "Cayley graph")
