import copy
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from subforge import log, parallel
from subforge.ball import bidirectional_distance, enumerate_ball
from subforge.presentation import Presentation, preset, verify_small_cancellation
from subforge.qi import (
    _distance,
    _is_geodesic_tree,
    _pair_constant,
    _tree_distance,
    _trusted_vertices,
    _xi_adjacency,
    estimate_qi_constants,
    verify_qi_bounds,
)
from subforge.subdivision import (
    HorizontalEdge,
    SubdivisionGraph,
    Witness,
    build_subdivision_graph,
    working_constant,
)

from bruteforce import free_distance
from reference import (
    FOUR_GENERATORS,
    TWO_RELATORS,
    distinct_letter_relators,
    graph_with,
    in_ball_neighbors,
    one_sided_distance,
    reference_qi_constants,
    relative_element,
)


def _all_passed(verdicts):
    # vertical edges are prefix closure's verdict, not a QI check
    assert list(verdicts) == ["qi_b", "qi_c", "qi_d"]
    return all(v.passed for v in verdicts.values())


def _graph_of(source, request):
    """The subdivision graph of a fixture that holds a graph or a run."""
    graph = request.getfixturevalue(source)
    return graph if isinstance(graph, SubdivisionGraph) else graph.artifacts.graph


def _tree_test_stop(graph):
    """The number of elements of B_M, M = min(R, 2 n_max): the ids whose
    Cayley graph QI's tree test counts."""
    ball = graph.ball
    return ball.sphere(min(ball.radius, 2 * graph.n_max)).stop


def test_f2_checks(f2_run):
    verdicts, observed = verify_qi_bounds(f2_run.artifacts.graph)
    assert _all_passed(verdicts)
    assert verdicts["qi_b"].domain == 0  # vacuous: no horizontal edges
    assert observed["b"] is None
    assert verdicts["qi_c"].domain == 0
    assert verdicts["qi_d"].domain > 0
    assert f2_run.report["qi"]["empirical_k"] == 1.0


def test_z_checks(z_run):
    assert _all_passed(verify_qi_bounds(z_run.artifacts.graph)[0])
    assert z_run.report["qi"]["empirical_k"] == 1.0


def test_surface_labeled_checks(surface_labeled_run):
    graph = surface_labeled_run.artifacts.graph
    verdicts, observed = verify_qi_bounds(graph)
    assert _all_passed(verdicts)
    assert verdicts["qi_b"].domain == 8
    assert observed["b"] == 2  # octagon partners sit at distance 2
    assert observed["b"] < 2 * 1.0 + 2
    # the sharper closeness-lemma bound also holds for the observed max
    assert observed["b"] <= graph.k
    assert verdicts["qi_d"].domain > 0


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
    check = verify_qi_bounds(graph)[0]["qi_c"]
    assert not check.passed
    # the first counterexample, not the last
    assert check.counterexample == (a, b) == (1, 3)


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
    verdicts, observed = verify_qi_bounds(graph)
    d = verdicts["qi_d"]
    assert not d.passed and observed["d"] == 3
    # the first counterexample, not the last
    assert d.counterexample == (aa, b)


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
    verdicts, observed = verify_qi_bounds(graph)
    b = verdicts["qi_b"]
    assert 2 * graph.delta + 2 == 2.0 and observed["b"] == 2 and b.domain > 0
    assert b.passed
    assert not verify_qi_bounds(graph_with(graph, delta=0.0))[0]["qi_b"].passed


@pytest.fixture(scope="module")
def f2_r8_graph():
    return build_subdivision_graph(enumerate_ball(preset("f2"), 8), 0.0)


@pytest.mark.parametrize("which", ["f2-r8", "surface2-labeled"])
def test_xi_distance_matches_one_sided_bfs(which, f2_r8_graph, surface_labeled_run):
    graph = f2_r8_graph if which == "f2-r8" else surface_labeled_run.artifacts.graph
    rows = _xi_adjacency(graph)
    assert len(rows) == graph.ball.sphere(graph.n_max).stop
    assert all(0 <= t < len(rows) for row in rows for t in row)  # no padding

    vertices = range(len(rows))
    rng = random.Random(8)
    for _ in range(300):
        u, v = rng.choice(vertices), rng.choice(vertices)
        assert bidirectional_distance(rows, u, v, len(rows)) == one_sided_distance(rows.__getitem__, u, v), (u, v)


@pytest.fixture(scope="module")
def surface_r6_graph():
    # surface2 R=6 at delta 0.5: K=2, so n_max is 3
    return build_subdivision_graph(enumerate_ball(preset("surface2"), 6), 0.5)


def test_rows_cut_at_n_max_misread_a_pair_whose_path_peaks_above_it(surface_r6_graph):
    # the only shortest paths from ab to dcD climb above both ends, to
    # level 4, so a search cut at n_max = 3 measures a detour; QI's search
    # of the ball's table within 2 n_max finds the climb
    ball, n_max = surface_r6_graph.ball, surface_r6_graph.n_max
    u, v = ball.element_of("ab"), ball.element_of("dcD")
    stop = ball.sphere(n_max).stop
    cut = one_sided_distance(lambda w: [t for t in in_ball_neighbors(ball, w).values() if t < stop], u, v)
    assert cut == 5
    assert ball.distance_between(u, v, 2 * n_max) == 3


def test_unreachable_pair_is_a_fault():
    rows = [[1], [0], []]
    assert bidirectional_distance(rows, 0, 2, len(rows)) is None
    with pytest.raises(ValueError, match="2 not reachable from 0 in the subdivision graph"):
        _distance(bidirectional_distance(rows, 0, 2, len(rows)), 0, 2, "subdivision graph")



@pytest.mark.parametrize("source", ["f2_r5_run", "z_run", "odd_r4_run"])
def test_tree_distance_is_the_search_distance(source, request):
    # both graphs are the geodesic tree here, so QI reads every distance
    # off the parent links; the search of the ball's table and the search
    # over the subdivision graph's rows agree
    graph = request.getfixturevalue(source).artifacts.graph
    ball = graph.ball
    assert _is_geodesic_tree(ball, _tree_test_stop(graph)) and not graph.edges
    xi = _xi_adjacency(graph)
    trusted = _trusted_vertices(graph)
    for u in trusted:
        for v in trusted:
            d = _tree_distance(ball.parent, u, v)
            assert d == ball.distance_between(u, v, 2 * graph.n_max) == bidirectional_distance(xi, u, v, len(xi)), (u, v)


@pytest.fixture(scope="module")
def surface_r6_delta1_graph(surface_r6_graph):
    return build_subdivision_graph(surface_r6_graph.ball, 1.0)


# (graph, elements of B_M, whether its Cayley graph is the geodesic tree,
# horizontal edges of the trusted levels)
@pytest.mark.parametrize(
    "source, stop, cayley_tree, edges",
    [
        ("f2-r4", 161, True, 0),
        ("f2_r8_graph", 13_121, True, 0),
        ("z_run", 17, True, 0),
        ("surface_r6_delta1_graph", 3_193, False, 56),
        ("surface_labeled_run", 65, True, 8),
    ],
)
def test_tree_test_of_each_graph(source, stop, cayley_tree, edges, request):
    if source == "f2-r4":
        graph = build_subdivision_graph(enumerate_ball(preset("f2"), 4), 0.0)
    else:
        graph = _graph_of(source, request)
    assert _tree_test_stop(graph) == stop
    assert _is_geodesic_tree(graph.ball, stop) == cayley_tree
    assert len(graph.edges) == edges


def test_tree_test_counts_a_repeated_entry(f2_run):
    # a top-level row that names its parent twice holds only ids of tree
    # neighbours, and the count still sees the extra entry: in B_M, here
    # the whole ball (f2 R=6, n_max 4), and in B_5, whose top-level rows
    # also name children outside it
    graph = copy.deepcopy(f2_run.artifacts.graph)
    ball, stop = graph.ball, _tree_test_stop(graph)
    assert stop == ball.size
    inner = ball.sphere(5).stop
    for b in (stop, inner):
        assert _is_geodesic_tree(ball, b)
    w = stop - 1
    other = next(x for x, t in enumerate(ball.row(w)) if t < 0)
    ball.table[w * ball.degree + other] = ball.parent[w]
    assert not _is_geodesic_tree(ball, stop)
    w = inner - 1
    child = next(x for x, t in enumerate(ball.row(w)) if t >= inner)
    ball.table[w * ball.degree + child] = ball.parent[w]
    assert not _is_geodesic_tree(ball, inner)


@pytest.mark.parametrize("source", ["f2_r8_graph", "surface_labeled_run", "surface_r6_delta1_graph"])
def test_qi_constants_equal_the_search_reference(source, request):
    graph = _graph_of(source, request)
    assert estimate_qi_constants(graph, seed=2024) == reference_qi_constants(graph, seed=2024)


def test_a_horizontal_edge_switches_the_subdivision_graph_to_the_search(f2_run, capsys, monkeypatch):
    # f2 has no close pair, so the edge aa-BB (distance 4) is injected with
    # its u^-1 v and a witness no check reads
    graph = f2_run.artifacts.graph
    ball = graph.ball
    u, v = sorted(ball.element_of(w) for w in ("aa", "BB"))
    assert graph.n_max == 4 and not graph.edges
    h = relative_element(ball, u, v)
    assert ball.sphere_of[h] == 4
    mutated = graph_with(graph, edges={(u, v): HorizontalEdge(Witness(u, v, 1), h)})
    monkeypatch.setattr(log, "verbose", True)
    got = estimate_qi_constants(mutated, seed=7)
    assert "Cayley graph by geodesic tree, subdivision graph by search over rows" in capsys.readouterr().err
    assert got == reference_qi_constants(mutated, seed=7)
    assert got[0] > 1.0  # the shortcut from aa to BB is measured
    # every QI check reads the same edge: (b) measures it, longer than K = 1
    verdicts, observed = verify_qi_bounds(mutated)
    assert verdicts["qi_b"].domain == 1 and verdicts["qi_b"].counterexample == (u, v)
    assert observed["b"] == 4


def test_qi_forks_nothing(surface_r6_delta1_graph, monkeypatch):
    # both graphs are searched here, and 2,000 sampled pairs on
    # two CPUs would be two chunks if QI split its pairs
    expected = reference_qi_constants(surface_r6_delta1_graph, seed=2024)
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

    def no_fork():
        raise AssertionError("QI forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert estimate_qi_constants(surface_r6_delta1_graph, seed=2024) == expected


@given(st.lists(distinct_letter_relators(), min_size=1, max_size=2, unique=True))
@example(list(TWO_RELATORS))
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_qi_constants_equal_the_search_reference_c16_family(relators):
    p = Presentation(FOUR_GENERATORS, tuple(relators))
    assume(verify_small_cancellation(p).satisfies_c16)
    # K=2 leaves levels 0-2 trusted (about 2,000 pairs, every one of them
    # measured), with horizontal edges on an odd relator
    graph = build_subdivision_graph(enumerate_ball(p, 5), 0.5)
    got = estimate_qi_constants(graph, sample_pairs=10**9)
    assert got == reference_qi_constants(graph, sample_pairs=10**9)
    assert got[3] and got[1] is not None  # exhaustive, with an extremal pair
