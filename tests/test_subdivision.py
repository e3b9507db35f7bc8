import copy

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from subforge import subdivision
from subforge.ball import enumerate_ball
from subforge.labeled_graph import find_isomorphism
from subforge.language import cone_type_classes
from subforge.presentation import Presentation, preset, verify_small_cancellation
from subforge.qi import verify_qi_bounds
from subforge.subdivision import (
    EdgeLabel,
    HorizontalEdge,
    VertexLabel,
    _edge_subdivision,
    _label_sort_key,
    assign_labels,
    build_subdivision_graph,
    close_candidates,
    geodesically_close,
    outward_vertices,
    same_level_neighbours,
    verify_axioms,
    working_constant,
)

from reference import (
    FOUR_GENERATORS,
    TWO_RELATORS,
    all_pairs_close_edges,
    cone_neighborhood,
    corrupt_one_label,
    distinct_letter_relators,
    graph_with,
    odd_relator_presentation,
    relative_element,
    same_level_within,
)


def _assert_witness_valid(ball, u1, u2, w):
    assert ball.sphere_of[u1] == ball.sphere_of[u2]
    for u, v in ((u1, w.first), (u2, w.second)):
        need = ball.sphere_of[v] - ball.sphere_of[u]
        assert need >= 0
        assert ball.distance_between(u, v, need) == need  # on an outward geodesic
    if w.separation == 0:
        assert w.first == w.second
    else:
        assert w.second in ball.row(w.first)


@pytest.fixture(scope="module")
def surface_k2(surface_ball):
    # forced K=2 widens the trusted region enough to exercise edge
    # subdivisions (cone typing at K=2 is knowingly undersized)
    table = cone_type_classes(surface_ball, 2)
    graph = build_subdivision_graph(surface_ball, 0.5, k_override=2)
    assign_labels(graph, table)
    return graph, table


def test_working_constant():
    assert working_constant(0.0) == 1
    assert working_constant(0.5) == 2
    assert working_constant(1.0) == 3
    assert working_constant(2.0) == 5


def test_outward_vertices_tree(f2_ball):
    # in a free group the outward cone of a letter is exactly the reduced
    # words extending it
    a = f2_ball.element_of("a")
    cone = outward_vertices(f2_ball, a)
    expected = {v for v in range(f2_ball.size) if f2_ball.normal_form(v)[:1] == (f2_ball.normal_form(a)[0],)}
    assert cone == expected


def test_geodesically_close_f2_none(f2_ball):
    a, b = f2_ball.element_of("a"), f2_ball.element_of("b")
    assert geodesically_close(f2_ball, a, b) is None


def test_geodesically_close_z_none(z_ball):
    a, inv = z_ball.element_of("a"), z_ball.element_of("A")
    assert geodesically_close(z_ball, a, inv) is None


def test_geodesically_close_surface_octagon(surface_ball):
    a, d = surface_ball.element_of("a"), surface_ball.element_of("d")
    w = geodesically_close(surface_ball, a, d)
    assert w is not None
    _assert_witness_valid(surface_ball, a, d, w)
    # non-partners on the vertex's octagons stay separated
    for other in ("b", "c"):
        assert geodesically_close(surface_ball, a, surface_ball.element_of(other)) is None


def test_geodesically_close_preconditions(f2_ball):
    with pytest.raises(ValueError):
        geodesically_close(f2_ball, 1, 1)
    with pytest.raises(ValueError):
        geodesically_close(f2_ball, 1, f2_ball.element_of("ab"))


def test_distance_one_pairs_are_close(surface_small_ball):
    # adjacency at equal levels forces closeness with the trivial witness;
    # no supported desk-scale group is non-bipartite, so inject an edge
    ball = copy.deepcopy(surface_small_ball)
    a, b = ball.element_of("a"), ball.element_of("b")
    letter = next(x for x, t in enumerate(ball.row(a)) if t >= 0 and ball.sphere_of[t] == 2)
    ball.table[a * ball.degree + letter] = b
    w = geodesically_close(ball, a, b)
    assert w is not None
    assert (w.first, w.second, w.separation) == (a, b, 1)


def test_build_f2_no_horizontal(f2_run):
    graph = f2_run.artifacts.graph
    assert graph.edges == {}
    assert graph.n_max == 4
    assert graph.unstable_levels == ()


def test_build_z_two_rays(z_run):
    graph = z_run.artifacts.graph
    assert graph.edges == {}
    ball = graph.ball
    assert all(len(ball.sphere(n)) == 2 for n in range(1, ball.radius + 1))


def test_surface_level_one_is_octagon_cycle(surface_labeled_run):
    graph = surface_labeled_run.artifacts.graph
    assert graph.n_max == 1
    edges = graph.edges
    assert len(edges) == 8 and all(graph.ball.sphere_of[u] == 1 for u, _ in edges)
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    # relator octagons pair each generator with exactly two partners
    assert set(degree.values()) == {2} and len(degree) == 8
    for u, v in edges:
        _assert_witness_valid(graph.ball, u, v, edges[(u, v)].witness)


def test_prefilter_loses_nothing(surface_ball):
    # candidates within distance K find every edge the all-pairs search
    # does, with the same record, in the same id order
    graph = build_subdivision_graph(surface_ball, 1.0)
    edges = all_pairs_close_edges(surface_ball, graph.n_max)
    assert list(graph.edges.items()) == list(edges.items())
    assert len(edges) == 8


def _set_tests_agree(ball, n: int, k: int) -> tuple[int, int, int]:
    """For every candidate pair (u, v) on level n, the set tests of
    ``build_subdivision_graph`` reject v (o(v) misses o(u) and the
    same-level neighbours of o(u)) exactly when ``geodesically_close``
    finds no witness.  Returns the numbers of pairs passed, passed by
    the same-level neighbours alone, and rejected."""
    passed = beside_only = rejected = 0
    for u in ball.sphere(n):
        out = outward_vertices(ball, u)
        beside = same_level_neighbours(ball, out)
        for v, _ in close_candidates(ball, u, k):
            other = outward_vertices(ball, v)
            meets = not other.isdisjoint(out)
            meets_beside = not other.isdisjoint(beside)
            assert (meets or meets_beside) == (geodesically_close(ball, u, v) is not None), (u, v)
            passed += meets or meets_beside
            beside_only += meets_beside and not meets
            rejected += not (meets or meets_beside)
    return passed, beside_only, rejected


def test_set_tests_match_witness_search_surface_r6():
    # the surface relator has even length: no same-level neighbours
    ball = enumerate_ball(preset("surface2"), 6)
    assert _set_tests_agree(ball, 1, 5) == (8, 0, 20)


@given(st.lists(distinct_letter_relators(), min_size=1, max_size=2, unique=True))
@example(list(TWO_RELATORS))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_set_tests_match_witness_search_c16_family(relators):
    p = Presentation(FOUR_GENERATORS, tuple(relators))
    assume(verify_small_cancellation(p).satisfies_c16)
    ball = enumerate_ball(p, 4)
    counts = [_set_tests_agree(ball, n, 4 - n) for n in (1, 2, 3)]
    # level 1 (K=3) both passes and rejects pairs for every member of the
    # family; the even relators have no candidates on level 3 (K=1)
    passed, _, rejected = counts[0]
    assert passed > 0 and rejected > 0
    # an odd relator (length 7) gives same-level edges, and some pairs are
    # close only through them
    beside_only = sum(c[1] for c in counts)
    assert (beside_only > 0) == any(len(r) % 2 for r in relators)


def test_set_tests_keep_every_edge_two_relators():
    # with same-level edges, the graph equals the witness search run on
    # every candidate pair
    ball = enumerate_ball(Presentation(FOUR_GENERATORS, TWO_RELATORS), 5)
    graph = build_subdivision_graph(ball, 0.5, k_override=2)
    searched = {}
    for n in range(1, graph.n_max + 1):
        for u in ball.sphere(n):
            for v, h in close_candidates(ball, u, 2):
                w = geodesically_close(ball, u, v)
                if w is not None:
                    searched[(u, v)] = HorizontalEdge(w, h)
    assert list(graph.edges.items()) == list(searched.items())
    assert graph.edges


def test_undersized_k_prefilter_is_detectably_lossy(surface_ball):
    # with K below the true working constant the distance-K candidates
    # drop the distance-4 close pairs (octagon halves meeting at a common
    # outward vertex); the all-pairs search finds them and QI (b), the
    # closeness-lemma bound 2*delta + 2 = 3, flags the graph
    filtered = build_subdivision_graph(surface_ball, 0.5, k_override=2)
    edges = all_pairs_close_edges(surface_ball, filtered.n_max)
    extra = edges.keys() - filtered.edges.keys()
    assert len(extra) == 8 and {surface_ball.sphere_of[u] for u, _ in extra} == {2}
    ab, dc = surface_ball.element_of("ab"), surface_ball.element_of("dc")
    assert (min(ab, dc), max(ab, dc)) in extra
    # the edges both searches find carry the same records, and the
    # injected ones their u^-1 v, as the candidate search would
    assert {e: edges[e] for e in filtered.edges} == filtered.edges
    grown = graph_with(filtered, edges=edges)
    # the partner index is derived per graph, so the copy sees the new edges
    assert dc in grown.partners(ab) and dc not in filtered.partners(ab)
    verdicts, observed = verify_qi_bounds(grown)
    b = verdicts["qi_b"]
    assert not b.passed and observed["b"] == 4
    assert b.counterexample in extra


@pytest.mark.parametrize(
    "which, k",
    [("surface", 2), ("surface", 3), ("odd_relator", 2), ("odd_relator", 3)],
)
def test_translated_candidates_match_bfs(which, k, surface_ball):
    # the translated candidates of u are the same-level vertices a depth-K
    # BFS from u finds, and the h kept with each is u^-1 v as an in-ball
    # path from u spells it, both for the candidates and the edges
    ball = surface_ball if which == "surface" else enumerate_ball(odd_relator_presentation(), 5)
    n_max = ball.radius - k - 1
    for n in range(1, n_max + 1):
        for u in ball.sphere(n):
            candidates = close_candidates(ball, u, k)
            assert [v for v, _ in candidates] == same_level_within(ball, u, k), u
            for v, h in candidates:
                assert h == relative_element(ball, u, v), (u, v)
    graph = build_subdivision_graph(ball, 0.0, k_override=k)
    for (u, v), edge in graph.edges.items():
        assert edge.relative == relative_element(ball, u, v), (u, v)


def test_witnesses_on_the_outer_sphere_flag_the_level(surface4_ball, surface_ball):
    # the octagon edges of level 1 need depth-4 witnesses: at R=4 they lie
    # on the outer sphere and the level is flagged, at R=5 it is stable
    graphs = [
        build_subdivision_graph(surface4_ball, 1.0, k_override=2),
        build_subdivision_graph(surface_ball, 1.0),
    ]
    edges = [{(g.ball.normal_form(u), g.ball.normal_form(v)) for u, v in g.edges} for g in graphs]
    assert len(edges[0]) == 8 and edges[0] == edges[1]
    assert all(len(u) == 1 for u, _ in edges[0])
    level = surface4_ball.sphere_of
    assert max(max(level[e.witness.first], level[e.witness.second]) for e in graphs[0].edges.values()) == 4
    assert [g.unstable_levels for g in graphs] == [(1,), ()]


def test_labels_f2(f2_run):
    graph = f2_run.artifacts.graph
    labels = set(graph.vertex_labels.values())
    assert len(labels) == 5
    assert all(lab.neighborhood == () for lab in labels)


def test_labels_surface(surface_labeled_run):
    graph = surface_labeled_run.artifacts.graph
    ball = graph.ball
    for (u, v), label in graph.edge_labels.items():
        # the closeness lemma's sharper bound: relative element under K
        assert len(label.relative) < graph.k
        assert ball.element_of(label.relative) == relative_element(ball, u, v)
    for v in ball.sphere(1):
        assert len(graph.vertex_labels[v].neighborhood) == 2


def test_cone_neighborhood_matches_labels(surface_labeled_run):
    graph = surface_labeled_run.artifacts.graph
    table = surface_labeled_run.artifacts.table
    ball = graph.ball
    for level in range(0, graph.n_max + 1):
        for g in ball.sphere(level):
            assert cone_neighborhood(ball, table, g) == graph.vertex_labels[g]


def test_cone_neighborhood_identity_empty(f2_run):
    assert f2_run.artifacts.graph.vertex_labels[0].neighborhood == ()


def test_edge_label_involution(surface_labeled_run):
    # every edge is labelled in both orientations, and the reverse label
    # swaps the endpoint types and spells the inverse relative element
    graph = surface_labeled_run.artifacts.graph
    ball = graph.ball
    assert len(graph.edge_labels) == 2 * len(graph.edges) == 16
    for u, v in graph.edges:
        label, back = graph.edge_labels[(u, v)], graph.edge_labels[(v, u)]
        assert (back.type_a, back.type_b) == (label.type_b, label.type_a)
        assert ball.element_of(label.relative + back.relative) == 0
        assert ball.element_of(back.relative + label.relative) == 0
        assert back.relative == ball.normal_form(ball.element_of(back.relative))


def _all_passed(verdicts):
    assert list(verdicts) == [f"axiom_{i}" for i in range(1, 7)]
    return all(v.passed for v in verdicts.values())


def test_axioms_f2(f2_run):
    verdicts, (vertex_subs, edge_subs) = verify_axioms(f2_run.artifacts.graph)
    assert _all_passed(verdicts)
    assert (vertex_subs, edge_subs) == f2_run.artifacts.subdivisions
    assert len(vertex_subs) == 5
    assert len(edge_subs) == 0
    sizes = sorted(g.size for g in vertex_subs.values())
    assert sizes == [3, 3, 3, 3, 4]


def test_axioms_z(z_run):
    verdicts, (vertex_subs, edge_subs) = verify_axioms(z_run.artifacts.graph)
    assert _all_passed(verdicts)
    assert len(vertex_subs) == 3
    assert len(edge_subs) == 0


def test_axioms_surface_labeled(surface_labeled_run):
    verdicts, _ = verify_axioms(surface_labeled_run.artifacts.graph)
    assert _all_passed(verdicts)
    assert verdicts["axiom_4"].domain == 8
    assert verdicts["axiom_5"].domain == 9


def test_axioms_surface_k2_edge_subdivisions(surface_k2):
    graph, _ = surface_k2
    verdicts, (_, edge_subs) = verify_axioms(graph)
    assert _all_passed(verdicts)
    assert edge_subs and len(edge_subs) >= 1
    for sub in edge_subs.values():
        sides = {lab[0] for lab in sub.vertex_labels}
        assert sides == {0, 1}
        for i, j, _lab in sub.edges:
            assert sub.vertex_labels[i][0] != sub.vertex_labels[j][0]



def test_label_reprs_are_pinned():
    # exports._by_repr and labeled_graph._signatures sort labels by their
    # repr, so a change to it would reorder the subdivision tables
    assert repr(VertexLabel(1, (((0,), 2),))) == "VertexLabel(own_type=1, neighborhood=(((0,), 2),))"
    assert repr(EdgeLabel(1, 2, (0, 3))) == "EdgeLabel(type_a=1, type_b=2, relative=(0, 3))"


def test_axiom6_orders_edge_sides_by_the_smaller_label(surface_k2, surface_ball):
    # numbering the cone types backwards is the same labelling, but now the
    # reverse reading of every edge is the smaller label, so axiom 6 swaps
    # the preimage sides of each edge before grouping it
    graph, table = surface_k2
    top = table.class_count - 1
    backwards = table._replace(
        class_of={e: top - c for e, c in table.class_of.items()},
        fingerprints=table.fingerprints[::-1],
    )
    flipped = assign_labels(build_subdivision_graph(surface_ball, 0.5, k_override=2), backwards)
    domain = [(u, v) for u, v in flipped.edges if surface_ball.sphere_of[u] < flipped.n_max]
    assert len(domain) == 8
    for u, v in domain:
        assert _label_sort_key(flipped.edge_labels[(v, u)]) < _label_sort_key(flipped.edge_labels[(u, v)])
    verdicts, (_, edge_subs) = verify_axioms(flipped)
    assert _all_passed(verdicts)
    assert len(edge_subs) == len(verify_axioms(graph)[1][1])
    differs = 0
    for label, sub in edge_subs.items():
        # side 0 holds the children of v, the endpoint label.type_a types
        u, v = next((u, v) for u, v in domain if flipped.edge_labels[(v, u)] == label)
        assert label.type_a == backwards.class_of[v]
        assert sub == _edge_subdivision(flipped, v, u)
        differs += sub != _edge_subdivision(flipped, u, v)
    assert differs > 0  # the side order shows in the table


def test_axiom6_searches_only_a_preimage_unequal_to_its_representative(f2_run, monkeypatch):
    # a preimage equal to its group's representative is isomorphic to it by
    # the identity, so f2 needs no search; swapping the labels of two
    # children of the last vertex below n_max reorders that vertex's
    # preimage without changing its isomorphism class, and that one
    # preimage is searched and passes
    calls = []

    def recording(g1, g2):
        calls.append((g1, g2))
        return find_isomorphism(g1, g2)

    monkeypatch.setattr(subdivision, "find_isomorphism", recording)
    graph = copy.deepcopy(f2_run.artifacts.graph)
    assert _all_passed(verify_axioms(graph)[0]) and calls == []
    ball, labels = graph.ball, graph.vertex_labels
    v = ball.sphere(graph.n_max - 1)[-1]
    c, d = ball.children(v)[:2]
    labels[c], labels[d] = labels[d], labels[c]
    verdicts, (vertex_subs, _) = verify_axioms(graph)
    assert _all_passed(verdicts)
    [(first, swapped)] = calls
    assert first != swapped and first == vertex_subs[labels[v]]


def test_corrupted_label_fails_condition5(f2_run):
    graph = copy.deepcopy(f2_run.artifacts.graph)
    corrupt_one_label(graph)
    verdicts, subdivisions = verify_axioms(graph)
    assert not verdicts["axiom_5"].passed
    assert verdicts["axiom_5"].counterexample is not None
    assert subdivisions is None


def test_witness_inheritance_in_condition4(surface_k2):
    graph, _ = surface_k2
    cond4 = verify_axioms(graph)[0]["axiom_4"]
    assert cond4.passed and cond4.domain == 56
