import pytest

from subforge.labeled_graph import LabeledGraph, find_isomorphism


def test_identical_graphs_identity_map():
    g = LabeledGraph(("x", "y", "y"), ((0, 1, "e"), (1, 2, "f")))
    assert find_isomorphism(g, g) == {0: 0, 1: 1, 2: 2}


def test_replace_and_make_run_the_checks():
    g = LabeledGraph(("x", "y"), ((0, 1, "e"),))
    with pytest.raises(ValueError, match="bad edge"):
        g._replace(edges=((1, 0, "e"),))
    with pytest.raises(ValueError, match="bad edge"):
        LabeledGraph._make((("x",), ((0, 1, "e"),)))
    assert type(g._replace(vertex_labels=("y", "x"))) is LabeledGraph


def test_vertex_label_mismatch():
    g1 = LabeledGraph(("x", "y"), ((0, 1, "e"),))
    g2 = LabeledGraph(("x", "z"), ((0, 1, "e"),))
    assert find_isomorphism(g1, g2) is None


def test_edge_label_mismatch():
    g1 = LabeledGraph(("x", "x"), ((0, 1, "e"),))
    g2 = LabeledGraph(("x", "x"), ((0, 1, "f"),))
    assert find_isomorphism(g1, g2) is None


def test_relabeled_path():
    g1 = LabeledGraph(("x", "y", "z"), ((0, 1, "e"), (1, 2, "f")))
    g2 = LabeledGraph(("z", "y", "x"), ((0, 1, "f"), (1, 2, "e")))
    assert find_isomorphism(g1, g2) == {0: 2, 1: 1, 2: 0}


def test_structure_mismatch_same_labels():
    # triangle vs path with identical label multisets
    g1 = LabeledGraph(("x", "x", "x"), ((0, 1, "e"), (1, 2, "e"), (0, 2, "e")))
    g2 = LabeledGraph(("x", "x", "x"), ((0, 1, "e"), (1, 2, "e")))
    assert find_isomorphism(g1, g2) is None


def test_lexicographically_least_map():
    g = LabeledGraph(("x", "x"), ())
    assert find_isomorphism(g, g) == {0: 0, 1: 1}


def test_empty_graphs():
    g = LabeledGraph((), ())
    assert find_isomorphism(g, g) == {}


def test_bad_edge_rejected():
    with pytest.raises(ValueError):
        LabeledGraph(("x",), ((0, 1, "e"),))
