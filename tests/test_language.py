import copy

import pytest

from subforge.ball import TrustRadiusError, enumerate_ball
from subforge.language import (
    Verdict,
    build_acceptor,
    build_gamma,
    check_prefix_closure,
    cone_type_classes,
    level_fingerprint,
    verify_cone_lemma,
)
from subforge.presentation import preset

from bruteforce import naive_free_cone_classes, naive_free_transition_count
from reference import language, normal_forms


def test_gamma_is_whole_ball_for_f2(f2_ball):
    edges = build_gamma(f2_ball)
    assert edges == f2_ball.size - 1
    # in a tree every Cayley edge is a tree edge
    cayley_edges = sum(w >= 0 for w in f2_ball.table) // 2
    assert cayley_edges == edges
    assert sum(len(f2_ball.children(v)) for v in range(f2_ball.size)) == edges


def test_gamma_z_is_path(z_ball):
    assert build_gamma(z_ball) == z_ball.size - 1 == 16
    assert all(len(z_ball.children(v)) <= 2 for v in range(z_ball.size))


def test_children_are_the_parent_links(surface_ball):
    # the tree read off the ball: w is a child of v iff parent[w] == v
    kids = [[] for _ in range(surface_ball.size)]
    for w in range(1, surface_ball.size):
        kids[surface_ball.parent[w]].append(w)
    assert [surface_ball.children(v) for v in range(surface_ball.size)] == kids


def test_level_fingerprint_examples(f2_ball, z_ball):
    fmt = f2_ball.presentation.alphabet.format_word
    a = f2_ball.element_of("a")
    assert [fmt(f2_ball.normal_form(h)) for h in level_fingerprint(f2_ball, a, 1)] == ["A"]
    assert level_fingerprint(f2_ball, 0, 3) == ()
    zfmt = z_ball.presentation.alphabet.format_word
    aa = z_ball.element_of("aa")
    assert [zfmt(z_ball.normal_form(h)) for h in level_fingerprint(z_ball, aa, 2)] == ["A", "AA"]


def test_level_fingerprint_trust_radius(f2_ball):
    deep = f2_ball.element_of("ababab")  # level 6 = R
    with pytest.raises(TrustRadiusError):
        level_fingerprint(f2_ball, deep, 1)


def test_cone_classes_f2(f2_ball):
    table = cone_type_classes(f2_ball, 1)
    assert table.class_count == 5
    # cross-check against the purely free-reduction classification
    naive = naive_free_cone_classes(f2_ball.presentation.alphabet, f2_ball.radius, 1)
    assert len(set(naive.values())) == 5
    for e in range(f2_ball.size):
        if f2_ball.sphere_of[e] > table.trusted_depth:
            break
        assert table.class_of[e] == naive[f2_ball.normal_form(e)]


def test_cone_classes_z(z_ball):
    assert cone_type_classes(z_ball, 1).class_count == 3


def test_class_count_stabilizes_surface(surface_small_ball):
    small = enumerate_ball(preset("surface2"), 2)
    k = 1
    t_small = cone_type_classes(small, k)
    t_big = cone_type_classes(surface_small_ball, k)
    # same classification on the shared trusted region
    shared = {
        e
        for e in t_small.class_of
        if small.sphere_of[e] <= small.radius - k
    }
    fp_small = {t_small.fingerprints[t_small.class_of[e]] for e in shared}
    fp_big = {t_big.fingerprints[t_big.class_of[e]] for e in shared}
    assert fp_small == fp_big


def test_cone_lemma_passes(f2_ball, z_ball):
    assert verify_cone_lemma(f2_ball, cone_type_classes(f2_ball, 1), 2).passed
    assert verify_cone_lemma(z_ball, cone_type_classes(z_ball, 1), 2).passed


def test_cone_lemma_negative_control(f2_ball):
    rep = verify_cone_lemma(f2_ball, cone_type_classes(f2_ball, 0), 2)
    assert not rep.passed
    g, g2, h = rep.counterexample
    # the witness is concrete: the two cones genuinely differ at h
    from subforge.language import _probe_cone

    assert (h in _probe_cone(f2_ball, g, 2)) != (h in _probe_cone(f2_ball, g2, 2))


def test_acceptor_f2(f2_ball):
    table = cone_type_classes(f2_ball, 1)
    acc, verdict = build_acceptor(f2_ball, table)
    # 5 classes, 4 letters: every (class, letter) slot is decided
    assert verdict == Verdict(True, 20)
    assert len(acc.states) == 5
    assert len(acc.transitions) == naive_free_transition_count(
        f2_ball.presentation.alphabet, f2_ball.radius, 1
    ) == 16
    out_degree = {}
    for (s, _x), _t in acc.transitions.items():
        out_degree[s] = out_degree.get(s, 0) + 1
    assert out_degree[acc.initial] == 4
    assert all(d == 3 for s, d in out_degree.items() if s != acc.initial)


def test_acceptor_z(z_ball):
    table = cone_type_classes(z_ball, 1)
    acc, verdict = build_acceptor(z_ball, table)
    assert verdict.passed and len(acc.states) == 3 and len(acc.transitions) == 4
    out_degree = {}
    for (s, _x), _t in acc.transitions.items():
        out_degree[s] = out_degree.get(s, 0) + 1
    assert out_degree[acc.initial] == 2
    assert all(d == 1 for s, d in out_degree.items() if s != acc.initial)


def test_acceptor_conflict_names_its_letter_and_witnesses():
    # K = 2 is too small for the surface group at R=6: the first conflict
    # is a letter read from two elements of one class
    ball = enumerate_ball(preset("surface2"), 6)
    table = cone_type_classes(ball, 2)
    _, verdict = build_acceptor(ball, table)
    assert not verdict.passed and verdict.domain == 520
    letter, kind, a, b = verdict.counterexample
    assert letter in ball.presentation.alphabet.symbols
    assert kind in ("two-targets", "presence-differs")
    assert table.class_of[a] == table.class_of[b]
    assert verdict.note == f"16 conflicts; the first in class {table.class_of[a]}"


def test_acceptor_language_is_normal_forms(f2_ball):
    table = cone_type_classes(f2_ball, 1)
    acc, _ = build_acceptor(f2_ball, table)
    depth = f2_ball.radius - 1 - 1  # votes exist up to trusted - 1
    accepted = set(language(acc, depth))
    forms = {w for w in normal_forms(f2_ball) if len(w) <= depth}
    assert accepted == forms


def test_acceptor_prefix_closed(f2_ball):
    table = cone_type_classes(f2_ball, 1)
    acc, _ = build_acceptor(f2_ball, table)
    for w in language(acc, 4):
        assert acc.accepts(w)
        assert acc.accepts(w[:-1])


def test_prefix_closure_checks(f2_ball, z_ball, surface_ball):
    for ball in (f2_ball, z_ball, surface_ball):
        assert check_prefix_closure(ball) == Verdict(True, ball.size - 1)


def _spoiled(ball, field, e, value):
    """A copy of ``ball`` with entry e of one of its tables (parent links,
    last letters or the letter table) replaced."""
    table = list(getattr(ball, field))
    table[e] = value
    spoiled = copy.copy(ball)
    setattr(spoiled, field, table)
    return spoiled


def test_corrupt_parent_links_are_caught():
    ball = enumerate_ball(preset("f2"), 4)
    e = ball.element_of("ab")
    # a parent two levels down: the element is not its parent times its
    # last letter (the level check is axiom 3's; test_cli runs it on a
    # cached ball with such a link)
    bad_parent = _spoiled(ball, "parent", e, 0)
    assert check_prefix_closure(bad_parent).counterexample == (e, 0)
    # a wrong last letter leaves the levels intact, but the derived normal
    # form would spell another element
    a = ball.presentation.alphabet.parse_word("a")[0]
    bad_letter = _spoiled(ball, "last_letter", e, a)
    assert check_prefix_closure(bad_letter).counterexample == (e, ball.parent[e])
    # a parent link's table entry naming another element: the link read
    # through that entry fails, naming the element and its parent
    p = ball.parent[e]
    entry = p * ball.degree + ball.last_letter[e]
    bad_entry = _spoiled(ball, "table", entry, ball.element_of("ba"))
    assert check_prefix_closure(bad_entry) == Verdict(False, ball.size - 1, (e, p))
    assert check_prefix_closure(ball).passed and build_gamma(ball) == ball.size - 1
