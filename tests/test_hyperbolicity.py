
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from subforge import hyperbolicity
from subforge.ball import enumerate_ball
from subforge.presentation import Presentation, parse_presentation, preset, verify_small_cancellation
from subforge.hyperbolicity import (
    _DeltaRun,
    compute_delta,
    enumerate_pair_geodesics,
)
from subforge.ball import TrustRadiusError

from reference import (
    FOUR_GENERATORS,
    TWO_RELATORS,
    BfsPairGeodesics,
    distinct_letter_relators,
    odd_relator_presentation,
    reevaluate_witness,
    reference_delta,
    validate_delta,
)


def test_f2_tree_delta_zero(f2_ball):
    est = compute_delta(f2_ball, 3)
    assert est.delta == 0.0
    assert est.is_lower_bound


def test_z_line_delta_zero(z_ball):
    assert compute_delta(z_ball, 4).delta == 0.0


def test_no_relators_zero_at_every_radius(f2_ball):
    for r in (1, 2, 3):
        assert compute_delta(f2_ball, r).delta == 0.0


def test_surface_delta_positive_with_witness(surface_ball):
    est = compute_delta(surface_ball, 2)
    assert est.delta > 0
    assert est.witness is not None
    # the stored witness reproduces exactly the reported value
    assert reevaluate_witness(surface_ball, est.witness) == est.delta


def test_monotone_in_radius(surface_ball):
    d1 = compute_delta(surface_ball, 1).delta
    d2 = compute_delta(surface_ball, 2).delta
    assert d1 <= d2


def test_precondition_radius(surface_ball):
    with pytest.raises(ValueError):
        compute_delta(surface_ball, 3)  # 2r > R


def test_validate_delta(f2_ball, surface_ball):
    ok, _ = validate_delta(f2_ball, 0.0, 200)
    assert ok
    with pytest.raises(ValueError):
        validate_delta(f2_ball, -1.0, 10)
    star = compute_delta(surface_ball, 2).delta
    ok, _ = validate_delta(surface_ball, star, 400)
    assert ok
    ok, cex = validate_delta(surface_ball, star - 1, 400)
    assert not ok and cex is not None
    assert cex.value > star - 1


def test_triangle_counts(surface_ball):
    # exhaustive: the pairs x <= y of B_r, |B_r| (|B_r| + 1) / 2 of them
    # (|B_4| = 161 in F2, |B_2| = 65 in the surface group), of which one
    # per orbit of the 8 (F2) or 4 (surface) letter symmetries is computed
    f2 = compute_delta(enumerate_ball(preset("f2"), 8), 4)
    assert (f2.triangles, f2.triangles_computed) == (13_041, 1_691)
    surface = compute_delta(surface_ball, 2)
    assert (surface.triangles, surface.triangles_computed) == (2_145, 561)


def _same_delta(ball, r):
    # every field but triangles_computed, which only the quotient lowers
    est = compute_delta(ball, r)
    ref = reference_delta(ball, r)
    assert est._replace(triangles_computed=ref.triangles_computed) == ref
    return est


F5 = "gens: a A b B c C d D e E\n"
# five pairs and one C'(1/6) relator with 20 letter symmetries
F5_RELATOR = F5 + "relators: abcdeABCDE\n"


@pytest.mark.parametrize(
    "name, radius, r, triangles, computed",
    [
        ("f2", 6, 3, 1_431, 202),
        ("f2", 8, 4, 13_041, 1_691),
        ("z", 8, 4, 45, 25),
        # 2^4 4! = 384 candidates for 45 triangles: no search
        ("surface2", 4, 1, 45, 45),
        ("surface2", 4, 2, 2_145, 561),
        # only the identity symmetry: every triangle is computed
        ("odd_relator", 4, 2, 153, 153),
        # 2^5 5! = 3,840 candidates: no search for 66 triangles; for
        # 5,151 all 3,840 are symmetries of F5 and 20 of the relator
        ("f5", 2, 1, 66, 66),
        ("f5", 4, 2, 5_151, 37),
        ("f5_relator", 4, 2, 5_151, 289),
    ],
)
def test_orbit_quotient_matches_every_triangle(name, radius, r, triangles, computed):
    if name == "odd_relator":
        pres = odd_relator_presentation()
    elif name == "f5":
        pres = parse_presentation(F5)
    elif name == "f5_relator":
        pres = parse_presentation(F5_RELATOR)
    else:
        pres = preset(name)
    est = _same_delta(enumerate_ball(pres, radius), r)
    assert (est.triangles, est.triangles_computed) == (triangles, computed)


@given(st.lists(distinct_letter_relators(), min_size=1, max_size=2, unique=True))
@example([FOUR_GENERATORS.parse_word("abABcdCD")])
@example(list(TWO_RELATORS))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_orbit_quotient_matches_every_triangle_c16_family(relators):
    p = Presentation(FOUR_GENERATORS, tuple(relators))
    assume(verify_small_cancellation(p).satisfies_c16)
    _same_delta(enumerate_ball(p, 4), 2)


def test_pair_geodesics(surface_ball):
    x = surface_ball.element_of("ab")
    y = surface_ball.element_of("dc")
    paths = enumerate_pair_geodesics(surface_ball, x, y)
    # octagon: two geodesic realizations of the far side
    assert len(paths) == 2
    for p in paths:
        assert p[0] == x and p[-1] == y and len(p) == 5


def test_pair_geodesics_need_both_lengths_inside(surface4_ball):
    # x^-1 y is only known to lie in the ball when |x| + |y| <= R
    x = surface4_ball.element_of("ab")
    y = surface4_ball.element_of("dcb")
    with pytest.raises(TrustRadiusError):
        enumerate_pair_geodesics(surface4_ball, x, y)


@pytest.fixture(scope="module")
def odd_relator_ball():
    return enumerate_ball(odd_relator_presentation(), 4)


@pytest.fixture(scope="module")
def f5_relator_ball():
    # ten letters: a letter index does not fit a one-byte letter mask
    return enumerate_ball(parse_presentation(F5_RELATOR), 4)


@pytest.mark.parametrize(
    "ball_name, r",
    [("surface4_ball", 2), ("f2_ball", 3), ("odd_relator_ball", 2), ("f5_relator_ball", 2)],
)
def test_early_stop_geodesics_match_whole_ball_bfs(ball_name, r, request):
    # same paths in the same order as walking back along a BFS from x,
    # both from a call on its own and inside one delta run, which reads
    # x^-1 y off a translate per x and keeps the descending letters of
    # every element for all pairs
    ball = request.getfixturevalue(ball_name)
    bfs = BfsPairGeodesics()
    run = _DeltaRun(ball, r)
    ids = [e for e in range(ball.size) if ball.sphere_of[e] <= r]
    for x in ids:
        for y in ids:
            expected = bfs(ball, x, y)
            assert enumerate_pair_geodesics(ball, x, y) == expected, (x, y)
            z = run.quotient(x, y)
            assert enumerate_pair_geodesics(ball, x, y, z=z, descents=run.descents) == expected, (x, y)


def counting(walker, calls):
    """``walker`` that also records the (x, y) of every call in ``calls``."""

    def read_side(*args, **kwargs):
        calls.append(args[1:3])
        return walker(*args, **kwargs)

    return read_side


@pytest.mark.parametrize(
    "ball_name, r",
    [("surface4_ball", 2), ("f2_ball", 3), ("odd_relator_ball", 2)],
    # delta covers every anchored triangle of B_r
    ids=["exhaustive-surface4_ball-2", "exhaustive-f2_ball-3", "exhaustive-odd_relator_ball-2"],
)
def test_delta_matches_whole_ball_bfs(ball_name, r, request, monkeypatch):
    ball = request.getfixturevalue(ball_name)
    fast_calls, bfs_calls = [], []
    monkeypatch.setattr(hyperbolicity, "enumerate_pair_geodesics", counting(enumerate_pair_geodesics, fast_calls))
    fast = compute_delta(ball, r)
    monkeypatch.setattr(hyperbolicity, "enumerate_pair_geodesics", counting(BfsPairGeodesics(), bfs_calls))
    # field-by-field equality: value, witness, triangles
    assert compute_delta(ball, r) == fast
    # delta read every side through the swapped name, so the BFS route
    # decided the same sides
    assert bfs_calls == fast_calls and fast_calls


def test_delta_bfs_work_gate(surface4_ball, monkeypatch):
    # vertices visited, summed over every BFS state of one delta run: a
    # work bound machine noise cannot move.  Only the thinness points keep
    # BFS layers, 26 vertices over 2 points when the triangles and points
    # that cannot beat the running value are skipped (skipping a triangle
    # by max(|x|, |y|, d(x, y)) // 2 rather than (|x| + |y|) // 2, and
    # deciding a point on every geodesic of another side from the side's
    # intersection, leave the same 2 points); 141 over 13 points
    # with one triangle per symmetry orbit; 202 over 74 points when a point
    # on every geodesic of another side built its depth-0 layer as well,
    # 409 over 89 points when every triangle was computed (and the depth-0
    # layer built), 26,883 with a BFS map per geodesic source as well, and
    # 204,633 with each source expanded over the whole ball.  The run
    # computes fewer pairs than the fork threshold, so every triangle runs
    # in this process and the bound covers all of delta.
    states = []

    class Recording(_DeltaRun):
        def __init__(self, ball, r):
            super().__init__(ball, r)
            states.append(self._state)

    monkeypatch.setattr(hyperbolicity, "_DeltaRun", Recording)
    estimate = compute_delta(surface4_ball, 2)
    assert estimate.delta == 2.0
    assert estimate.triangles_computed < hyperbolicity.FORK_PAIRS
    visited = sum(len(seen) for state in states for seen, _ in state.values())
    assert 0 < visited <= 26


def test_delta_side_walks_surface2_r6(monkeypatch):
    # sides walked by one delta run at surface2 R=6 (r=3), a work count
    # machine noise cannot move: 17,621 when a triangle is skipped once
    # max(|x|, |y|, d(x, y)) // 2 cannot beat the running value, against
    # 20,099 when it was skipped by (|x| + |y|) // 2 (19,999 when the
    # degenerate sides from x to x were not walked either).  26,335 pairs
    # are computed, fewer than the fork threshold, so every walk is
    # counted in this process.
    walks = []
    monkeypatch.setattr(hyperbolicity, "enumerate_pair_geodesics", counting(enumerate_pair_geodesics, walks))
    estimate = compute_delta(enumerate_ball(preset("surface2"), 6), 3)
    assert (estimate.delta, estimate.triangles_computed) == (2.0, 26_335)
    assert estimate.triangles_computed < hyperbolicity.FORK_PAIRS
    assert len(walks) == 17_621
