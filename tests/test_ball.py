import hashlib
import random
import struct

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from subforge.ball import (
    CACHE_HEADER_LEN,
    CACHE_MAGIC,
    CACHE_VERSION,
    DEFAULT_ELEMENT_CAP,
    BallCapExceeded,
    CayleyBall,
    TrustRadiusError,
    _closers,
    _relator_loops,
    enumerate_ball,
)
from subforge.pipeline import RunConfig, run_pipeline
from subforge.presentation import (
    DehnOracle,
    Presentation,
    PresentationError,
    WordOracle,
    letter_symmetries,
    parse_presentation,
    preset,
    verify_small_cancellation,
)
from subforge.words import GeneratorAlphabet, inverse_word

from bruteforce import free_distance, naive_ball, naive_sphere_sizes, reduced_words
from reference import (
    FOUR_GENERATORS,
    ODD_RELATOR,
    TWO_RELATORS,
    IntegerLattice,
    count_geodesics,
    distinct_letter_relators,
    exponent_vector,
    geodesics_between,
    in_ball_neighbors,
    odd_relator_presentation,
    normal_forms,
    one_sided_distance,
    reference_ball,
    word_oracle,
)


def test_f2_sphere_sizes_match_bruteforce(f2_ball):
    # free group: 4 * 3^(n-1), derived by enumeration rather than formula
    expected = naive_sphere_sizes(preset("f2"), 4)
    assert f2_ball.sphere_sizes[:5] == expected
    assert f2_ball.sphere_sizes[:3] == [1, 4, 12]


def test_z_sphere_sizes(z_ball):
    assert z_ball.sphere_sizes == [1, 2, 2, 2, 2, 2, 2, 2, 2]


def test_surface_r1_sphere_sizes():
    assert enumerate_ball(preset("surface2"), 1).sphere_sizes == [1, 8]


def test_surface_matches_naive_oracle_ball(surface_small_ball):
    # full cross-validation of normal forms against pairwise-oracle search
    assert normal_forms(surface_small_ball) == naive_ball(preset("surface2"), 3)


def test_surface_octagon_identifications(surface_ball):
    # at length 4 exactly the 8 relator-rotation halves coincide
    free_count = 8 * 7**3
    assert surface_ball.sphere_sizes[4] == free_count - 8
    u = surface_ball.element_of("abAB")
    v = surface_ball.element_of("dcDC")
    assert u == v and u is not None


def test_canonicality_exhaustive(f2_ball):
    # every equal-length reduced word for an element is shortlex-ge its nf
    alphabet = f2_ball.presentation.alphabet
    for w in reduced_words(alphabet, 4):
        e = f2_ball.element_of(w)
        nf = f2_ball.normal_form(e)
        assert len(nf) <= len(w)
        if len(nf) == len(w):
            assert nf <= w


def test_ids_follow_shortlex_order(surface_ball):
    forms = normal_forms(surface_ball)
    assert forms == sorted(forms, key=lambda w: (len(w), w))


def test_sphere_one_equals_alphabet_size():
    # no length-2 (or shorter) relators in any preset
    for name in ("f2", "z", "surface2"):
        ball = enumerate_ball(preset(name), 1)
        assert ball.sphere_sizes[1] == preset(name).alphabet.size


def test_parent_prefix_closure(surface_ball):
    for e in range(1, surface_ball.size):
        p = surface_ball.parent[e]
        assert surface_ball.normal_form(p) == surface_ball.normal_form(e)[:-1]
        assert surface_ball.sphere_of[p] == surface_ball.sphere_of[e] - 1


def test_neighbors_complete_and_symmetric(surface_small_ball):
    ball = surface_small_ball
    oracle = word_oracle(ball.presentation)
    alphabet = ball.presentation.alphabet
    for e in range(ball.size):
        for x in range(alphabet.size):
            target_word = ball.normal_form(e) + (x,)
            expected = None
            for u in range(ball.size):
                if oracle.is_identity(target_word + inverse_word(ball.normal_form(u), alphabet)):
                    expected = u
                    break
            got = ball.table[e * alphabet.size + x]
            assert got == (-1 if expected is None else expected), (e, x, got, expected)


def test_element_of(f2_ball, surface_ball):
    assert f2_ball.element_of("aA") == 0
    assert surface_ball.element_of("abABcdC") == surface_ball.element_of("d")
    assert f2_ball.element_of("a" * 7) is None  # out of ball
    with pytest.raises(Exception):
        f2_ball.element_of("xyz")


def test_element_of_detour_word(f2_ball):
    # a word of length > R resolves while its walk stays in the ball, and
    # is None once the walk leaves it, even if it ends inside
    w = f2_ball.presentation.alphabet.parse_word("a" * 6 + "A" * 5)
    assert f2_ball.element_of(w) == f2_ball.element_of("a")
    assert f2_ball.element_of("a" * 7 + "A") is None


@pytest.mark.parametrize("which", ["surface", "odd_relator"])
def test_relative_element_matches_oracle(which, surface_ball):
    # translating B_3 by u gives image[h] = u h, so u^-1 image[h] = h: the
    # relative element of every vertex near u agrees with the word oracle
    ball = surface_ball if which == "surface" else enumerate_ball(odd_relator_presentation(), 5)
    oracle = word_oracle(ball.presentation)
    alphabet = ball.presentation.alphabet
    for u in ball.sphere(2):
        image = ball.translate(u, 3)
        assert len(set(image)) == len(image)
        for h, v in enumerate(image):
            word = inverse_word(ball.normal_form(u), alphabet) + ball.normal_form(v)
            assert oracle.is_identity(word + inverse_word(ball.normal_form(h), alphabet)), (u, v, h)


def test_translate_trust_radius(f2_ball):
    # every product is resolved while |g| + n <= R; one step past, the
    # translate refuses rather than read a partial ball
    aaa = f2_ball.element_of("aaa")
    image = f2_ball.translate(aaa, 3)
    assert image[f2_ball.element_of("AAb")] == f2_ball.element_of("ab")
    assert f2_ball.translate(0, 6) == list(range(f2_ball.size))
    with pytest.raises(TrustRadiusError):
        f2_ball.translate(aaa, 4)


def test_distance_between_matches_free_distance():
    ball = enumerate_ball(preset("f2"), 4)
    alphabet = ball.presentation.alphabet
    for u in range(ball.size):
        for v in range(ball.size):
            d = free_distance(alphabet, ball.normal_form(u), ball.normal_form(v))
            assert ball.distance_between(u, v, 2 * ball.radius) == d, (u, v)


def test_distance_between_limits_match_one_sided_bfs(surface4_ball):
    ball = surface4_ball
    rng = random.Random(17)
    pairs = [(rng.randrange(ball.size), rng.randrange(ball.size)) for _ in range(300)]
    pairs += [(0, 0), (5, 5)]
    for u, v in pairs:
        d = one_sided_distance(lambda w: in_ball_neighbors(ball, w).values(), u, v)
        for limit in range(d + 2):
            expected = None if d > limit else d
            assert ball.distance_between(u, v, limit) == expected, (u, v, limit)


def test_sphere_query(z_ball):
    s2 = z_ball.sphere(2)
    words = {z_ball.presentation.alphabet.format_word(z_ball.normal_form(e)) for e in s2}
    assert words == {"aa", "AA"}
    with pytest.raises(Exception):
        z_ball.sphere(99)


def test_geodesics_f2(f2_ball):
    g = f2_ball.element_of("ab")
    geos = list(geodesics_between(f2_ball, g))
    assert geos == [f2_ball.presentation.alphabet.parse_word("ab")]
    assert count_geodesics(f2_ball, g) == 1


def test_geodesics_z(z_ball):
    g = z_ball.element_of("aa")
    assert count_geodesics(z_ball, g) == 1


def test_geodesics_surface_length_one(surface_ball):
    # only the single letter reaches a generator in one step
    d = surface_ball.element_of("d")
    geos = list(geodesics_between(surface_ball, d))
    assert geos == [surface_ball.normal_form(d)]


def test_geodesics_surface_multiple(surface_ball):
    # octagon halves: two geodesics to abAB
    g = surface_ball.element_of("abAB")
    geos = list(geodesics_between(surface_ball, g))
    assert len(geos) == count_geodesics(surface_ball, g) == 2
    fmt = surface_ball.presentation.alphabet.format_word
    assert [fmt(w) for w in geos] == ["abAB", "dcDC"]
    assert geos[0] == surface_ball.normal_form(g)


def test_cap_abort():
    with pytest.raises(BallCapExceeded) as exc:
        enumerate_ball(preset("f2"), 6, cap=30)
    # spheres 0-2 complete, then the 13 elements of sphere 3 made before
    # the 31st element would have been
    assert exc.value.sphere_sizes == [1, 4, 12, 13]


def test_odd_relator_group_matches_free_ball_at_small_radius():
    p = odd_relator_presentation()
    rep = verify_small_cancellation(p)
    assert rep.satisfies_c16 and rep.min_relator_len == 25
    # relators cannot fire below half their length, so the small ball must
    # coincide with the free one -- while the odd relator length makes
    # same-sphere edges possible, so every candidate walks its relator
    # loops and the boundary gets the same-sphere sweep
    ball = enumerate_ball(p, 3)
    assert any(len(r) % 2 for r in p.relators)
    free = enumerate_ball(preset("f2"), 3)
    assert normal_forms(ball) == normal_forms(free)
    assert ball.table == free.table


def test_enumeration_requires_small_cancellation():
    # the parser rejects this presentation; built directly it reaches the
    # enumerator, whose relator-loop walk is only complete under C'(1/6)
    alphabet = GeneratorAlphabet.from_case_pairs(["a", "A"])
    p = Presentation(alphabet, (alphabet.parse_word("aaa"),))
    with pytest.raises(PresentationError):
        enumerate_ball(p, 2)


def test_enumeration_makes_no_oracle_calls(monkeypatch, tmp_path):
    # a deterministic work gate: relator loops decide every coincidence,
    # and every later stage reads group facts off the Cayley ball
    def forbidden(self, word):
        raise AssertionError("word oracle called")

    monkeypatch.setattr(DehnOracle, "reduce", forbidden)
    monkeypatch.setattr(WordOracle, "reduce", forbidden)
    monkeypatch.setattr(WordOracle, "is_identity", forbidden)
    surface = enumerate_ball(preset("surface2"), 4)
    assert surface.sphere_sizes == [1, 8, 56, 392, 2736]
    odd = enumerate_ball(odd_relator_presentation(), 4)
    assert odd.sphere_sizes == [1, 4, 12, 36, 108]

    odd_file = tmp_path / "odd.txt"
    odd_file.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
    runs = [
        run_pipeline(config)
        for config in (
            RunConfig(preset="f2", radius=6),
            RunConfig(preset="surface2", radius=5, delta_override=1.0),
            RunConfig(file=str(odd_file), radius=4),
        )
    ]
    assert [r.exit_code for r in runs] == [0, 0, 0]
    # the surface run labels real edges, in both orientations, through the
    # relative elements its candidate search kept
    assert runs[1].report["xi"]["total_horizontal"] == 8


def _walk_in_time(ball: CayleyBall, g: int, rest, h: int) -> bool:
    """Whether ``rest`` walked from the parent of g ends at h through edges
    that enumeration has recorded by the time it reaches g: each touches a
    sphere below |g|, except the tree edge into h from an element before
    g."""
    a, sphere_of = ball.degree, ball.sphere_of
    n = sphere_of[g]
    v = ball.parent[g]
    for y in rest:
        w = ball.table[v * a + y]
        if w < 0:
            return False
        if min(sphere_of[v], sphere_of[w]) >= n and not (w == h and v == ball.parent[h] < g):
            return False
        v = w
    return v == h


def _coincidences_close_through_the_parent(ref: CayleyBall) -> tuple[int, int]:
    """Check the lemma ``enumerate_ball`` rests on, over a ball built by
    the word oracle: for every coincidence edge (g, x), that is g*x in
    sphere |g|, or in sphere |g|+1 with another tree parent, some loop of
    ``closers[last letter of g]`` walks from g, down its parent edge, to
    g*x in time.  Returns the numbers of same-sphere and next-sphere
    coincidence edges, each orientation counted."""
    p = ref.presentation
    closers = _closers(_relator_loops(p), p.alphabet.inverse)
    assert all(ref.parent[h] == 0 and ref.last_letter[h] == x for x, h in enumerate(ref.row(0)))
    same = nxt = 0
    for g in range(1, ref.size):
        n = ref.sphere_of[g]
        for x, h in enumerate(ref.row(g)):
            if h < 0 or ref.sphere_of[h] < n or (ref.parent[h], ref.last_letter[h]) == (g, x):
                continue
            assert any(_walk_in_time(ref, g, rest, h) for y, rest in closers[ref.last_letter[g]] if y == x), (g, x)
            if ref.sphere_of[h] == n:
                same += 1
            else:
                nxt += 1
    return same, nxt


@given(st.lists(distinct_letter_relators(), min_size=1, max_size=2, unique=True))
@example(list(TWO_RELATORS))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_relator_walk_matches_oracle_ball(relators):
    p = Presentation(FOUR_GENERATORS, tuple(relators))
    assume(verify_small_cancellation(p).satisfies_c16)
    ball = enumerate_ball(p, 4)
    ref, ref_forms = reference_ball(p, 4)
    assert normal_forms(ball) == ref_forms
    assert ball.table == ref.table
    assert [ball.sphere(n) for n in range(5)] == [ref.sphere(n) for n in range(5)]
    _coincidences_close_through_the_parent(ref)


@pytest.mark.parametrize("name, radius, same, nxt", [("surface2", 5, 0, 56), ("odd_relator", 5, 0, 0)])
def test_coincidences_close_through_the_parent_edge(name, radius, same, nxt):
    # the even surface relator makes the Cayley graph bipartite, so it has
    # no same-sphere edges; the odd relator (length 25) closes no loop
    # below radius 13, and the two-relator test below has both kinds
    p = odd_relator_presentation() if name == "odd_relator" else preset(name)
    ref, _ = reference_ball(p, radius)
    assert _coincidences_close_through_the_parent(ref) == (same, nxt)


def test_two_relator_coincidences_and_boundary_sweep():
    p = Presentation(FOUR_GENERATORS, TWO_RELATORS)
    ref, _ = reference_ball(p, 4)
    assert _coincidences_close_through_the_parent(ref) == (98, 8)
    # the boundary sweep is not vacuous: 84 table entries (42 edges) join
    # two elements of the outer sphere, and the walk finds them all
    ball = enumerate_ball(p, 4)
    for b in (ball, ref):
        outer = b.sphere(4)
        assert sum(b.sphere_of[h] == 4 for g in outer for h in b.row(g) if h >= 0) == 84
    assert ball.table == ref.table


def test_boundary_sweep_finds_the_same_sphere_edges_of_an_odd_relator():
    # BBAABabAAbABA (length 13) first joins two elements of one sphere on
    # sphere 6; at R=6 that is the boundary, and only the sweep records them
    p = parse_presentation("gens: a A b B\nrelators: BBAABabAAbABA\n")

    def same_sphere_edges(ball, n):
        return {(g, h) for g in ball.sphere(n) for h in ball.row(g) if g < h and ball.sphere_of[h] == n}

    edges = same_sphere_edges(enumerate_ball(p, 6), 6)
    assert len(edges) == 13
    assert edges == same_sphere_edges(enumerate_ball(p, 7), 6)


@pytest.mark.parametrize(
    "gens, relators",
    [
        ("a A b B", "a"),
        ("a A b B", "ab"),
        ("a A b B", "aB"),
        ("a A b B c C", "abc"),
        ("a A b B c C d D", "a bcd"),
        ("a A b B c C d D", "ab cd"),
    ],
)
def test_short_relators_match_oracle_ball(gens, relators):
    # a relator of length 1 or 2 makes a letter a loop or another letter's
    # double at every element, so its cell can sit at g itself; length 3
    # is the shortest for which every loop leaves g by its parent edge
    p = parse_presentation(f"gens: {gens}\nrelators: {relators}\n")
    for radius in (1, 4):
        ball = enumerate_ball(p, radius)
        ref, ref_forms = reference_ball(p, radius)
        assert normal_forms(ball) == ref_forms
        assert ball.table == ref.table


def test_loop_relator_at_the_identity():
    # a = 1 is a loop at the identity even in the ball of radius 0, where
    # the identity is the whole outer sphere
    loop = parse_presentation("gens: a A b B\nrelators: a\n")
    ball = enumerate_ball(loop, 0)
    ref, ref_forms = reference_ball(loop, 0)
    assert ball.table == ref.table == [0, 0, -1, -1]
    assert normal_forms(ball) == ref_forms == [()]


@pytest.mark.parametrize("name, radius", [("f2", 5), ("z", 5), ("odd_relator", 5)])
def test_ball_matches_reference_ball(name, radius):
    # surface2 R=5 (and the odd relator at R=4) is acceptance criterion 6c
    p = odd_relator_presentation() if name == "odd_relator" else preset(name)
    ball = enumerate_ball(p, radius)
    ref, ref_forms = reference_ball(p, radius)
    assert normal_forms(ball) == ref_forms
    assert ball.sphere_sizes == ref.sphere_sizes
    assert ball.table == ref.table


def test_surface_growth_series_to_radius_six():
    # the genus-2 surface group grows by the series
    # (1+2t+2t^2+2t^3+t^4)/(1-6t-6t^2-6t^3+t^4) (Cannon; Floyd-Plotnick),
    # so the walk is checked two spheres past the R=4 pins
    sizes = enumerate_ball(preset("surface2"), 6).sphere_sizes
    assert sizes == [1, 8, 56, 392, 2_736, 19_096, 133_288]
    for n in (5, 6):
        assert sizes[n] == 6 * (sizes[n - 1] + sizes[n - 2] + sizes[n - 3]) - sizes[n - 4]


def test_default_cap_admits_surface_radius_eight():
    # |B_8| from the growth recurrence above, without enumerating R=8: the
    # default cap admits it and stops R=9, which would need about 6 GB
    sizes = [1, 8, 56, 392, 2_736]
    while len(sizes) < 10:
        sizes.append(6 * (sizes[-1] + sizes[-2] + sizes[-3]) - sizes[-4])
    assert sum(sizes[:9]) == 7_579_441
    assert sum(sizes[:9]) <= DEFAULT_ELEMENT_CAP < sum(sizes)
    assert RunConfig().element_cap == DEFAULT_ELEMENT_CAP


def _assert_flat(ball):
    n, a = ball.size, ball.degree
    assert CayleyBall.__slots__ == ("presentation", "radius", "sphere_of", "parent", "last_letter", "table", "degree")
    assert ball.degree == len(ball.presentation.alphabet.symbols)
    for name, length in (("sphere_of", n), ("parent", n), ("last_letter", n), ("table", n * a)):
        field = getattr(ball, name)
        assert type(field) is list and len(field) == length, name
        assert all(type(v) is int for v in field), name
    # one int object per element id, shared by every entry that names it
    assert len({id(v) for v in ball.parent + ball.table}) == len(set(ball.parent + ball.table))


def test_ball_is_flat_lists(surface_ball):
    # a deterministic memory gate: every field is a flat list of ints of
    # length N or N |A|, with no per-element container, on the enumerated
    # ball and on the one loaded from its cache file
    assert surface_ball.size == 22_289
    _assert_flat(surface_ball)
    _assert_flat(CayleyBall.from_bytes(surface_ball.to_bytes(), preset("surface2")))


@pytest.mark.parametrize("name", ["f2", "z", "surface2", "odd_relator"])
def test_letter_symmetries_are_ball_automorphisms(name):
    p = odd_relator_presentation() if name == "odd_relator" else preset(name)
    ball = enumerate_ball(p, 4)
    for sigma in letter_symmetries(p):
        image = ball.translate(0, 4, sigma)
        assert sorted(image) == list(range(ball.size))
        assert all(ball.sphere_of[image[e]] == ball.sphere_of[e] for e in range(ball.size))
        for e in range(ball.size):
            for x, w in in_ball_neighbors(ball, e).items():
                assert image[w] == ball.table[image[e] * ball.degree + sigma[x]], (sigma, e, x)


def test_radius_zero_and_one():
    b0 = enumerate_ball(preset("surface2"), 0)
    assert b0.sphere_sizes == [1] and b0.table == [-1] * 8
    b1 = enumerate_ball(preset("z"), 1)
    assert b1.sphere_sizes == [1, 2]
    assert b1.table == [1, 2, -1, 0, 0, -1]


def _int32(values) -> bytes:
    return struct.pack(f"<{len(values)}i", *values)


def _cache_file(ball, version=CACHE_VERSION, radius=None, degree=None, sizes=None) -> bytes:
    """A cache file for ``ball`` built from the documented layout, with a
    valid checksum; the header fields can be overridden."""
    text = ball.presentation.text().encode()
    head = [
        ball.radius if radius is None else radius,
        ball.degree if degree is None else degree,
        *(ball.sphere_sizes if sizes is None else sizes),
    ]
    payload = b"".join(
        (_int32([len(text)]), text, _int32(head), _int32(ball.parent), _int32(ball.last_letter), _int32(ball.table))
    )
    return CACHE_MAGIC + version.to_bytes(2, "big") + hashlib.sha256(payload).digest() + payload


def test_cache_roundtrip(surface_small_ball):
    data = surface_small_ball.to_bytes()
    assert data == _cache_file(surface_small_ball)
    assert CayleyBall.from_bytes(data, preset("surface2")) == surface_small_ball
    with pytest.raises(ValueError, match="different presentation"):
        CayleyBall.from_bytes(data, preset("f2"))


def test_cache_file_length_surface_r5(surface_ball):
    # header, then int32 parent, last letter and an 8-letter row per element
    data = surface_ball.to_bytes()
    text = preset("surface2").text().encode()
    n = 22_289
    assert surface_ball.size == n
    assert len(data) == CACHE_HEADER_LEN + 4 + len(text) + 4 * (2 + 6) + 4 * n * (2 + 8)
    assert CayleyBall.from_bytes(data, preset("surface2")) == surface_ball


@pytest.mark.parametrize(
    "header",
    [{"radius": 2}, {"radius": 4}, {"degree": 6}, {"sizes": [1, 8, 57, 392]}, {"sizes": [1, 8, 56]}],
    ids=["radius-low", "radius-high", "alphabet-size", "sphere-sizes", "sphere-count"],
)
def test_cache_header_disagreeing_with_tables_is_rejected(surface_small_ball, header):
    with pytest.raises(ValueError, match="do not match|letters"):
        CayleyBall.from_bytes(_cache_file(surface_small_ball, **header), preset("surface2"))


def test_ids_stable_across_radii(surface_small_ball, surface_ball):
    n = surface_small_ball.size
    assert normal_forms(surface_ball)[:n] == normal_forms(surface_small_ball)


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_invariant_surface(surface_ball):
    # equal elements (via different words) have equal fingerprints
    pres = surface_ball.presentation
    alphabet = pres.alphabet
    lattice = IntegerLattice([exponent_vector(r, alphabet) for r in pres.relators])
    u = surface_ball.element_of("abAB")
    for word in ("abAB", "dcDC"):
        vec = exponent_vector(alphabet.parse_word(word), alphabet)
        assert lattice.reduce(vec) == lattice.reduce(
            exponent_vector(surface_ball.normal_form(u), alphabet)
        )


vectors = st.lists(st.integers(-8, 8), min_size=3, max_size=3).map(tuple)


@given(vectors, st.integers(0, 2))
@settings(max_examples=200)
def test_lattice_coset_invariance(vec, row_idx):
    rows = [(2, 0, -1), (0, 3, 1), (4, -2, 0)]
    lattice = IntegerLattice(rows)
    shifted = tuple(a + b for a, b in zip(vec, rows[row_idx]))
    assert lattice.reduce(vec) == lattice.reduce(shifted)


@given(vectors)
def test_lattice_reduce_idempotent(vec):
    lattice = IntegerLattice([(2, 0, -1), (0, 3, 1)])
    once = lattice.reduce(vec)
    assert lattice.reduce(once) == once


def test_lattice_trivial():
    lattice = IntegerLattice([(0, 0)])
    assert lattice.is_trivial
    assert lattice.reduce((5, -3)) == (5, -3)


ROW_SETS = [
    [(2, 0, -1), (0, 3, 1), (4, -2, 0)],
    [(3, 1, 2), (1, 1, 1), (0, 2, 7)],
    [(0, 5, 0), (0, 2, 0)],
    [(6, 4, 2), (2, 2, 2), (-4, 0, 2)],
]


@given(
    st.integers(0, len(ROW_SETS) - 1),
    vectors,
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=300)
def test_lattice_full_coset(set_idx, vec, c1, c2, c3):
    rows = ROW_SETS[set_idx]
    lattice = IntegerLattice(rows)
    coeffs = (c1, c2, c3)[: len(rows)]
    shift = tuple(
        sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(3)
    )
    shifted = tuple(a + b for a, b in zip(vec, shift))
    assert lattice.reduce(vec) == lattice.reduce(shifted)
    assert lattice.reduce(lattice.reduce(vec)) == lattice.reduce(vec)
