"""Reference routines that only tests use.

Unlike ``bruteforce``, these are built on the production ball, delta and
closeness machinery: they re-derive, by a second and slower route, values
the pipeline computes (the Cayley ball itself, all geodesics to an
element, the acceptor's language, a witness triangle's thinness, a
vertex's cone neighborhood).  The pipeline reads distances from a vertex
other than the identity by translating the ball around the identity;
the BFS routes it replaced live here as the cross-check: the geodesics of
a side from a distance map of its source, the same-level vertices near a
vertex, u^-1 v from a path between them, and the horizontal edges found
over all same-level pairs.  ``reference_delta`` computes every anchored
triangle, with no symmetry quotient, and ``reference_qi_constants``
measures every QI pair by search.  The export writers that built each
file as one string (``json.dumps`` of the whole object tree, DOT lines
joined at the end) are kept as the reference for the streamed exports.
``word_oracle`` picks a presentation's word oracle, ``graph_with`` copies
a subdivision graph with some fields changed, and
``corrupt_pipeline_labels`` injects the label fault of the negative
controls into ``run_pipeline``.
"""

from __future__ import annotations

import json
import random

from hypothesis import assume, strategies as st

from subforge import pipeline
from subforge.ball import BallCapExceeded, CayleyBall, DEFAULT_ELEMENT_CAP
from subforge.exports import _edge_label_json, _labeled_graph_json, _vertex_label_json
from subforge.hyperbolicity import (
    DeltaEstimate,
    TriangleWitness,
    _DeltaRun,
    _point_thinness,
    _side_geodesics,
    triangle_thinness,
)
from subforge.language import ConeTypeTable, WordAcceptor
from subforge.presentation import DehnOracle, Presentation, WordOracle, parse_presentation
from subforge.qi import _pair_constant
from subforge.subdivision import SubdivisionGraph, VertexLabel, Witness, geodesically_close
from subforge.words import EMPTY_WORD, GeneratorAlphabet, Word, inverse_word

# one-relator C'(1/6) group with an odd relator (randomized search, seed 1;
# the properties that matter are asserted in the tests, not assumed)
ODD_RELATOR = "bbaabbbaaabaaaabbabaababa"


class InternalConsistencyError(RuntimeError):
    """A structural invariant that construction should guarantee failed."""


def odd_relator_presentation() -> Presentation:
    return parse_presentation(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")


def word_oracle(pres: Presentation) -> WordOracle:
    """Dehn's algorithm when there are relators, free reduction when there
    are none."""
    return DehnOracle(pres) if pres.relators else WordOracle(pres.alphabet)


def graph_with(graph: SubdivisionGraph, **changes) -> SubdivisionGraph:
    """A new subdivision graph with the fields of ``graph`` but those in
    ``changes``; it builds its own partner index."""
    names = ("ball", "k", "n_max", "delta", "level_edges", "witnesses", "unstable_levels", "relative",
             "vertex_labels", "edge_labels")
    return SubdivisionGraph(**{name: changes[name] if name in changes else getattr(graph, name) for name in names})


def corrupt_one_label(graph: SubdivisionGraph) -> None:
    """Overwrite the first vertex label with the first different one, so
    condition 5 fails when stars differ."""
    items = sorted(graph.vertex_labels)
    for v in items:
        for w in items:
            if graph.vertex_labels[v] != graph.vertex_labels[w]:
                graph.vertex_labels[v] = graph.vertex_labels[w]
                return


def corrupt_pipeline_labels(monkeypatch) -> None:
    """Make ``run_pipeline`` apply ``corrupt_one_label`` after it labels
    the subdivision graph, for the rest of the test."""
    assign = pipeline.assign_labels

    def assign_and_corrupt(graph, table):
        assign(graph, table)
        corrupt_one_label(graph)
        return graph

    monkeypatch.setattr(pipeline, "assign_labels", assign_and_corrupt)


# the hypothesis family of C'(1/6) presentations: one or two relators of
# 7 or 8 distinct letters over four generators
FOUR_GENERATORS = GeneratorAlphabet.from_case_pairs(["a", "A", "b", "B", "c", "C", "d", "D"])


@st.composite
def distinct_letter_relators(draw):
    """A cyclically reduced word of length 7 or 8 with no repeated letter."""
    inv = FOUR_GENERATORS.inverse
    length = draw(st.sampled_from([7, 8]))
    word: list[int] = []
    for i in range(length):
        choices = [
            x
            for x in range(FOUR_GENERATORS.size)
            if x not in word
            and not (word and x == inv[word[-1]])
            and not (i == length - 1 and x == inv[word[0]])
        ]
        assume(choices)
        word.append(draw(st.sampled_from(choices)))
    return tuple(word)


# two relators pass C'(1/6) rarely, so one such case is always run
TWO_RELATORS = tuple(FOUR_GENERATORS.parse_word(w) for w in ("aBADCdc", "dAbCacDB"))


# -- the ball by bucketed word-oracle search -----------------------------------


def exponent_vector(word: Word, alphabet: GeneratorAlphabet) -> tuple[int, ...]:
    """Exponent sum per generator pair (image in the free abelianization)."""
    pairs = alphabet.pairs
    slot = {}
    for k, i in enumerate(pairs):
        slot[i] = (k, 1)
        slot[alphabet.inverse[i]] = (k, -1)
    vec = [0] * len(pairs)
    for x in word:
        k, sign = slot[x]
        vec[k] += sign
    return tuple(vec)


class IntegerLattice:
    """Canonical coset representatives modulo an integer row lattice.

    Rows are brought to Hermite normal form by a left-to-right column
    sweep (all rows entering column c already vanish on earlier columns);
    ``reduce`` maps a vector to the unique representative of its coset
    with every pivot coordinate in [0, pivot).
    """

    def __init__(self, rows):
        self.dim = len(rows[0]) if rows else 0
        pending = [list(r) for r in rows if any(r)]
        hnf: list[list[int]] = []
        pivots: list[int] = []
        for col in range(self.dim):
            active = [r for r in pending if r[col] != 0]
            pending = [r for r in pending if r[col] == 0]
            if not active:
                continue
            pivot = active[0]
            for r in active[1:]:
                while r[col]:
                    q = pivot[col] // r[col]
                    for k in range(col, self.dim):
                        pivot[k] -= q * r[k]
                    pivot, r = r, pivot
                if any(r):
                    pending.append(r)
            if pivot[col] < 0:
                pivot = [-v for v in pivot]
            hnf.append(pivot)
            pivots.append(col)
        # reduce entries above each pivot into [0, pivot)
        for idx in range(len(hnf) - 1, -1, -1):
            c = pivots[idx]
            p = hnf[idx][c]
            for above in range(idx):
                q = hnf[above][c] // p
                if q:
                    for k in range(self.dim):
                        hnf[above][k] -= q * hnf[idx][k]
        self._rows = hnf
        self._pivots = pivots

    @property
    def is_trivial(self) -> bool:
        return not self._rows

    def reduce(self, vec) -> tuple[int, ...]:
        if not self._rows:
            return tuple(vec)
        v = list(vec)
        for idx, c in enumerate(self._pivots):
            q = v[c] // self._rows[idx][c]
            if q:
                row = self._rows[idx]
                for k in range(self.dim):
                    v[k] -= q * row[k]
        return tuple(v)


def in_ball_neighbors(ball: CayleyBall, v: int) -> dict[int, int]:
    """Letter -> id of v*letter, for every move that stays in the ball."""
    return {x: w for x, w in enumerate(ball.row(v)) if w >= 0}


def normal_forms(ball: CayleyBall) -> list[Word]:
    """Normal form of every element of the ball, in id order."""
    return [ball.normal_form(e) for e in range(ball.size)]


def reference_ball(
    pres: Presentation, radius: int, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[CayleyBall, list[Word]]:
    """The ball by shortlex BFS in which the word-problem oracle decides
    every coincidence, with the normal forms the search kept (one word per
    element, independent of the ball's parent links).

    Candidates are bucketed by an abelianization fingerprint (exponent
    vector reduced modulo the lattice spanned by the relator exponent
    vectors, plus word-length parity when every relator has even length),
    and only same-bucket pairs are compared through the oracle.  The
    fingerprint is a homomorphism invariant, so it is sound as a negative
    filter and never used as an equality proof.  Ids, normal forms and
    the letter table follow the same shortlex BFS as ``enumerate_ball``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    alphabet = pres.alphabet
    inv = alphabet.inverse
    oracle = word_oracle(pres)
    units = [exponent_vector((x,), alphabet) for x in range(alphabet.size)]

    lattice = IntegerLattice([exponent_vector(r, alphabet) for r in pres.relators])
    parity_key = bool(pres.relators) and all(len(r) % 2 == 0 for r in pres.relators)
    # with no relators every candidate is new
    free_shortcut = not pres.relators

    normal_forms: list[Word] = [EMPTY_WORD]
    inv_forms: list[Word] = [EMPTY_WORD]
    sphere_of: list[int] = [0]
    parent: list[int] = [-1]
    last_letter: list[int] = [-1]
    neighbors: list[dict[int, int]] = [{}]
    vecs: list[tuple[int, ...]] = [tuple([0] * len(alphabet.pairs))]
    spheres: list[list[int]] = [[0]]
    # key -> sphere -> ids, so a candidate only scans the spheres it can hit
    buckets: dict[tuple, dict[int, list[int]]] = {}

    def key_of(vec: tuple[int, ...]) -> tuple:
        return lattice.reduce(vec) if not lattice.is_trivial else vec

    buckets[key_of(vecs[0])] = {0: [0]}
    is_identity = oracle.is_identity

    def resolve(cand_word: Word, cand_vec: tuple[int, ...], allowed) -> int | None:
        by_sphere = buckets.get(key_of(cand_vec))
        if not by_sphere:
            return None
        for s in allowed:
            for u in by_sphere.get(s, ()):
                if is_identity(cand_word + inv_forms[u]):
                    return u
        return None

    def add_element(cand: Word, vec, g: int, x: int, n: int, new_ids: list[int]) -> None:
        e = len(normal_forms)
        if e >= cap:
            raise BallCapExceeded(cap, [len(s) for s in spheres] + [len(new_ids)])
        normal_forms.append(cand)
        inv_forms.append(inverse_word(cand, alphabet))
        sphere_of.append(n + 1)
        parent.append(g)
        last_letter.append(x)
        neighbors.append({inv[x]: g})
        vecs.append(vec)
        neighbors[g][x] = e
        buckets.setdefault(key_of(vec), {}).setdefault(n + 1, []).append(e)
        new_ids.append(e)

    for n in range(radius):
        new_ids: list[int] = []
        for g in spheres[n]:
            nf_g = normal_forms[g]
            vec_g = vecs[g]
            for x in range(alphabet.size):
                if x in neighbors[g]:
                    continue  # edge already known from the other endpoint
                cand = nf_g + (x,)
                vec = tuple(a + b for a, b in zip(vec_g, units[x]))
                if free_shortcut:
                    found = None
                else:
                    # edges into sphere n-1 are already in neighbors[g];
                    # with even relators parity rules out sphere n
                    allowed = (n + 1,) if parity_key else (n + 1, n)
                    found = resolve(cand, vec, allowed)
                if found is not None:
                    neighbors[g][x] = found
                    neighbors[found].setdefault(inv[x], g)
                    continue
                add_element(cand, vec, g, x, n, new_ids)
        spheres.append(new_ids)

    # Boundary sweep: only same-sphere edges on the boundary remain, and
    # with even relators those cannot exist (a length homomorphism to Z/2
    # separates adjacent elements).
    if not free_shortcut and not parity_key:
        for g in spheres[radius]:
            nf_g = normal_forms[g]
            vec_g = vecs[g]
            for x in range(alphabet.size):
                if x in neighbors[g]:
                    continue
                vec = tuple(a + b for a, b in zip(vec_g, units[x]))
                found = resolve(nf_g + (x,), vec, (radius,))
                if found is not None:
                    neighbors[g][x] = found
                    neighbors[found].setdefault(inv[x], g)

    ball = CayleyBall(
        presentation=pres,
        radius=radius,
        sphere_of=sphere_of,
        parent=parent,
        last_letter=last_letter,
        table=[nbrs.get(x, -1) for nbrs in neighbors for x in range(alphabet.size)],
    )
    return ball, normal_forms


# -- distances -----------------------------------------------------------------


def one_sided_distance(adjacent, u: int, v: int, limit: int | None = None) -> int | None:
    """BFS from u alone, layer by layer, until it meets v; None past
    ``limit`` or when v is unreachable (the distance kernel before the
    bidirectional search)."""
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        nxt = []
        for w in frontier:
            for t in adjacent(w):
                if t == v:
                    return depth
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return None


def reference_qi_constants(graph: SubdivisionGraph, sample_pairs: int = 2000, seed: int = 0):
    """``qi.estimate_qi_constants`` by one-sided BFS alone, in one serial
    loop: the same pair sample, each Cayley distance the in-ball distance
    over the whole ball's in-ball neighbours, with no limit, and each
    subdivision-graph distance over the parent links and horizontal edges
    of the trusted levels, with no tree shortcut."""
    ball = graph.ball
    trusted = range(ball.sphere(graph.n_max).stop if graph.n_max >= 0 else 0)
    if len(trusted) < 2:
        return None, None, 0, True
    exhaustive = len(trusted) * (len(trusted) - 1) // 2 <= sample_pairs
    if exhaustive:
        pairs = [(u, v) for u in trusted for v in trusted if u < v]
    else:
        rng = random.Random(seed)
        pairs = []
        for _ in range(sample_pairs):
            u = rng.choice(trusted)
            v = rng.choice(trusted)
            while v == u:
                v = rng.choice(trusted)
            pairs.append((u, v))
    xi: dict[int, list[int]] = {v: [] for v in trusted}
    edges = [(ball.parent[v], v) for v in trusted if v] + [e for _, e in graph.all_level_edges()]
    for u, v in edges:
        xi[u].append(v)
        xi[v].append(u)
    best, extremal = 0.0, None
    for u, v in pairs:
        d_cayley = one_sided_distance(lambda w: in_ball_neighbors(ball, w).values(), u, v)
        k = _pair_constant(d_cayley, one_sided_distance(xi.__getitem__, u, v))
        if k > best:
            best, extremal = k, (u, v)
    return best, extremal, len(pairs), exhaustive


def relative_element(ball: CayleyBall, u: int, v: int) -> int | None:
    """Id of u^-1 v, spelled by the letters of a shortest in-ball path
    from u to v that a BFS from u finds; None when that path is longer
    than the radius.  Every prefix of the path walked from the identity
    stays inside the ball."""
    back: dict[int, tuple[int, int] | None] = {u: None}
    frontier = [u]
    for _ in range(ball.radius):
        if v in back:
            break
        nxt = []
        for w in frontier:
            for x, t in in_ball_neighbors(ball, w).items():
                if t not in back:
                    back[t] = (w, x)
                    nxt.append(t)
        frontier = nxt
    if v not in back:
        return None
    letters = []
    while v != u:
        v, x = back[v]
        letters.append(x)
    return ball.walk(0, tuple(reversed(letters)))


# -- geodesics from the identity ---------------------------------------------


def _geodesic_layers(ball: CayleyBall, g: int) -> list[dict[int, None]]:
    """Layer t holds the vertices v on geodesics from the identity to g
    with d(v, g) = t (so |v| = |g| - t)."""
    target_len = ball.sphere_of[g]
    layers: list[dict[int, None]] = [{g: None}]
    for t in range(1, target_len + 1):
        want = target_len - t
        layer: dict[int, None] = {}
        for v in layers[t - 1]:
            for w in in_ball_neighbors(ball, v).values():
                if ball.sphere_of[w] == want:
                    layer[w] = None
        layers.append(layer)
    return layers


def geodesics_between(ball: CayleyBall, g: int):
    """Yield every geodesic word from the identity to g, in shortlex
    order; the first word is the normal form."""
    layers = _geodesic_layers(ball, g)
    n = ball.sphere_of[g]
    on_geodesic = [set(layer) for layer in layers]
    stack: list[int] = []

    def rec(v: int, depth: int):
        if depth == n:
            if v == g:
                yield tuple(stack)
            return
        allowed = on_geodesic[n - depth - 1]
        for x, w in sorted(in_ball_neighbors(ball, v).items()):
            if w in allowed:
                stack.append(x)
                yield from rec(w, depth + 1)
                stack.pop()

    yield from rec(0, 0)


def count_geodesics(ball: CayleyBall, g: int) -> int:
    layers = _geodesic_layers(ball, g)
    n = ball.sphere_of[g]
    ways = {0: 1}
    for depth in range(n):
        allowed = layers[n - depth - 1]
        nxt: dict[int, int] = {}
        for v, c in ways.items():
            for w in in_ball_neighbors(ball, v).values():
                if w in allowed:
                    nxt[w] = nxt.get(w, 0) + c
        ways = nxt
    return ways.get(g, 0)


# -- acceptor ------------------------------------------------------------------


def language(acceptor: WordAcceptor, max_len: int):
    """Yield accepted words up to ``max_len`` in shortlex order."""
    frontier: list[tuple[Word, int]] = [((), acceptor.initial)]
    yield ()
    for _ in range(max_len):
        nxt: list[tuple[Word, int]] = []
        for word, s in frontier:
            for (state, letter), t in sorted(acceptor.transitions.items()):
                if state == s:
                    w = word + (letter,)
                    yield w
                    nxt.append((w, t))
        frontier = nxt


# -- thin triangles ------------------------------------------------------------


class BfsPairGeodesics:
    """The per-source geodesic route: one BFS over the whole ball from each
    source, kept, and walked back from the target along decreasing
    distances.  Called as ``enumerate_pair_geodesics`` is; one instance
    serves one ball."""

    def __init__(self):
        self._fields: dict[int, dict[int, int]] = {}

    def field(self, ball: CayleyBall, source: int) -> dict[int, int]:
        dist = self._fields.get(source)
        if dist is None:
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in in_ball_neighbors(ball, v).values():
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            self._fields[source] = dist
        return dist

    def __call__(self, ball: CayleyBall, x: int, y: int) -> list[tuple[int, ...]]:
        field = self.field(ball, x)
        paths: list[tuple[int, ...]] = []
        stack = [y]

        def rec(v: int) -> None:
            if v == x:
                paths.append(tuple(reversed(stack)))
                return
            for w in sorted(in_ball_neighbors(ball, v).values()):
                if field.get(w) == field[v] - 1:
                    stack.append(w)
                    rec(w)
                    stack.pop()

        rec(y)
        return paths


def reference_delta(ball: CayleyBall, r: int) -> DeltaEstimate:
    """Exhaustive delta with no symmetry quotient: every anchored triangle
    (1, x, y) with x <= y in B_r is computed."""
    n = ball.sphere(r).stop
    run = _DeltaRun(ball)
    value, witness = -1, None
    triangles = 0
    for x in range(n):
        for y in range(x, n):
            triangles += 1
            v, w = triangle_thinness(run, x, y)
            if v > value:
                value, witness = v, w
    return DeltaEstimate(
        delta=float(max(value, 0)),
        radius_checked=r,
        witness=witness,
        triangles=triangles,
        triangles_computed=triangles,
    )


def reevaluate_witness(ball: CayleyBall, witness: TriangleWitness) -> int:
    """Recompute the thinness value of a stored witness triangle."""
    run = _DeltaRun(ball)
    sides = _side_geodesics(run, witness.x, witness.y)
    others = [[set(geo) for geo in sides[(witness.side + k) % 3]] for k in (1, 2)]
    return _point_thinness(run, witness.point, others)


def validate_delta(
    ball: CayleyBall,
    delta: float,
    samples: int,
    seed: int = 0,
    r: int | None = None,
):
    """Sample anchored triangles and check delta-thinness; returns
    (passed, counterexample witness or None)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if r is None:
        r = ball.radius // 2
    rng = random.Random(seed)
    ids = [e for e in range(ball.size) if ball.sphere_of[e] <= r]
    run = _DeltaRun(ball)
    for _ in range(samples):
        x, y = rng.choice(ids), rng.choice(ids)
        value, witness = triangle_thinness(run, x, y)
        if value > delta:
            return False, witness
    return True, None


# -- vertex labels -------------------------------------------------------------


def cone_neighborhood(ball: CayleyBall, table: ConeTypeTable, g: int) -> VertexLabel:
    """Cone K-neighborhood of g: each h with |h| < K and (g, g h)
    geodesically close, tagged with the cone type of g h."""
    k = table.k
    level = ball.sphere_of[g]
    if level + k > ball.radius:
        raise ValueError(f"cone neighborhood of |g|={level} needs radius {level + k}")
    members = []
    for h in range(1, ball.size):
        if ball.sphere_of[h] >= k:
            break
        gh = ball.walk(g, ball.normal_form(h))
        if gh is None:
            raise InternalConsistencyError("in-trust walk left the ball")
        if gh == g or ball.sphere_of[gh] != level:
            continue
        if geodesically_close(ball, g, gh) is not None:
            members.append((ball.normal_form(h), table.class_of[gh]))
    members.sort(key=lambda m: ((len(m[0]), m[0]), m[1]))
    return VertexLabel(own_type=table.class_of[g], neighborhood=tuple(members))


def same_level_within(ball: CayleyBall, u: int, k: int) -> list[int]:
    """Same-level vertices at Cayley distance <= k from u (ids above u),
    found by a depth-k BFS from u.  Exact where |u| + k < ball radius."""
    level = ball.sphere_of[u]
    seen = {u}
    frontier = [u]
    found = []
    for _ in range(k):
        nxt = []
        for v in frontier:
            for w in in_ball_neighbors(ball, v).values():
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if w > u and ball.sphere_of[w] == level:
                        found.append(w)
        frontier = nxt
    return sorted(found)


def all_pairs_close_edges(
    ball: CayleyBall, n_max: int
) -> tuple[dict[int, tuple[tuple[int, int], ...]], dict[tuple[int, int], Witness]]:
    """Level edges and witnesses of every geodesically close same-level
    pair on levels 1..n_max, searched over all pairs rather than only
    those within Cayley distance K."""
    level_edges: dict[int, tuple[tuple[int, int], ...]] = {}
    witnesses: dict[tuple[int, int], Witness] = {}
    cache: dict[int, set[int]] = {}
    for n in range(1, n_max + 1):
        sphere = ball.sphere(n)
        edges = []
        for u in sphere:
            for v in range(u + 1, sphere.stop):
                w = geodesically_close(ball, u, v, cache)
                if w is not None:
                    edges.append((u, v))
                    witnesses[(u, v)] = w
        level_edges[n] = tuple(edges)
        cache.clear()
    return level_edges, witnesses


# -- exports as whole strings ---------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _words(ball: CayleyBall) -> list[str]:
    fmt = ball.presentation.alphabet.format_word
    return [fmt(w) for w in normal_forms(ball)]


def _gamma_json(arts) -> str:
    ball = arts.ball
    words = _words(ball)
    return _dumps(
        {
            "vertices": [
                {"id": e, "word": words[e], "level": ball.sphere_of[e]}
                for e in range(ball.size)
            ],
            "edges": [[e, ball.parent[e]] for e in range(1, ball.size)],
        }
    )


def _gamma_dot(arts) -> str:
    ball = arts.ball
    words = _words(ball)
    lines = ["graph gamma {"]
    for e in range(ball.size):
        lines.append(f'  v{e} [label="{words[e]}"];')
    for e in range(1, ball.size):
        lines.append(f"  v{e} -- v{ball.parent[e]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _xi_json(arts) -> str:
    graph = arts.graph
    ball = graph.ball
    words = _words(ball)
    horizontal = []
    for n, (u, v) in graph.all_level_edges():
        entry = {"level": n, "u": u, "v": v}
        label = graph.edge_labels.get((u, v))
        if label is not None:
            entry["label"] = _edge_label_json(ball, label)
        w = graph.witnesses[(u, v)]
        entry["witness"] = {"first": w.first, "second": w.second, "separation": w.separation}
        horizontal.append(entry)
    return _dumps(
        {
            "k": graph.k,
            "n_max": graph.n_max,
            "horizon": ball.radius,
            "unstable_levels": list(graph.unstable_levels),
            "vertices": [
                {
                    "id": e,
                    "word": words[e],
                    "level": ball.sphere_of[e],
                    "label": None
                    if e not in graph.vertex_labels
                    else _vertex_label_json(ball, graph.vertex_labels[e]),
                }
                for e in range(ball.size)
            ],
            "vertical_edges": [[e, ball.parent[e]] for e in range(1, ball.size)],
            "horizontal_edges": horizontal,
        }
    )


def _xi_dot(arts) -> str:
    graph = arts.graph
    ball = graph.ball
    words = _words(ball)
    lines = ["graph xi {"]
    for level in range(ball.radius + 1):
        lines.append(f"  subgraph cluster_level_{level} {{")
        lines.append(f'    label="level {level}"; rank=same;')
        for e in ball.sphere(level):
            lines.append(f'    v{e} [label="{words[e]}"];')
        lines.append("  }")
    for e in range(1, ball.size):
        lines.append(f"  v{e} -- v{ball.parent[e]} [kind=vertical];")
    for _, (u, v) in graph.all_level_edges():
        lines.append(f"  v{u} -- v{v} [kind=horizontal];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _acceptor_json(arts) -> str:
    acc = arts.acceptor
    alphabet = arts.ball.presentation.alphabet
    return _dumps(
        {
            "states": list(acc.states),
            "initial": acc.initial,
            "all_accepting": True,
            "transitions": [
                {"from": s, "letter": alphabet.symbols[x], "to": t}
                for (s, x), t in sorted(acc.transitions.items())
            ],
        }
    )


def _acceptor_dot(arts) -> str:
    acc = arts.acceptor
    alphabet = arts.ball.presentation.alphabet
    lines = ["digraph acceptor {"]
    for s in acc.states:
        shape = "doublecircle" if s == acc.initial else "circle"
        lines.append(f"  s{s} [shape={shape}];")
    for (s, x), t in sorted(acc.transitions.items()):
        lines.append(f'  s{s} -> s{t} [label="{alphabet.symbols[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _subdivisions_json(arts) -> str:
    vertex_subs, edge_subs = arts.subdivisions
    ball = arts.ball
    vertex_entries = [
        {
            "label": _vertex_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "vertex"),
        }
        for label, sub in sorted(
            vertex_subs.items(), key=lambda kv: repr(kv[0])
        )
    ]
    edge_entries = [
        {
            "label": _edge_label_json(ball, label),
            "subdivision": _labeled_graph_json(ball, sub, "edge"),
        }
        for label, sub in sorted(edge_subs.items(), key=lambda kv: repr(kv[0]))
    ]
    return _dumps(
        {"vertex_subdivisions": vertex_entries, "edge_subdivisions": edge_entries}
    )


def _subdivisions_dot(arts) -> str:
    vertex_subs, edge_subs = arts.subdivisions
    lines = []
    for idx, (_, sub) in enumerate(
        sorted(vertex_subs.items(), key=lambda kv: repr(kv[0]))
    ):
        lines.append(f"graph vertex_subdivision_{idx} {{")
        for v in range(sub.size):
            lines.append(f"  v{v};")
        for i, j, _ in sub.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
    for idx, (_, sub) in enumerate(
        sorted(edge_subs.items(), key=lambda kv: repr(kv[0]))
    ):
        lines.append(f"graph edge_subdivision_{idx} {{")
        for v in range(sub.size):
            side = sub.vertex_labels[v][0]
            lines.append(f"  v{v} [side={side}];")
        for i, j, _ in sub.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
    return "\n".join(lines) + "\n"


_EXPORTS = {
    ("gamma", "json"): _gamma_json,
    ("gamma", "dot"): _gamma_dot,
    ("xi", "json"): _xi_json,
    ("xi", "dot"): _xi_dot,
    ("acceptor", "json"): _acceptor_json,
    ("acceptor", "dot"): _acceptor_dot,
    ("subdivisions", "json"): _subdivisions_json,
    ("subdivisions", "dot"): _subdivisions_dot,
}


def reference_export(arts, what: str, fmt: str) -> str:
    """One export file built whole in memory, as ``export_graph`` wrote
    it before it streamed: the artifact must exist."""
    return _EXPORTS[(what, fmt)](arts)
