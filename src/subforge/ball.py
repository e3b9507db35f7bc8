"""Cayley ball enumeration with canonical shortlex normal forms.

Elements are dense integer ids in shortlex-BFS discovery order (0 is the
identity), so id order is exactly shortlex order of the normal forms and
ids agree across balls of different radii over the same presentation.

The ball is four flat lists.  ``sphere_of``, ``parent`` and
``last_letter`` hold one entry per element: its level and the last edge
of its normal form, which is its parent's normal form plus that letter.
``table`` holds the Cayley graph, one row of |A| ids per element:
``table[e * |A| + x]`` is the id of e*x, or -1 when e*x lies outside the
ball.  A sphere is the run of ids with one level.

Enumeration decides group equality without a word-problem oracle: a
coincidence g*x = u is found by walking one relator loop from g, down
g's parent edge, through edges already recorded, and the completed loop
is itself the proof of equality.  Small cancellation C'(1/6) makes this
complete (see ``enumerate_ball``).  The finished ball keeps only the
Cayley graph, and every query walks that graph.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence

from .presentation import Presentation, PresentationError, relator_conjugates, verify_small_cancellation
from .words import Word, inverse_word

# admits surface2 at R=8 (7,579,441 elements, about 1.2 GB) and stops R=9
# (52,903,257 elements) before it runs out of memory
DEFAULT_ELEMENT_CAP = 8_000_000


class BallCapExceeded(RuntimeError):
    """Element cap hit during enumeration; carries partial sphere sizes."""

    def __init__(self, cap: int, sphere_sizes: list[int]):
        super().__init__(f"element cap {cap} exceeded (sphere sizes so far: {sphere_sizes})")
        self.cap = cap
        self.sphere_sizes = sphere_sizes


class TrustRadiusError(ValueError):
    """A query needed data beyond the enumerated radius."""


def bidirectional_distance(rows: Sequence[Sequence[int]], u: int, v: int, limit: int) -> int | None:
    """Distance from u to v in the graph whose neighbour rows are ``rows``
    (``rows[w]`` lists the neighbours of w; an entry -1 is no neighbour);
    None when it exceeds ``limit`` or v is unreachable.

    Grows the smaller of the BFS frontiers around u and v one full layer at
    a time.  While the balls of radii a around u and b around v are
    disjoint, d(u, v) > a + b; so when a layer grown to radius a + 1 first
    meets the other ball, d(u, v) = a + 1 + b exactly.  Each vertex reached
    is marked with its side (1 from u, 2 from v) in a dict made for the
    search, so the marks cost what the search reaches and not the graph's
    size (a bytearray the size of surface2's R=8 ball took 0.37 ms per
    search on a 2-vCPU VM); -1 is marked as neither side's.
    """
    if u == v:
        return 0
    mark = {-1: 3, u: 1, v: 2}
    near_front, far_front = [u], [v]
    near, far = 1, 2
    reached = 0  # sum of the two radii
    while reached < limit and near_front and far_front:
        if len(near_front) > len(far_front):
            near, far, near_front, far_front = far, near, far_front, near_front
        reached += 1
        nxt = []
        for w in near_front:
            for t in rows[w]:
                m = mark.get(t)
                if m is None:
                    mark[t] = near
                    nxt.append(t)
                elif m == far:
                    return reached
        near_front = nxt
    return None


class _TableRows:
    """The rows of a flat letter table as a sequence, read in place:
    ``rows[w]`` is the slice of the table that holds w's row."""

    __slots__ = ("table", "degree")

    def __init__(self, table: list[int], degree: int):
        self.table, self.degree = table, degree

    def __getitem__(self, w: int) -> list[int]:
        i = w * self.degree
        return self.table[i : i + self.degree]


# Cache file layout: magic, format version (2 bytes, big-endian) and the
# sha256 of the payload.  The payload is the length of the presentation
# text and the text (UTF-8), the radius, the alphabet size, the R + 1
# sphere sizes, then the tables ``parent`` (N ids), ``last_letter``
# (N letters) and ``table`` (N |A| ids); every number is a little-endian
# int32.  ``hashlib`` is imported by the cache code alone: it loads
# OpenSSL (2.5-3.8 ms and 3.6 MB of peak RSS on a 2-vCPU VM), which a run
# without a cache never uses.
CACHE_MAGIC = b"subforge-ball\n"
CACHE_VERSION = 3
CACHE_HEADER_LEN = len(CACHE_MAGIC) + 2 + 32


def _int32(values: Sequence[int]) -> bytes:
    """The values as little-endian int32."""
    return struct.pack(f"<{len(values)}i", *values)


class CayleyBall:
    """Enumerated ball: levels, parent links and the in-ball Cayley graph
    as one flat letter table.

    Immutable after construction; safe for concurrent shared reads.
    ``sphere_of`` is non-decreasing in the id.  ``parent[e]`` and
    ``last_letter[e]`` give the last edge of the normal form of e (-1 at
    the identity); the parent links form the geodesic tree.
    ``table[e * degree + x]`` is the id of e*x for every generator move
    that lands inside the ball (boundary sphere included), and -1 for
    every move that leaves it; ``degree`` is the alphabet size, the length
    of one table row.  All four are plain lists of ints, of length N or
    N * degree.  Slots, as loops read the fields per element: CPython 3.11
    specialises slot reads, not NamedTuple field reads.
    """

    __slots__ = ("presentation", "radius", "sphere_of", "parent", "last_letter", "table", "degree")

    def __init__(self, presentation: Presentation, radius: int, sphere_of: list[int], parent: list[int],
                 last_letter: list[int], table: list[int]):
        self.presentation, self.radius, self.sphere_of = presentation, radius, sphere_of
        self.parent, self.last_letter, self.table = parent, last_letter, table
        self.degree = presentation.alphabet.size

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    # -- queries ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def sphere_sizes(self) -> list[int]:
        return [len(self.sphere(n)) for n in range(self.radius + 1)]

    def sphere(self, n: int) -> range:
        """Ids of the elements of length n: a contiguous run, since ids are
        in BFS order."""
        if not 0 <= n <= self.radius:
            raise TrustRadiusError(f"sphere {n} outside ball of radius {self.radius}")
        return range(bisect_left(self.sphere_of, n), bisect_left(self.sphere_of, n + 1))

    def row(self, e: int) -> list[int]:
        """e*x for every letter x in order, -1 where it leaves the ball."""
        a = self.degree
        return self.table[e * a : e * a + a]

    def normal_form(self, e: int) -> Word:
        """Shortlex normal form of e, read up the parent chain."""
        letters = []
        while e:
            letters.append(self.last_letter[e])
            e = self.parent[e]
        return tuple(reversed(letters))

    def children(self, v: int) -> list[int]:
        """Children of v in the geodesic tree, in id order: the neighbours
        w with parent v, reached by the letter ``last_letter[w]``."""
        parent, letter = self.parent, self.last_letter
        return [w for x, w in enumerate(self.row(v)) if w >= 0 and parent[w] == v and letter[w] == x]

    def walk(self, start: int, word: Word) -> int | None:
        """Follow ``word`` through in-ball edges; None means the walk left
        the ball at some prefix (the endpoint may or may not be inside)."""
        table, a = self.table, self.degree
        e = start
        for x in word:
            e = table[e * a + x]
            if e < 0:
                return None
        return e

    def element_of(self, word: Word | str) -> int | None:
        """Id of the element the word spells, found by walking it from the
        identity; None when the walk leaves the ball.  Exact for every word
        of length <= R, whose prefixes all lie in the ball.  Raises on
        letters not in the alphabet."""
        if isinstance(word, str):
            word = self.presentation.alphabet.parse_word(word)
        for x in word:
            if not 0 <= x < self.presentation.alphabet.size:
                raise ValueError(f"letter {x} not in alphabet")
        return self.walk(0, word)

    def translate(self, g: int, n: int, sigma: Sequence[int] | None = None) -> list[int]:
        """image[h] = g h for every h in B_n, in id order: each h is its
        parent times its last letter, and the parent's image comes first.

        This reads the ball around g off the ball around the identity:
        d(g, image[h]) = |h|.  Requires |g| + n <= radius, so that every
        product lies inside the ball.

        With a letter symmetry sigma (``presentation.letter_symmetries``,
        a table of letter images) the image is g sigma(h) instead: sigma
        extends to an automorphism that relabels every edge x as
        sigma[x] and keeps word length, so translate(0, n, sigma) maps B_n
        onto itself."""
        if self.sphere_of[g] + n > self.radius:
            raise TrustRadiusError(
                f"translating B_{n} by an element of length {self.sphere_of[g]} "
                f"needs radius {self.sphere_of[g] + n}"
            )
        stop = self.sphere(n).stop
        parent, letter, table, a = self.parent, self.last_letter, self.table, self.degree
        if sigma is not None:
            letter = [sigma[x] for x in letter[:stop]]  # letter[0] = -1 is never read
        image = [g]
        for h in range(1, stop):
            image.append(table[image[parent[h]] * a + letter[h]])
        return image

    def distance_between(self, u: int, v: int, limit: int) -> int | None:
        """Graph distance of u, v measured inside the ball, or None if it
        exceeds ``limit``.  Exact whenever some true geodesic between them
        stays inside the ball (guaranteed e.g. when
        (|u| + |v| + limit) / 2 <= radius)."""
        return bidirectional_distance(_TableRows(self.table, self.degree), u, v, limit)

    # -- cache -------------------------------------------------------------

    def to_bytes(self) -> bytearray:
        """The cache file: the header, then the payload.  Tables are
        converted 8,192 values at a time, so that serialising holds the
        file and one small chunk, never a second copy of a table."""
        import hashlib

        text = self.presentation.text().encode()
        out = bytearray(CACHE_MAGIC + CACHE_VERSION.to_bytes(2, "big") + bytes(32))
        out += _int32([len(text)])
        out += text
        out += _int32([self.radius, self.degree, *self.sphere_sizes])
        for values in (self.parent, self.last_letter, self.table):
            for i in range(0, len(values), 1 << 13):
                out += _int32(values[i : i + (1 << 13)])
        out[len(CACHE_MAGIC) + 2 : CACHE_HEADER_LEN] = hashlib.sha256(memoryview(out)[CACHE_HEADER_LEN:]).digest()
        return out

    @classmethod
    def from_bytes(cls, data: bytes, presentation: Presentation) -> "CayleyBall":
        """Load a ball written by ``to_bytes``; raises ValueError unless
        the header, the payload checksum and the presentation all match,
        the table lengths agree with the radius, the alphabet size and the
        sphere sizes in the header, and every parent link points to a
        smaller id by a letter of the alphabet."""
        import hashlib

        magic_end = len(CACHE_MAGIC)
        if data[:magic_end] != CACHE_MAGIC:
            raise ValueError("not a subforge ball cache file")
        version = int.from_bytes(data[magic_end : magic_end + 2], "big")
        if version != CACHE_VERSION:
            raise ValueError(f"cache format version {version}, expected {CACHE_VERSION}")
        body = memoryview(data)[CACHE_HEADER_LEN:]
        if hashlib.sha256(body).digest() != data[magic_end + 2 : CACHE_HEADER_LEN]:
            raise ValueError("cache payload checksum mismatch")
        pos = 0

        def ints(count: int) -> array:
            nonlocal pos
            end = pos + 4 * count
            if end > len(body):
                raise ValueError("cache payload shorter than its header says")
            a = array("i")
            a.frombytes(body[pos:end])
            if sys.byteorder == "big":
                a.byteswap()
            pos = end
            return a

        (text_len,) = ints(1)
        text = bytes(body[pos : pos + text_len]).decode()
        pos += text_len
        if text != presentation.text():
            raise ValueError("cached ball belongs to a different presentation")
        radius, degree = ints(2)
        if radius < 0 or degree != presentation.alphabet.size:
            raise ValueError(f"cache header gives radius {radius} and {degree} letters")
        sizes = ints(radius + 1).tolist()
        n = sum(sizes)
        if min(sizes) < 0 or len(body) - pos != 4 * n * (2 + degree):
            raise ValueError("cache tables do not match the radius, alphabet size and sphere sizes")
        # Every id is mapped through one shared int object per element,
        # as enumeration makes them; ids[-1] is -1, for "outside the ball".
        ids = list(range(n))
        ids.append(-1)
        try:
            parent = list(map(ids.__getitem__, ints(n)))
            last_letter = ints(n).tolist()
            table = list(map(ids.__getitem__, ints(n * degree)))
        except IndexError:
            raise ValueError("cache tables name an id outside the ball") from None
        # Every link but the identity's must point to a smaller id by a
        # letter of the alphabet, as in any enumerated ball: parent chains
        # then end at the identity.  Whether a link goes one level down is
        # axiom 3's verdict.
        links, letters = parent[1:], last_letter[1:]
        if links and (
            min(links) < 0 or any(map(int.__ge__, links, range(1, n))) or min(letters) < 0 or max(letters) >= degree
        ):
            raise ValueError("cache parent links do not each point to a smaller id by a letter")
        sphere_of: list[int] = []
        for level, size in enumerate(sizes):
            sphere_of += [level] * size
        return cls(presentation, radius, sphere_of, parent, last_letter, table)


def cache_key(pres: Presentation, radius: int) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(pres.text().encode())
    h.update(str(radius).encode())
    return h.hexdigest()[:24]


def _relator_loops(pres: Presentation) -> list[list[Word]]:
    """loops[x] lists, in sorted order, inverse(t[1:]) for every distinct
    cyclic conjugate t of a relator or its inverse with t[0] = x.  Since
    x * t[1:] = 1, walking such a loop from g ends at g*x."""
    alphabet = pres.alphabet
    loops: list[set[Word]] = [set() for _ in range(alphabet.size)]
    for t in relator_conjugates(pres):
        loops[t[0]].add(inverse_word(t[1:], alphabet))
    return [sorted(ls) for ls in loops]


def _closers(loops: list[list[Word]], inverse: Sequence[int]) -> list[list[tuple[int, Word]]]:
    """closers[y] lists (x, loop[1:]) for every loop of ``_relator_loops``
    through x of length at least 2 whose first letter is y^-1, in letter
    order of x.  At an element g with last letter y the first step of such
    a loop is g's parent edge, so walking loop[1:] from the parent of g
    ends at g*x when the loop closes."""
    return [
        [(x, loop[1:]) for x, through in enumerate(loops) for loop in through if len(loop) > 1 and loop[0] == inverse[y]]
        for y in range(len(loops))
    ]


def enumerate_ball(pres: Presentation, radius: int, cap: int = DEFAULT_ELEMENT_CAP) -> CayleyBall:
    """Shortlex-BFS enumeration of the ball of the given radius.

    Candidates of sphere n+1 are generated from sphere n in shortlex order,
    so the first word reaching a new element is its shortlex normal form
    and every prefix of a stored normal form is itself stored.  A candidate
    g*x from sphere n lies in sphere n-1, n or n+1, and every edge into
    sphere n-1 was recorded while that sphere was processed.  For the
    others, the relator loops that leave g by its parent edge
    (``_closers``) are walked along recorded edges before any child of g
    is made; a walk that completes ends at g*x, with the relator as the
    proof.  Every edge at g still unknown afterwards leads to a new
    element, made in letter order.  The boundary sphere gets the same walk
    for its same-sphere edges when some relator has odd length.  When
    every relator has even length, word length mod 2 is a homomorphism to
    Z/2 (each relator maps to 0), so the two ends of every edge differ in
    parity and no edge joins two elements of one sphere; the edges from
    the boundary sphere down were all recorded while the sphere below it
    was processed, so the sweep would record nothing and is skipped.

    The walk is complete for C'(1/6) presentations, which are required.
    Take g in sphere n with g*x = u, where u was created earlier from g'
    with letter x'.  Then nf_g*x and nf_g'*x' are the sides of a geodesic
    bigon, and in a reduced van Kampen diagram for it (Greendlinger's
    lemma, Strebel's bigon classification) the cell C at u contains both
    end edges.  Read from g, the boundary of C is x, x'^-1, tree edges
    down to p', an interior arc to p and tree edges back up to g; the arc
    is a piece, shorter than |C|/6.  With a = |p|, b = |p'| and l the arc
    length, |C| = 2 + (n - a) + (n - b) + l, so
    a + b + l = 2n + 2 + 2l - |C| < 2n whenever |C| >= 3.  Geodesicity
    puts every arc vertex at sphere at most (a + b + l) / 2 < n, so every
    edge of the walk other than (g, x) touches a processed sphere and is
    already recorded.  And p is not g: g lies within b + l of the identity
    along the boundary, and n <= b + l would contradict a + b + l < 2n.
    So the walk from g leaves by g's parent edge, and no loop needs to be
    walked at the identity.  A same-sphere coincidence (possible only with
    odd relators) is the same argument with the side of length 1 in place
    of x': a + b + l = 2n + 1 + 2l - |C| < 2n.  A completed walk proves
    g*x = its endpoint whichever loop it takes, so walking fewer loops
    never changes a result.

    A relator of length 1 or 2 (|C| <= 2) makes x a loop at g or equal to
    another letter x' at g.  Its loop, of length 0 or 1, starts at g
    itself, and is tried just before g*x would be made, once g*x' for
    every x' before x is known.

    The letter table is written in place: a new element appends a row of
    -1 and the edge back to its parent.  Each sphere is walked as the list
    of the id objects its elements were created with, so every entry that
    names an element refers to one int object.

    With no relators the loop tables are empty and every candidate is new.
    Raises PresentationError when the relators are not C'(1/6).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if pres.relators and not verify_small_cancellation(pres).satisfies_c16:
        raise PresentationError("ball enumeration requires a C'(1/6) presentation")
    a = pres.alphabet.size
    inv = pres.alphabet.inverse
    loops = _relator_loops(pres)
    closers = _closers(loops, inv)
    short = [[loop for loop in through if len(loop) < 2] for through in loops]
    short_letters = [x for x in range(a) if short[x]]
    blank = [-1] * a

    sphere_of: list[int] = [0]
    parent: list[int] = [-1]
    last_letter: list[int] = [-1]
    table: list[int] = list(blank)
    starts = [0]  # starts[n]: id of the first element of sphere n

    def close(g: int) -> None:
        """Record g*x for every loop in closers[last letter of g] that
        closes on recorded edges."""
        row = g * a
        for x, rest in closers[last_letter[g]]:
            if table[row + x] >= 0:
                continue
            e = parent[g]
            for y in rest:
                e = table[e * a + y]
                if e < 0:
                    break
            else:
                table[row + x] = e
                table[e * a + inv[x]] = g

    def close_short(g: int, x: int) -> bool:
        """Record g*x when a relator of length 1 or 2 gives it."""
        for loop in short[x]:
            e = table[g * a + loop[0]] if loop else g
            if e >= 0:
                table[g * a + x] = e
                table[e * a + inv[x]] = g
                return True
        return False

    sphere = [0]
    for n in range(radius):
        starts.append(len(parent))
        nxt = []
        for g in sphere:
            if g:
                close(g)
            row = g * a
            for x in range(a):
                if table[row + x] >= 0:
                    continue  # edge already known
                if short[x] and close_short(g, x):
                    continue
                e = len(parent)
                if e >= cap:
                    sizes = [b - s for s, b in zip(starts, starts[1:])]
                    raise BallCapExceeded(cap, sizes + [e - starts[-1]])
                sphere_of.append(n + 1)
                parent.append(g)
                last_letter.append(x)
                table += blank
                table[e * a + inv[x]] = g
                table[row + x] = e
                nxt.append(e)
        sphere = nxt

    # Boundary sweep: edges from the outer sphere downward were recorded
    # while the lower spheres were processed; only same-sphere edges remain,
    # and only an odd relator makes one (docstring).
    if any(len(r) % 2 for r in pres.relators):
        for g in sphere:
            if g:
                close(g)
            for x in short_letters:
                if table[g * a + x] < 0:
                    close_short(g, x)

    return CayleyBall(
        presentation=pres,
        radius=radius,
        sphere_of=sphere_of,
        parent=parent,
        last_letter=last_letter,
        table=table,
    )
