"""Singular cubes in a digital image and their normalized chain complex.

A singular q-cube is a continuous map from the digital unit q-cube I^q =
{0,1}^q into an image, stored as its full corner table: corner index c in
0..2^q-1 encodes the argument t by bit (i-1) of c = t_i, with t_1 the least
significant bit.  Continuity of the table means every one-bit pair of corners
maps to equal or c1-adjacent points.

The chain complex kept here is the normalized one: only nondegenerate cubes
are basis elements, and degenerate faces are dropped from boundaries.  The
coordinate operators (flip, transposition, positional shift, rotation) act by
permuting corner indices, so all of their algebra is exact bit manipulation.

Every q-cube is append(x, y) of its faces t_q = 0 and 1, continuous
(q-1)-tables with corners pairwise equal or adjacent, so the cubes come from
a ladder of appended tables: level k holds every continuous k-table in lex
order as a pair of level k-1.  A budget caps the number of nondegenerate
cubes of a degree, and a level over it is refused before any of it is
stored.  Every degree q >= 1 is listed round-robin over its front faces, the
tables of level q-1, so that the reduction of its boundary saturates the
cycles below early.  A materialized degree q is that order over the tables
of level q, labelled by the level's own key tuples, and in singular_homology
a column of the top stored boundary is built only once something reads it.
The degree above the top of singular_homology is streamed in that order as
pairs of tables, without building its level, and its boundary columns go
lazily to the top-boundary reduction of chain.py, which stops once their
span saturates the cycles below.  A stream that cannot saturate stops once
the reduction has chosen its witness rows: only a cube with a face at one of
the few rows of their residuals can then grow the span, and the cubes with
those front faces, moved to each face position, are those.

Boundary columns are built from table indices, never from corner tables.
The face of a cube (x, y) at t_q is x or y, and its face at t_i, i < q, is
the pair of the faces of x and y at t_i, read from face arrays per level;
each degree has one row index, from the code of each of its tables as a
pair of the level below to its row.  The cofaces are found the same way,
the coordinate moves of the levels below kept as arrays.  The public
boundary() works on corner tables and is the independent check of these
columns.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, islice, repeat, starmap
from math import prod
from operator import itemgetter, not_

from .chain import (
    Chain,
    ChainComplex,
    SparseIntMatrix,
    _homology,
    homology_through,
)
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NoSuchFace,
    NotCompatible,
    NotContinuous,
    NotInjective,
    PreconditionViolated,
    UnclassifiableCube,
)
from .image import adjacent

__all__ = [
    "DEFAULT_BUDGET",
    "SingularCube",
    "make_cube",
    "is_degenerate",
    "face",
    "boundary",
    "flip",
    "swap",
    "shift",
    "rotate",
    "apply_operator",
    "compatible",
    "append",
    "is_injective",
    "is_embedding",
    "degree_of_injectivity",
    "CubeType",
    "CubeClass",
    "classify",
    "OrientationData",
    "orientation",
    "enumerate_singular_cubes",
    "build_singular_complex",
    "singular_homology",
]

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SingularCube:
    """A continuous map I^q -> Z^n as a corner table of length 2^q."""

    q: int
    corners: tuple

    @property
    def ambient_dim(self):
        return len(self.corners[0])

    def __str__(self):
        return f"I^{self.q}->{list(self.corners)}"


def make_cube(points):
    """Build a SingularCube from its corner table, checking continuity.

    The table length fixes q; a one-bit pair of corners mapping to distinct
    non-adjacent points raises NotContinuous carrying that pair.
    """
    corners = [tuple(p) for p in points]
    total = len(corners)
    if total == 0 or total & (total - 1):
        raise ValueError(f"corner table length {total} is not a power of two")
    q = total.bit_length() - 1
    n = len(corners[0])
    for p in corners:
        if len(p) != n:
            raise ValueError(f"corner {p} has {len(p)} coordinates, expected {n}")
        for c in p:
            if type(c) is not int:
                raise ValueError(f"non-integer coordinate {c!r}")
    for c in range(total):
        for b in range(q):
            bit = 1 << b
            if c & bit:
                continue
            x, y = corners[c], corners[c | bit]
            if x != y and not adjacent(x, y):
                raise NotContinuous(
                    f"corners {x} and {y} differ across t_{b + 1} "
                    "but are neither equal nor adjacent",
                    pair=(x, y),
                )
    return SingularCube(q, tuple(corners))


def is_degenerate(sigma):
    """True iff the cube does not depend on some coordinate t_i: its faces
    at t_i = 0 and t_i = 1 are equal."""
    corners, fmaps = sigma.corners, _signed_face_maps(sigma.q)
    return any(front(corners) == back(corners)
               for (front, _), (back, _) in zip(fmaps[::2], fmaps[1::2]))


# --- faces and boundary -----------------------------------------------------

@lru_cache(maxsize=None)
def _signed_face_maps(q):
    """(face-key getter, sign) for each of the 2q faces of a q-cube, the
    faces t_i = 0 and t_i = 1 for i = 1..q in turn.

    The getter maps a q-cube key, or corner table, to that of the face:
    corner c of the face t_i = sb is corner c of the cube with the bit sb
    inserted at position i-1.  An itemgetter of one index returns a scalar,
    so the faces of a 1-cube slice out a 1-tuple.
    """
    out = []
    for i in range(1, q + 1):
        low = (1 << (i - 1)) - 1
        for sb in (0, 1):
            fmap = [c & low | sb << (i - 1) | (c >> (i - 1)) << i for c in range(1 << (q - 1))]
            get = itemgetter(*fmap) if q > 1 else itemgetter(slice(fmap[0], fmap[0] + 1))
            out.append((get, -((-1) ** i) if sb else (-1) ** i))
    return tuple(out)


def face(sigma, side, i):
    """The face of sigma with t_i frozen; side is 'front' (0) or 'back' (1)."""
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    if type(i) is not int or not 1 <= i <= sigma.q:
        raise NoSuchFace(f"no coordinate {i!r} in a {sigma.q}-cube")
    get, _ = _signed_face_maps(sigma.q)[2 * i - 2 + (side == "back")]
    return SingularCube(sigma.q - 1, get(sigma.corners))


def boundary(sigma):
    """Normalized boundary: alternating sum of faces, degenerate ones dropped.

    The coefficient of the front face in direction i is (-1)^i, of the back
    face -(-1)^i.  Coinciding faces merge, possibly to zero.
    """
    faces = (get(sigma.corners) for get, _ in _signed_face_maps(sigma.q))
    rows = [f for f in faces if not is_degenerate(SingularCube(sigma.q - 1, f))]
    col = _boundary_column(sigma.corners, {f: r for r, f in enumerate(rows)})
    return Chain(sigma.q - 1, {SingularCube(sigma.q - 1, rows[r]): v for r, v in col.items()})


# --- coordinate operators ---------------------------------------------------

def _check_index(q, i):
    if type(i) is not int or not 1 <= i <= q:
        raise IndexOutOfRange(f"coordinate index {i!r} outside 1..{q}")


@lru_cache(maxsize=None)
def _precomposition(q, i, j, mask, shifted=False):
    """Getter of the corner table of a q-cube precomposed with a coordinate
    map: t_i and t_j transposed, or if shifted t_i moved into slot j, then
    the coordinates at the set bits of mask reflected.

    Corner c of the result is corner m ^ mask of the cube, where bit b of m
    is bit src[b] of c, src the permutation of the coordinates.
    """
    src = list(range(q))
    if shifted:
        src.insert(j - 1, src.pop(i - 1))
    else:
        src[i - 1], src[j - 1] = j - 1, i - 1
    return itemgetter(*[sum((c >> s & 1) << b for b, s in enumerate(src)) ^ mask
                        for c in range(1 << q)])


def flip(sigma, j):
    """Precompose with the reflection t_j -> 1 - t_j."""
    _check_index(sigma.q, j)
    return SingularCube(sigma.q, _precomposition(sigma.q, j, j, 1 << (j - 1))(sigma.corners))


def swap(sigma, i, j):
    """Precompose with the transposition of t_i and t_j."""
    _check_index(sigma.q, i)
    _check_index(sigma.q, j)
    if i == j:
        return sigma
    return SingularCube(sigma.q, _precomposition(sigma.q, i, j, 0)(sigma.corners))


def shift(sigma, i, j):
    """Precompose with the cycle moving t_i into slot j.

    For i < j the variables strictly between slide down one slot; for i > j
    they slide up.  Equal indices give the identity.
    """
    _check_index(sigma.q, i)
    _check_index(sigma.q, j)
    if i == j:
        return sigma
    return SingularCube(sigma.q, _precomposition(sigma.q, i, j, 0, True)(sigma.corners))


def rotate(sigma, i, j):
    """Precompose with the quarter-turn: reflect t_j, then transpose t_i, t_j.

    With i == j this degenerates to the flip of t_i.
    """
    _check_index(sigma.q, i)
    _check_index(sigma.q, j)
    return SingularCube(sigma.q, _precomposition(sigma.q, i, j, 1 << (j - 1))(sigma.corners))


_OPERATORS = {"F": (flip, 1), "C": (swap, 2), "S": (shift, 2), "R": (rotate, 2)}


def apply_operator(sigma, op):
    """Apply an operator tag ('F', j), ('C', i, j), ('S', i, j) or ('R', i, j)."""
    if not op or op[0] not in _OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    fn, arity = _OPERATORS[op[0]]
    if len(op) != arity + 1:
        raise ValueError(f"operator {op[0]} takes {arity} indices, got {len(op) - 1}")
    return fn(sigma, *op[1:])


# --- append -----------------------------------------------------------------

def compatible(sigma, gamma):
    """True iff the two q-cubes can bound a (q+1)-cube: matching corners are
    equal or adjacent pointwise."""
    if sigma.q != gamma.q or sigma.ambient_dim != gamma.ambient_dim:
        return False
    for x, y in zip(sigma.corners, gamma.corners):
        if x != y and not adjacent(x, y):
            return False
    return True


def append(sigma, gamma):
    """The (q+1)-cube running from sigma (t_{q+1}=0) to gamma (t_{q+1}=1)."""
    if not compatible(sigma, gamma):
        raise NotCompatible(f"{sigma} and {gamma} differ in degree or ambient "
                            "dimension, or in corners neither equal nor adjacent")
    return SingularCube(sigma.q + 1, sigma.corners + gamma.corners)


# --- injectivity, classification, orientation --------------------------------

def is_injective(sigma):
    return len(set(sigma.corners)) == len(sigma.corners)


def is_embedding(sigma):
    """True iff the cube maps I^q bijectively onto an elementary q-cube."""
    if not is_injective(sigma):
        return False
    pts = sigma.corners
    n = sigma.ambient_dim
    lo = tuple(min(p[k] for p in pts) for k in range(n))
    hi = tuple(max(p[k] for p in pts) for k in range(n))
    spread = 0
    for k in range(n):
        d = hi[k] - lo[k]
        if d > 1:
            return False
        spread += d
    if spread != sigma.q:
        return False
    for p in pts:
        for k in range(n):
            if p[k] != lo[k] and p[k] != hi[k]:
                return False
    return True


@lru_cache(maxsize=65536)
def _degree_of_injectivity(q, corners):
    if len(set(corners)) == len(corners):
        return q
    # q >= 1 here: a noninjective 0-cube is impossible
    best = 0
    for get, _ in _signed_face_maps(q):
        d = _degree_of_injectivity(q - 1, get(corners))
        if d > best:
            best = d
            if best == q - 1:
                return best
    return best


def degree_of_injectivity(sigma):
    """q for injective cubes, else the largest degree of injectivity of a face;
    a 0-cube has degree 0."""
    return _degree_of_injectivity(sigma.q, sigma.corners)


class CubeType(enum.Enum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3


@dataclass(frozen=True)
class CubeClass:
    """Shape of a nondegenerate cube one short of injectivity.

    kind TYPE1: all four faces in coordinates coords=(i, j) are injective.
    kind TYPE2: exactly the two faces (one per coordinate of coords) are.
    kind TYPE3: exactly the front and back face in the single coords=(i,) are.
    """

    kind: CubeType
    coords: tuple


def classify(sigma):
    """Classify a nondegenerate q-cube of injectivity degree q-1, q >= 2.

    Violated preconditions raise PreconditionViolated; a face pattern outside
    the three recognized shapes raises UnclassifiableCube.
    """
    q = sigma.q
    if q < 2:
        raise PreconditionViolated(f"classification needs q >= 2, got q={q}")
    if is_degenerate(sigma):
        raise PreconditionViolated("cube is degenerate")
    d = degree_of_injectivity(sigma)
    if d != q - 1:
        raise PreconditionViolated(f"degree of injectivity is {d}, expected {q - 1}")
    half, corners = 1 << (q - 1), sigma.corners
    inj = [(k // 2 + 1, ("front", "back")[k % 2])
           for k, (get, _) in enumerate(_signed_face_maps(q)) if len(set(get(corners))) == half]
    coords = sorted({i for i, _ in inj})
    if len(inj) == 4 and len(coords) == 2:
        # both faces in each of two coordinates
        return CubeClass(CubeType.TYPE1, tuple(coords))
    if len(inj) == 2 and len(coords) == 2:
        return CubeClass(CubeType.TYPE2, tuple(coords))
    if len(inj) == 2 and len(coords) == 1:
        return CubeClass(CubeType.TYPE3, tuple(coords))
    raise UnclassifiableCube(
        f"injective faces {inj} fit no recognized pattern for {sigma}"
    )


@dataclass(frozen=True)
class OrientationData:
    """Edge data of an injective cube.

    k[i-1] is the ambient coordinate (1-based) in which the edge from corner 0
    to corner theta^i moves, edge_signs[i-1] its direction, and o the overall
    sign: the parity of the permutation ranking k times the product of the
    edge directions.
    """

    k: tuple
    edge_signs: tuple
    o: int


def _orientation(key, pts):
    """(k, edge_signs, o) of OrientationData for the cube whose corner c is
    pts[key[c]]: the one copy of the sign rule."""
    base = pts[key[0]]
    steps = []
    for b in range(len(key).bit_length() - 1):
        tip = pts[key[1 << b]]
        moved = [(pos + 1, t - u) for pos, (t, u) in enumerate(zip(tip, base)) if t != u]
        if len(moved) != 1 or moved[0][1] not in (-1, 1):
            raise RuntimeError(f"edge {b + 1} from {base} to {tip} is not a unit step")
        steps += moved
    ks = tuple(k for k, _ in steps)
    if len(set(ks)) != len(ks):
        raise RuntimeError(f"repeated edge direction in {ks}")
    signs = tuple(s for _, s in steps)
    return ks, signs, prod(signs, start=(-1) ** sum(a > b for a, b in combinations(ks, 2)))


def orientation(sigma):
    if not is_injective(sigma):
        raise NotInjective(f"{sigma} is not injective")
    return OrientationData(*_orientation(range(len(sigma.corners)), sigma.corners))


def _beta_key(key, pts):
    """beta on a singular key over the points pts: None if the key is not
    injective, else (sign, c1 key (min(key), extent)), as the smallest index
    is the minimal corner of the image cube."""
    if len(set(key)) != len(key):
        return None
    k, _, o = _orientation(key, pts)
    return o, (min(key), tuple(sorted(k)))


# --- enumeration ------------------------------------------------------------

class _Ladder:
    """The continuous corner tables on X, level by level, for one call.

    Level k is (keys, masks, front, back, start, memo, index, chunks) over
    its continuous k-tables t, degenerate ones too, in lex order: keys[t] is
    t as indices into X.sorted_points, bit i-1 of masks[t] is set iff t
    ignores t_i, t is the pair (front[t], back[t]) of its faces t_k = 0, 1 in
    level k-1, and start[x] is the first table with front x.  index[x] maps
    the back of each table with front x to its index, built once per table
    x (see _index).  The tables with front x = (x0, x1) are (x, y) for the
    partners y of x, those with corners equal or adjacent to x's: the (y0,
    y1) with y0 a partner of x0 and y1 one of both x1 and y0.  memo holds
    these per (x1, y0), as offsets y - start[y0], each distinct chunk
    stored once per level, in chunks.  A point a is the pair (0, a), with
    its closed neighborhood as its chunk.  (x, y) ignores t_{k+1} iff x ==
    y, and t_i, i <= k, iff both x and y do.  Once level k+1 is stored, the
    memo of level k >= 1 is emptied, with its index and chunks: only the
    rounds of the top level and the partners of the level being extended
    read a memo, and _chunk refills a miss.

    Faces are table indices too.  The face of t = (x, y) at t_k = s is x or
    y, and its face at t_i = s, i < k, is the table (f[x], f[y]) of level
    k-1, f the face array of level k-1 at t_i = s, found by index; faces(k)
    builds these arrays once.  The code of a table (u, v) of level k is u *
    N + v, N the number of tables of level k-1 (1 below level 0): a row
    index maps the code of each k-cube to its row, so a face is found from
    its pair, without its own index.
    """

    def __init__(self, X):
        pts = X.sorted_points
        at = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        memo = {a * n: tuple(sorted([a] + [at[t] for t in X.neighbors(p)]))
                for a, p in enumerate(pts)}
        self.edges = any(len(c) > 1 for c in memo.values())
        self.levels = [([(a,) for a in range(n)], [0] * n, [0] * n, range(n), (0, 1), memo, {}, {})]
        self.face_arrays, self.move_arrays = {0: []}, {}
        self.listed = {}

    def _index(self, k, u):
        """index[u] of level k >= 1: the back of each table with front u ->
        its index.  Its keys are the partners of u, the chunks' filter."""
        back, start, _, index = self.levels[k][3:7]
        found = index.get(u)
        if found is None:
            lo, hi = start[u], start[u + 1]
            found = index[u] = dict(zip(back[lo:hi], range(lo, hi)))
        return found

    def _chunk(self, k, x1, y0):
        """Chunk (x1, y0) of level k: the y = (y0, y1), y1 a partner of x1, as y - start[y0]."""
        keys, _, _, back, start, memo, _, chunks = self.levels[k]
        chunk = memo.get(at := x1 * len(keys) + y0)
        if chunk is None:
            lo, hi = start[y0], start[y0 + 1]
            ys = self._index(k, x1).__contains__
            # made from a list at its final size, so that it reuses a freed
            # tuple of that size: one grown from the iterator would be
            # resized from another size, and the freed ones of its own size
            # would pile up in the interpreter's free list across calls
            chunk = tuple(list(compress(range(hi - lo), map(ys, back[lo:hi]))))
            chunk = memo[at] = chunks.setdefault(chunk, chunk)
        return chunk

    def _partners(self, j, x):
        """(lo, chunk) for each partner t of the front of table x of level j:
        the tables y with (x, y) in level j+1 are lo plus an entry of a chunk."""
        _, _, front, back, start = self.levels[j][:5]
        return [(start[back[t]], self._chunk(j, back[x], back[t]))
                for t in range(start[front[x]], start[front[x] + 1])]

    def level(self, k, q, budget):
        """Level k, building the levels up to it.  A level is sized before it
        is stored: unless its chunk lengths show that it has at most budget
        tables, its nondegenerate tables are counted, and more than budget
        raise BudgetExceeded for degree q with nothing of the level stored.
        Level 0, the points, is stored from the start, and for degree 0 more
        than budget points raise BudgetExceeded."""
        if not q and len(self.levels[0][0]) > budget:
            raise BudgetExceeded(q, budget)
        while len(self.levels) <= k:
            j = len(self.levels) - 1
            keys, masks = self.levels[j][:2]
            xs = range(len(keys))
            if any(n > budget for n in accumulate(
                    len(c) for x in xs for _, c in self._partners(j, x))):
                nondeg = (y for x in xs for lo, c in self._partners(j, x) for y in c
                          if y + lo != x and not masks[y + lo] & masks[x])
                if next(islice(nondeg, budget, None), None) is not None:
                    raise BudgetExceeded(q, budget)
            new = nkeys, nmasks, nfront, nback, nstart = [], [], [], [], [0]
            for x, key in enumerate(keys):
                for lo, chunk in self._partners(j, x):
                    for y in chunk:
                        y += lo
                        nkeys.append(key + keys[y])
                        nmasks.append(masks[x] & masks[y] | (x == y) << j)
                        nfront.append(x)
                        nback.append(y)
                nstart.append(len(nkeys))
            self.levels.append(new + ({}, {}, {}))
            if j:
                for cache in self.levels[j][5:]:
                    cache.clear()
        return self.levels[k]

    def cubes(self, q, budget):
        """The nondegenerate tables of level q, the q-cubes, in the order
        of rounds(q - 1, every front): round r lists the r-th of each front
        in turn, fronts in order.  Degree 0 lists the points.  Listed once
        per degree."""
        tables = self.listed.get(q)
        if tables is None:
            keys, masks, front = self.level(q, q, budget)[:3]
            rounds, last = [], None
            for t in compress(range(len(keys)), map(not_, masks)):
                r = r + 1 if front[t] == last else 0
                last = front[t]
                if r == len(rounds):
                    rounds.append([])
                rounds[r].append(t)
            tables = self.listed[q] = array("i", [t for turn in rounds for t in turn])
        return tables

    def rounds(self, k, fronts):
        """The nondegenerate tables (x, y) over the fronts x of level k, as
        pairs, round-robin: one in turn from the partners of each x, in lex
        order, until all are listed.  A live front is x with its place (t,
        i): its next partner is at i in the chunk of the partner back[t] of
        front[x].  The live fronts of a round are kept in arrays."""
        keys, masks, front, back, start, memo = self.levels[k][:6]
        n = len(keys)
        # the first round starts the fronts as it goes
        live = zip(fronts, map(start.__getitem__, map(front.__getitem__, fronts)), repeat(0))
        while True:
            kept = xs, ts, places = array("i"), array("i"), array("i")
            for x, t, i in live:
                x1, m, end = back[x], masks[x], start[front[x] + 1]
                while t < end:
                    y0 = back[t]
                    lo, ys = start[y0], memo.get(x1 * n + y0) or self._chunk(k, x1, y0)
                    while i < len(ys):
                        y = lo + ys[i]
                        i += 1
                        if y != x and not masks[y] & m:
                            break
                    else:
                        t, i = t + 1, 0
                        continue
                    xs.append(x)
                    ts.append(t)
                    places.append(i)
                    yield x, y
                    break
            if not xs:
                return
            live = zip(*kept)

    def _base(self, k):
        """N of the codes of level k: the number of tables of level k-1."""
        return len(self.levels[k - 1][0]) if k else 1

    def faces(self, k):
        """The face arrays of level k, for t_1 = 0, t_1 = 1, ..., t_k = 1 in
        turn: entry t of each is the face of table t, a table of level k-1.
        Those at t_k are front and back."""
        out = self.face_arrays.get(k)
        if out is None:
            front, back, start = self.levels[k][2:5]
            index = self.levels[k - 1][6]
            out = []
            for f in self.faces(k - 1):
                out.append(g := array("i"))
                for x in range(len(start) - 1):  # the tables with front x, in turn
                    u = f[x]
                    pairs = index.get(u) or self._index(k - 1, u)
                    g.extend(map(pairs.__getitem__, map(f.__getitem__, back[start[x]:start[x + 1]])))
            out = self.face_arrays[k] = out + [front, back]
        return out

    def rows(self, k, tables):
        """The row index of the k-cubes tables: the code of each -> its position."""
        front, back = self.levels[k][2:4]
        n = self._base(k)
        return {front[t] * n + back[t]: r for r, t in enumerate(tables)}

    def column(self, k, rows):
        """The boundary column of a (k+1)-cube (x, y), x and y tables of
        level k, over the row index rows of the k-cubes, as a function of x
        and y.  The face at t_i = s is the table (f[x], f[y]) for i <= k, f a
        face array of level k, and x or y for i = k+1; its coefficient is
        (-1)^i if s = 0, else -(-1)^i.  A face not in rows is degenerate and
        dropped, and coinciding faces merge, possibly to zero."""
        faces = self.faces(k)
        signed = [(f, (-1) ** (j // 2 + 1) * (1 - j % 2 * 2)) for j, f in enumerate(faces)]
        sx, sy = (-1) ** (k + 1), -(-1) ** (k + 1)
        front, back = self.levels[k][2:4]
        n, get = self._base(k), rows.get

        def column(x, y):
            col = {}
            for f, sgn in signed:
                r = get(f[x] * n + f[y])
                if r is not None:
                    if r in col:
                        if v := col[r] + sgn:
                            col[r] = v
                        else:
                            del col[r]
                    else:
                        col[r] = sgn
            for r, sgn in (get(front[x] * n + back[x]), sx), (get(front[y] * n + back[y]), sy):
                if r is not None:
                    if r in col:
                        if v := col[r] + sgn:
                            col[r] = v
                        else:
                            del col[r]
                    else:
                        col[r] = sgn
            return col

        return column

    def _mover(self, k, i, s):
        """The map of tables t of level k to t with its t_k moved into slot
        i <= k, the coordinates from t_i on moving up one, and reflected if
        s.  For i < k, the faces of the result at t_k are those of t at
        t_{k-1}, moved in level k-1 (see _moves)."""
        front, back = self.levels[k][2:4]
        index = self._index
        if i == k:
            return (lambda t: index(k, back[t])[front[t]]) if s else (lambda t: t)
        f0, f1, moved = *self.faces(k)[2 * k - 4:2 * k - 2], self._moves(k - 1, i, s)
        return lambda t: index(k, moved[f0[t]])[moved[f1[t]]]

    def _moves(self, k, i, s):
        """_mover(k, i, s) of every table of level k, as an array, built once."""
        moved = self.move_arrays.get((k, i, s))
        if moved is None:
            moved = self.move_arrays[k, i, s] = array(
                "i", map(self._mover(k, i, s), range(len(self.levels[k][0]))))
        return moved

    def cofaces(self, k, fronts):
        """Each (k+1)-cube with a face in fronts, tables of level k, once, as
        a pair (x, y) of tables of level k.  Cube b has face f at t_i = s
        exactly when it is a cube a with front face f, from rounds(k,
        fronts), precomposed to move t_{k+1} to t_i, reflected if s; so b's
        faces at t_{k+1} are those of a at t_k, moved to have t_k at t_i.
        The cubes are listed a by a, moves for i = 1..k+1 and s = 0, 1 in
        turn."""
        front, back, index = *self.levels[k][2:4], self.levels[k][6]
        movers = [self._mover(k, i, s) for i in range(1, k + 1) for s in (0, 1)]
        moved = {}  # table -> its moves, for the halves met so far

        def moves(u, v):
            h = (index.get(u) or self._index(k, u))[v]
            found = moved.get(h)
            if found is None:
                found = moved[h] = [mv(h) for mv in movers]
            return found

        seen = set()
        for x, y in self.rounds(k, fronts):
            halves = zip(moves(front[x], front[y]), moves(back[x], back[y])) if k else ()
            for b in chain(halves, ((x, y), (y, x))):
                if b not in seen:
                    seen.add(b)
                    yield b


def _counter(q, budget):
    """A filter that passes items through and counts them all toward one
    budget of degree q: BudgetExceeded rises once more than budget went by."""
    spent = 0

    def counted(items):
        nonlocal spent
        for item in items:
            spent += 1
            if spent > budget:
                raise BudgetExceeded(q, budget)
            yield item

    return counted


def _boundary_column(key, rowindex):
    """The boundary column of the cube key, the face key f being row
    rowindex[f]; faces not in rowindex are degenerate and dropped.  This is
    the path of boundary() on corner tables, independent of the table
    indices of _Ladder.column."""
    col = {}
    for get, sgn in _signed_face_maps(len(key).bit_length() - 1):
        r = rowindex.get(get(key))
        if r is None:
            continue
        v = col.get(r, 0) + sgn
        if v:
            col[r] = v
        else:
            del col[r]
    return col


class _Columns:
    """The boundary columns of the tables of a level, as a sequence: each
    is column(front[t], back[t]) of its table t, built the first time it is
    read, by index or in order, and kept."""

    def __init__(self, column, front, back, tables):
        self.column, self.front, self.back, self.tables = column, front, back, tables
        self.cols = [None] * len(tables)

    def __len__(self):
        return len(self.cols)

    def __getitem__(self, j):
        col = self.cols[j]  # IndexError past the end stops iteration
        if col is None:
            t = self.tables[j]
            col = self.cols[j] = self.column(self.front[t], self.back[t])
        return col


def _materialize(top, budget, ladder, lazy=False):
    """(keys, mats, err) for degrees 0..top, stopping short of the first
    degree over budget.

    keys[q] lists the q-cube keys of the one ladder given, the tuples of the
    tables of _Ladder.cubes(q) in its order: degree 0 the points, and every
    degree q >= 1 round-robin over its front faces (see _Ladder.rounds).
    mats[q-1] is the boundary of degree q over them, built by
    _Ladder.column; if lazy, that of the top degree listed builds each
    column only once it is read (see _Columns).  err is the BudgetExceeded
    that cut keys short, or None when every degree fit.
    """
    keys, err = [], None
    for q in range(top + 1):
        try:
            tables = ladder.cubes(q, budget) if ladder.edges or not q else ()
        except BudgetExceeded as e:
            err = e
            break
        keys.append(list(map(ladder.levels[q][0].__getitem__, tables)) if tables else [])
    mats = []
    for q in range(1, len(keys)):
        cols = []
        if keys[q]:
            column = ladder.column(q - 1, ladder.rows(q - 1, ladder.cubes(q - 1, budget)))
            tables, (front, back) = ladder.cubes(q, budget), ladder.levels[q][2:4]
            cols = (_Columns(column, front, back, tables) if lazy and q == len(keys) - 1
                    else list(map(column, map(front.__getitem__, tables),
                                  map(back.__getitem__, tables))))
        mats.append(SparseIntMatrix._trusted(len(keys[q - 1]), len(keys[q]), cols))
    return keys, mats, err


def _check_degree_and_budget(name, q, budget):
    """Refuse a degree q that is not an int >= 0 and a budget, the most
    cubes enumerated in one degree, that is not an int >= 1."""
    if type(q) is not int or q < 0:
        raise ValueError(f"{name} must be a nonnegative int")
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget {budget!r} must be an int >= 1")


def enumerate_singular_cubes(X, q, budget=DEFAULT_BUDGET):
    """All nondegenerate singular q-cubes on X, lexicographic in corner tables.

    They are the nondegenerate tables of level q of a _Ladder, built front
    face after front face with the partners of each in lex order; point
    indices follow point order, so that is the lex order of the corner
    tables.  Degree 0 lists the points.  Without a c1-adjacent pair in X
    every continuous cube is constant, so a degree q >= 1 has none, and no
    level is built.
    """
    _check_degree_and_budget("q", q, budget)
    ladder = _Ladder(X)
    if q and not ladder.edges:
        return []
    pts = X.sorted_points
    return [SingularCube(q, tuple(map(pts.__getitem__, key)))
            for key, m in zip(*ladder.level(q, q, budget)[:2]) if not m]


def build_singular_complex(X, max_q, budget=DEFAULT_BUDGET):
    """The normalized singular chain complex of X through degree max_q + 1.

    One extra degree is materialized so homology through max_q is exact.
    The basis labels are keys, the indices in pts = X.sorted_points of the
    corners: SingularCube(q, tuple(pts[a] for a in key)) is the cube.
    Degree 0 lists the points, and every degree q >= 1 is round-robin by
    front face (see _Ladder.cubes), so its boundary saturates early; the
    order of a degree does not depend on max_q.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    keys, mats, err = _materialize(max_q + 1, budget, _Ladder(X))
    if err is not None:
        raise err
    return ChainComplex._trusted(keys, mats)


def singular_homology(X, max_q, budget=DEFAULT_BUDGET):
    """[H_0, ..., H_max_q] of the normalized singular complex.

    Degrees 0..max_q are materialized from their levels of one ladder, and
    one top-down pass of chain.py computes every group.  Each column of the
    top stored boundary is built the first time the pass reads it: in its
    reduction, in the sampled check that a streamed column is a cycle, or
    to choose witness rows.  The boundary columns of degree max_q+1 are
    streamed into it as pairs of tables of level max_q, round-robin over
    their front faces (see _Ladder.rounds), and it stops reading them once
    their span saturates the cycles of degree max_q; those cubes are never
    stored.  When H_max_q is not zero the span cannot saturate, and
    the stream stops once witness rows are chosen instead: the columns of
    the cofaces of the rows of their residuals finish the reduction, exactly,
    as every later column outside the span has an entry at such a row (see
    the chain module and _Ladder.cofaces).  These cofaces count toward the
    budget of degree max_q+1 after the streamed cubes read.  If the
    enumeration budget is exhausted at degree j, every group needing that
    degree (q >= j-1) comes back as None instead of a group.  The groups below come from the
    same pass when j = max_q+1, from the reductions it already made, and
    otherwise from a pass through degree j-2.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    ladder = _Ladder(X)
    keys, mats, err = _materialize(max_q, budget, ladder, lazy=True)
    m = len(keys) - 1  # top materialized degree
    if m < 0:
        return [None] * (max_q + 1)
    trunc = ChainComplex._trusted(keys, mats)
    if err is None:  # H_m needs degree m+1, which may be over budget
        if not ladder.edges:  # degree m+1 has no cube
            return homology_through(trunc, m)
        tables = ladder.cubes(m, budget)
        column = ladder.column(m, ladder.rows(m, tables))  # for the stream and cofaces
        counted = _counter(m + 1, budget)
        cubes = counted(ladder.rounds(m, range(len(ladder.levels[m][0]))))

        def finish(R):
            cubes.close()  # the rest of the stream stays unread: free its live fronts
            return starmap(column, counted(ladder.cofaces(m, [tables[r] for r in R])))

        return _homology(trunc, 0, m, starmap(column, cubes), finish)
    return (homology_through(trunc, m - 1) if m else []) + [None] * (max_q - m + 1)
