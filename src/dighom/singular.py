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
of level q, labelled by the level's own key tuples.  Every degree is listed
before any column is built, and a column of the top stored boundary is
built only once something reads it: a reduction, up to saturation, or the
chain-map check, at the cofaces of the rows it needs.
The degree above the top of singular_homology is streamed in that order as
pairs of tables, without building its level; singular_homology holds the
rules that stop it.

Boundary columns are built from table indices, never from corner tables.
The face of a cube (x, y) at t_q is x or y, and its face at t_i, i < q, is
the pair of the faces of x and y at t_i, read from face arrays per level,
and its row comes from its code as a pair of the level below.  The cofaces
of a table are the cubes with it as front face, moved by the coordinate
operators: each half of such a cube is moved by the operators' own corner
permutation and found by bisection in the keys of its level.  The public
boundary() works on corner tables and is the independent check of these
columns.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, islice, permutations, repeat, starmap
from math import prod
from operator import itemgetter, not_

from .chain import (
    Chain,
    ChainComplex,
    SparseIntMatrix,
    _apply,
    _ColumnReducer,
    _cycles,
    _homology,
    _reduce,
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

    # not slots=True: it makes a new class, whose frozen __setattr__ raises
    # TypeError instead of FrozenInstanceError for a name that is not a field
    __slots__ = ("q", "corners")
    q: int
    corners: tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.q == other.q and self.corners == other.corners

    def __reduce__(self):  # the frozen __setattr__ refuses pickle's slot state
        return SingularCube, (self.q, self.corners)

    @property
    def ambient_dim(self):
        return len(self.corners[0])

    def __str__(self):
        return f"I^{self.q}->{list(self.corners)}"


def _cube(q, corners, new=object.__new__, set_q=SingularCube.q.__set__,
          set_corners=SingularCube.corners.__set__):
    """SingularCube(q, corners) for a corner table the library has just made,
    its two slots set directly, past the frozen __setattr__."""
    s = new(SingularCube)
    set_q(s, q)
    set_corners(s, corners)
    return s


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
    return _cube(sigma.q - 1, get(sigma.corners))


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

def _check_index(q, *indices):
    """Raise IndexOutOfRange for the first index that is not an int in 1..q.

    The operators test their indices inline and call this only to raise.
    """
    for i in indices:
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
    return _corner_map(src, mask)


def _corner_map(src, mask):
    """Getter of corner m ^ mask for each corner c, where bit b of m is bit
    src[b] of c: the one copy of the corner permutation of the operators."""
    return itemgetter(*[sum((c >> s & 1) << b for b, s in enumerate(src)) ^ mask
                        for c in range(1 << len(src))])


@lru_cache(maxsize=None)
def _symmetries(q):
    """Corner maps of the 2^q q! symmetries of I^q, q >= 1, each a
    permutation of the coordinates and then a reflection of some of them."""
    return [_corner_map(src, mask) for src in permutations(range(q)) for mask in range(1 << q)]


def flip(sigma, j):
    """Precompose with the reflection t_j -> 1 - t_j."""
    q = sigma.q
    if type(j) is not int or not 0 < j <= q:
        _check_index(q, j)
    return _cube(q, _precomposition(q, j, j, 1 << (j - 1))(sigma.corners))


def swap(sigma, i, j):
    """Precompose with the transposition of t_i and t_j."""
    q = sigma.q
    if type(i) is not int or type(j) is not int or not (0 < i <= q and 0 < j <= q):
        _check_index(q, i, j)
    if i == j:
        return sigma
    return _cube(q, _precomposition(q, i, j, 0)(sigma.corners))


def shift(sigma, i, j):
    """Precompose with the cycle moving t_i into slot j.

    For i < j the variables strictly between slide down one slot; for i > j
    they slide up.  Equal indices give the identity.
    """
    q = sigma.q
    if type(i) is not int or type(j) is not int or not (0 < i <= q and 0 < j <= q):
        _check_index(q, i, j)
    if i == j:
        return sigma
    return _cube(q, _precomposition(q, i, j, 0, True)(sigma.corners))


def rotate(sigma, i, j):
    """Precompose with the quarter-turn: reflect t_j, then transpose t_i, t_j.

    With i == j this degenerates to the flip of t_i.
    """
    q = sigma.q
    if type(i) is not int or type(j) is not int or not (0 < i <= q and 0 < j <= q):
        _check_index(q, i, j)
    return _cube(q, _precomposition(q, i, j, 1 << (j - 1))(sigma.corners))


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
    return _cube(sigma.q + 1, sigma.corners + gamma.corners)


# --- injectivity, classification, orientation --------------------------------

def is_injective(sigma):
    return len(set(sigma.corners)) == len(sigma.corners)


def is_embedding(sigma):
    """True iff the cube maps I^q bijectively onto an elementary q-cube: it
    is injective, and its corners spread at most 1 in each coordinate, q in
    all.  Such a spread leaves each coordinate of a corner at its min or its
    max, so the corners are 2^q vertices of the spanned box, all of them."""
    if not is_injective(sigma):
        return False
    spreads = [max(c) - min(c) for c in zip(*sigma.corners)]
    return set(spreads) <= {0, 1} and sum(spreads) == sigma.q


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
    builds these arrays once, and column reads them.  A table moved by a
    coordinate operator is found from its key, by bisection in keys (see
    cofaces).
    """

    def __init__(self, X):
        pts = X.sorted_points
        at = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        memo = {a * n: tuple(sorted([a] + [at[t] for t in X.neighbors(p)]))
                for a, p in enumerate(pts)}
        self.edges = any(len(c) > 1 for c in memo.values())
        self.levels = [([(a,) for a in range(n)], [0] * n, [0] * n, range(n), (0, 1), memo, {}, {})]
        self.face_arrays = {0: []}
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

    def level(self, k, budget):
        """Level k, building the levels up to it.  A level is sized before it
        is stored: the partners of its fronts are collected, in one pass,
        until their chunk lengths pass budget; then its nondegenerate tables
        are counted, and more than budget raise BudgetExceeded for degree k
        with nothing of the level stored.  Level 0, the points, is stored
        from the start, and for k = 0 more than budget points raise
        BudgetExceeded."""
        if not k and len(self.levels[0][0]) > budget:
            raise BudgetExceeded(k, budget)
        while len(self.levels) <= k:
            j = len(self.levels) - 1
            keys, masks = self.levels[j][:2]
            partners, size = [], 0
            for x in range(len(keys)):
                if size > budget:
                    break
                partners.append(p := self._partners(j, x))
                size += sum(len(c) for _, c in p)
            if size > budget:  # the fronts past those collected are counted, and kept as reached

                def kept(x):
                    partners.append(p := self._partners(j, x))
                    return p

                fronts = chain(partners, map(kept, range(len(partners), len(keys))))
                nondeg = (y for x, p in enumerate(fronts)
                          for lo, c in p for y in c if y + lo != x and not masks[y + lo] & masks[x])
                if next(islice(nondeg, budget, None), None) is not None:
                    raise BudgetExceeded(k, budget)
            new = nkeys, nmasks, nfront, nback, nstart = [], [], [], [], [0]
            for x, key in enumerate(keys):
                for lo, chunk in partners[x]:
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
            keys, masks, front = self.level(q, budget)[:3]
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

    def column(self, k, tables):
        """The boundary column of a (k+1)-cube (x, y), x and y tables of
        level k, over the rows of the k-cubes tables, as a function of x and
        y.  The code of a table (u, v) of level k is u * N + v, N the number
        of tables of level k-1 (1 at level 0): the row index maps the code of
        each of tables to its row, so a face is found from its pair, without
        its own index.  The face at t_i = s is the table (f[x], f[y]) for i
        <= k, f a face array of level k, and x or y for i = k+1; its
        coefficient is (-1)^i if s = 0, else -(-1)^i, the sign of
        _signed_face_maps(k + 1).  A face not in tables is degenerate and
        dropped, and coinciding faces merge, possibly to zero."""
        *signs, sx, sy = (sgn for _, sgn in _signed_face_maps(k + 1))
        signed = list(zip(self.faces(k), signs))
        front, back = self.levels[k][2:4]
        n = len(self.levels[k - 1][0]) if k else 1
        get = {front[t] * n + back[t]: r for r, t in enumerate(tables)}.get

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

    def cofaces(self, k, fronts):
        """Each (k+1)-cube with a face in fronts, tables of level k, once, as
        a pair (x, y) of tables of level k.  Cube b has face f at t_i = s
        exactly when it is a cube a with front face f, from rounds(k,
        fronts), precomposed to move t_{k+1} to t_i, reflected if s; so b's
        faces at t_{k+1} are the halves of a, its faces at t_k, reflected in
        t_k if s and then shifted to have t_k at t_i: the corner map of
        shift(flip(h, k) if s else h, i, k), found by bisection in the keys
        of level k, which are in lex order.  The cubes are listed a by a,
        moves for i = 1..k+1 and s = 0, 1 in turn."""
        keys, _, front, back, _, _, index = self.levels[k][:7]
        getters = [_precomposition(k, i, k, s << (k - 1), True)
                   for i in range(1, k + 1) for s in (0, 1)]
        moved = {}  # table -> its moves, for the halves met so far

        def moves(u, v):
            h = (index.get(u) or self._index(k, u))[v]
            found = moved.get(h)
            if found is None:
                found = moved[h] = [bisect_left(keys, get(keys[h])) for get in getters]
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
    """The boundary columns of the q-cubes of a ladder, over the rows of its
    (q-1)-cubes, as a read-only sequence: column j is that of the table
    cubes(q)[j], built the first time it is read and kept.  A slice, ==, +
    and repr read each column they cover, as iteration does, and a pickle
    is the plain list of the columns.  meeting(R) lists the columns that
    may have an entry at a row in R without building any of them."""

    __slots__ = ("ladder", "q", "column", "front", "back", "tables", "cols", "at")

    def __init__(self, ladder, q):
        self.ladder, self.q, self.tables = ladder, q, ladder.listed[q]
        self.column = ladder.column(q - 1, ladder.listed[q - 1])
        self.front, self.back = ladder.levels[q][2:4]
        self.cols = [None] * len(self.tables)
        self.at = None  # table -> its column, once meeting needs it

    def __len__(self):
        return len(self.cols)

    def __getitem__(self, j):
        col = self.cols[j]  # IndexError past the end; a slice gives a list
        if col is None:
            t = self.tables[j]
            col = self.cols[j] = self.column(self.front[t], self.back[t])
        elif col.__class__ is list:
            return list(map(self.__getitem__, range(len(self.cols))[j]))
        return col

    def __iter__(self):
        return map(self.__getitem__, range(len(self.cols)))

    def __eq__(self, other):
        if isinstance(other, (list, _Columns)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        return list(self) + other

    def __radd__(self, other):
        return other + list(self)

    def __repr__(self):
        return repr(list(self))

    def __reduce__(self):
        return list, (list(self),)

    def meeting(self, rows):
        """The indices of the columns with an entry at a row in rows, and
        perhaps of others: the cofaces of the (q-1)-cubes at those rows
        (see _Ladder.cofaces), each found as a table of level q."""
        ladder, k = self.ladder, self.q - 1
        if self.at is None:
            self.at = dict(zip(self.tables, range(len(self.tables))))
        at, below = self.at, ladder.listed[k]
        return [at[ladder._index(k + 1, x)[y]] for x, y in ladder.cofaces(k, [below[r] for r in rows])]


def _materialize(top, budget, ladder):
    """(keys, mats, err) for degrees 0..top, stopping short of the first
    degree over budget.

    keys[q] lists the q-cube keys of the one ladder given, the tuples of the
    tables of _Ladder.cubes(q) in its order: degree 0 the points, and every
    degree q >= 1 round-robin over its front faces (see _Ladder.rounds).
    Every degree is listed, and counted toward the budget, before any
    column is built.  mats[q-1] is the boundary of degree q over them, built
    by _Ladder.column; that of the top degree listed builds each column only
    once it is read (see _Columns).  err is the BudgetExceeded that cut keys
    short, or None when every degree fit.
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
        cols = _Columns(ladder, q) if keys[q] else []
        mats.append(SparseIntMatrix._trusted(len(keys[q - 1]), len(keys[q]),
                                             cols if q == len(keys) - 1 else list(cols)))
    return keys, mats, err


def _certificate(X, m, ladder, tables, c1):
    """(cycles, cocycles) of degree m >= 1 when it is the c1 top degree of
    X, as dicts over the rows of the m-cubes tables; both empty otherwise.
    c1 is the C1Complex of X through degree m + 1 or further, or None to
    build it here; its top degree tells whether m is the c1 top, and its
    degree-m basis and d_m give the cycles and cocycles.

    Cycle i is alpha(c_i), where c_1..c_t is a Z-basis of ker d_m of the c1
    complex: the pivots of a _ColumnReducer over the columns of d_m stacked
    on an identity block, numbered below them, whose lowest row is in that
    block.  Cocycle i is the indicator of Q_i, the c1 cube at the pivot row
    of c_i, pulled back through beta: the orientation sign on each of the
    2^m m! cubes g(alpha(Q_i)), g a symmetry of I^m, the injective cubes
    onto the vertices of Q_i, and zero elsewhere.
    """
    from .elementary import _alpha_points, build_c1_complex  # elementary imports this module
    C = (c1 or build_c1_complex(X, m + 1)).complex
    if C.max_degree != m:  # a c1 (m+1)-cube, or no c1 m-cube
        return [], []
    n = len(C.basis(m))
    red = _ColumnReducer()
    for j, col in enumerate(C.boundary_matrix(m).columns):
        red.add({j: 1, **{n + r: v for r, v in col.items()}})
    keys, pts = ladder.levels[m][0], X.sorted_points
    at = {p: a for a, p in enumerate(pts)}
    alpha = [tuple(at[p] for p in _alpha_points(pts[i], ext)) for i, ext in C.basis(m)]  # singular keys
    row = dict(zip(tables, range(len(tables))))  # table -> its row
    cycles, cocycles = [], []
    for r, c in sorted(red.pivots.items()):
        if r < n:
            cycles.append({row[bisect_left(keys, alpha[k])]: v for k, v in c.items()})
            cocycles.append({row[bisect_left(keys, key)]: _orientation(key, pts)[2]
                             for key in (g(alpha[r]) for g in _symmetries(m))})
    return cycles, cocycles


def _certified_rank(X, m, ladder, tables, column, counted, d, c1):
    """t when H_m has rank at least t by the cycles and cocycles of
    _certificate, else 0: each cycle has zero boundary under the columns d
    of d_m, each cocycle is zero on the boundary of every cofaces(m) of its
    support, and the t x t pairing of cocycles and cycles is nonsingular.
    The cofaces count toward the budget of degree m+1 through counted; once
    they run over it, nothing is certified.  c1 is passed on to
    _certificate."""
    cycles, cocycles = _certificate(X, m, ladder, tables, c1)
    if not cycles or any(_apply(d, z) for z in cycles):
        return 0
    try:
        for x, y in counted(ladder.cofaces(m, [tables[r] for r in set().union(*cocycles)])):
            col = column(x, y)
            if any(sum(v * f[r] for r, v in col.items() if r in f) for f in cocycles):
                return 0
    except BudgetExceeded:
        return 0
    pairing = _ColumnReducer()
    for z in cycles:
        pairing.add({i: p for i, f in enumerate(cocycles)
                     if (p := sum(v * f[r] for r, v in z.items() if r in f))})
    return len(cycles) if pairing.rank == len(cycles) else 0


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
    return _enumerate(X, q, budget, _Ladder(X))


def _enumerate(X, q, budget, ladder):
    """enumerate_singular_cubes with its arguments checked, from level q of
    ladder, a _Ladder of X."""
    if q and not ladder.edges:
        return []
    pts = X.sorted_points
    return [_cube(q, tuple(map(pts.__getitem__, key)))
            for key, m in zip(*ladder.level(q, budget)[:2]) if not m]


def build_singular_complex(X, max_q, budget=DEFAULT_BUDGET):
    """The normalized singular chain complex of X through degree max_q + 1.

    One extra degree is materialized so homology through max_q is exact.
    The basis labels are keys, the indices in pts = X.sorted_points of the
    corners: SingularCube(q, tuple(pts[a] for a in key)) is the cube.
    Degree 0 lists the points, and every degree q >= 1 is round-robin by
    front face (see _Ladder.cubes), so its boundary saturates early; the
    order of a degree does not depend on max_q.  Every degree is listed,
    and counted toward the budget, before any column is built.  The columns
    of the top boundary d_{max_q+1} are built as they are read, and kept
    (see _Columns): homology reads them up to saturation, and
    verify_chain_map those at the cofaces of the rows it needs.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    return _singular_complex(max_q, budget, _Ladder(X))


def _singular_complex(max_q, budget, ladder):
    """build_singular_complex with its arguments checked, over ladder, a
    _Ladder of the image."""
    keys, mats, err = _materialize(max_q + 1, budget, ladder)
    if err is not None:
        raise err
    return ChainComplex._trusted(keys, mats)


def singular_homology(X, max_q, budget=DEFAULT_BUDGET):
    """[H_0, ..., H_max_q] of the normalized singular complex.

    Degrees 0..max_q are materialized from their levels of one ladder, and
    one top-down pass of chain.py computes every group.  Each column of the
    top stored boundary is built the first time the pass reads it.  The
    boundary of degree max_q+1 is reduced from a stream, the only policy of
    which is here: its cubes come as pairs of tables of level max_q,
    round-robin over their front faces (see _Ladder.rounds), and are never
    stored.  The first 64 columns of the stream, and every 1024th after, are
    checked to be cycles of d_max_q, as are those of a finish.  The stream
    stops once its span saturates the cycles of degree max_q, which it
    cannot do when H_max_q is not zero.

    If max_q >= 1 is the c1 top degree of X (no c1 (max_q+1)-cube), H_m, m
    = max_q, is first shown to have rank at least t on the singular side.
    The t cycles alpha(c_i) of a Z-basis c_i of the c1 cycles must have zero
    boundary; each cocycle phi_i, the indicator of a c1 cube Q_i pulled back
    through beta, must be zero on the boundary of every coface of its
    support; and the pairing phi_i(alpha(c_j)) must be nonsingular (see
    _certificate and _certified_rank).  The stream then stops at rank dim
    ker d_m - t with unit pivots, which is exact: its span S lies in the
    boundaries B_m, whose rank is at most dim ker d_m - t, so S has the rank
    of B_m, and with unit pivots S is a direct summand, so S = B_m.  A
    stream that ends before that rank was read in full.  Otherwise, and when
    a check fails or t = 0, the stream stops once the reduction chooses
    witness rows: the columns of the cofaces of the rows of their residuals
    finish it, exactly, as every later column outside the span has an entry
    at such a row (see the chain module and _Ladder.cofaces).

    The cofaces of either kind count toward the budget of degree max_q+1
    with the streamed cubes read, those of the certificate first.  If the
    enumeration budget is exhausted at degree j, every group needing that
    degree (q >= j-1) comes back as None instead of a group.  The groups
    below come from the same pass when j = max_q+1, from the reductions it
    already made, and otherwise from a pass through degree j-2.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    return _singular_homology(X, max_q, budget)


def _singular_homology(X, max_q, budget, c1=None):
    """singular_homology with its arguments checked; c1, if given, is the
    C1Complex of X through degree max_q + 1, for the certificate of the
    top degree (see _certificate), which otherwise builds its own."""
    ladder = _Ladder(X)
    keys, mats, err = _materialize(max_q, budget, ladder)
    m = len(keys) - 1  # top materialized degree
    if m < 0:
        return [None] * (max_q + 1)
    trunc = ChainComplex._trusted(keys, mats)
    if err is not None:  # H_m needs degree m+1, which is over budget
        return (homology_through(trunc, m - 1) if m else []) + [None] * (max_q - m + 1)
    if not ladder.edges:  # degree m+1 has no cube
        return homology_through(trunc, m)
    tables = ladder.cubes(m, budget)
    column = ladder.column(m, tables)  # for the stream and cofaces
    counted = _counter(m + 1, budget)

    def stream(saturation, d):
        """The reduction of d_{m+1} (see singular_homology), or None over budget."""
        free = m and _certified_rank(X, m, ladder, tables, column, counted, d, c1)
        cubes = counted(ladder.rounds(m, range(len(ladder.levels[m][0]))))

        def finish(R):
            cubes.close()  # the rest of the stream stays unread: free its live fronts
            return _cycles(starmap(column, counted(ladder.cofaces(m, [tables[r] for r in R]))),
                           d, sampled=True)

        columns = _cycles(starmap(column, cubes), d, sampled=True)
        try:
            if free:
                return _reduce(columns, saturation - free)
            return _reduce(columns, saturation, d, finish)
        except BudgetExceeded:
            return None

    return _homology(trunc, 0, m, stream)
