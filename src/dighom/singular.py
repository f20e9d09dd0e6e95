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
cycles below early.  A materialized degree q is that order over level q, in
the level's own key tuples, and in singular_homology a column of the top
stored boundary is built only once something reads it.  The degree above
the top of singular_homology is streamed in that order without building its
level, and its boundary columns go lazily to the top-boundary reduction of
chain.py, which stops once their span saturates the cycles below.  A stream
that cannot saturate stops once the reduction has chosen its witness rows:
only a cube with a face at one of the few rows of their residuals can then
grow the span, and the cubes with those front faces, moved to each face
position, are those.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, compress, islice
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
    """True iff the cube does not depend on some coordinate t_i."""
    corners, q = sigma.corners, sigma.q
    total = 1 << q
    for b in range(q):
        bit = 1 << b
        if all(corners[c] == corners[c | bit] for c in range(total) if not c & bit):
            return True
    return False


# --- faces and boundary -----------------------------------------------------

@lru_cache(maxsize=None)
def _face_index_map(q, i, side_bit):
    """Corner-index table of the face fixing t_i = side_bit in a q-cube.

    Entry c' of the result is the parent corner index obtained by inserting
    side_bit at bit position i-1 of c'.
    """
    low_mask = (1 << (i - 1)) - 1
    out = []
    for c in range(1 << (q - 1)):
        low = c & low_mask
        high = c >> (i - 1)
        out.append(low | (side_bit << (i - 1)) | (high << i))
    return tuple(out)


def face(sigma, side, i):
    """The face of sigma with t_i frozen; side is 'front' (0) or 'back' (1)."""
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    if type(i) is not int or not 1 <= i <= sigma.q:
        raise NoSuchFace(f"no coordinate {i!r} in a {sigma.q}-cube")
    fmap = _face_index_map(sigma.q, i, 0 if side == "front" else 1)
    return SingularCube(sigma.q - 1, tuple(sigma.corners[c] for c in fmap))


def boundary(sigma):
    """Normalized boundary: alternating sum of faces, degenerate ones dropped.

    The coefficient of the front face in direction i is (-1)^i, of the back
    face -(-1)^i.  Coinciding faces merge, possibly to zero.
    """
    faces = (get(sigma.corners) for get, _ in _signed_face_maps(sigma.q))
    rows = [f for f in faces if not is_degenerate(SingularCube(sigma.q - 1, f))]
    (col,) = _boundary_columns([sigma.corners], {f: r for r, f in enumerate(rows)})
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
    for i in range(1, q + 1):
        for side_bit in (0, 1):
            fmap = _face_index_map(q, i, side_bit)
            d = _degree_of_injectivity(q - 1, tuple(corners[c] for c in fmap))
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
    inj = []
    for i in range(1, q + 1):
        for side in ("front", "back"):
            if is_injective(face(sigma, side, i)):
                inj.append((i, side))
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

    Level k is (keys, masks, front, back, start, memo) over its continuous
    k-tables t, degenerate ones too, in lex order: keys[t] is t as indices
    into X.sorted_points, bit i-1 of masks[t] is set iff t ignores t_i, t is
    the pair (front[t], back[t]) of its faces t_k = 0, 1 in level k-1, and
    start[x] is the first table with front x.  The tables with front x =
    (x0, x1) are (x, y) for the partners y of x, those with corners equal or
    adjacent to x's: the (y0, y1) with y0 a partner of x0 and y1 one of both
    x1 and y0.  memo holds these per (x1, y0), as offsets y - start[y0].  A
    point a is the pair (0, a), with its closed neighborhood as its chunk.
    (x, y) ignores t_{k+1} iff x == y, and t_i, i <= k, iff both x and y do.
    Once level k+1 is stored, the memo of level k >= 1 is emptied: only the
    rounds of the top level and the partners of the level being extended
    read a memo, and _chunk refills a miss.
    """

    def __init__(self, X):
        pts = X.sorted_points
        at = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        memo = {a * n: tuple(sorted([a] + [at[t] for t in X.neighbors(p)]))
                for a, p in enumerate(pts)}
        self.levels = [([(a,) for a in range(n)], [0] * n, [0] * n, range(n), (0, 1), memo)]

    def _chunk(self, k, x1, y0):
        """Chunk (x1, y0) of level k: the y = (y0, y1), y1 a partner of x1, as y - start[y0]."""
        keys, _, _, back, start, memo = self.levels[k]
        chunk = memo.get(at := x1 * len(keys) + y0)
        if chunk is None:
            lo, hi = start[y0], start[y0 + 1]
            ys = set(back[start[x1]:start[x1 + 1]]).__contains__
            chunk = memo[at] = tuple(compress(range(hi - lo), map(ys, back[lo:hi])))
        return chunk

    def _partners(self, j, x):
        """(lo, chunk) for each partner t of the front of table x of level j:
        the tables y with (x, y) in level j+1 are lo plus an entry of a chunk."""
        _, _, front, back, start, _ = self.levels[j]
        return [(start[back[t]], self._chunk(j, back[x], back[t]))
                for t in range(start[front[x]], start[front[x] + 1])]

    def level(self, k, q, budget):
        """Level k, building the levels up to it.  A level is sized before it
        is stored: unless its chunk lengths show that it has at most budget
        tables, its nondegenerate tables are counted, and more than budget
        raise BudgetExceeded for degree q with nothing of the level stored."""
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
            new = nkeys, nmasks, nfront, nback, nstart, _ = [], [], [], [], [0], {}
            for x, key in enumerate(keys):
                for lo, chunk in self._partners(j, x):
                    for y in chunk:
                        y += lo
                        nkeys.append(key + keys[y])
                        nmasks.append(masks[x] & masks[y] | (x == y) << j)
                        nfront.append(x)
                        nback.append(y)
                nstart.append(len(nkeys))
            self.levels.append(new)
            if j:
                self.levels[j][5].clear()
        return self.levels[k]

    def cubes(self, q, budget):
        """The keys of level q that are nondegenerate, the q-cubes, in the
        order of rounds(q - 1, every front): round r lists the r-th of each
        front in turn, fronts in order."""
        keys, masks, front = self.level(q, q, budget)[:3]
        rounds, last = [], None
        for t in compress(range(len(keys)), map(not_, masks)):
            r = r + 1 if front[t] == last else 0
            last = front[t]
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(keys[t])
        return [key for turn in rounds for key in turn]

    def rounds(self, k, fronts):
        """The keys of the nondegenerate tables (x, y) over the fronts x of
        level k, round-robin: one in turn from the partners of each x, in lex
        order, until all are listed.  A live front is the list [x, t, i]: its
        next partner is at i in the chunk of the partner back[t] of front[x]."""
        keys, masks, front, back, start, memo = self.levels[k]
        n = len(keys)

        def step(s):
            x, t, i = s
            x1, m = back[x], masks[x]
            while t < start[front[x] + 1]:
                y0 = back[t]
                ys = memo.get(x1 * n + y0) or self._chunk(k, x1, y0)
                while i < len(ys):
                    y = start[y0] + ys[i]
                    i += 1
                    if y != x and not masks[y] & m:
                        s[1:] = t, i
                        return y
                t, i = t + 1, 0
            return None

        # the first round starts the fronts as it goes
        live = ([x, start[front[x]], 0] for x in fronts)
        while live:
            kept = []
            for s in live:
                y = step(s)
                if y is not None:
                    kept.append(s)
                    yield keys[s[0]] + keys[y]
            live = kept


def _enumerate(X, q, budget, ladder=None):
    """(keys, cofaces) of the nondegenerate q-cubes on X, lazily.

    A key is a tuple of indices into X.sorted_points, one per corner index.
    keys lists every key once: degree 0 lists the points, and a degree q >= 1
    takes one cube in turn from each front face t_q = 0, a table of level q-1
    of the ladder (a fresh one unless given), listing its partners in lex
    order (see _Ladder.rounds).  Consecutive cubes thus have different front
    faces, so their boundary columns span the cycles of degree q-1 after far
    fewer columns than in lex order, where long runs of cubes share a front
    face.  cofaces(fronts)
    lists, each once, the keys with a face in fronts, keys of degree q-1: a
    q-cube has face f at t_i = side exactly when it is a cube with front
    face f precomposed to move t_q to t_i, reflected if side.  The keys of
    both count toward one budget, and BudgetExceeded rises once more than
    budget went by, or when a level of the ladder built for them has more
    than budget nondegenerate tables.  Without a c1-adjacent pair in X every
    continuous cube is constant, so there is none in a degree q >= 1, and no
    level is built.  Degree 0 and a degree with no cube have no cofaces (None).
    """
    spent = 0

    def counted(keys):
        nonlocal spent
        for key in keys:
            spent += 1
            if spent > budget:
                raise BudgetExceeded(q, budget)
            yield key

    if not q:
        return counted((i,) for i in range(len(X.sorted_points))), None
    if not any(X.neighbors(p) for p in X.sorted_points):
        return iter(()), None
    ladder = ladder or _Ladder(X)

    def listing():
        yield from ladder.rounds(q - 1, range(len(ladder.level(q - 1, q, budget)[0])))

    def cofaces(fronts):
        moves = [_precomposition(q, i, q, side << (q - 1), True)
                 for i in range(1, q + 1) for side in (0, 1)]
        level = ladder.level(q - 1, q, budget)[0]  # in lex order
        seen = set()
        for a in ladder.rounds(q - 1, [bisect_left(level, f) for f in fronts]):
            for move in moves:
                if (key := move(a)) not in seen:
                    seen.add(key)
                    yield key

    return counted(listing()), lambda fronts: counted(cofaces(fronts))


@lru_cache(maxsize=None)
def _signed_face_maps(q):
    """(face-key getter, sign) for each of the 2q faces of a q-cube.

    The getter maps a q-cube key, or corner table, to that of the face.  An
    itemgetter of one index returns a scalar, so the faces of a 1-cube slice
    out a 1-tuple.
    """
    out = []
    for i in range(1, q + 1):
        for sb in (0, 1):
            fmap = _face_index_map(q, i, sb)
            get = itemgetter(*fmap) if q > 1 else itemgetter(slice(fmap[0], fmap[0] + 1))
            out.append((get, -((-1) ** i) if sb else (-1) ** i))
    return tuple(out)


def _boundary_columns(keys, rowindex):
    """The boundary column of each cube key in keys, lazily, the face key f
    being row rowindex[f]; faces not in rowindex are degenerate and dropped.
    The face maps, tables of 2^q corners, are looked up only once a key
    arrives."""
    fmaps = None
    for key in keys:
        if fmaps is None:
            fmaps = _signed_face_maps(len(key).bit_length() - 1)
        col = {}
        for get, sgn in fmaps:
            r = rowindex.get(get(key))
            if r is None:
                continue
            v = col.get(r, 0) + sgn
            if v:
                col[r] = v
            else:
                del col[r]
        yield col


class _Columns:
    """The boundary columns of keys over the row index at, as a sequence:
    each is built by _boundary_columns the first time it is read, by index
    or in order, and kept."""

    def __init__(self, keys, at):
        self.keys, self.at, self.cols = keys, at, [None] * len(keys)

    def __len__(self):
        return len(self.cols)

    def __getitem__(self, j):
        col = self.cols[j]  # IndexError past the end stops iteration
        if col is None:
            col = self.cols[j] = next(_boundary_columns((self.keys[j],), self.at))
        return col


def _materialize(X, top, budget, ladder, lazy=False):
    """(keys, mats, err) for degrees 0..top, stopping short of the first
    degree over budget.

    keys[q] lists the q-cube keys in the order of _enumerate: degree 0 the
    points, and every degree q >= 1 the nondegenerate tables of level q of
    the one ladder given, its own tuples (see _Ladder.cubes).  mats[q-1] is
    the boundary of degree q over them; if lazy, that of the top degree
    listed builds each column only once it is read (see _Columns).  err is
    the BudgetExceeded that cut keys short, or None when every degree fit.
    """
    keys, err = [], None
    edges = any(X.neighbors(p) for p in X.sorted_points)
    for q in range(top + 1):
        try:
            keys.append(ladder.cubes(q, budget) if q and edges
                        else list(_enumerate(X, q, budget)[0]))
        except BudgetExceeded as e:
            err = e
            break
    mats = []
    for q in range(1, len(keys)):
        at = {k: r for r, k in enumerate(keys[q - 1])}
        cols = (_Columns(keys[q], at) if lazy and q == len(keys) - 1
                else list(_boundary_columns(keys[q], at)))
        mats.append(SparseIntMatrix._trusted(len(at), len(keys[q]), cols))
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
    tables.  Degree 0 and a degree with no cube come from _enumerate.
    """
    _check_degree_and_budget("q", q, budget)
    pts = X.sorted_points
    if q and any(X.neighbors(p) for p in pts):
        keys = [key for key, m in zip(*_Ladder(X).level(q, q, budget)[:2]) if not m]
    else:
        keys = _enumerate(X, q, budget)[0]
    return [SingularCube(q, tuple(pts[a] for a in k)) for k in keys]


def build_singular_complex(X, max_q, budget=DEFAULT_BUDGET):
    """The normalized singular chain complex of X through degree max_q + 1.

    One extra degree is materialized so homology through max_q is exact.
    The basis labels are keys, the indices in pts = X.sorted_points of the
    corners: SingularCube(q, tuple(pts[a] for a in key)) is the cube.
    Degree 0 lists the points, and every degree q >= 1 is round-robin by
    front face (see _enumerate), so its boundary saturates early; the order
    of a degree does not depend on max_q.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    keys, mats, err = _materialize(X, max_q + 1, budget, _Ladder(X))
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
    streamed into it in the order of _enumerate, from the ladder of the
    degrees below, and it stops reading them
    once their span saturates the cycles of degree max_q; those cubes are
    never stored.  When H_max_q is not zero the span cannot saturate, and
    the stream stops once witness rows are chosen instead: the columns of
    the cofaces of the rows of their residuals finish the reduction, exactly,
    as every later column outside the span has an entry at such a row (see
    the chain module).  These cofaces count toward the budget of degree
    max_q+1 after the streamed cubes read.  If the enumeration budget
    is exhausted at degree j, every group needing that degree (q >= j-1)
    comes back as None instead of a group, and the groups below come from a
    pass through degree j-2.
    """
    _check_degree_and_budget("max_q", max_q, budget)
    ladder = _Ladder(X)
    keys, mats, err = _materialize(X, max_q, budget, ladder, lazy=True)
    m = len(keys) - 1  # top materialized degree
    if m < 0:
        return [None] * (max_q + 1)
    trunc = ChainComplex._trusted(keys, mats)
    if err is None:  # H_m needs degree m+1, which may be over budget
        rows = keys[m]
        at = {k: r for r, k in enumerate(rows)}  # shared by stream and cofaces
        stream, cofaces = _enumerate(X, m + 1, budget, ladder)
        try:
            return (_homology(trunc, 0, m, _boundary_columns(stream, at),
                              lambda R: _boundary_columns(cofaces([rows[r] for r in R]), at))
                    + [None] * (max_q - m))
        except BudgetExceeded:
            pass
    return homology_through(trunc, m - 1) + [None] * (max_q - m + 1)
