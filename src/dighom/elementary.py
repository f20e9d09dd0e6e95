"""Elementary cubes and the c1-cubical chain complex of a digital image.

An elementary q-cube is a product of intervals [a_k, a_k+1] (in q coordinates,
the extent) and singletons [a_k] (everywhere else), stored as its minimal
corner plus the sorted tuple of 1-based extent coordinates.  The boundary
alternates over the extent positions: the face pair in the i-th smallest
extent coordinate carries sign (-1)^i, front minus back.

The complex is built level by level on keys (i, extent), i the index of the
minimal corner in X.sorted_points: a (q+1)-cube is a q-cube whose translate
one step up a direction above its extent is a q-cube too.  The translates are
point indices looked up by integer point codes, and each level is built one
extent at a time: for each direction above an extent, one pass over the
points of that extent's cubes keeps those whose translate is a cube of it.
So the canonically ordered bases, the faces and dimension(X), the top
nonempty level, are table lookups.  induced_map realizes a continuous map
over these bases through each cube's canonical embedding and its orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .chain import Chain, ChainComplex, SparseIntMatrix, quotient_complex
from .errors import EmptyImage, NoSuchFace, NotContinuous, PointNotInImage
from .image import DigitalImage, is_continuous
from .singular import _beta_key

__all__ = [
    "ElementaryCube",
    "enumerate_elementary_cubes",
    "c1_faces",
    "cube_boundary",
    "dimension",
    "C1Complex",
    "build_c1_complex",
    "relative_c1_complex",
    "induced_map",
]


@dataclass(frozen=True, order=True)
class ElementaryCube:
    """min_corner in Z^n plus the sorted 1-based coordinates of unit extent."""

    min_corner: tuple
    extent: tuple = ()

    def __post_init__(self):
        mc = tuple(self.min_corner)
        ext = tuple(self.extent)
        object.__setattr__(self, "min_corner", mc)
        object.__setattr__(self, "extent", ext)
        if not mc:
            raise ValueError("min_corner needs at least one coordinate")
        for c in mc:
            if type(c) is not int:
                raise ValueError(f"non-integer coordinate {c!r}")
        prev = 0
        for j in ext:
            if type(j) is not int or j <= prev or j > len(mc):
                raise ValueError(
                    f"extent {ext} must be strictly increasing within 1..{len(mc)}"
                )
            prev = j

    @property
    def dimension(self):
        return len(self.extent)

    @property
    def ambient_dim(self):
        return len(self.min_corner)

    def vertices(self):
        """The 2^q vertices in corner-index order: bit b of the index bumps
        the b-th smallest extent coordinate."""
        return _alpha_points(self.min_corner, self.extent)

    @classmethod
    def from_vertices(cls, points):
        """The elementary cube with exactly this vertex set; ValueError if the
        set is not one."""
        pts = {tuple(p) for p in points}
        if not pts:
            raise ValueError("empty vertex set")
        n = len(next(iter(pts)))
        if any(len(p) != n for p in pts):
            raise ValueError("mixed point dimensions")
        lo = tuple(min(p[k] for p in pts) for k in range(n))
        hi = tuple(max(p[k] for p in pts) for k in range(n))
        ext = []
        for k in range(n):
            d = hi[k] - lo[k]
            if d > 1:
                raise ValueError(f"vertex set spreads {d} in coordinate {k + 1}")
            if d == 1:
                ext.append(k + 1)
        # a spread of at most 1 leaves each coordinate of a point at lo or
        # hi: the points are vertices of the spanned box, all of them if
        # there are as many
        if len(pts) != 1 << len(ext):
            raise ValueError("vertex count does not match the spanned box")
        return cls(lo, tuple(ext))

    def __str__(self):
        parts = []
        for k, a in enumerate(self.min_corner, start=1):
            parts.append(f"[{a},{a + 1}]" if k in self.extent else f"[{a}]")
        return "x".join(parts)


def _alpha_points(base, ext):
    """The corners of alpha(Q), the canonical embedding of the elementary
    cube Q of minimal corner base and extent ext: corner c is base moved one
    step up each coordinate ext[b] at a set bit b of c, so beta(alpha(Q)) = +Q."""
    corners = [base]
    for j in ext:
        corners += [p[:j - 1] + (p[j - 1] + 1,) + p[j:] for p in corners]
    return corners


def _levels(X, top=None):
    """(tr, levels, rows): the cubes of X in degrees 0..top, up to the top
    nonempty one.  tr[d][i] is the index of point i + e_{d+1} in
    X.sorted_points or None; levels[q] lists the keys (i, ext) in
    (min_corner, extent) order, and rows[q][ext][i], the one index of
    positions, is the position of (i, ext) in levels[q] or None, keyed in
    the order of each extent's first cube.

    tr comes from mixed-radix point codes: a radix of max - min + 2 for
    each coordinate after the first leaves room for p + e_d without a
    carry, so the code of p + e_d is the code of p plus the stride of d.
    A cube (i, ext) grows into d > ext[-1] iff its translate by e_d is a
    cube, so level q+1 comes from one pass per (extent, direction) over the
    member points of that extent, in extent order; a stable sort on i then
    puts the new keys in (min_corner, extent) order.
    """
    pts = X.sorted_points
    n = len(pts)
    if not n:
        return [[] for _ in range(X.ambient_dim)], [[]], [{(): []}]
    cols = list(zip(*pts))
    codes, strides = cols[0], [1]
    for col in cols[1:]:
        r = max(col) - min(col) + 2
        codes = [c * r + a for c, a in zip(codes, col)]
        strides = [s * r for s in strides] + [1]
    at = dict(zip(codes, range(n)))
    tr = [[at.get(c + s) for c in codes] for s in strides]
    del cols, codes, at
    levels, rows = [[(i, ()) for i in range(n)]], [{(): list(range(n))}]
    members = rows[0]  # extent -> the increasing i of its cubes, in extent order
    while top is None or len(levels) <= top:
        below, found = rows[-1], []
        for ext, mem in members.items():
            row = below[ext]
            for d in range(ext[-1] if ext else 0, len(tr)):
                t = tr[d]
                if got := [i for i in mem if (j := t[i]) is not None and row[j] is not None]:
                    found.append((ext + (d + 1,), got))
        if not found:
            break
        keys = [(i, up) for up, got in found for i in got]
        keys.sort(key=itemgetter(0))
        index = {up: [None] * n for up, got in sorted(found, key=lambda f: f[1][0])}  # ties: extent order
        for p, (i, up) in enumerate(keys):
            index[up][i] = p
        levels.append(keys)
        rows.append(index)
        members = dict(found)
    return tr, levels, rows


def _degree(q):
    """q, checked: ValueError for a q that is not an int."""
    if type(q) is not int:
        raise ValueError(f"q {q!r} must be an int")
    return q


def enumerate_elementary_cubes(X, q):
    """All elementary q-cubes whose vertices lie in X, in (min_corner, extent)
    lexicographic order.  Out-of-range q gives the empty list; a q that is
    not an int raises ValueError."""
    levels = _levels(X, max(_degree(q), 0))[1]
    keys = levels[q] if 0 <= q < len(levels) else []
    return [ElementaryCube(X.sorted_points[i], ext) for i, ext in keys]


def c1_faces(Q, i):
    """(front, back) faces in the i-th smallest nondegenerate coordinate.

    The front keeps the minimum of that interval, the back the maximum."""
    if type(i) is not int or not 1 <= i <= Q.dimension:
        raise NoSuchFace(f"no face index {i!r} in a {Q.dimension}-cube")
    j = Q.extent[i - 1]
    rest = Q.extent[: i - 1] + Q.extent[i:]
    front = ElementaryCube(Q.min_corner, rest)
    mc = list(Q.min_corner)
    mc[j - 1] += 1
    back = ElementaryCube(tuple(mc), rest)
    return front, back


def cube_boundary(Q):
    """Alternating sum over extent positions: (-1)^i (front_i - back_i)."""
    acc = {}
    for i in range(1, Q.dimension + 1):
        front, back = c1_faces(Q, i)
        s = (-1) ** i
        acc[front] = s
        acc[back] = -s
    return Chain(Q.dimension - 1, acc)


def dimension(X):
    """Largest q with an elementary q-cube contained in X."""
    if len(X) == 0:
        raise EmptyImage("dimension of the empty image is undefined")
    return len(_levels(X)[1]) - 1


@dataclass(frozen=True)
class C1Complex:
    """A digital image together with its c1-cubical chain complex."""

    image: DigitalImage
    complex: ChainComplex


def build_c1_complex(X, max_dim=None):
    """The c1-cubical complex of X through degree min(max_dim, dimension(X)).

    Degrees above the top are zero; homology_through pads them as zero groups.
    The basis labels are keys: ElementaryCube(X.sorted_points[i], ext) is
    the cube of key (i, ext).  As in cube_boundary, it has the faces (i, rest)
    and (i + e_j, rest), j = ext[p-1], with the signs (-1)^p and -(-1)^p.
    Their rows are looked up by point index in the arrays of _levels,
    through one (array of rest, tr[j-1], sign) per p, shared by the cubes of
    an extent.
    """
    if max_dim is not None and (type(max_dim) is not int or max_dim < 0):
        raise ValueError("max_dim must be a nonnegative int")
    tr, levels, rows = _levels(X, max_dim)
    mats = [SparseIntMatrix._trusted(len(levels[q - 1]), len(levels[q]),
                                     _boundary_columns(tr, levels, rows, q))
            for q in range(1, len(levels))]
    return C1Complex(X, ChainComplex._trusted(levels, mats))


def _boundary_columns(tr, levels, rows, q):
    """The columns of d_q over the keys of _levels (see build_c1_complex)."""
    at = rows[q - 1]
    faces = {}  # extent -> its (array of rest, translate, sign) per p
    cols = []
    for i, ext in levels[q]:
        if ext not in faces:
            faces[ext] = [(at[ext[:p - 1] + ext[p:]], tr[j - 1], (-1) ** p)
                          for p, j in enumerate(ext, 1)]
        col = {}
        for row, t, s in faces[ext]:
            col[row[i]] = s
            col[row[t[i]]] = -s
        cols.append(col)
    return cols


def relative_c1_complex(X, A, max_dim=None):
    """The quotient of the c1-complex of X by its subcomplex of cubes in A,
    the c1-complex of A.

    A may be a DigitalImage or an iterable of points; it must sit inside X.
    """
    apts = set(A.points) if isinstance(A, DigitalImage) else {tuple(p) for p in A}
    for p in apts:
        if p not in X.points:
            raise PointNotInImage(f"{p} is not a point of the ambient image")
    # A's points keep their order in X, so at maps their indices in A to X
    at = [i for i, p in enumerate(X.sorted_points) if p in apts]
    C = build_c1_complex(X, max_dim).complex
    sub = _levels(DigitalImage(X.ambient_dim, apts), max_dim)[1]
    return quotient_complex(C, {q: [(at[i], ext) for i, ext in b] for q, b in enumerate(sub)})


def induced_map(f, q):
    """Matrix of the degree-q map induced by a continuous f over the
    elementary bases of its domain and codomain.

    A cube on which f is injective goes to the signed cube spanned by the
    image vertices; any other cube maps to zero: beta of f composed with the
    cube's canonical embedding, whose corner c has bit b set iff it bumps ext[b].
    """
    return _induced_maps(f, (q,))[0]


def _induced_maps(f, degrees, cx=None, cy=None):
    """[induced_map(f, q) for q in degrees], with f checked once and the c1
    complexes of its domain and codomain built once each, unless they are
    given: cx and cy are the C1Complex of each through the top degree or
    further.  Columns run over the basis of cx, rows over the index of cy."""
    if not is_continuous(f):
        raise NotContinuous("map is not continuous")
    top = max(0, *map(_degree, degrees))
    CX = (cx or build_c1_complex(f.domain, top)).complex
    CY = (cy or build_c1_complex(f.codomain, top)).complex
    xpts, ypts = f.domain.sorted_points, f.codomain.sorted_points
    at = {p: i for i, p in enumerate(ypts)}
    mats = []
    for q in degrees:
        rows, cols = CY.index(q), []
        for i, ext in CX.basis(q):
            b = _beta_key(tuple(at[f(p)] for p in _alpha_points(xpts[i], ext)), ypts)
            cols.append({} if b is None else {rows[b[1]]: b[0]})
        mats.append(SparseIntMatrix._trusted(len(rows), len(cols), cols))
    return mats
