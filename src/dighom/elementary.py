"""Elementary cubes and the c1-cubical chain complex of a digital image.

An elementary q-cube is a product of intervals [a_k, a_k+1] (in q coordinates,
the extent) and singletons [a_k] (everywhere else), stored as its minimal
corner plus the sorted tuple of 1-based extent coordinates.  The boundary
alternates over the extent positions: the face pair in the i-th smallest
extent coordinate carries sign (-1)^i, front minus back.

The complex is built level by level on keys (i, extent), i the index of the
minimal corner in X.sorted_points: a (q+1)-cube is a q-cube whose translate
one step up a direction above its extent is a q-cube too.  So the canonically
ordered bases, the faces and dimension(X), the top nonempty level, are table
lookups.  induced_map realizes a continuous map over these bases through each
cube's canonical embedding and its orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Chain, ChainComplex, SparseIntMatrix, quotient_complex
from .errors import EmptyImage, NoSuchFace, NotContinuous, PointNotInImage
from .image import DigitalImage, is_continuous
from .singular import SingularCube, orientation

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
        base = self.min_corner
        ext = self.extent
        out = []
        for c in range(1 << len(ext)):
            p = list(base)
            for b, j in enumerate(ext):
                if (c >> b) & 1:
                    p[j - 1] += 1
            out.append(tuple(p))
        return out

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
        if len(pts) != 1 << len(ext):
            raise ValueError("vertex count does not match the spanned box")
        for p in pts:
            for k in range(n):
                if p[k] != lo[k] and p[k] != hi[k]:
                    raise ValueError(f"{p} is not a vertex of the spanned box")
        return cls(lo, tuple(ext))

    def __str__(self):
        parts = []
        for k, a in enumerate(self.min_corner, start=1):
            parts.append(f"[{a},{a + 1}]" if k in self.extent else f"[{a}]")
        return "x".join(parts)


def _levels(X, top=None):
    """(tr, levels): the cubes of X in degrees 0..top, up to the top nonempty
    one.  tr[d][i] is the index of point i + e_{d+1} in X.sorted_points or
    None; levels[q] maps keys (i, ext) to positions in (min_corner, extent)
    order.  A cube grows into d > ext[-1] iff its translate by e_d is a cube."""
    pts = X.sorted_points
    at = {p: i for i, p in enumerate(pts)}
    tr = [[at.get(p[:d] + (p[d] + 1,) + p[d + 1:]) for p in pts] for d in range(X.ambient_dim)]
    levels = [{(i, ()): i for i in range(len(pts))}]
    while top is None or len(levels) <= top:
        below = levels[-1]
        level = {}
        for i, ext in below:
            for d in range(ext[-1] if ext else 0, len(tr)):
                if (tr[d][i], ext) in below:
                    level[(i, ext + (d + 1,))] = len(level)
        if not level:
            break
        levels.append(level)
    return tr, levels


def enumerate_elementary_cubes(X, q):
    """All elementary q-cubes whose vertices lie in X, in (min_corner, extent)
    lexicographic order.  Out-of-range q gives the empty list."""
    levels = _levels(X, max(q, 0))[1]
    level = levels[q] if 0 <= q < len(levels) else ()
    return [ElementaryCube(X.sorted_points[i], ext) for i, ext in level]


def c1_faces(Q, i):
    """(front, back) faces in the i-th smallest nondegenerate coordinate.

    The front keeps the minimum of that interval, the back the maximum."""
    if not 1 <= i <= Q.dimension:
        raise NoSuchFace(f"no face index {i} in a {Q.dimension}-cube")
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
    As in cube_boundary, cube (i, ext) has the faces (i, rest) and
    (i + e_j, rest), j = ext[p-1], with the signs (-1)^p and -(-1)^p.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    tr, levels = _levels(X, max_dim)
    pts = X.sorted_points
    bases = [tuple(ElementaryCube(pts[i], ext) for i, ext in level) for level in levels]
    mats = []
    for q in range(1, len(levels)):
        rows = levels[q - 1]
        cols = []
        for i, ext in levels[q]:
            col = {}
            for p, j in enumerate(ext, 1):
                rest = ext[:p - 1] + ext[p:]
                col[rows[(i, rest)]] = (-1) ** p
                col[rows[(tr[j - 1][i], rest)]] = -(-1) ** p
            cols.append(col)
        mats.append(SparseIntMatrix(len(bases[q - 1]), len(bases[q]), cols))
    return C1Complex(X, ChainComplex(bases, mats))


def relative_c1_complex(X, A, max_dim=None):
    """The quotient of the c1-complex of X by its subcomplex of cubes in A,
    the c1-complex of A.

    A may be a DigitalImage or an iterable of points; it must sit inside X.
    """
    apts = set(A.points) if isinstance(A, DigitalImage) else {tuple(p) for p in A}
    for p in apts:
        if p not in X.points:
            raise PointNotInImage(f"{p} is not a point of the ambient image")
    sub = build_c1_complex(DigitalImage(X.ambient_dim, apts), max_dim).complex.bases
    return quotient_complex(build_c1_complex(X, max_dim).complex, dict(enumerate(sub)))


def induced_map(f, q):
    """Matrix of the degree-q map induced by a continuous f over the
    elementary bases of its domain and codomain.

    A cube on which f is injective goes to the signed cube spanned by the
    image vertices; any other cube maps to zero.  The sign is the orientation
    of f precomposed with the cube's canonical embedding.
    """
    if not is_continuous(f):
        raise NotContinuous("map is not continuous")
    xcubes = enumerate_elementary_cubes(f.domain, q)
    ycubes = enumerate_elementary_cubes(f.codomain, q)
    yindex = {Q: r for r, Q in enumerate(ycubes)}
    cols = []
    for Q in xcubes:
        tau = tuple(f(v) for v in Q.vertices())
        if len(set(tau)) != len(tau):
            cols.append({})
            continue
        o = orientation(SingularCube(q, tau)).o
        cols.append({yindex[ElementaryCube.from_vertices(tau)]: o})
    return SparseIntMatrix(len(ycubes), len(xcubes), cols)
