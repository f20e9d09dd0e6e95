"""Integer chain complexes and their homology.

Everything here is exact arithmetic over Z.  Matrices are stored sparsely as
lists of column dictionaries (row -> nonzero coefficient), which matches how
boundary matrices of cube complexes are built (column by column, a handful of
entries each) and how they are consumed (column reduction).

Two reduction routines coexist on purpose:

* ``smith_normal_form`` is a dense, fully certified Smith normal form with
  unimodular transforms; it recomputes U*M*V at the end and refuses to return
  an uncertified answer.  It is the ground truth, used directly on small
  matrices and on the residual blocks of large ones.
* ``rank_and_invariant_factors`` is the workhorse for big boundary matrices:
  an incremental integer column echelonization (unimodular column operations
  only, so invariant factors are preserved) followed by unit-pivot
  elimination, handing only the small non-unit residue to the dense routine.
  When every pivot entry is 1 the invariant factors are all ones and the
  elimination is skipped.

Homology reduces the boundaries of a complex from the top degree down and
clears as it goes (the "twist" of Chen and Kerber): d_q skips the columns at
the unit pivot rows of d_{q+1}, which would only reduce to zero.  The top
boundary d_{top+1}, reduced after d_top, stops once it saturates ker d_top,
so its columns may come from a lazy stream that is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotAComplex, NotSubcomplex, ShapeMismatch

__all__ = [
    "xgcd",
    "SparseIntMatrix",
    "Chain",
    "FGAbelianGroup",
    "ZERO_GROUP",
    "SNFResult",
    "smith_normal_form",
    "rank_and_invariant_factors",
    "ChainComplex",
    "homology",
    "homology_through",
    "quotient_complex",
    "verify_chain_map",
    "groups_isomorphic",
]


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SparseIntMatrix:
    """An integer matrix stored as one dict per column (row -> coefficient).

    Zero entries are never stored.  Columns may be mutated while a matrix is
    being assembled; all consumers treat instances as frozen afterwards.
    """

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows, ncols, columns=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if columns is None:
            columns = [{} for _ in range(ncols)]
        else:
            columns = [dict(c) for c in columns]
            if len(columns) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(columns)}")
            for col in columns:
                for r, v in col.items():
                    if not 0 <= r < nrows:
                        raise ValueError(f"row index {r} outside 0..{nrows - 1}")
                    if v == 0:
                        raise ValueError("explicit zero entry")
        self.nrows = nrows
        self.ncols = ncols
        self.columns = columns

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_dense(cls, rows, nrows=None, ncols=None):
        rows = [list(r) for r in rows]
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cls(nrows, ncols, cols)

    def to_dense(self):
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        return dict(self.columns[j])

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        return self.columns[j].get(i, 0)

    def is_zero(self):
        return all(not c for c in self.columns)

    def __matmul__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = []
        for bcol in other.columns:
            acc = {}
            for k, w in bcol.items():
                for i, v in self.columns[k].items():
                    s = acc.get(i, 0) + v * w
                    if s:
                        acc[i] = s
                    else:
                        acc.pop(i, None)
            cols.append(acc)
        return SparseIntMatrix(self.nrows, other.ncols, cols)

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.columns == other.columns
        )

    __hash__ = None

    def __repr__(self):
        nnz = sum(len(c) for c in self.columns)
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


class Chain:
    """A formal Z-linear combination of basis labels in a fixed degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=()):
        d = dict(coeffs)
        self.degree = degree
        self.coeffs = {k: v for k, v in d.items() if v}

    def items(self):
        return self.coeffs.items()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Chain(self.degree, out)

    def __neg__(self):
        return Chain(self.degree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        if type(c) is not int:
            return NotImplemented
        return Chain(self.degree, {k: c * v for k, v in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return f"Chain(deg={self.degree}, 0)"
        parts = " + ".join(f"{v}*{k}" for k, v in sorted(self.coeffs.items(), key=repr))
        return f"Chain(deg={self.degree}, {parts})"


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^rank ⊕ Z/t1 ⊕ ... with t1 | t2 | ... and each ti >= 2."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for t in self.torsion:
            if type(t) is not int or t < 2:
                raise ValueError(f"torsion coefficient {t!r} must be an integer >= 2")
            if prev is not None and t % prev:
                raise ValueError("torsion coefficients must form a divisibility chain")
            prev = t

    @property
    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FGAbelianGroup(0)


def groups_isomorphic(a, b):
    return a.rank == b.rank and a.torsion == b.torsion


# --- dense certified Smith normal form -------------------------------------

@dataclass
class SNFResult:
    S: list  # dense diagonal form, same shape as the input
    U: list  # unimodular, nrows x nrows
    V: list  # unimodular, ncols x ncols
    rank: int
    invariant_factors: tuple  # all nonzero diagonal entries, 1s included


def smith_normal_form(M, ncols=None):
    """Certified Smith normal form of a dense or sparse integer matrix.

    Accepts a SparseIntMatrix or a list of dense rows (then ncols is needed
    when there are zero rows... callers pass it to disambiguate 0xN).
    Returns SNFResult with U*M*V == S rechecked against the original input;
    a failed recheck raises RuntimeError rather than returning silently.
    """
    if isinstance(M, SparseIntMatrix):
        orig = M.to_dense()
        m, n = M.nrows, M.ncols
    else:
        orig = [list(r) for r in M]
        m = len(orig)
        n = len(orig[0]) if orig else (0 if ncols is None else ncols)
    S = [row[:] for row in orig]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):  # row_dst += c * row_src
        Sd, Ss = S[dst], S[src]
        for k in range(n):
            Sd[k] += c * Ss[k]
        Ud, Us = U[dst], U[src]
        for k in range(m):
            Ud[k] += c * Us[k]

    def add_col(dst, src, c):  # col_dst += c * col_src
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pick the nonzero entry of smallest magnitude in the trailing block
        best = None
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        # clear row and column t; a nonzero remainder becomes the new, smaller
        # pivot, so this loop terminates
        while True:
            p = S[t][t]
            done = True
            for i in range(t + 1, m):
                v = S[i][t]
                if v:
                    q = v // p
                    add_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, n):
                v = S[t][j]
                if v:
                    q = v // p
                    add_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        done = False
                        break
            if done:
                break
        # enforce divisibility against the rest of the block: fold any bad row
        # into row t and redo the clearing
        p = S[t][t]
        offender = None
        for i in range(t + 1, m):
            row = S[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if p < 0:
            for j in range(n):
                S[t][j] = -S[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1

    rank = t
    factors = tuple(S[i][i] for i in range(rank))

    # certification: recompute U * orig * V and compare entrywise with S
    UM = [[sum(U[i][k] * orig[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    if UMV != S:
        raise RuntimeError("Smith normal form certification failed: U*M*V != S")
    for i in range(rank):
        if i + 1 < rank and factors[i + 1] % factors[i]:
            raise RuntimeError("Smith normal form certification failed: divisibility")
        for j in range(n):
            if i != j and S[i][j]:
                raise RuntimeError("Smith normal form certification failed: off-diagonal")
    return SNFResult(S=S, U=U, V=V, rank=rank, invariant_factors=factors)


# --- sparse reduction for large boundary matrices ---------------------------

class _ColumnReducer:
    """Incremental integer column echelonization.

    Each incoming column is reduced against the stored pivot columns (keyed by
    their minimal nonzero row).  Only unimodular 2-column operations are used,
    so the column span over Z, hence rank and invariant factors, is preserved.
    add() returns True when the column extended the span.

    Pivot entries (the value of a pivot column at its own pivot row) are kept
    positive; nonunit counts the pivots whose entry exceeds 1.  When nonunit
    is 0 the span is a direct summand of the ambient Z^rows (column Hermite
    form with unit pivots), which callers use for early termination: a
    saturated sublattice cannot grow further inside a lattice of the same
    rank.
    """

    __slots__ = ("pivots", "nonunit")

    def __init__(self):
        self.pivots = {}  # pivot row -> column dict
        self.nonunit = 0

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, col):
        # the one copy: callers' columns are never mutated
        col = {k: v for k, v in col.items() if v}
        pivots = self.pivots
        while col:
            r = min(col)
            p = pivots.get(r)
            if p is None:
                if col[r] < 0:
                    col = {k: -v for k, v in col.items()}
                pivots[r] = col
                if col[r] != 1:
                    self.nonunit += 1
                return True
            a, b = p[r], col[r]
            if b % a == 0:
                m = b // a
                for k, v in p.items():
                    w = col.get(k, 0) - m * v
                    if w:
                        col[k] = w
                    else:
                        col.pop(k, None)
            else:
                # 2x2 unimodular mix: det [[x, -b/g], [y, a/g]] = 1
                g, x, y = xgcd(a, b)
                keys = p.keys() | col.keys()
                newp = {}
                newc = {}
                ma, mb = a // g, b // g
                for k in keys:
                    pv = p.get(k, 0)
                    cv = col.get(k, 0)
                    w = x * pv + y * cv
                    if w:
                        newp[k] = w
                    w = ma * cv - mb * pv
                    if w:
                        newc[k] = w
                pivots[r] = newp
                if a != 1 and g == 1:
                    self.nonunit -= 1
                col = newc
        return False


def _invariant_factors_of_columns(pivot_cols):
    """Invariant factors (with 1s) of a full-column-rank set of sparse columns.

    Unit pivots are eliminated sparsely first; whatever residue has no unit
    pivot left is densified and sent through the certified SNF.
    """
    cols = [dict(c) for c in pivot_cols if c]
    ones = 0
    rows_at = {}  # row -> set of column ids holding a nonzero there
    live = {}
    for cid, col in enumerate(cols):
        live[cid] = col
        for r in col:
            rows_at.setdefault(r, set()).add(cid)

    def set_entry(cid, r, v):
        col = live[cid]
        if v:
            if r not in col:
                rows_at.setdefault(r, set()).add(cid)
            col[r] = v
        elif r in col:
            del col[r]
            rows_at[r].discard(cid)

    stack = [cid for cid, col in live.items() if any(abs(v) == 1 for v in col.values())]
    in_stack = set(stack)
    while stack:
        cid = stack.pop()
        in_stack.discard(cid)
        col = live.get(cid)
        if col is None or not any(abs(v) == 1 for v in col.values()):
            continue
        r = min(k for k, v in col.items() if abs(v) == 1)
        s = col[r]
        # clear row r from every other live column, then retire this column
        for other in list(rows_at.get(r, ())):
            if other == cid:
                continue
            ocol = live[other]
            c = ocol[r] * s  # s in {1,-1} so this is ocol[r]/col[r]
            for k, v in list(col.items()):
                set_entry(other, k, ocol.get(k, 0) - c * v)
            if other not in in_stack and any(abs(v) == 1 for v in live[other].values()):
                stack.append(other)
                in_stack.add(other)
        for k in list(col):
            rows_at[k].discard(cid)
        del live[cid]
        ones += 1

    if not live:
        return (1,) * ones
    # densify whatever is left (tiny in practice: no unit entries anywhere)
    rows = sorted({r for col in live.values() for r in col})
    rindex = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(live) for _ in rows]
    for j, col in enumerate(live.values()):
        for r, v in col.items():
            dense[rindex[r]][j] = v
    res = smith_normal_form(dense, ncols=len(live))
    if res.rank != len(live):
        raise RuntimeError("residual block lost rank during elimination")
    return (1,) * ones + res.invariant_factors


def _pivot_invariant_factors(red):
    """Invariant factors (with 1s) of the pivot columns of a _ColumnReducer.

    When every pivot entry is 1, the pivot rows carry a unitriangular minor,
    which is unimodular, so every invariant factor is 1 and no elimination
    is needed.
    """
    if not red.nonunit:
        return (1,) * red.rank
    factors = _invariant_factors_of_columns(red.pivots.values())
    if len(factors) != red.rank:
        raise RuntimeError("rank mismatch between reduction and invariant factors")
    return factors


def _reduce(columns, nrows, saturation=None):
    """A _ColumnReducer fed the columns, with row indices checked; it stops,
    leaving the rest unread, once its rank is saturation with unit pivots."""
    red = _ColumnReducer()
    for col in columns:
        for r in col:
            if not 0 <= r < nrows:
                raise ValueError(f"row index {r} outside 0..{nrows - 1}")
        red.add(col)
        if red.rank == saturation and not red.nonunit:
            break
    return red


def rank_and_invariant_factors(columns, nrows):
    """(rank, invariant_factors) of the matrix whose columns are given.

    columns: iterable of sparse dicts (may be consumed lazily; suitable for
    streaming).  nrows is only used for sanity checks.
    """
    red = _reduce(columns, nrows)
    return red.rank, _pivot_invariant_factors(red)


# --- chain complexes --------------------------------------------------------

class ChainComplex:
    """A nonnegatively graded chain complex of free Z-modules.

    bases[q] is a tuple of hashable labels; boundaries[q] (for 1 <= q <=
    max_degree) maps degree q to degree q-1.  Degrees beyond max_degree are
    zero, as are their boundary maps.
    """

    __slots__ = ("bases", "boundaries", "_indexes", "_hom_cache", "_is_complex")

    def __init__(self, bases, boundaries):
        bases = tuple(tuple(b) for b in bases)
        if not bases:
            raise ValueError("need at least the degree-0 basis (may be empty)")
        for q, b in enumerate(bases):
            if len(set(b)) != len(b):
                raise ValueError(f"duplicate labels in degree {q}")
        boundaries = tuple(boundaries)
        if len(boundaries) != len(bases) - 1:
            raise ValueError(
                f"{len(bases)} bases need {len(bases) - 1} boundary maps, "
                f"got {len(boundaries)}"
            )
        mats = []
        for q, M in enumerate(boundaries, start=1):
            if not isinstance(M, SparseIntMatrix):
                M = SparseIntMatrix.from_dense(M, nrows=len(bases[q - 1]), ncols=len(bases[q]))
            if M.nrows != len(bases[q - 1]) or M.ncols != len(bases[q]):
                raise ShapeMismatch(
                    f"boundary in degree {q} is {M.nrows}x{M.ncols}, "
                    f"expected {len(bases[q - 1])}x{len(bases[q])}"
                )
            mats.append(M)
        self.bases = bases
        self.boundaries = tuple(mats)
        self._indexes = {}
        self._hom_cache = {}
        self._is_complex = None

    @property
    def max_degree(self):
        return len(self.bases) - 1

    def basis(self, q):
        if 0 <= q <= self.max_degree:
            return self.bases[q]
        return ()

    def index(self, q):
        """label -> position map for the degree-q basis (cached)."""
        if q not in self._indexes:
            self._indexes[q] = {lab: i for i, lab in enumerate(self.basis(q))}
        return self._indexes[q]

    def boundary_matrix(self, q):
        """The map from degree q to degree q-1, with zero maps off the ends."""
        if q <= 0:
            return SparseIntMatrix.zeros(0, len(self.basis(0)) if q == 0 else 0)
        if q <= self.max_degree:
            return self.boundaries[q - 1]
        if q == self.max_degree + 1:
            return SparseIntMatrix.zeros(len(self.bases[self.max_degree]), 0)
        return SparseIntMatrix.zeros(0, 0)

    def boundary_of(self, chain):
        """Apply the boundary to a Chain written in basis labels."""
        q = chain.degree
        idx = self.index(q)
        M = self.boundary_matrix(q)
        lower = self.basis(q - 1)
        acc = {}
        for lab, c in chain.items():
            j = idx[lab]
            for i, v in M.columns[j].items():
                s = acc.get(i, 0) + c * v
                if s:
                    acc[i] = s
                else:
                    acc.pop(i, None)
        return Chain(q - 1, {lower[i]: v for i, v in acc.items()})

    def is_complex(self):
        """True iff consecutive boundaries compose to zero (checked once)."""
        if self._is_complex is None:
            self._is_complex = all(
                (self.boundary_matrix(q - 1) @ self.boundary_matrix(q)).is_zero()
                for q in range(2, self.max_degree + 1)
            )
        return self._is_complex

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.bases == other.bases and self.boundaries == other.boundaries

    __hash__ = None

    def __repr__(self):
        sizes = ", ".join(str(len(b)) for b in self.bases)
        return f"ChainComplex(sizes=[{sizes}])"

    def _reduction(self, q, columns=None):
        """(rank, invariant_factors, unit_rows) of d_q, cached.

        unit_rows are the pivot rows with pivot entry 1.  Given columns are
        those of a d_q beyond the complex, possibly lazy: a sample is checked
        to be cycles, and the result is not cached.  Once is_complex() holds,
        two shortcuts keep the rank and the invariant factors.  Clearing: if
        d_{q+1} is already reduced, d_q skips the columns at its unit rows;
        such a pivot column p lies in im d_{q+1}, has entry 1 at its minimal
        row j and d_q p = 0, so column j is a combination of later columns.
        Saturation: if d_{q-1} is already reduced, the reduction stops once
        its rank is dim ker d_{q-1} with unit pivots, as a direct summand of
        full rank in ker d_{q-1} is all of it and no column can change it.
        """
        if q in self._hom_cache:
            return self._hom_cache[q]
        nrows = len(self.basis(q - 1))
        if columns is not None:
            columns = _sampled_cycles(columns, self.boundary_matrix(q - 1).columns)
        else:
            columns = self.boundary_matrix(q).columns
            above = self._hom_cache.get(q + 1)
            if above and self._is_complex:
                columns = [c for j, c in enumerate(columns) if j not in above[2]]
        below = self._hom_cache.get(q - 1)
        kernel_dim = nrows - below[0] if below and self._is_complex else None
        red = _reduce(columns, nrows, kernel_dim)
        unit_rows = {r for r, p in red.pivots.items() if p[r] == 1}
        out = (red.rank, _pivot_invariant_factors(red), unit_rows)
        if q <= self.max_degree:
            self._hom_cache[q] = out
        return out


def _sampled_cycles(columns, d):
    """The columns, passed through; the first 64 and every 1024th after must
    have zero image under the matrix with columns d, else NotAComplex."""
    for n, col in enumerate(columns, 1):
        if n <= 64 or n % 1024 == 0:
            acc = {}
            for r, v in col.items():
                for rr, w in d[r].items():
                    acc[rr] = acc.get(rr, 0) + v * w
            if any(acc.values()):
                raise NotAComplex("streamed boundary column is not a cycle")
        yield col


def _homology(C, q, columns_in=None):
    """homology(C, q), with the columns of d_{q+1} read from columns_in if
    given: a lazy stream of a degree beyond C, rows as in C.basis(q)."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    if not C.is_complex():
        raise NotAComplex("boundary composed with boundary is nonzero")
    n_q = len(C.basis(q))
    if n_q == 0:
        return ZERO_GROUP
    rank_out, _, _ = C._reduction(q)
    rank_in, factors_in, _ = C._reduction(q + 1, columns_in)
    free = n_q - rank_out - rank_in
    if free < 0:
        raise RuntimeError("negative free rank: broken reduction")
    torsion = tuple(t for t in factors_in if t > 1)
    return FGAbelianGroup(free, torsion)


def homology(C, q):
    """H_q of the complex as an FGAbelianGroup.

    rank H_q = dim C_q - rank d_q - rank d_{q+1}; torsion comes from the
    invariant factors of d_{q+1} that exceed 1.  The reductions are cached
    on C.  d_q is reduced first, so d_{q+1} stops once it saturates ker d_q.
    """
    return _homology(C, q)


def homology_through(C, top):
    """[H_0, ..., H_top]; degrees beyond the complex are zero groups.

    The groups are computed from the top degree down, so d_{top+1} stops at
    saturation and every boundary below it is cleared by the one above.
    """
    groups = [homology(C, q) for q in range(top, -1, -1)]
    groups.reverse()
    return groups


def quotient_complex(C, sub_labels):
    """The quotient of C by the subcomplex spanned by the given labels.

    sub_labels: mapping degree -> collection of labels of C in that degree.
    The span must be closed under the boundary (every boundary term of a
    chosen label is again chosen), else NotSubcomplex.  The quotient keeps
    the complementary labels in their original order and drops rows/columns.
    """
    chosen = {}
    for q, labs in dict(sub_labels).items():
        labs = set(labs)
        idx = C.index(q)
        for lab in labs:
            if lab not in idx:
                raise NotSubcomplex(f"label {lab!r} is not in degree {q}")
        chosen[q] = labs
    for q in range(1, C.max_degree + 1):
        picked = chosen.get(q, set())
        below = chosen.get(q - 1, set())
        idx = C.index(q)
        lower = C.basis(q - 1)
        M = C.boundary_matrix(q)
        for lab in picked:
            for i in M.columns[idx[lab]]:
                if lower[i] not in below:
                    raise NotSubcomplex(
                        f"boundary of {lab!r} leaves the subcomplex at {lower[i]!r}"
                    )
    new_bases = []
    keep_pos = []
    for q in range(C.max_degree + 1):
        picked = chosen.get(q, set())
        keep = [i for i, lab in enumerate(C.basis(q)) if lab not in picked]
        keep_pos.append({old: new for new, old in enumerate(keep)})
        new_bases.append(tuple(C.basis(q)[i] for i in keep))
    new_mats = []
    for q in range(1, C.max_degree + 1):
        M = C.boundary_matrix(q)
        rmap = keep_pos[q - 1]
        cols = []
        for i, lab in enumerate(C.basis(q)):
            if lab in chosen.get(q, set()):
                continue
            col = M.columns[i]
            cols.append({rmap[r]: v for r, v in col.items() if r in rmap})
        new_mats.append(SparseIntMatrix(len(new_bases[q - 1]), len(new_bases[q]), cols))
    return ChainComplex(new_bases, new_mats)


def verify_chain_map(phi, C, D):
    """Check that the matrices phi[0..k] form a chain map C -> D.

    phi[q] must be |D_q| x |C_q|; commutation d^D_q @ phi[q] == phi[q-1] @ d^C_q
    is required for 1 <= q <= k.  Shape errors raise ShapeMismatch; a failed
    commutation just returns False.
    """
    mats = []
    for q, M in enumerate(phi):
        if not isinstance(M, SparseIntMatrix):
            M = SparseIntMatrix.from_dense(M, nrows=len(D.basis(q)), ncols=len(C.basis(q)))
        if M.nrows != len(D.basis(q)) or M.ncols != len(C.basis(q)):
            raise ShapeMismatch(
                f"phi[{q}] is {M.nrows}x{M.ncols}, expected "
                f"{len(D.basis(q))}x{len(C.basis(q))}"
            )
        mats.append(M)
    for q in range(1, len(mats)):
        lhs = D.boundary_matrix(q) @ mats[q]
        rhs = mats[q - 1] @ C.boundary_matrix(q)
        if lhs != rhs:
            return False
    return True
