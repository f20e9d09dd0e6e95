"""Integer chain complexes and their homology.

Everything here is exact arithmetic over Z.  Matrices are stored sparsely as
lists of column dictionaries (row -> nonzero coefficient), which matches how
boundary matrices of cube complexes are built (column by column, a handful of
entries each) and how they are consumed (column reduction).

Two reduction routines coexist on purpose:

* ``smith_normal_form`` is a dense, fully certified Smith normal form with
  unimodular transforms; it recomputes U*M*V at the end and refuses to return
  an uncertified answer.  It is the ground truth, used directly on small
  matrices and on the k x k residual blocks of large ones.
* ``rank_and_invariant_factors`` is the workhorse for big boundary matrices:
  an incremental integer column echelonization (unimodular column operations
  only, so invariant factors are preserved).  When every pivot entry is 1
  the invariant factors are all ones.  Otherwise the k nonunit ones are
  cleared of the unit rows, and the transpose of these k columns goes
  through the same column reducer, which leaves a k x k block for the
  dense routine whatever the number of rows.

A full reduction of signed incidence columns, each 0, ±e_a or ±(e_a - e_b),
goes to a spanning forest instead (``_SpanningForest``).  d_1 of every
library complex has this form, with the edges ±e_a to a ground vertex in a
relative complex.  Such a matrix is the incidence matrix of a graph, which
is totally unimodular (Kaczynski, Mischaikow and Mrozek, *Computational
Homology*), so the forest gives its rank exactly: the number of edges that
join two trees of a union-find, and every invariant factor is 1.  Each tree
is rooted at its smallest vertex, so the pivot e_v - e_root of each other
vertex v has entry 1 at its largest row v; these are the pivot rows and
entries that the column reducer finds on the same columns, as both depend
on the span alone, and they clear the degree below as its unit pivots do.
The path is chosen from the columns as they are read: at the first column
of another form the column reducer takes over, fed the forest's pivots and
then the rest.  A reduction that may stop at saturation starts in the
forest too, and stops there once its rank is the saturation: its pivots are
units, so its span is then all of the kernel.  d_1 read to saturation at top
0, where the kernel is all of C_0, thus stops only once every vertex is in
the ground's tree.

Homology of the degrees lo..top is one pass from the top degree down, with
nothing kept between calls: homology(C, q) is the window [q, q] and
homology_through(C, top) the window [0, top].  The top boundary d_{top+1}
stops once it saturates ker d_top, so its columns may come from a lazy
stream that is never stored.  d_top is reduced before it, in full when it
has no more columns than d_{top-1}, as in a c1 complex.  Otherwise, for
top >= 2, d_{top-1} is reduced in full first and d_top stops in the same way
once it saturates ker d_{top-1}, which it does when H_{top-1} = 0 (d_1 never
does, as H_0 != 0 on a nonempty image).  Each d_q below is cleared by the
one above (the "twist" of Chen and Kerber): it skips the columns at the
unit pivot rows of d_{q+1}, which would only reduce to zero.

A stream that cannot saturate (H_top != 0) reduces most of its columns to
zero, each through a cascade of pivot steps.  Once the pivots of d_{top+1}
are all units, with span S of rank r, a cheaper test replaces most of that
reduction.  Let t = dim ker d_top - r and N the nonpivot rows; the witness
rows J are the t indices k in N whose column d_top[k] depends on those at
earlier indices in N.  The residual of a cycle c is the one vector in c + S,
over Q, that is zero at every pivot row; at j it is l_j(c) = c[j] - sum
y_r[j] c[r] over the pivot rows r, where y_r[j] = p_r[j] - sum y_s[j] p_r[s]
over the pivot rows s < r, a triangular solve against the pivots as they
stand, from the lowest pivot row up.  l_j depends on S and the pivot rows
alone, so on interreduced pivots, where y_r[j] = p_r[j], it is the same row;
the solve changes no pivot.  A later cycle c lies in S exactly when l_j(c) =
0 for each j in J, which costs t lookups per entry of c instead of a
cascade.  The test is exact: the residual is a cycle that is zero at every
pivot row, the cycles supported on N have dimension t, and the columns of
d_top at N minus J are independent, so such a cycle that is zero at J is
zero; and S, with unit pivots, is saturated, so a column in S over Q is in S
over Z.  Saturation is the case t = 0, J empty.  A column with a nonzero
residual becomes a new pivot, and J is chosen again later.  Like saturation,
the test takes the columns to be cycles; a pivot that is not one can leave
more than t witness rows, which raises RuntimeError.  Choosing J reads the
pivots once, about as much as reducing r columns, and reduces the n - r
columns of d_top at the nonpivot rows, n the columns of d_top, about as much
as n pivot steps; _reduce pays for it only once the cascades since the last
new pivot have cost as much as one of these, as in ski rental.

The witness rows also finish a stream, after the implicit coboundary of
Ripser (Bauer).  Once J is first chosen, let R be the rows of the
residuals: J and every pivot row r with y_r[j] != 0 for some j in J.  A
cycle outside S has l_j(c) != 0 for some j in J, so an entry at j or at
some such r: it has an entry in R.  S only grows, so a later column outside
the final span has an entry in R too.  So the rest of the stream may be
left unread, and every column of that degree with an entry in R reduced
instead: the span, and so the result, is that of the whole stream.

Composites (``is_complex``, ``verify_chain_map``) are checked column by
column with ``_apply``, the one matrix-times-column product, up to the first
nonzero or unequal column; no product matrix is built.  ``verify_chain_map``
checks every pair of columns, but a pair zero on both sides by its support
(see its docstring) needs no ``_apply``, and on a lazy top boundary of the
library its column is never built.  Homology calls
``is_complex`` only on complexes built by the caller.  On one the library
built (``ChainComplex._trusted``), each stored column of d_q, q >= 2, that a
reduction reads is checked to have d_{q-1} c = 0 as it is read (``_cycles``);
so d∘d != 0 on a column that no reduction reads goes unnoticed there.

Matrix entries are checked once, where they enter, by ``_check_column``: a
row index is an int in 0..nrows-1 and an entry an int.  The reducer reads
only such columns or those the library built, and checks none again.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

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


def _apply(columns, col):
    """The sparse sum of columns[k] * w over the entries k: w of col, zeros
    dropped: the product of the matrix with these columns and the column."""
    acc = {}
    for k, w in col.items():
        for i, v in columns[k].items():
            s = acc.get(i, 0) + v * w
            if s:
                acc[i] = s
            else:
                acc.pop(i, None)
    return acc


def _check_shape(nrows, ncols):
    if not all(type(d) is int and d >= 0 for d in (nrows, ncols)):
        raise ValueError(f"matrix dimensions {nrows!r}x{ncols!r} must be nonnegative ints")


def _check_column(col, nrows):
    """col, checked: its rows are ints in 0..nrows-1, its entries ints."""
    for r, v in col.items():
        if type(r) is not int or not 0 <= r < nrows:
            raise ValueError(f"row index {r!r} is not an int in 0..{nrows - 1}")
        if type(v) is not int:
            raise ValueError(f"matrix entry {v!r} is not an int")
    return col


class SparseIntMatrix:
    """An integer matrix stored as one dict per column (row -> coefficient).

    Zero entries are never stored, and the columns are frozen once the
    matrix is built.
    """

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows, ncols, columns=None):
        _check_shape(nrows, ncols)
        if columns is None:
            columns = [{} for _ in range(ncols)]
        else:
            columns = [dict(c) for c in columns]
            if len(columns) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(columns)}")
            for col in columns:
                if 0 in _check_column(col, nrows).values():
                    raise ValueError("explicit zero entry")
        self.nrows = nrows
        self.ncols = ncols
        self.columns = columns

    @classmethod
    def _trusted(cls, nrows, ncols, columns):
        """The matrix with this list of columns, taken over unchecked and
        uncopied: the caller has just built them, ncols dicts of nonzero int
        entries at rows 0..nrows-1, and keeps no reference to them."""
        M = object.__new__(cls)
        M.nrows, M.ncols, M.columns = nrows, ncols, columns
        return M

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_dense(cls, rows, nrows=None, ncols=None):
        """The matrix with these dense rows, zero rows below them up to nrows
        (no fewer).  Every row has ncols entries, by default as many as the
        first row (0 with no rows), and every entry is an int, zeros included."""
        rows = [list(r) for r in rows]
        nrows = len(rows) if nrows is None else nrows
        if type(nrows) is int and len(rows) > nrows:  # other nrows fail in _check_shape
            raise ValueError(f"{len(rows)} rows exceed nrows={nrows}")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        _check_shape(nrows, ncols)
        # int zeros are dropped; any other entry, 0.0 or None too, is checked
        cols = [_check_column({i: v for i, r in enumerate(rows) if type(v := r[j]) is not int or v},
                              nrows) for j in range(ncols)]
        return cls._trusted(nrows, ncols, cols)

    def to_dense(self):
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def column(self, j):
        if type(j) is not int or not 0 <= j < self.ncols:
            raise IndexError(j)
        return dict(self.columns[j])

    def entry(self, i, j):
        if not (type(i) is int and 0 <= i < self.nrows and type(j) is int and 0 <= j < self.ncols):
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
        cols = [_apply(self.columns, c) for c in other.columns]
        return SparseIntMatrix._trusted(self.nrows, other.ncols, cols)

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
        for v in d.values():
            if type(v) is not int:
                raise ValueError(f"coefficient {v!r} is not an int")
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
        if not isinstance(other, Chain):
            return NotImplemented
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
        return self + (-other) if isinstance(other, Chain) else NotImplemented

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
        if type(self.rank) is not int or self.rank < 0:
            raise ValueError(f"rank {self.rank!r} must be a nonnegative int")
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

    Accepts a SparseIntMatrix or dense rows, checked in place as
    SparseIntMatrix.from_dense(M, ncols=ncols) checks them, with its errors:
    ncols, if given, is the length of every row and the column count of a
    matrix with no rows.
    Returns SNFResult with U*M*V == S rechecked against the original input;
    a failed recheck raises RuntimeError rather than returning silently.
    """
    if isinstance(M, SparseIntMatrix):
        orig, n = M.to_dense(), M.ncols
    else:
        orig = [list(r) for r in M]
        n = ncols if ncols is not None else len(orig[0]) if orig else 0
        if (type(n) is not int or n < 0 or any(len(r) != n for r in orig)
                or not all(type(v) is int for r in orig for v in r)):
            SparseIntMatrix.from_dense(orig, ncols=ncols)  # raises its error
    m = len(orig)
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
    cols = list(zip(*orig))
    UM = [[sum(map(mul, row, col)) for col in cols] for row in U]
    cols = list(zip(*V))
    UMV = [[sum(map(mul, row, col)) for col in cols] for row in UM]
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
    their maximal nonzero row).  Only unimodular 2-column operations are used,
    so the column span over Z, hence rank and invariant factors, is preserved.
    add() returns True when the column extended the span.

    Pivot entries (the value of a pivot column at its own pivot row) are kept
    positive; nonunit counts the pivots whose entry exceeds 1.  When nonunit
    is 0 the span is a direct summand of the ambient Z^rows (column Hermite
    form with unit pivots), which callers use for early termination: a
    saturated sublattice cannot grow further inside a lattice of the same
    rank.

    A zero column that took more pivot steps than it had entries is a slow
    one; slow and work count those since the last new pivot and their steps
    beyond their entries.  _choose_witness(d, saturation) solves the witness
    rows of the module docstring against the pivots as they stand, and
    until the next new pivot spans(col) tells from them alone whether col
    is in the span.
    """

    __slots__ = ("pivots", "nonunit", "slow", "work", "witness")

    def __init__(self):
        self.pivots = {}  # pivot row -> column dict
        self.nonunit = 0
        self.slow = 0  # slow zero columns since the last pivot
        self.work = 0  # their pivot steps beyond their entries, since the last pivot
        self.witness = None  # witness rows J while the pivots are as when chosen

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, col):
        # the one copy: callers' columns are never mutated
        col = {k: v for k, v in col.items() if v}
        pivots = self.pivots
        steps = -len(col)  # pivot steps beyond the entries: > 0 when slow
        while col:
            r = max(col)
            p = pivots.get(r)
            if p is None:
                if col[r] < 0:
                    col = {k: -v for k, v in col.items()}
                pivots[r] = col
                if col[r] != 1:
                    self.nonunit += 1
                self.slow = self.work = 0
                self.witness = None
                return True
            steps += 1
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
        if steps > 0:
            self.slow += 1
            self.work += steps
        return False

    def _choose_witness(self, d, saturation):
        """The t = saturation - rank nonpivot rows j whose column d[j] of
        d_top depends on those at earlier nonpivot rows, saturation = dim ker
        d_top, each with its residual as a row, solved against the pivots as
        they stand from the lowest pivot row up; a pivot that is not a cycle
        can leave more than t of them."""
        pivots = self.pivots
        red = _ColumnReducer()
        J = [k for k in range(len(d)) if k not in pivots and not red.add(d[k])]
        if len(J) != saturation - len(pivots):
            raise RuntimeError("witness rows do not match ker d_top: a pivot is not a cycle")
        # j -> its residual as a row: c[j] - sum of y_r[j] * c[r] over the
        # pivot rows r, where y_r[j] = p_r[j] - sum of y_s[j] * p_r[s] over
        # the pivot rows s < r.  With y_k = {k: -1} for k in J, both are one
        # sum over the rows of p_r in y, and a p_r with none has y_r = 0
        y = {j: {j: -1} for j in J}  # row -> {j: y[j]}, nonzero only
        rows = y.keys()
        for r in sorted(pivots):
            p = pivots[r]
            if rows.isdisjoint(p):
                continue
            acc = {}
            for s, v in p.items():
                for j, w in y.get(s, {}).items():
                    acc[j] = acc.get(j, 0) - w * v
            if acc := {j: w for j, w in acc.items() if w}:
                y[r] = acc
        witness = {j: {} for j in J}
        for r, acc in y.items():
            for j, w in acc.items():
                witness[j][r] = -w
        self.witness = witness

    def spans(self, col):
        """True when witness rows are chosen and col, a cycle, has a zero
        residual at each of them, which puts it in the span."""
        if self.witness is None:
            return False
        return not any(sum(v * w[i] for i, v in col.items() if i in w)
                       for w in self.witness.values())


def _pivot_invariant_factors(red):
    """Invariant factors (with 1s) of the pivot columns of a _ColumnReducer.

    When every pivot entry is 1, the pivot rows carry a unitriangular minor,
    which is unimodular, so every invariant factor is 1.  Otherwise each
    nonunit pivot n is cleared of the unit rows by back-substitution against
    the unit pivots as they stand: n becomes n - n[k] p_k for each unit row
    k from the highest down, and p_k has no entry above its row k, so each
    step leaves the rows already cleared alone.  These column operations are
    unimodular and give the one vector of n + span(unit pivots) that is zero
    at every unit row.  The unit rows of the unit pivots form a unitriangular
    block, which row operations that touch no cleared column turn into the
    identity, splitting off one factor 1 per unit pivot.  The k cleared
    columns carry the other factors; their transpose, one k-entry column per
    row they touch, is reduced until its pivots span Z^k, or to its end, and
    the k x k block of its at most k pivots goes through the certified dense
    SNF.
    """
    if not red.nonunit:
        return (1,) * red.rank
    pivots = red.pivots
    units = sorted((r for r, p in pivots.items() if p[r] == 1), reverse=True)
    cleared = []
    for n in (dict(p) for r, p in pivots.items() if p[r] != 1):
        for k in units:
            if m := n.get(k):
                for i, v in pivots[k].items():
                    n[i] = n.get(i, 0) - m * v
        cleared.append({i: v for i, v in n.items() if v})
    k = len(cleared)
    rows = {}  # row -> {j: entry of cleared[j]}
    for j, col in enumerate(cleared):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    block = list(_reduce(rows.values(), k).pivots.values())
    res = smith_normal_form([[p.get(i, 0) for p in block] for i in range(k)])
    factors = (1,) * len(units) + res.invariant_factors
    if len(factors) != red.rank:
        raise RuntimeError("rank mismatch between reduction and invariant factors")
    return factors


class _SpanningForest:
    """The span of signed incidence columns, as a spanning forest.

    Each column is 0, ±e_a (an edge from a to the ground) or ±(e_a - e_b),
    an edge of a graph on the rows, and a union-find joins the trees of its
    ends.  The root of a tree is its smallest vertex, and the ground, the
    vertex -1 below every row, roots its own tree.  The columns and the
    pivots e_v - e_root (e_v in the ground's tree) of the non-root vertices
    v span one lattice: a pivot is the sum of the edges along a tree path,
    and an edge is the difference of the pivots at its ends.  Each pivot
    has entry 1 at its largest row, so the rank is the number of edges that
    joined two trees and every invariant factor is 1, as the incidence
    matrix is totally unimodular; the pivots stand in for unit pivots of a
    _ColumnReducer.
    """

    __slots__ = ("parent", "rank")
    nonunit = 0

    def __init__(self):
        self.parent = {}  # vertex -> its parent, below it, for each non-root
        self.rank = 0

    def absorb(self, columns, saturation=None):
        """Join the edges of the columns as they are read, up to the first
        one that is not a signed incidence column, which is returned; None
        once every column is read, or once the rank is saturation."""
        parent, rank = self.parent, self.rank
        for col in columns:
            if col:
                if len(col) == 2:
                    (a, x), (b, y) = col.items()
                    if x + y or x * x != 1:
                        break
                elif len(col) == 1:
                    ((a, x),) = col.items()
                    if x * x != 1:
                        break
                    b = -1
                else:
                    break
                while (p := parent.get(a, a)) != a:  # path halving
                    parent[a] = a = parent.get(p, p)
                while (p := parent.get(b, b)) != b:
                    parent[b] = b = parent.get(p, p)
                if a != b:  # union by the smaller root
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b
                    rank += 1
            if rank == saturation:
                col = None
                break
        else:
            col = None
        self.rank = rank
        return col

    @property
    def pivots(self):
        """Row v -> the pivot e_v - e_root, or e_v in the ground's tree, for
        each vertex v that is not a root, in increasing order."""
        parent, root, out = self.parent, {}, {}
        for v in sorted(parent):
            r = root[v] = root.get(p := parent[v], p)
            out[v] = {v: 1, r: -1} if r >= 0 else {v: 1}
        return out


def _reduce(columns, saturation=None, d=None, cofaces=None):
    """A _ColumnReducer fed the columns, checked or built by the library and
    read as they are; it stops, leaving the rest unread, once its rank is
    saturation with unit pivots.

    Given d, the columns of d_top whose cycles the columns are, and
    saturation = dim ker d_top, witness rows (see the module docstring) are
    chosen right after a slow zero column, while every pivot is a unit, once
    the slow columns since the last new pivot outnumber the rank or their
    pivot steps beyond their entries outnumber the columns of d; a column
    that they show to lie in the span skips add().  Given also cofaces, the
    first time they are chosen the rest of the columns is left unread and
    cofaces(R) is read instead, R the rows of the residuals: it must give
    every later column with an entry at a row in R, and may give more.

    Signed incidence columns go to a _SpanningForest first, which is
    returned once they are all read and all such, or once its rank is
    saturation.  At the first other column the reducer takes over, fed the
    forest's pivots, which span what was read, and then that column and the
    rest."""
    red = _ColumnReducer()
    columns = iter(columns)
    forest = _SpanningForest()
    if (col := forest.absorb(columns, saturation)) is None:
        return forest
    for p in forest.pivots.values():
        red.add(p)
    while col is not None:
        if not red.spans(col):
            slow = red.slow
            red.add(col)
            if (d is not None and red.slow > slow and not red.nonunit and red.witness is None
                    and (red.slow > red.rank or red.work > len(d))):
                red._choose_witness(d, saturation)
                if red.witness and cofaces is not None:
                    columns, cofaces = iter(cofaces(set().union(*red.witness.values()))), None
            if red.rank == saturation and not red.nonunit:
                break
        col = next(columns, None)
    return red


def rank_and_invariant_factors(columns, nrows):
    """(rank, invariant_factors) of the matrix whose columns are given.

    columns: iterable of sparse dicts, zeros allowed, consumed lazily (suitable
    for streaming); nrows is checked at once, each column as it is read.
    Signed incidence columns are ranked by a spanning forest (see _reduce).
    """
    _check_shape(nrows, 0)
    red = _reduce(_check_column(col, nrows) for col in columns)
    return red.rank, _pivot_invariant_factors(red)


# --- chain complexes --------------------------------------------------------

class ChainComplex:
    """A nonnegatively graded chain complex of free Z-modules.

    bases[q] is a tuple of hashable labels; boundaries[q] (for 1 <= q <=
    max_degree) maps degree q to degree q-1.  Degrees beyond max_degree are
    zero, as are their boundary maps.
    """

    __slots__ = ("bases", "boundaries", "_indexes", "_is_complex", "_library")

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
        self.bases = bases
        self.boundaries = tuple(
            _as_matrix(M, len(bases[q - 1]), len(bases[q]), f"boundary in degree {q}")
            for q, M in enumerate(boundaries, start=1)
        )
        self._indexes = {}
        self._is_complex = None
        self._library = False

    @classmethod
    def _trusted(cls, bases, boundaries):
        """The complex of these bases and SparseIntMatrix boundaries, taken
        over unchecked: the library has just built them, with distinct labels
        and matching shapes.  Homology checks d∘d = 0 on the columns it reads
        instead of calling is_complex()."""
        C = object.__new__(cls)
        C.bases, C.boundaries = tuple(tuple(b) for b in bases), tuple(boundaries)
        C._indexes, C._is_complex, C._library = {}, None, True
        return C

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
        lower = self.basis(q - 1)
        acc = _apply(self.boundary_matrix(q).columns, {idx[lab]: c for lab, c in chain.items()})
        return Chain(q - 1, {lower[i]: v for i, v in acc.items()})

    def is_complex(self):
        """True iff consecutive boundaries compose to zero (checked once,
        column by column, up to the first nonzero column)."""
        if self._is_complex is None:
            cols = [M.columns for M in self.boundaries]
            self._is_complex = not any(
                _apply(lower, c) for lower, upper in zip(cols, cols[1:]) for c in upper
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


def _cycles(columns, d, sampled=False):
    """The columns, passed through as they are read; each of them, or if
    sampled the first 64 and every 1024th after, must have zero image under
    the matrix with columns d, else NotAComplex."""
    for n, col in enumerate(columns, 1):
        if (not sampled or n <= 64 or n % 1024 == 0) and _apply(d, col):
            raise NotAComplex("boundary column is not a cycle")
        yield col


def _homology(C, lo, top, stream=None):
    """[H_lo, ..., H_top] of C in one pass from the top degree down.  Given
    stream, the reduction of d_{top+1} is stream(saturation, d), d the
    columns of d_top and saturation = dim ker d_top: the reducer of a degree
    beyond C, rows as in C.basis(top), or None when H_top cannot be had,
    which then comes back as None, and the groups below it from the
    reductions of the boundaries below, as they stand.

    A complex built by the library is checked to have d_{q-1} c = 0 for
    each stored column c of d_q, q >= 2, that a reduction reads, as it is
    read; any other complex must pass is_complex() first.

    d_{top+1} stops once its rank is dim ker d_top with unit pivots, as a
    direct summand of full rank in ker d_top is all of it.  When top >= 2
    and d_top has more columns than d_{top-1}, d_{top-1} is reduced in full
    first and d_top stops in the same way at dim ker d_{top-1}; otherwise
    d_top is reduced in full.  Each d_q below those skips the columns at the
    unit pivot rows of d_{q+1}: such a pivot column p lies in im d_{q+1}, has
    entry 1 at its maximal row j and d_q p = 0, so column j of d_q is a
    combination of earlier columns.
    """
    if not isinstance(C, ChainComplex):
        hint = ", pass its .complex" if isinstance(getattr(C, "complex", None), ChainComplex) else ""
        raise ValueError(f"homology needs a ChainComplex, not a {type(C).__name__}{hint}")
    if type(lo) is not int or type(top) is not int or not 0 <= lo <= top:
        raise ValueError("degree must be a nonnegative int")
    if not (C._library or C.is_complex()):
        raise NotAComplex("boundary composed with boundary is nonzero")

    def read(q, skip=()):
        """The columns of d_q but those at skip, checked as they are read
        when C is a library complex."""
        cols = C.boundary_matrix(q).columns
        if skip:
            cols = [c for j, c in enumerate(cols) if j not in skip]
        return _cycles(cols, C.boundary_matrix(q - 1).columns) if C._library and q > 1 else cols

    n, m = len(C.basis(top)), len(C.basis(top - 1))
    if top > 1 and n > m:  # d_{top-1} in full, then d_top to saturation
        reds = {top - 1: _reduce(read(top - 1))}
        reds[top] = _reduce(read(top), m - reds[top - 1].rank, C.boundary_matrix(top - 1).columns)
    else:  # d_top in full
        reds = {top: _reduce(read(top))}
    d, saturation = C.boundary_matrix(top).columns, n - reds[top].rank
    above = _reduce(read(top + 1), saturation, d) if stream is None else stream(saturation, d)
    groups = []
    for q in range(top, lo - 1, -1):  # degrees not in reds cleared by the one above
        below = reds.get(q) or _reduce(read(q, {r for r, p in above.pivots.items() if p[r] == 1}))
        if above is None:  # d_{top+1} over budget
            groups.append(None)
            above = below
            continue
        free = len(C.basis(q)) - below.rank - above.rank
        if free < 0:
            raise RuntimeError("negative free rank: broken reduction")
        torsion = tuple(t for t in _pivot_invariant_factors(above) if t > 1)
        groups.append(FGAbelianGroup(free, torsion))
        above = below
    return groups[::-1]


def homology(C, q):
    """H_q of the complex as an FGAbelianGroup.

    rank H_q = dim C_q - rank d_q - rank d_{q+1}; torsion comes from the
    invariant factors of d_{q+1} that exceed 1.  d_q is reduced first, so
    d_{q+1} stops once it saturates ker d_q (and d_q, when it has more
    columns than d_{q-1}, once it saturates ker d_{q-1}).
    """
    return _homology(C, q, q)[0]


def homology_through(C, top):
    """[H_0, ..., H_top]; degrees beyond the complex are zero groups.

    One pass from the top degree down: d_{top+1} stops at saturation, and
    so may d_top (see _homology); every boundary below is cleared by the one
    above.
    """
    return _homology(C, 0, top)


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
    # degree by degree: the kept positions of q, then, for q >= 1, the
    # closure of the chosen labels of q and d_q, both read through rmap, the
    # kept positions of degree q-1 to their new ones
    new_bases = []
    new_mats = []
    for q in range(C.max_degree + 1):
        picked = chosen.get(q, set())
        basis = C.basis(q)
        keep = [i for i, lab in enumerate(basis) if lab not in picked]
        if q:
            idx = C.index(q)
            cols = C.boundary_matrix(q).columns
            for lab in picked:
                for i in cols[idx[lab]]:
                    if i in rmap:  # row i is kept in degree q-1: it is not chosen
                        raise NotSubcomplex(
                            f"boundary of {lab!r} leaves the subcomplex at {C.basis(q - 1)[i]!r}"
                        )
            kept = [{rmap[r]: v for r, v in cols[i].items() if r in rmap} for i in keep]
            new_mats.append(SparseIntMatrix._trusted(len(rmap), len(keep), kept))
        rmap = {old: new for new, old in enumerate(keep)}
        new_bases.append(tuple(basis[i] for i in keep))
    return (ChainComplex._trusted if C._library else ChainComplex)(new_bases, new_mats)


def verify_chain_map(phi, C, D):
    """Check that the matrices phi[0..k] form a chain map C -> D.

    phi[q] must be |D_q| x |C_q|; commutation d^D_q @ phi[q] == phi[q-1] @ d^C_q
    is required for 1 <= q <= k, and is checked column by column up to the
    first unequal one.  Only the pairs with a nonzero column of phi[q] or a
    column of d^C_q with a row at a live (nonzero) column of phi[q-1] are
    composed: every other pair is zero on both sides by its support.  The
    second kind are found by a scan of d^C_q, or, when d^C_q is a lazy
    boundary of the library that lists the columns meeting given rows
    (meeting, see singular._Columns), from that list, so that no other
    column of it is built.  Shape errors raise ShapeMismatch; a failed
    commutation just returns False.
    """
    mats = [_as_matrix(M, len(D.basis(q)), len(C.basis(q)), f"phi[{q}]").columns
            for q, M in enumerate(phi)]
    for q in range(1, len(mats)):
        d_D, d_C = D.boundary_matrix(q).columns, C.boundary_matrix(q).columns
        above, below = mats[q], mats[q - 1]
        live = {j for j, col in enumerate(below) if col}
        meeting = getattr(d_C, "meeting", None)
        if meeting is None:
            js = (j for j, b in enumerate(d_C) if above[j] or not live.isdisjoint(b))
        else:
            js = sorted({j for j, a in enumerate(above) if a}.union(meeting(live)))
        if any(_apply(d_D, above[j]) != _apply(below, d_C[j]) for j in js):
            return False
    return True


def _as_matrix(M, nrows, ncols, what):
    """M as a SparseIntMatrix, read from dense rows if need be, checked to be
    nrows x ncols; what names M in the ShapeMismatch."""
    if not isinstance(M, SparseIntMatrix):
        rows = [list(r) for r in M]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ShapeMismatch(f"{what} has {len(rows)} rows of lengths "
                                f"{sorted({len(r) for r in rows})}, expected {nrows}x{ncols}")
        M = SparseIntMatrix.from_dense(rows, ncols=ncols)
    elif M.nrows != nrows or M.ncols != ncols:
        raise ShapeMismatch(f"{what} is {M.nrows}x{M.ncols}, expected {nrows}x{ncols}")
    return M
