import itertools
import math
import random

import pytest

from dighom import (
    Chain,
    ChainComplex,
    DigitalImage,
    FGAbelianGroup,
    NotAComplex,
    NotSubcomplex,
    ShapeMismatch,
    SparseIntMatrix,
    ZERO_GROUP,
    beta_matrices,
    build_c1_complex,
    build_singular_complex,
    enumerate_singular_cubes,
    groups_isomorphic,
    homology,
    homology_through,
    quotient_complex,
    rank_and_invariant_factors,
    relative_c1_complex,
    singular_homology,
    smith_normal_form,
    verify_chain_map,
    xgcd,
)
from dighom import chain, singular

import helpers


def random_dense(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


# --- xgcd ---------------------------------------------------------------------

def test_xgcd_properties():
    rng = random.Random(3)
    cases = [(0, 0), (0, 5), (5, 0), (-4, 6), (12, 18)]
    cases += [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(200)]
    for a, b in cases:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g == math.gcd(a, b)


# --- SparseIntMatrix ------------------------------------------------------------

def test_sparse_matrix_roundtrip_and_accessors():
    rows = [[0, 2, 0], [-1, 0, 3]]
    M = SparseIntMatrix.from_dense(rows)
    assert (M.nrows, M.ncols) == (2, 3)
    assert M.to_dense() == rows
    assert M.entry(1, 2) == 3
    assert M.entry(0, 0) == 0
    assert M.column(1) == {0: 2}
    assert not M.is_zero()
    assert SparseIntMatrix.zeros(2, 3).is_zero()
    assert SparseIntMatrix.identity(3).to_dense() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_sparse_matrix_indices_must_be_ints():
    # entry(1.0, 1) read row 1, entry(0, True) column 1, and column(1.0)
    # ended in a TypeError from the list of columns
    M = SparseIntMatrix.from_dense([[0, 2, 0], [-1, 0, 3]])
    for i, j in [(1.0, 1), (0, True), (True, 0), (0, 1.0), ("0", 0), (None, 0)]:
        with pytest.raises(IndexError):
            M.entry(i, j)
    for j in [1.0, True, "1", None, -1, 3]:
        with pytest.raises(IndexError):
            M.column(j)


def test_sparse_matrix_from_dense_empty_shapes():
    assert SparseIntMatrix.from_dense([], nrows=0, ncols=4).ncols == 4
    M = SparseIntMatrix.from_dense([[], []], nrows=2, ncols=0)
    assert (M.nrows, M.ncols) == (2, 0)
    assert M.is_zero()
    # rows beyond nrows are refused, zero or not; missing rows are zero rows
    for rows in ([[0], [0]], [[1], [1]]):
        with pytest.raises(ValueError, match="2 rows exceed nrows=1"):
            SparseIntMatrix.from_dense(rows, nrows=1)
    assert SparseIntMatrix.from_dense([[1]], nrows=3).to_dense() == [[1], [0], [0]]


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{5: 1}, {}])  # row out of range
    for row in (1.0, True, "a"):  # 1.0 and True were taken as row 1
        with pytest.raises(ValueError, match=f"row index {row!r}"):
            SparseIntMatrix(2, 1, [{row: 1}])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{0: 0}, {}])  # explicit zero
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{}])  # wrong column count
    with pytest.raises(ValueError):
        SparseIntMatrix(-1, 2)
    for dims in [(2.0, 1), (1, 1.0), (True, 1), (1, True)]:
        # a float dimension broke to_dense() later with a TypeError
        with pytest.raises(ValueError, match="must be nonnegative ints"):
            SparseIntMatrix(*dims, [{0: 1}])


@pytest.mark.parametrize("bad", [1.5, 2.0, True, 0.0])
@pytest.mark.parametrize("entry_point", [
    lambda v: SparseIntMatrix(1, 1, [{0: v}]),
    lambda v: smith_normal_form([[v, 2]]),
    lambda v: rank_and_invariant_factors([{0: v}], 2),
    lambda v: SparseIntMatrix.from_dense([[v, 2]]),
], ids=["SparseIntMatrix", "smith_normal_form", "rank_and_invariant_factors", "from_dense"])
def test_non_integer_entries_are_refused(entry_point, bad):
    # a float or a bool would pass through the arithmetic and come back as
    # a factor such as 1.5 or True; a zero-valued one such as 0.0 was
    # dropped silently by from_dense
    with pytest.raises(ValueError, match="not an int"):
        entry_point(bad)


def test_sparse_matmul_matches_dense_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = random_dense(rng, n, k)
        B = random_dense(rng, k, m)
        SA = SparseIntMatrix.from_dense(A, nrows=n, ncols=k)
        SB = SparseIntMatrix.from_dense(B, nrows=k, ncols=m)
        assert (SA @ SB).to_dense() == helpers.matmul_oracle(A, B)
    P = SparseIntMatrix.zeros(0, 3) @ SparseIntMatrix.zeros(3, 2)
    assert (P.nrows, P.ncols) == (0, 2) and P.is_zero()


def test_sparse_matmul_shape_mismatch():
    A = SparseIntMatrix.zeros(2, 3)
    B = SparseIntMatrix.zeros(2, 3)
    with pytest.raises(ShapeMismatch):
        A @ B


def test_sparse_matrix_equality():
    A = SparseIntMatrix.from_dense([[1, 0], [0, 2]])
    B = SparseIntMatrix.from_dense([[1, 0], [0, 2]])
    C = SparseIntMatrix.from_dense([[1, 0], [0, 3]])
    assert A == B and A != C
    assert A != SparseIntMatrix.zeros(2, 3)


# --- Chain ----------------------------------------------------------------------

def test_chain_algebra():
    a = Chain(1, {"e": 2, "f": -1})
    b = Chain(1, {"e": -2, "g": 4})
    s = a + b
    assert s.coeffs == {"f": -1, "g": 4}  # e cancels and is dropped
    assert (a - a).coeffs == {}
    assert not (a - a)
    assert bool(a)
    assert (3 * a).coeffs == {"e": 6, "f": -3}
    assert (0 * a).coeffs == {}
    assert (-a).coeffs == {"e": -2, "f": 1}
    assert a.degree == 1


def test_chain_degree_mismatch():
    with pytest.raises(ValueError):
        Chain(1, {"e": 1}) + Chain(2, {"s": 1})


def test_chain_refuses_an_operand_that_is_not_a_chain():
    with pytest.raises(TypeError, match=r"for \+: 'Chain' and 'int'"):
        Chain(0, {"a": 1}) + 5
    with pytest.raises(TypeError, match="for -: 'Chain' and 'int'"):
        Chain(0, {"a": 1}) - 5


def test_chain_drops_zero_coefficients_on_construction():
    c = Chain(0, {"v": 0, "w": 3})
    assert c.coeffs == {"w": 3}


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_chain_coefficients_must_be_ints(bad):
    # a chain over Q slipped through, and boundary_of answered with halves
    with pytest.raises(ValueError, match=f"coefficient {bad!r} is not an int"):
        Chain(0, {"a": bad})


# --- FGAbelianGroup -------------------------------------------------------------

def test_group_str_forms():
    assert str(FGAbelianGroup(0)) == "0"
    assert str(FGAbelianGroup(1)) == "Z"
    assert str(FGAbelianGroup(2)) == "Z^2"
    assert str(FGAbelianGroup(0, (2,))) == "Z/2"
    assert str(FGAbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
    assert ZERO_GROUP == FGAbelianGroup(0)


def test_group_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)
    for rank in (1.5, 1.0, True):  # 1.5 printed as Z^1.5
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            FGAbelianGroup(rank)
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))  # not a divisibility chain
    FGAbelianGroup(0, (2, 4, 12))


def test_groups_isomorphic():
    assert groups_isomorphic(FGAbelianGroup(1, (2,)), FGAbelianGroup(1, (2,)))
    assert not groups_isomorphic(FGAbelianGroup(1), FGAbelianGroup(1, (2,)))
    assert not groups_isomorphic(FGAbelianGroup(1), FGAbelianGroup(2))


# --- Smith normal form ----------------------------------------------------------

def test_snf_known_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.invariant_factors == (2, 4)
    assert res.rank == 2


def test_snf_zero_and_empty():
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.rank == 0 and res.invariant_factors == ()
    assert smith_normal_form([]).rank == 0
    assert smith_normal_form([], ncols=3).rank == 0
    assert smith_normal_form([[], []], ncols=0).rank == 0


@pytest.mark.parametrize("rows, ncols", [
    pytest.param([[1, 2], [3]], None, id="rows0"),
    pytest.param([[1], [3, 4]], None, id="rows1"),
    pytest.param([[1, 2]], 3, id="short_of_ncols"),
])
def test_snf_refuses_ragged_rows(rows, ncols):
    # the first two raised IndexError and a false certification failure; a
    # row shorter than ncols gave a 1x2 result for a 1x3 matrix
    with pytest.raises(ValueError, match="ragged rows"):
        smith_normal_form(rows, ncols=ncols)


def test_dense_snf_input_gives_the_result_of_the_same_sparse_matrix():
    # dense rows are checked in place, not turned into a SparseIntMatrix
    rng = random.Random(36)
    for _ in range(200):
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        M = random_dense(rng, nr, nc)
        rows = [row[:] for row in M]
        want = smith_normal_form(SparseIntMatrix.from_dense(M, ncols=nc))
        assert smith_normal_form(rows, ncols=nc) == want
        assert smith_normal_form((tuple(r) for r in M), ncols=nc) == want
        assert rows == M  # the input is left as it was


@pytest.mark.parametrize("rows, ncols, message", [
    ([[1, 2], [3]], None, "ragged rows"),
    ([[1, 2]], 3, "ragged rows"),
    ([[1, 2.0]], None, "matrix entry 2.0 is not an int"),
    ([[0, True]], None, "matrix entry True is not an int"),
    ([[None]], None, "matrix entry None is not an int"),
    ([], -1, "matrix dimensions 0x-1 must be nonnegative ints"),
    ([[1]], 1.0, "matrix dimensions 1x1.0 must be nonnegative ints"),
])
def test_dense_snf_input_is_refused_with_the_errors_of_from_dense(rows, ncols, message):
    for check in (SparseIntMatrix.from_dense, smith_normal_form):
        with pytest.raises(ValueError) as ei:
            check(rows, ncols=ncols)
        assert str(ei.value) == message


def test_snf_matches_minors_oracle_small():
    rng = random.Random(17)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        M = random_dense(rng, nr, nc, -6, 6)
        res = smith_normal_form(M)
        assert res.invariant_factors == helpers.minors_gcd_factors(M)
        assert res.rank == helpers.rank_oracle(M)


def test_snf_transforms_are_unimodular():
    rng = random.Random(23)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        M = random_dense(rng, nr, nc)
        res = smith_normal_form(M)
        assert helpers.bareiss_det(res.U) in (1, -1)
        assert helpers.bareiss_det(res.V) in (1, -1)
        # diagonal, nonnegative, divisibility chain
        f = res.invariant_factors
        assert all(f[i] > 0 for i in range(len(f)))
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))


def test_rank_and_invariant_factors_matches_dense():
    rng = random.Random(31)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        M = random_dense(rng, nr, nc, -8, 8)
        cols = [
            {i: M[i][j] for i in range(nr) if M[i][j]}
            for j in range(nc)
        ]
        rank, factors = rank_and_invariant_factors(cols, nr)
        res = smith_normal_form(M)
        assert rank == res.rank
        assert factors == res.invariant_factors


def test_reduction_leaves_the_callers_columns_unchanged():
    # column 1 is not a multiple of column 0 at the pivot row, so the
    # reducer mixes the two; column 2 carries an explicit zero entry
    cols = [{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 4, 1: 0, 2: 1}]
    before = [dict(c) for c in cols]
    assert rank_and_invariant_factors(cols, 3) == (3, (1, 1, 1))
    assert cols == before


def test_nonunit_columns_over_many_rows_leave_a_small_dense_block(monkeypatch):
    # no entry is a unit, so no unit pivot splits anything off; the residue
    # spans 3,000 rows, yet the dense SNF sees only the 2 x 2 block of the
    # transposed reduction
    blocks = []
    snf = chain.smith_normal_form

    def recording(M, ncols=None):
        res = snf(M, ncols)
        blocks.append((len(res.U), len(res.V)))
        return res

    monkeypatch.setattr(chain, "smith_normal_form", recording)
    cols = [{i: 2 for i in range(3000)}, {i: 2 * (i % 3) for i in range(3000) if i % 3}]
    assert rank_and_invariant_factors(cols, 3000) == (2, (2, 2))
    assert blocks and all(m <= 2 and n <= 2 for m, n in blocks)


def test_reducer_pivots_on_the_lowest_row():
    # each pivot is keyed by the largest row of its column: the second
    # column meets the first at row 2 and keeps its new pivot at row 1
    assert chain._reduce([{0: 1, 2: 1}, {1: 1, 2: 1}]).pivots.keys() == {1, 2}


def test_invariant_factors_clear_the_nonunit_pivots_by_back_substitution():
    # add() leaves the unit pivot e1 + e0 as it came, not zero at the unit
    # row 0.  Subtracting from the pivot 2e2 + e1 + e0 its own entries at
    # the unit rows times e1 + e0 and e0 at once would leave 2e2 - e0, whose
    # factor is 1; back-substitution from the highest unit row down takes
    # out e1 + e0 first, leaving 2e2, which has nothing left at row 0
    cols = [{2: 2, 1: 1, 0: 1}, {1: 1, 0: 1}, {0: 1}]
    assert rank_and_invariant_factors(cols, 3) == (3, (1, 1, 2))


def test_rank_and_invariant_factors_rejects_bad_rows():
    with pytest.raises(ValueError):
        rank_and_invariant_factors([{5: 1}], 3)
    for row in (1.0, True, "a"):  # 1.0 gave (1, (1,))
        with pytest.raises(ValueError, match=f"row index {row!r}"):
            rank_and_invariant_factors([{row: 1}], 2)
    # nrows is refused at once: -1 gave (0, ()), 2.0 and True (1, (1,)), "3" a TypeError
    for columns, nrows in (([], -1), ([{0: 1}], 2.0), ([{0: 1}], True), ([{0: 1}], "3")):
        with pytest.raises(ValueError, match="must be nonnegative ints"):
            rank_and_invariant_factors(columns, nrows)


# --- ChainComplex ----------------------------------------------------------------

def circle_complex():
    # 2 vertices a,b and 2 edges e,f forming a circle: ∂e = b - a, ∂f = a - b
    return ChainComplex(
        bases=[("a", "b"), ("e", "f")],
        boundaries=[SparseIntMatrix.from_dense([[-1, 1], [1, -1]])],
    )


def torsion_complex():
    # one vertex, two loops, one 2-cell glued twice along the second loop
    return ChainComplex(
        bases=[("v",), ("e1", "e2"), ("F",)],
        boundaries=[
            SparseIntMatrix.zeros(1, 2),
            SparseIntMatrix.from_dense([[0], [2]]),
        ],
    )


def test_complex_accessors():
    C = circle_complex()
    assert C.max_degree == 1
    assert C.basis(0) == ("a", "b")
    assert C.basis(5) == ()
    assert C.index(1)["f"] == 1
    assert C.boundary_matrix(0).to_dense() == []
    assert (C.boundary_matrix(0).nrows, C.boundary_matrix(0).ncols) == (0, 2)
    assert C.boundary_matrix(2).to_dense() == [[], []]
    assert (C.boundary_matrix(2).nrows, C.boundary_matrix(2).ncols) == (2, 0)
    assert (C.boundary_matrix(9).nrows, C.boundary_matrix(9).ncols) == (0, 0)
    assert C.is_complex()


def test_complex_validation():
    with pytest.raises(ValueError):
        ChainComplex(bases=[("a", "a")], boundaries=[])
    with pytest.raises(ValueError):
        ChainComplex(bases=[("a",)], boundaries=[SparseIntMatrix.zeros(1, 1)])
    with pytest.raises(ShapeMismatch):
        ChainComplex(
            bases=[("a",), ("e",)],
            boundaries=[SparseIntMatrix.zeros(2, 1)],
        )
    # dense boundaries with too few rows (once padded with zero rows), too
    # many rows, rows of the wrong length, and ragged rows
    for rows in [[[1]], [[1], [1], [1]], [[1, 1], [1, 1]], [[1], [1, 1]]]:
        with pytest.raises(ShapeMismatch, match="expected 2x1"):
            ChainComplex(bases=[("a", "b"), ("e",)], boundaries=[rows])
    assert ChainComplex(bases=[(), ("e",)], boundaries=[[]]).boundaries[0].ncols == 1
    M = ChainComplex(bases=[("a", "b"), ()], boundaries=[[[], []]]).boundaries[0]
    assert (M.nrows, M.ncols) == (2, 0)


def test_boundary_of_chain():
    C = circle_complex()
    d = C.boundary_of(Chain(1, {"e": 1, "f": 1}))
    assert d.degree == 0 and d.coeffs == {}
    d = C.boundary_of(Chain(1, {"e": 1}))
    assert d.coeffs == {"a": -1, "b": 1}
    with pytest.raises(KeyError):
        C.boundary_of(Chain(1, {"nope": 1}))


def test_is_complex_detects_failure():
    bad = ChainComplex(
        bases=[("a", "b"), ("e",), ("F",)],
        boundaries=[
            SparseIntMatrix.from_dense([[-1], [1]]),
            SparseIntMatrix.from_dense([[1]]),
        ],
    )
    assert not bad.is_complex()
    with pytest.raises(NotAComplex):
        homology(bad, 0)


def test_homology_through_checks_the_complex_once(monkeypatch):
    # a library complex is checked on the columns its reductions read: each
    # read column of d_q, q >= 2, is composed once with d_{q-1} as it is
    # read (d_0 = 0 needs no check), and nothing else is composed
    composed, read = [], []
    apply, reduce = chain._apply, chain._reduce

    def composing(columns, col):
        composed.append((columns, col))
        return apply(columns, col)

    def reading(columns, saturation=None, d=None, cofaces=None):
        def tally():
            for col in columns:
                read.append(col)
                yield col
        return reduce(tally(), saturation, d, cofaces)

    monkeypatch.setattr(chain, "_apply", composing)
    monkeypatch.setattr(chain, "_reduce", reading)
    C = build_c1_complex(helpers.block()).complex  # degrees 0..3
    assert homology_through(C, 3) == [FGAbelianGroup(1)] + [ZERO_GROUP] * 3
    d1, d2, d3 = (M.columns for M in C.boundaries)
    below = {id(c): lower for lower, upper in ((d1, d2), (d2, d3)) for c in upper}
    expected = [(below[id(c)], c) for c in read if id(c) in below]
    assert len(expected) == 6  # d_3's one column and 5 of the 6 of d_2
    assert len(composed) == len(expected)
    assert all(a is b and c is d for (a, c), (b, d) in zip(composed, expected))

    # a complex built by the caller passes is_complex() once, in full: each
    # column of d2 and d3 composed once with the boundary below it
    composed.clear()
    C = ChainComplex(C.bases, C.boundaries)
    for _ in range(3):
        assert homology_through(C, 3) == [FGAbelianGroup(1)] + [ZERO_GROUP] * 3
    expected = [(d1, c) for c in d2] + [(d2, c) for c in d3]
    assert len(composed) == len(expected)
    assert all(a is b and c is d for (a, c), (b, d) in zip(composed, expected))


def test_nonunit_pivot_clears_nothing():
    # d2 reduces to one pivot of entry 2 at row b; clearing column b of d1
    # on it would leave d1 = [[2]] and give H_0 = Z/2
    C = ChainComplex(
        bases=[("v",), ("a", "b"), ("f",)],
        boundaries=[
            SparseIntMatrix.from_dense([[2, 3]]),
            SparseIntMatrix.from_dense([[3], [-2]]),
        ],
    )
    assert homology_through(C, 2) == [ZERO_GROUP] * 3


def test_clearing_skips_the_unit_pivot_columns(monkeypatch):
    # on the solid 3x3x3 cube every pivot of d2 is a unit, so d1 reduces
    # only the columns that no pivot of d2 clears
    reduced = []
    reduce = chain._reduce

    def recording(columns, saturation=None, d=None, cofaces=None):
        reduced.append(list(columns))
        return reduce(reduced[-1], saturation, d, cofaces)

    monkeypatch.setattr(chain, "_reduce", recording)
    X = DigitalImage(3, list(itertools.product(range(3), repeat=3)))
    C = build_c1_complex(X).complex
    assert homology_through(C, 3) == [FGAbelianGroup(1)] + [ZERO_GROUP] * 3
    n_1 = len(C.basis(1))
    rank_2, _ = rank_and_invariant_factors(C.boundary_matrix(2).columns, n_1)
    d_1 = C.boundary_matrix(1).columns
    assert [len(cols) for cols in reduced if cols and cols[0] in d_1] == [n_1 - rank_2]


def test_saturation_waits_for_unit_pivots():
    # the first column of d2 already has the rank of ker d1 = Z, but spans
    # only 2Z; stopping there would give H_1 = Z/2
    C = ChainComplex(
        bases=[("v",), ("e",), ("f", "g")],
        boundaries=[
            SparseIntMatrix.from_dense([[0]]),
            SparseIntMatrix.from_dense([[2, 3]]),
        ],
    )
    assert homology_through(C, 1) == [FGAbelianGroup(1), ZERO_GROUP]


def tallied(columns):
    """(columns passed through, [the number read so far])."""
    n = [0]

    def tally():
        for col in columns:
            n[0] += 1
            yield col

    return tally(), n


def recording_reads(monkeypatch):
    """The columns read by each reduction from now on, as a count, or as
    (stream, cofaces) when cofaces finish it: those of chain.py and the
    stream of singular_homology."""
    reads = []
    reduce = chain._reduce

    def counting(columns, saturation=None, d=None, cofaces=None):
        columns, n = tallied(columns)
        faces = []

        def counted_cofaces(rows):
            cols, m = tallied(cofaces(rows))
            faces.append(m)
            return cols

        red = reduce(columns, saturation, d, cofaces and counted_cofaces)
        reads.append((n[0], faces[0][0]) if faces else n[0])
        return red

    monkeypatch.setattr(chain, "_reduce", counting)
    monkeypatch.setattr(singular, "_reduce", counting)
    return reads


def test_unsaturating_stream_is_finished_by_its_cofaces_without_interreduction(monkeypatch):
    # H_1 = Z, so the streamed degree 2 never spans ker d_1: at rank 12 its
    # columns only reduce to zero.  The unit square puts the c1 top at 2,
    # above the stream's degree 1, so no certificate lowers its stop.  The
    # materialized d_1 is a graph's incidence matrix, ranked by a spanning
    # forest.  Once the slow zero columns of the stream since its last pivot
    # outnumber its rank, it chooses its witness row by a triangular solve:
    # the stream of 174 columns then stops after 110, and the cofaces of the
    # rows of the residuals, 22, finish it
    read = recording_reads(monkeypatch)
    assert singular_homology(helpers.ring_with_square(), 1) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    [(streamed, finished)] = [r for r in read if type(r) is tuple]
    assert streamed == 110
    assert finished == 22


def test_unsaturating_stream_solves_its_witness_row_on_pivots_as_they_stand(monkeypatch):
    # the witness row of the stream comes from its pivots as they stand:
    # choosing the row changes no pivot entry
    chosen = []
    choose = chain._ColumnReducer._choose_witness

    def choosing(red, d, saturation):
        before = {r: dict(p) for r, p in red.pivots.items()}
        choose(red, d, saturation)
        chosen.append((len(d), len(red.witness), red.pivots == before))

    monkeypatch.setattr(chain._ColumnReducer, "_choose_witness", choosing)
    singular_homology(helpers.ring_with_square(), 1)
    assert chosen == [(22, 1, True)]
    # the shell's d_2 chooses one while it reduces to saturation, against
    # the 96 columns of d_1; its certified stream chooses none
    chosen.clear()
    singular_homology(helpers.shell(), 2)
    assert chosen == [(96, 1, True)]


def test_witness_rows_spare_the_unsaturating_stream_its_cascades(monkeypatch):
    # once the stream has chosen its witness row, the columns that it shows
    # to be in the span skip add().  The stream reads 110 of its 174
    # columns; its span is then already that of all of them, so none of the
    # 22 cofaces that finish it reaches add()
    reads = []
    adds = 0
    reduce, add = chain._reduce, chain._ColumnReducer.add

    def counting_adds(red, col):
        nonlocal adds
        adds += 1
        return add(red, col)

    def counting(columns, saturation=None, d=None, cofaces=None):
        nonlocal adds
        adds = 0
        columns, n = tallied(columns)
        before = []

        def counted_cofaces(rows):
            before.append(adds)
            return cofaces(rows)

        red = reduce(columns, saturation, d, cofaces and counted_cofaces)
        reads.append((n[0], adds, before))
        return red

    monkeypatch.setattr(chain, "_reduce", counting)
    monkeypatch.setattr(singular, "_reduce", counting)
    monkeypatch.setattr(chain._ColumnReducer, "add", counting_adds)
    assert singular_homology(helpers.ring_with_square(), 1) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    [(streamed, added, [before])] = [r for r in reads if r[2]]
    assert streamed == 110
    assert added == before


def test_a_noncycle_pivot_leaves_too_many_witness_rows():
    # d_top maps e0 to the one row below and e1, e2, e3 to 0, so ker d_top
    # has dimension 3.  After the noncycle pivots at rows 0 and 2, three
    # slow zero columns, more than the rank, choose the witness rows: the
    # free rows 1 and 3 both have zero columns in d_top, two witness rows
    # where ker d_top leaves room for one cycle beyond the span, and the
    # reduction refuses to go on
    d = [{0: 1}, {}, {}, {}]
    stream = [{0: 1}, {0: 1, 2: 1}, {2: 1}, {2: -1}, {2: 2}, {1: 1}]
    with pytest.raises(RuntimeError, match="not a cycle"):
        chain._reduce(iter(stream), 3, d)
    # without d nothing tells, and the noncycles count toward saturation
    assert chain._reduce(iter(stream), 3).rank == 3


def test_back_substitution_keeps_the_torsion_of_a_stream(monkeypatch):
    # five loops at one vertex; the stream spans the path p1, p2, p3 (unit
    # pivots at rows 1, 2, 3) and the pivot 2 at row 0, so H_1 = Z + Z/2.
    # Each padding column has two entries but telescopes up the path in
    # three or four pivot steps, slow zero columns that would choose witness
    # rows over unit pivots; beside the nonunit pivot none are chosen, and
    # the invariant factors clear it of the unit rows by back-substitution
    # against the path as it stands to find the torsion
    C = ChainComplex(bases=[("v",), ("e0", "e1", "e2", "e3", "e4")],
                     boundaries=[SparseIntMatrix.zeros(1, 5)])
    path = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {3: 2}]
    padding = [{0: 1, 3: 1}, {0: 1, 3: -1}, {0: 2, 3: 2}, {0: -1, 3: 1}, {0: 3, 3: 1},
               {1: 1, 3: -1}]
    chosen = []
    monkeypatch.setattr(chain._ColumnReducer, "_choose_witness",
                        lambda red, d, saturation: chosen.append(red))

    def stream(saturation, d):
        return chain._reduce(iter(path + padding), saturation, d)

    assert chain._homology(C, 1, 1, stream) == [FGAbelianGroup(1, (2,))]
    assert chosen == []


def recording_full_reductions(monkeypatch, columns):
    """(type of the result, calls of _ColumnReducer.add) of each reduction
    without saturation, from now on, of some columns, all in columns."""
    ids = {id(c) for c in columns}
    calls = []
    reduce, add = chain._reduce, chain._ColumnReducer.add
    adds = [0]

    def counting_adds(red, col):
        adds[0] += 1
        return add(red, col)

    def recording(cols, saturation=None, d=None, cofaces=None):
        cols = list(cols)
        adds[0] = 0
        red = reduce(cols, saturation, d, cofaces)
        if saturation is None and cols and all(id(c) in ids for c in cols):
            calls.append((type(red), adds[0]))
        return red

    monkeypatch.setattr(chain, "_reduce", recording)
    monkeypatch.setattr(chain._ColumnReducer, "add", counting_adds)
    return calls


def relative_shell():
    X = helpers.shell()
    return relative_c1_complex(X, [p for p in X.sorted_points if p[0] == 0])


@pytest.mark.parametrize("C, top", [
    (build_c1_complex(helpers.shell()).complex, 2),
    (build_c1_complex(helpers.block()).complex, 3),
    (build_singular_complex(helpers.ring(), 1), 1),
    (build_singular_complex(helpers.square(), 2), 2),
    (relative_shell(), 2),
], ids=["c1-shell", "c1-block", "singular-ring", "singular-square", "relative-shell"])
def test_d1_of_library_complexes_is_ranked_by_a_spanning_forest(monkeypatch, C, top):
    # d_1 of a library complex is a graph's signed incidence matrix, with
    # edges to the ground in a relative complex, so its full reduction,
    # cleared by d_2, never reaches the column reducer
    expected = homology_through(C, top)
    calls = recording_full_reductions(monkeypatch, C.boundaries[0].columns)
    assert homology_through(C, top) == expected
    assert calls == [(chain._SpanningForest, 0)]


@pytest.mark.parametrize("C", [
    build_c1_complex(helpers.shell()).complex,
    build_c1_complex(helpers.block()).complex,
    build_c1_complex(DigitalImage(2, [(0, 0), (0, 1), (5, 5)])).complex,
    relative_shell(),
], ids=["c1-shell", "c1-block", "c1-two-components", "relative-shell"])
def test_h0_of_library_complexes_is_ranked_by_a_spanning_forest(monkeypatch, C):
    # at top 0, d_1 is read to saturation, dim C_0, which the forest reaches
    # only once every vertex is in the ground's tree; H_0 comes from the
    # forest with no column reducer
    expected = homology_through(C, 1)[0]
    adds = []
    add = chain._ColumnReducer.add
    monkeypatch.setattr(chain._ColumnReducer, "add", lambda red, col: adds.append(col) or add(red, col))
    assert homology(C, 0) == expected
    assert adds == []


def test_spanning_forest_keeps_only_the_rows_it_reads():
    # the forest holds the vertices its edges touch, as the column reducer
    # holds only nonzero entries, so a far row costs no more than a near one
    far = 10**12
    assert rank_and_invariant_factors([{far: 1, 3: -1}, {3: -1}, {far: 1}], far + 1) == (2, (1, 1))
    assert chain._reduce([{far: 1, 3: -1}, {3: -1}]).pivots == {3: {3: 1}, far: {far: 1}}


@pytest.mark.parametrize("d_1, groups", [
    # an entry 2: H_0 = Z^3 / <v1 - v0, 2 v2>
    ([[-1, 0], [1, 0], [0, 2]], [FGAbelianGroup(1, (2,)), ZERO_GROUP]),
    # two entries of one sign, after an edge: H_0 = Z^3 / <v1 - v0, v1 + v2>
    ([[-1, 0], [1, 1], [0, 1]], [FGAbelianGroup(1), ZERO_GROUP]),
    # the same columns, the other one first
    ([[0, -1], [1, 1], [1, 0]], [FGAbelianGroup(1), ZERO_GROUP]),
    # an edge twice, then two entries of one sign: H_0 = Z^3 / <v0 - v1, v0 + v1>
    ([[1, -1, 1], [-1, 1, 1], [0, 0, 0]], [FGAbelianGroup(1, (2,)), FGAbelianGroup(1)]),
], ids=["entry-2", "same-signs", "same-signs-first", "repeated-edge"])
def test_other_user_d1_goes_through_the_column_reducer(monkeypatch, d_1, groups):
    C = ChainComplex([("v0", "v1", "v2"), tuple(f"e{j}" for j in range(len(d_1[0])))], [d_1])
    calls = recording_full_reductions(monkeypatch, C.boundaries[0].columns)
    assert homology_through(C, 1) == groups
    [(kind, adds)] = calls
    assert kind is chain._ColumnReducer
    assert adds >= 1


@pytest.mark.parametrize("X, top, ncols, groups", [
    (helpers.square(), 2, 2432, [FGAbelianGroup(1), ZERO_GROUP, ZERO_GROUP]),
    (helpers.ring(), 1, 112, [FGAbelianGroup(1), FGAbelianGroup(1)]),
])
def test_materialized_top_boundary_stops_at_saturation(monkeypatch, X, top, ncols, groups):
    # d_{top+1} is read only until it spans ker d_top, which it never does
    # while H_top != 0
    read = {}
    reduce = chain._reduce

    def counting(columns, saturation=None, d=None, cofaces=None):
        columns = list(columns)
        rest = iter(columns)
        red = reduce(rest, saturation, d, cofaces)
        read[len(columns)] = len(columns) - len(list(rest))
        return red

    monkeypatch.setattr(chain, "_reduce", counting)
    C = build_singular_complex(X, top)
    assert len(C.basis(top + 1)) == ncols
    assert homology_through(C, top) == groups
    if groups[top].is_zero:
        # listed round-robin by front face, the square's d_3 spans ker d_2
        # after 83 columns (after 900 in lex order)
        assert read[ncols] < 100
    else:
        assert read[ncols] == ncols


@pytest.mark.parametrize("X, q, reads", [
    # d_2 (64) in full, then d_3 to saturation (83 of 2,432), the stream,
    # and d_1, d_0 cleared
    (helpers.square(), 3, [64, 83, 2651, 3, 1]),
    # H_1 = 0: d_2 saturates after 348 of its 1,200 columns.  H_2 = Z is
    # certified through alpha and beta, as the c1 top is 2, so the stream
    # stops at rank 1,128 = dim ker d_2 - 1, after 1,417 columns
    (helpers.shell(), 2, [96, 348, 1417, 1]),
    # at top 1, d_1 is read in full, as H_0 != 0; H_1 = Z is certified with
    # 18 cofaces, and the stream stops after 21 cubes: the 39 of the CI
    # budget check
    (helpers.ring(), 1, [16, 21, 1]),
    (helpers.tailed_ring(), 1, [24, 33, 1]),
    # the c1 top is 2, so the stream of degree 2 takes the witness rows: 13
    # slow zero columns outnumber its rank, 12, and it chooses its witness
    # row there, after 110 cubes, with 22 cofaces to finish it
    (helpers.ring_with_square(), 1, [22, (110, 22), 1]),
    # 17 slow zero columns outnumber the stream's rank, 16, while their 28
    # extra pivot steps do not yet outnumber the 30 columns of d_1, and it
    # chooses its witness row there, after 118 cubes
    (helpers.tailed_ring_with_square(), 1, [30, (118, 18), 1]),
    # H_2 = 0, so the stream of degree 3 saturates, but the c1 top is 3 and
    # nothing is certified at degree 2: the reducer chooses its witness
    # rows after 9,954 cubes, and the 948 cofaces of the rows of their
    # residuals finish it, saturated, in place of the rest of the stream
    (helpers.sphere(), 2, [416, 1411, (9954, 948), 1]),
], ids=["square", "shell", "ring", "tailed_ring", "ring_with_square", "tailed_ring_with_square",
        "sphere"])
def test_singular_top_boundaries_are_read_to_saturation(monkeypatch, X, q, reads):
    recorded = recording_reads(monkeypatch)
    singular_homology(X, q)
    assert recorded == reads


@pytest.mark.parametrize("X, q, budget, groups, reads", [
    # the certificate's cofaces and the stream of degree 3 need 1,080 +
    # 1,417 = 2,497 reads: d_1 and d_2 are reduced once, and H_1 comes from
    # d_2 as it stood before the stream
    (helpers.shell(), 2, 2496, [FGAbelianGroup(1), ZERO_GROUP, None], [96, 348, 1]),
    # 18 cofaces and 21 stream cubes, one over: d_1 is read once, in full
    (helpers.ring(), 1, 38, [FGAbelianGroup(1), None], [16, 1]),
    # 110 stream cubes and 22 cofaces of its witness rows, one over
    (helpers.ring_with_square(), 1, 131, [FGAbelianGroup(1), None], [22, 1]),
], ids=["shell", "ring", "ring_with_square"])
def test_budget_fallback_keeps_the_reductions_below_the_stream(monkeypatch, X, q, budget,
                                                               groups, reads):
    # the stream's own reduction raises BudgetExceeded and is not recorded
    recorded = recording_reads(monkeypatch)
    assert singular_homology(X, q, budget) == groups
    assert recorded == reads


@pytest.mark.parametrize("X, reads", [
    (helpers.shell(), [[26, 48], [48, 23, 1], [24, 0, 25, 1]]),
    (helpers.block(), [[8, 12], [12, 5, 1], [6, 1, 7, 1], [1, 0, 5, 7, 1]]),
    (helpers.ring(), [[8, 8], [8, 0, 1]]),
], ids=["shell", "block", "ring"])
def test_c1_top_boundaries_are_read_in_full(monkeypatch, X, reads):
    # in a c1 complex d_top is the shorter boundary, so it is reduced in
    # full and clears the one below, at every top
    C = build_c1_complex(X).complex
    recorded = recording_reads(monkeypatch)
    for top, expected in enumerate(reads):
        homology_through(C, top)
        assert recorded == expected
        recorded.clear()


def broken_column(C, q, j):
    """d_q of C with a face of nonzero boundary added to column j, so that
    d_{q-1} d_q is nonzero there and only there."""
    lower, upper = C.boundary_matrix(q - 1), C.boundary_matrix(q)
    cols = list(upper.columns)
    cols[j] = dict(cols[j])
    cols[j][next(r for r, c in enumerate(lower.columns) if c and r not in cols[j])] = 1
    return SparseIntMatrix(upper.nrows, upper.ncols, cols)


@pytest.mark.parametrize("q, j", [(2, 0), (3, 0), (3, 82)])
def test_library_complex_is_checked_on_the_columns_read(q, j):
    # homology_through(square, 2) reads d_2 from its first column, and the
    # first 83 columns of d_3
    C = build_singular_complex(helpers.square(), 2)
    mats = list(C.boundaries)
    mats[q - 1] = broken_column(C, q, j)
    with pytest.raises(NotAComplex):
        homology_through(ChainComplex._trusted(C.bases, mats), 2)


def test_user_complex_is_checked_in_full():
    # the last column of d_3 is left unread, yet a complex built by the
    # caller must pass is_complex() in full; a library complex broken only
    # there goes unnoticed in this call
    C = build_singular_complex(helpers.square(), 2)
    mats = C.boundaries[:2] + (broken_column(C, 3, len(C.basis(3)) - 1),)
    with pytest.raises(NotAComplex):
        homology_through(ChainComplex(C.bases, mats), 2)
    groups = [FGAbelianGroup(1), ZERO_GROUP, ZERO_GROUP]
    assert homology_through(ChainComplex._trusted(C.bases, mats), 2) == groups


def test_streamed_columns_are_checked_to_be_cycles(monkeypatch):
    # columns streamed for d_2 lie outside is_complex(); the first 64 and
    # every 1024th are multiplied out, and e alone has boundary b - a
    C = circle_complex()

    def stream(columns):
        return lambda saturation, d: chain._reduce(
            chain._cycles(iter(columns), d, sampled=True), saturation, d)

    with pytest.raises(NotAComplex):
        chain._homology(C, 1, 1, stream([{0: 1}]))
    with pytest.raises(NotAComplex):
        chain._homology(C, 1, 1, stream([{}] * 1023 + [{0: 1}]))
    assert chain._homology(C, 1, 1, stream([{}] * 1023 + [{0: 1, 1: 1}])) == [ZERO_GROUP]
    # singular_homology streams its columns through that check: on the
    # ring, with a 1 added at row 0 of every column of degree 2, which the
    # certificate's cofaces read too, the first streamed column is refused
    column = singular._Ladder.column

    def broken(ladder, k, tables):
        col = column(ladder, k, tables)

        def plus_row_0(x, y):
            c = col(x, y)
            c[0] = c.get(0, 0) + 1
            return {r: v for r, v in c.items() if v}

        return plus_row_0 if k == 1 else col

    monkeypatch.setattr(singular._Ladder, "column", broken)
    with pytest.raises(NotAComplex):
        singular_homology(helpers.ring(), 1)


def test_homology_point():
    C = ChainComplex(bases=[("v",)], boundaries=[])
    assert homology(C, 0) == FGAbelianGroup(1)
    assert homology(C, 3) == ZERO_GROUP
    with pytest.raises(ValueError):
        homology(C, -1)
    for top in (-1, -3):
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            homology_through(C, top)


@pytest.mark.parametrize("call", [
    lambda: homology(circle_complex(), 1.5),
    lambda: homology(circle_complex(), True),
    lambda: homology_through(circle_complex(), 1.0),
    lambda: singular_homology(helpers.ring(), 1.0),
    lambda: build_singular_complex(helpers.ring(), 1.0),
    lambda: enumerate_singular_cubes(helpers.ring(), 1.0),
    lambda: build_c1_complex(helpers.ring(), 1.5),
], ids=["homology", "homology-bool", "homology_through", "singular_homology",
        "build_singular_complex", "enumerate_singular_cubes", "build_c1_complex"])
def test_non_integer_degrees_are_refused(call):
    # build_c1_complex took 1.5 and homology took True as degree 1; the
    # others ended in a TypeError traceback
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        call()


@pytest.mark.parametrize("entry", [
    homology, homology_through, lambda C, q: chain._homology(C, 0, q),
], ids=["homology", "homology_through", "_homology"])
def test_homology_refuses_what_is_not_a_chain_complex(entry):
    # the C1Complex wrapper, and anything else, ended in an AttributeError
    # on ChainComplex._library
    with pytest.raises(ValueError, match=r"not a C1Complex, pass its \.complex"):
        entry(build_c1_complex(helpers.ring()), 1)
    with pytest.raises(ValueError, match="not a list$"):
        entry([], 1)


def test_homology_circle():
    C = circle_complex()
    assert homology(C, 0) == FGAbelianGroup(1)
    assert homology(C, 1) == FGAbelianGroup(1)
    assert homology(C, 2) == ZERO_GROUP


def test_homology_torsion():
    C = torsion_complex()
    assert C.is_complex()
    assert homology(C, 0) == FGAbelianGroup(1)
    assert homology(C, 1) == FGAbelianGroup(1, (2,))
    assert homology(C, 2) == ZERO_GROUP


def test_homology_through():
    C = circle_complex()
    assert homology_through(C, 3) == [
        FGAbelianGroup(1), FGAbelianGroup(1), ZERO_GROUP, ZERO_GROUP]


def test_homology_of_empty_complex():
    C = ChainComplex(bases=[()], boundaries=[])
    assert homology(C, 0) == ZERO_GROUP


# --- quotient complexes -----------------------------------------------------------

def test_quotient_complex_kills_relative_cells():
    # interval a-b: quotient by the subcomplex {a}
    C = ChainComplex(
        bases=[("a", "b"), ("e",)],
        boundaries=[SparseIntMatrix.from_dense([[-1], [1]])],
    )
    Q = quotient_complex(C, {0: {"a"}})
    assert Q.basis(0) == ("b",)
    assert Q.basis(1) == ("e",)
    assert Q.boundary_matrix(1).to_dense() == [[1]]
    assert homology(Q, 0) == ZERO_GROUP
    assert homology(Q, 1) == ZERO_GROUP


def test_quotient_complex_requires_closure():
    # the subcomplex contains the edge but not its endpoints
    C = ChainComplex(
        bases=[("a", "b"), ("e",)],
        boundaries=[SparseIntMatrix.from_dense([[-1], [1]])],
    )
    with pytest.raises(NotSubcomplex):
        quotient_complex(C, {1: {"e"}})
    with pytest.raises(NotSubcomplex):
        quotient_complex(C, {0: {"zzz"}})
    # a missing label is reported before the edge that leaves the subcomplex
    with pytest.raises(NotSubcomplex, match=r"^label 'zzz' is not in degree 0$"):
        quotient_complex(C, {1: {"e"}, 0: {"zzz"}})


def test_quotient_complex_reports_the_lowest_degree_it_leaves():
    # two edges e, f from a to b and a disc s with boundary e - f: the
    # choice leaves the subcomplex in degree 1 (at a) and in degree 2 (at f)
    C = ChainComplex(
        bases=[("a", "b"), ("e", "f"), ("s",)],
        boundaries=[SparseIntMatrix.from_dense([[-1, -1], [1, 1]]),
                    SparseIntMatrix.from_dense([[1], [-1]])],
    )
    assert C.is_complex()
    with pytest.raises(NotSubcomplex, match=r"^boundary of 'e' leaves the subcomplex at 'a'$"):
        quotient_complex(C, {2: {"s"}, 1: {"e"}})
    with pytest.raises(NotSubcomplex, match=r"^boundary of 's' leaves the subcomplex at 'f'$"):
        quotient_complex(C, {0: {"a", "b"}, 1: {"e"}, 2: {"s"}})


def test_quotient_by_everything_is_zero():
    C = circle_complex()
    Q = quotient_complex(C, {0: {"a", "b"}, 1: {"e", "f"}})
    assert Q.basis(0) == () and Q.basis(1) == ()
    assert homology(Q, 0) == ZERO_GROUP
    assert homology(Q, 1) == ZERO_GROUP


# --- chain maps --------------------------------------------------------------------

def test_verify_chain_map_identity_and_sign_flip():
    C = circle_complex()
    eye = [SparseIntMatrix.identity(2), SparseIntMatrix.identity(2)]
    assert verify_chain_map(eye, C, C)
    flipped = [SparseIntMatrix.identity(2),
               SparseIntMatrix.from_dense([[-1, 0], [0, 1]])]
    assert not verify_chain_map(flipped, C, C)


def test_composite_checks_reach_the_last_column():
    square = helpers.square()
    C = build_singular_complex(square, 2)
    _, d2, d3 = C.boundaries
    # add to the last column of d3 a face with nonzero boundary; flipping a
    # sign there may not do, as its face can have zero boundary
    last = dict(d3.columns[-1])
    last[next(r for r, c in enumerate(d2.columns) if c and r not in last)] = 1
    bad = SparseIntMatrix(d3.nrows, d3.ncols, d3.columns[:-1] + [last])
    assert C.is_complex()
    assert not ChainComplex(C.bases, C.boundaries[:2] + (bad,)).is_complex()

    bm = beta_matrices(square, 1)
    CS, CE = bm.singular, bm.elementary.complex
    assert verify_chain_map(bm.matrices, CS, CE)
    b2 = bm.matrices[2]
    j = max(j for j, c in enumerate(b2.columns) if c)
    cols = [dict(c) for c in b2.columns]
    cols[j] = {i: -v for i, v in cols[j].items()}
    negated = bm.matrices[:2] + (SparseIntMatrix(b2.nrows, b2.ncols, cols),)
    assert not verify_chain_map(negated, CS, CE)


def test_verify_chain_map_skips_only_pairs_zero_by_support():
    bm = beta_matrices(helpers.square(), 1)
    CS, CE = bm.singular, bm.elementary.complex
    b1, b2 = bm.matrices[1:]
    live = {j for j, c in enumerate(b1.columns) if c}
    d2 = CS.boundary_matrix(2).columns

    def with_column(j, col):
        cols = [dict(c) for c in b2.columns]
        cols[j] = col
        return bm.matrices[:2] + (SparseIntMatrix(b2.nrows, b2.ncols, cols),)

    # (a) a zeroed column of beta_2 whose boundary meets the support of
    # beta_1: beta_1 d != 0 there, and the pair must not be skipped
    j = next(j for j, c in enumerate(b2.columns) if c)
    assert not live.isdisjoint(d2[j]) and chain._apply(b1.columns, d2[j])
    assert not verify_chain_map(with_column(j, {}), CS, CE)
    # (b) a column set on a cube whose boundary misses that support: d beta
    # != 0 there, and the pair must not be skipped either.  Every 1-cube of
    # the square is injective, so that boundary is zero: (p, r, r, p)
    j = next(j for j, (a, b) in enumerate(zip(b2.columns, d2))
             if not a and live.isdisjoint(b))
    top = {0: 1}
    assert chain._apply(CE.boundary_matrix(2).columns, top)
    assert not verify_chain_map(with_column(j, top), CS, CE)
    # random columns set or cleared: the verdict is that of every product
    rng = random.Random(27)
    for _ in range(60):
        j = rng.randrange(b2.ncols)
        col = rng.choice([{}, {0: rng.choice([-1, 1])}, dict(b2.columns[j])])
        phi = with_column(j, col)
        assert verify_chain_map(phi, CS, CE) == helpers.chain_map_by_every_product(phi, CS, CE)


def test_verify_chain_map_shape_mismatch():
    C = circle_complex()
    with pytest.raises(ShapeMismatch):
        verify_chain_map([SparseIntMatrix.identity(3),
                          SparseIntMatrix.identity(2)], C, C)
    # dense maps of the wrong row count or row length; [[[1]]] raised
    # ValueError("ragged rows")
    for rows in [[[1]], [[1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0]]]:
        with pytest.raises(ShapeMismatch, match=r"phi\[0\].*expected 2x2"):
            verify_chain_map([rows], C, C)
    assert verify_chain_map([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], C, C)
