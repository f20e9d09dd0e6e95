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
    build_c1_complex,
    build_singular_complex,
    groups_isomorphic,
    homology,
    homology_through,
    quotient_complex,
    rank_and_invariant_factors,
    smith_normal_form,
    verify_chain_map,
    xgcd,
)
from dighom import chain

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


def test_sparse_matrix_from_dense_empty_shapes():
    assert SparseIntMatrix.from_dense([], nrows=0, ncols=4).ncols == 4
    M = SparseIntMatrix.from_dense([[], []], nrows=2, ncols=0)
    assert (M.nrows, M.ncols) == (2, 0)
    assert M.is_zero()


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{5: 1}, {}])  # row out of range
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{0: 0}, {}])  # explicit zero
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [{}])  # wrong column count
    with pytest.raises(ValueError):
        SparseIntMatrix(-1, 2)


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


def test_chain_drops_zero_coefficients_on_construction():
    c = Chain(0, {"v": 0, "w": 3})
    assert c.coeffs == {"w": 3}


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


def test_rank_and_invariant_factors_rejects_bad_rows():
    with pytest.raises(ValueError):
        rank_and_invariant_factors([{5: 1}], 3)


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
    products = []
    matmul = SparseIntMatrix.__matmul__

    def counting(self, other):
        products.append((self.ncols, other.ncols))
        return matmul(self, other)

    monkeypatch.setattr(SparseIntMatrix, "__matmul__", counting)
    C = build_c1_complex(helpers.block()).complex  # degrees 0..3
    assert homology_through(C, 3) == [FGAbelianGroup(1)] + [ZERO_GROUP] * 3
    assert len(products) == 2  # d1 @ d2 and d2 @ d3


def test_nonunit_pivot_clears_nothing():
    # d2 reduces to one pivot of entry 3 at row a; clearing column a of d1
    # on it would leave d1 = [[3]] and give H_0 = Z/3
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

    def recording(columns, nrows, saturation=None):
        reduced.append((nrows, len(columns)))
        return reduce(columns, nrows, saturation)

    monkeypatch.setattr(chain, "_reduce", recording)
    X = DigitalImage(3, list(itertools.product(range(3), repeat=3)))
    C = build_c1_complex(X).complex
    assert homology_through(C, 3) == [FGAbelianGroup(1)] + [ZERO_GROUP] * 3
    n_0, n_1 = len(C.basis(0)), len(C.basis(1))
    rank_2, _ = rank_and_invariant_factors(C.boundary_matrix(2).columns, n_1)
    assert [ncols for nrows, ncols in reduced if nrows == n_0] == [n_1 - rank_2]


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


@pytest.mark.parametrize("X, top, ncols, groups", [
    (helpers.square(), 2, 2432, [FGAbelianGroup(1), ZERO_GROUP, ZERO_GROUP]),
    (helpers.ring(), 1, 112, [FGAbelianGroup(1), FGAbelianGroup(1)]),
])
def test_materialized_top_boundary_stops_at_saturation(monkeypatch, X, top, ncols, groups):
    # d_{top+1} is read only until it spans ker d_top, which it never does
    # while H_top != 0
    read = {}
    reduce = chain._reduce

    def counting(columns, nrows, saturation=None):
        columns = list(columns)
        rest = iter(columns)
        red = reduce(rest, nrows, saturation)
        read[len(columns)] = len(columns) - len(list(rest))
        return red

    monkeypatch.setattr(chain, "_reduce", counting)
    C = build_singular_complex(X, top)
    assert len(C.basis(top + 1)) == ncols
    assert homology_through(C, top) == groups
    if groups[top].is_zero:
        assert read[ncols] < ncols
    else:
        assert read[ncols] == ncols


def test_streamed_columns_are_checked_to_be_cycles():
    # columns handed in for d_2 lie outside is_complex(); the first 64 and
    # every 1024th are multiplied out, and e alone has boundary b - a
    C = circle_complex()
    with pytest.raises(NotAComplex):
        chain._homology(C, 1, iter([{0: 1}]))
    with pytest.raises(NotAComplex):
        chain._homology(C, 1, iter([{}] * 1023 + [{0: 1}]))
    assert chain._homology(C, 1, iter([{}] * 1023 + [{0: 1, 1: 1}])) == ZERO_GROUP


def test_homology_point():
    C = ChainComplex(bases=[("v",)], boundaries=[])
    assert homology(C, 0) == FGAbelianGroup(1)
    assert homology(C, 3) == ZERO_GROUP
    with pytest.raises(ValueError):
        homology(C, -1)


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


def test_verify_chain_map_shape_mismatch():
    C = circle_complex()
    with pytest.raises(ShapeMismatch):
        verify_chain_map([SparseIntMatrix.identity(3),
                          SparseIntMatrix.identity(2)], C, C)
