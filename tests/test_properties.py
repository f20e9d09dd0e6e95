"""Property checks on random small images and integer matrices.

The singular homology (streamed and materialized) and the c1 homology must
agree on every image, homology_through (which clears columns from the top
degree down) must agree with a reduction of every full boundary matrix.  The
c1 complex must have the cubes of a brute-force vertex test as its bases,
cube_boundary as its columns, dimension() as its top degree, and the
quotient by the cubes inside a subimage as its relative complex.  The column
reducer's pivots must have the invariant factors that sympy's Smith normal
form finds, all ones whenever every pivot entry is 1.
"""

from itertools import product

from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from dighom import (
    ChainComplex,
    DigitalImage,
    FGAbelianGroup,
    build_c1_complex,
    build_singular_complex,
    cube_boundary,
    dimension,
    enumerate_elementary_cubes,
    homology_through,
    quotient_complex,
    rank_and_invariant_factors,
    relative_c1_complex,
    singular_homology,
)
from dighom.chain import _ColumnReducer, _invariant_factors_of_columns

import helpers


def images(box):
    cells = list(product(*(range(k) for k in box)))
    return st.sets(st.sampled_from(cells), min_size=1).map(
        lambda pts: DigitalImage(len(box), sorted(pts)))


# random 2D images in a 3x3 box and 3D images in a 2x2x2 box
IMAGES = st.one_of(images((3, 3)), images((2, 2, 2)))


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_pipelines_agree(X):
    groups = singular_homology(X, 1)
    assert groups == homology_through(build_singular_complex(X, 1), 1)
    assert groups == homology_through(build_c1_complex(X).complex, 1)


def reference_homology(C):
    """[H_0, ..., H_max] from a reduction of every full boundary matrix."""
    reductions = [rank_and_invariant_factors(C.boundary_matrix(q).columns,
                                             C.boundary_matrix(q).nrows)
                  for q in range(C.max_degree + 2)]
    return [FGAbelianGroup(len(C.basis(q)) - reductions[q][0] - reductions[q + 1][0],
                           tuple(t for t in reductions[q + 1][1] if t > 1))
            for q in range(C.max_degree + 1)]


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_clearing_keeps_the_groups(X):
    for C in (build_c1_complex(X).complex, build_singular_complex(X, 1)):
        assert homology_through(C, C.max_degree) == reference_homology(C)


# random images in 1D, 2D (3x3), 3D (2x2x2) and 4D (2x2x2x2) boxes
C1_IMAGES = st.one_of(images((5,)), images((3, 3)), images((2, 2, 2)), images((2, 2, 2, 2)))


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES)
def test_dimension_is_the_top_nonempty_degree(X):
    top = max(q for q in range(X.ambient_dim + 1)
              if helpers.elementary_cubes_by_vertex_test(X, q))
    assert dimension(X) == top


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES)
def test_c1_bases_are_the_vertex_test_cubes(X):
    C = build_c1_complex(X).complex
    for q in range(X.ambient_dim + 2):
        cubes = helpers.elementary_cubes_by_vertex_test(X, q)
        assert enumerate_elementary_cubes(X, q) == cubes
        assert list(C.basis(q)) == cubes
    for k in range(C.max_degree + 1):
        assert build_c1_complex(X, k).complex == ChainComplex(C.bases[:k + 1], C.boundaries[:k])


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES)
def test_c1_columns_are_cube_boundaries(X):
    C = build_c1_complex(X).complex
    for q in range(1, C.max_degree + 1):
        rows = C.basis(q - 1)
        for Q, col in zip(C.basis(q), C.boundary_matrix(q).columns):
            assert {rows[r]: v for r, v in col.items()} == cube_boundary(Q).coeffs


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES, st.data())
def test_relative_c1_complex_is_the_quotient_by_cubes_in_A(X, data):
    A = data.draw(st.sets(st.sampled_from(X.sorted_points)))
    C = build_c1_complex(X).complex
    sub = {q: [Q for Q in C.basis(q) if all(v in A for v in Q.vertices())]
           for q in range(C.max_degree + 1)}
    assert relative_c1_complex(X, A) == quotient_complex(C, sub)


# integer matrices of up to 5x5, stored as lists of dense columns
MATRICES = st.integers(1, 5).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-3, 3), min_size=rows, max_size=rows), min_size=1, max_size=5))


@settings(derandomize=True, deadline=None)
@given(MATRICES)
def test_unit_pivots_give_unit_invariant_factors(cols):
    red = _ColumnReducer()
    for col in cols:
        red.add({r: v for r, v in enumerate(col) if v})
    factors = _invariant_factors_of_columns(red.pivots.values())
    snf = smith_normal_form(
        Matrix(len(cols[0]), len(cols), lambda i, j: cols[j][i]), domain=ZZ)
    diagonal = [abs(snf[i, i]) for i in range(min(snf.shape))]
    assert sorted(factors) == sorted(d for d in diagonal if d)
    assert red.rank == len(factors)
    if red.nonunit == 0:
        assert all(f == 1 for f in factors)
