"""Property checks on random small images and integer matrices.

The singular homology (streamed and materialized) and the c1 homology must
agree on every image, homology_through (which clears columns from the top
degree down) must agree with a reduction of every full boundary matrix.  The
c1 complex must have the cubes of a brute-force vertex test as its bases
(also on images in 1-4 dimensions spread out by offsets near +-10^12, whose
translates must be those of a direct lookup of p + e_d), cube_boundary as
its columns, dimension() as its top degree, and the
quotient by the cubes inside a subimage as its relative complex.
is_homotopy must be its definition: ends, tracks and continuous slices.  beta on
singular keys must be public beta on the decoded cubes, and its sign the
determinant of the edge vectors.  Each level
of the ladder of appended tables must list the continuous corner tables of a
brute-force filter, degenerate ones too, in lex order, with a degeneracy mask
that matches a direction-by-direction check; the singular cubes must be those
of a brute-force filter, in lex order, and their round-robin listing a
permutation of them, the same from a fresh ladder and from a shared one.
Each degree of a materialized singular complex, taken from its own level,
must be that listing, or both must refuse the same degree over budget.
Every boundary column built from table indices (of a materialized degree,
of the lazily built top boundary, of the stream and of its cofaces) must be
the public boundary() of its cube, which works on corner tables.  The
cofaces, moved half by half, must be those of the full keys moved by the
coordinate operators, in the same order.  is_embedding must be a
brute-force check that the corners are the vertices of an elementary cube.
The coordinate operators must precompose with the maps that an oracle
evaluates point by point.  Images written as JSON and as text files must
parse back equal, and each class of malformed image file must end the CLI
with exit code 2 and a one-line error.
rank_and_invariant_factors and SparseIntMatrix must refuse the same bad row
indices and entries.
The column reducer's pivots must have the invariant factors that sympy's
Smith normal form finds, all ones whenever every pivot entry is 1, also on
matrices with mostly nonunit entries.  Signed incidence matrices, with
edges of either sign, edges to the ground, zero and repeated columns and
shuffled rows, must have the rank and invariant factors of the certified
dense Smith normal form, and the spanning forest's pivots entry 1 at their
largest rows and the columns' span; with one column of another form the
column reducer takes over, and either way the pivot rows and entries are
those of the column reducer alone.  On
streams that repeat their own span, the reducer must have sympy's rank and
invariant factors, the interreduction of its unit pivots (an oracle in
helpers) must keep the span, the pivot rows and the pivot entries, and zero
each unit pivot at the other unit pivot rows, and the nonunit pivots cleared
by back-substitution must be those cleared with the interreduced ones.
On streams of boundaries of random singular complexes, the reduction with
d_top, which tests later columns on witness rows, must have the rank, pivot
rows, pivot entries and invariant factors of the one without it, and each
witness test must agree with a reduction; the witness rows solved on pivots
as they stand must leave them so and be those read off the same pivots
interreduced.  The reduction that leaves its stream unread once witness
rows are chosen, and reads the cofaces of the rows of their residuals
instead, must find every other column in its span and match the reduction
of the whole stream.
alpha must be a chain map and a section of beta, and the library's key map
of alpha that of an oracle.  Where the streamed degree sits on the c1 top,
the singular groups certified through alpha and beta must be those with the
certificate refused and those of c1, and a certificate with a cycle that is
not one, a cocycle that is not one or a singular pairing must be refused.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain as chain_from, combinations, islice, product
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from dighom import (
    BudgetExceeded,
    ChainComplex,
    DigitalImage,
    ElementaryCube,
    FGAbelianGroup,
    HomotopyTable,
    PointMap,
    SingularCube,
    SparseIntMatrix,
    apply_operator,
    beta,
    beta_matrices,
    boundary,
    build_c1_complex,
    build_singular_complex,
    cube_boundary,
    dimension,
    enumerate_elementary_cubes,
    enumerate_singular_cubes,
    homology,
    homology_through,
    induced_map,
    is_embedding,
    is_homotopy,
    load_image,
    quotient_complex,
    random_continuous_map,
    rank_and_invariant_factors,
    relative_c1_complex,
    singular_homology,
    verify_chain_map,
)
from dighom import chain, cli, singular
from dighom.chain import _apply, _ColumnReducer
from dighom.elementary import _alpha_points, _induced_maps, _levels
from dighom.singular import (
    DEFAULT_BUDGET,
    _Ladder,
    _beta_key,
    _boundary_column,
    _materialize,
)

import helpers


def images(box, max_size=None, min_size=1):
    cells = list(product(*(range(k) for k in box)))
    return st.sets(st.sampled_from(cells), min_size=min_size, max_size=max_size).map(
        lambda pts: DigitalImage(len(box), sorted(pts)))


# random 2D images in a 3x3 box and 3D images in a 2x2x2 box
IMAGES = st.one_of(images((3, 3)), images((2, 2, 2)))


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_pipelines_agree(X):
    groups = singular_homology(X, 1)
    assert groups == homology_through(build_singular_complex(X, 1), 1)
    assert groups == homology_through(build_c1_complex(X).complex, 1)


def alpha_matrices(X, S, C, top):
    """alpha_0..alpha_top from the c1 complex C of X into the singular
    complex S over X: the column of a c1 key is +1 at the row of the key of
    its canonical embedding, from helpers.alpha."""
    at = {p: a for a, p in enumerate(X.sorted_points)}
    mats = []
    for q in range(top + 1):
        rows = {key: r for r, key in enumerate(S.basis(q))}
        cols = [{rows[tuple(map(at.get, helpers.alpha(X, key)))]: 1} for key in C.basis(q)]
        mats.append(SparseIntMatrix(len(S.basis(q)), len(cols), cols))
    return mats


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_alpha_is_a_chain_map_and_a_section_of_beta(X):
    # the canonical embeddings of the c1 cubes through degree 2 commute with
    # the boundaries, and beta takes each back to its c1 cube with sign +1
    bm = beta_matrices(X, 1)  # singular degrees 0..2
    S, C = bm.singular, bm.elementary.complex
    event(f"c1 cubes of degree 2: {bool(C.basis(2))}")
    alpha = alpha_matrices(X, S, C, 2)
    assert verify_chain_map(alpha, C, S) is True
    for q, (a, b) in enumerate(zip(alpha, bm.matrices)):
        assert (b @ a).columns == [{j: 1} for j in range(len(C.basis(q)))]
    # a chain-map check that fails returns False: one column of alpha_1
    # negated no longer commutes with the boundary of an edge
    if C.basis(1):
        alpha[1].columns[0] = {r: -v for r, v in alpha[1].columns[0].items()}
        assert verify_chain_map(alpha, C, S) is False


@settings(derandomize=True, deadline=None)
@given(IMAGES, IMAGES, st.lists(st.integers(0, 4), min_size=1, max_size=4),
       st.sampled_from([0, 1, None]), st.randoms(use_true_random=False))
def test_induced_maps_over_given_complexes_are_the_induced_maps(X, Y, degrees, further, rng):
    # the complexes given in place of those built for the call, the
    # codomain's built to the top degree, one degree above it or to its
    # dimension, give the matrices of induced_map; degrees past the
    # dimension of the domain give empty ones
    f = random_continuous_map(X, Y, rng)
    top = max(degrees)
    cx = build_c1_complex(X, top)
    cy = build_c1_complex(Y, None if further is None else top + further)
    event(f"degrees past the domain: {top > cx.complex.max_degree}")
    assert _induced_maps(f, degrees, cx, cy) == [induced_map(f, q) for q in degrees]


def top_images():
    """Images with a c1 top degree of 1 or 2: a 2D or 3D box, all its cells,
    those with an even coordinate (walls, no unit cube) or those with at
    most one odd one (a frame of edges), with up to three cells taken out."""
    def image(box, kind, out):
        cells = [p for p in product(*map(range, box))
                 if kind == "all" or sum(c % 2 for c in p) < (len(box) if kind == "walls" else 2)]
        return DigitalImage(len(box), [p for i, p in enumerate(cells) if i not in out])

    return st.builds(image, st.sampled_from([(3, 3), (3, 5), (5, 5), (3, 3, 3), (2, 3, 3), (3, 3, 5)]),
                     st.sampled_from(["all", "walls", "frame"]),
                     st.sets(st.integers(0, 44), max_size=3))


def boundary_cycle(cycles, cocycles, ladder, tables, m):
    """The first cycle replaced by the first nonzero boundary of the
    stream: still a cycle, but zero on every cocycle, so the pairing is
    singular."""
    column = ladder.column(m, tables)
    first = next(c for c in (column(x, y) for x, y in ladder.rounds(m, tables)) if c)
    return [first] + cycles[1:], cocycles


def changed_cycle(cycles, cocycles, *_):
    """One entry of alpha(c_1) plus 1: no longer a cycle."""
    r, v = next(iter(cycles[0].items()))
    return [{**cycles[0], r: v + 1}] + cycles[1:], cocycles


def negated_cocycle(cycles, cocycles, *_):
    """One value of the first cocycle negated: no longer a cocycle."""
    r, v = next(iter(cocycles[0].items()))
    return cycles, [{**cocycles[0], r: -v}] + cocycles[1:]


@settings(derandomize=True, deadline=None)
@given(top_images())
@example(helpers.shell())
def test_a_certified_top_degree_keeps_the_groups(X):
    # the streamed degree m + 1 sits on the c1 top m: with the certificate,
    # with it refused and in c1 the groups are the same.  A certificate
    # with a bad cycle, a bad cocycle or a singular pairing is refused, and
    # the stream then keeps the groups in the same way
    m = dimension(X) if len(X) else 0
    assume(1 <= m <= 2)
    found = []
    certify, certificate = singular._certified_rank, singular._certificate

    def recording(*args):
        found.append(certify(*args))
        return found[-1]

    with patch.object(singular, "_certified_rank", recording):
        groups = singular_homology(X, m)
    with patch.object(singular, "_certified_rank", lambda *args: 0):
        assert singular_homology(X, m) == groups
    assert groups == homology_through(build_c1_complex(X).complex, m)
    assert found == [groups[m].rank]
    event(f"degree {m}, certified rank {min(found[0], 2)}")
    if not found[0]:
        return
    for mutant in (boundary_cycle, changed_cycle, negated_cocycle):
        found.clear()
        with patch.object(singular, "_certified_rank", recording), \
                patch.object(singular, "_certificate",
                             lambda X, m, ladder, tables, found, mutant=mutant:
                             mutant(*certificate(X, m, ladder, tables, found), ladder, tables, m)):
            assert singular_homology(X, m) == groups
        assert found == [0]


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
        reference = reference_homology(C)
        assert homology_through(C, C.max_degree) == reference
        # one degree at a time: d_q in full, d_{q+1} up to saturation
        assert [homology(C, q) for q in range(C.max_degree + 1)] == reference


def saturating_reductions():
    """(calls, a wrapper of chain._reduce): calls gets True for each
    reduction of cycles of a boundary given to it, one per homology pass
    for d_{top+1} and one more when d_top stops at saturation too."""
    calls = []
    reduce = chain._reduce

    def recording(columns, saturation=None, d=None, cofaces=None):
        calls.append(d is not None)
        return reduce(columns, saturation, d, cofaces)

    return calls, recording


# images whose singular complex to degree 3 stays small
SMALL_IMAGES = st.one_of(images((4,)), images((2, 2)), images((2, 2, 2), max_size=3))


@settings(derandomize=True, deadline=None)
@given(st.one_of(IMAGES.map(lambda X: (X, 1)), SMALL_IMAGES.map(lambda X: (X, 2))))
def test_saturating_top_boundary_keeps_the_groups(case):
    # at top 2, d_2 of the singular complex of an image with an edge has
    # more columns than d_1, so d_1 is reduced in full and d_2 stops once it
    # saturates ker d_1; at top 1 d_1 is reduced in full.  Materialized or
    # streamed above, the groups are those of a reduction of every boundary
    # in full
    X, q = case
    C = build_singular_complex(X, q)
    reference = reference_homology(C)[:q + 1]
    calls, recording = saturating_reductions()
    with patch.object(chain, "_reduce", recording):
        assert homology_through(C, q) == reference
        event(f"q={q}, d_top reduced to saturation: {calls.count(True) == 2}")
        assert singular_homology(X, q) == reference


@st.composite
def nonunit_complexes(draw):
    """A complex Z <- Z^k <- Z^(a+b) <- Z^c with d_1 = 0 and d_2 = [A | A M]
    for random A (k x a) and M (a x b) with entries in -2..2, so d_2 has
    more columns than d_1 and its pivots may be nonunit.  The columns of
    d_3 are random combinations of the cycles (M e_j, -e_j) of d_2."""
    entries = st.integers(-2, 2)
    k, a = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b = draw(st.integers(max(1, k - a + 1), 3))
    A = [[draw(entries) for _ in range(a)] for _ in range(k)]
    M = [[draw(entries) for _ in range(b)] for _ in range(a)]
    d2 = [row + [sum(row[i] * M[i][j] for i in range(a)) for j in range(b)] for row in A]
    cycles = [[M[i][j] for i in range(a)] + [-(j == l) for l in range(b)] for j in range(b)]
    combos = [[draw(entries) for _ in range(b)] for _ in range(draw(st.integers(0, 6)))]
    d3 = [[sum(w * z[i] for w, z in zip(combo, cycles)) for combo in combos]
          for i in range(a + b)]
    return ChainComplex([("v",), range(k), range(a + b), range(len(combos))],
                        [SparseIntMatrix.zeros(1, k), SparseIntMatrix.from_dense(d2),
                         SparseIntMatrix.from_dense(d3, ncols=len(combos))])


@settings(derandomize=True, deadline=None)
@given(nonunit_complexes())
def test_saturating_top_boundary_keeps_torsion(C):
    # the stop waits for unit pivots: at every top, built by the caller or
    # by the library, the groups are those of the full reductions
    reference = reference_homology(C)
    calls, recording = saturating_reductions()
    passes = 0
    with patch.object(chain, "_reduce", recording):
        for D in (C, ChainComplex._trusted(C.bases, C.boundaries)):
            for top in range(C.max_degree + 1):
                assert homology_through(D, top) == reference[:top + 1]
                assert homology(D, top) == reference[top]
                passes += 2
    event(f"d_top reduced to saturation: {calls.count(True) > passes}")
    event(f"torsion: {any(g.torsion for g in reference)}")


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
        assert helpers.chain_groups(X, C, q) == cubes
    for k in range(C.max_degree + 1):
        assert build_c1_complex(X, k).complex == ChainComplex(C.bases[:k + 1], C.boundaries[:k])


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES)
def test_c1_columns_are_cube_boundaries(X):
    C = build_c1_complex(X).complex
    for q in range(1, C.max_degree + 1):
        rows = helpers.chain_groups(X, C, q - 1)
        for Q, col in zip(helpers.chain_groups(X, C, q), C.boundary_matrix(q).columns):
            assert {rows[r]: v for r, v in col.items()} == cube_boundary(Q).coeffs


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES)
def test_alpha_points_are_the_vertices_of_each_c1_cube(X):
    # the library's one corner order of alpha, which certifies a top degree
    # and realizes induced maps, lists the vertices of each c1 cube as
    # helpers.alpha does, and beta takes its point indices back to the cube
    # with sign +1
    pts = X.sorted_points
    at = {p: a for a, p in enumerate(pts)}
    C = build_c1_complex(X).complex
    for q in range(C.max_degree + 1):
        for key in C.basis(q):
            i, ext = key
            corners = _alpha_points(pts[i], ext)
            assert corners == ElementaryCube(pts[i], ext).vertices()
            assert tuple(corners) == helpers.alpha(X, key)
            assert _beta_key(tuple(at[p] for p in corners), pts) == (1, key)


OFFSETS = st.one_of(st.integers(-60, -1), st.integers(-10**12 - 3, -10**12 + 3),
                    st.integers(10**12 - 3, 10**12 + 3))


@st.composite
def placed_images(draw):
    """Images in 1-4 dimensions made of two clusters, each a subset of a
    small box (empty or a single point too) moved by its own offset, negative
    or near +-10^12, so that the points may be spread far apart."""
    n = draw(st.integers(1, 4))
    box = list(product(*(range(k) for k in ((6,), (3, 3), (3, 2, 2), (2, 2, 2, 2))[n - 1])))
    pts = set()
    for size in (len(box), 3):
        offset = draw(st.lists(OFFSETS, min_size=n, max_size=n))
        cluster = draw(st.sets(st.sampled_from(box), max_size=size))
        pts |= {tuple(a + o for a, o in zip(p, offset)) for p in cluster}
    return DigitalImage(n, pts)


@settings(derandomize=True, deadline=None)
@given(placed_images())
@example(DigitalImage(3, []))
@example(DigitalImage(2, [(-10**12, 10**12)]))
def test_c1_cubes_of_placed_images_are_the_vertex_test_cubes(X):
    # the translates come from mixed-radix point codes, whose strides grow
    # with the spread of the points in each coordinate
    pts = X.sorted_points
    tr = _levels(X, 0)[0]
    for d in range(X.ambient_dim):
        up = [p[:d] + (p[d] + 1,) + p[d + 1:] for p in pts]
        assert tr[d] == [pts.index(u) if u in X else None for u in up]
    C = build_c1_complex(X).complex
    for q in range(X.ambient_dim + 2):
        cubes = helpers.elementary_cubes_by_vertex_test(X, q)
        assert enumerate_elementary_cubes(X, q) == cubes
        assert (helpers.chain_groups(X, C, q) if q <= C.max_degree else []) == cubes


@settings(derandomize=True, deadline=None)
@given(C1_IMAGES, st.data())
def test_relative_c1_complex_is_the_quotient_by_cubes_in_A(X, data):
    A = data.draw(st.sets(st.sampled_from(X.sorted_points)))
    C = build_c1_complex(X).complex
    sub = {q: [key for key in C.basis(q)
               if all(v in A for v in helpers.decode(X, q, key).vertices())]
           for q in range(C.max_degree + 1)}
    assert relative_c1_complex(X, A) == quotient_complex(C, sub)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_is_homotopy_is_its_definition(data):
    # a random table H: X x {0..k} -> Y, and f and g each either the end of
    # H or a random table, so that each condition holds on some draws and
    # fails on others
    X = data.draw(st.one_of(images((4,)), images((2, 2)), images((2, 3))))
    Y = data.draw(st.one_of(images((3,)), images((2, 2)), images((3, 3), max_size=4)))
    k = data.draw(st.integers(0, 2))
    ys = st.sampled_from(Y.sorted_points)
    H = HomotopyTable(X, Y, k, {(x, t): data.draw(ys) for x in X for t in range(k + 1)})
    ends = [PointMap(X, Y, data.draw(st.one_of(
        st.just({x: H(x, t) for x in X}), st.fixed_dictionaries({x: ys for x in X}))))
        for t in (0, k)]
    expected = helpers.homotopy_reference(H, *ends)
    event(f"homotopy: {expected}")
    assert is_homotopy(H, *ends) == expected


@settings(derandomize=True, deadline=None)
@given(st.one_of(images((3, 3)), images((4, 4)), images((2, 2, 2))))
def test_beta_on_keys_is_beta_on_cubes(X):
    # beta of a singular key is public beta of its cube, with the image cube
    # written as the key (index of its minimal corner, extent); the sign is
    # also the determinant of the edge vectors in the extent coordinates
    pts = X.sorted_points
    at = {p: i for i, p in enumerate(pts)}
    for q in range(3):
        for key in helpers.stream(X, q, DEFAULT_BUDGET)[0]:
            sigma = helpers.decode(X, q, key)
            b = beta(sigma)
            if b is None:
                assert _beta_key(key, pts) is None
                continue
            sign, Q = b
            assert _beta_key(key, pts) == (sign, (at[Q.min_corner], Q.extent))
            base = sigma.corners[0]
            edges = [sigma.corners[1 << j] for j in range(q)]
            assert helpers.bareiss_det([[e[k - 1] - base[k - 1] for e in edges]
                                        for k in Q.extent]) == sign


def check_corner_search(X, q):
    # the same cubes in the same lex order as a filter of every corner table,
    # and the round-robin listing is a permutation of them
    brute = helpers.brute_singular_cubes(X, q)
    assert enumerate_singular_cubes(X, q) == brute
    listed = [helpers.decode(X, q, key) for key in helpers.stream(X, q, DEFAULT_BUDGET)[0]]
    assert sorted(listed, key=lambda s: s.corners) == brute


# random images in 1D, 2D (3x3) and 3D (2x2x2) boxes
SEARCH_IMAGES = st.one_of(images((5,)), images((3, 3)), images((2, 2, 2)))


@settings(derandomize=True, deadline=None)
@given(SEARCH_IMAGES)
def test_corner_search_is_the_brute_force_filter(X):
    for q in range(3):
        check_corner_search(X, q)


# random images of at most 3 points, whose 3-tables a brute-force filter
# can list
DEGREE_3_IMAGES = st.one_of(images((5,), 3), images((3, 3), 3), images((2, 2, 2), 3))


@settings(derandomize=True, deadline=None)
@given(DEGREE_3_IMAGES)
def test_corner_search_in_degree_3(X):
    # the fronts are tables of level 2, whose partners come from memoized
    # chunks of the partners of their halves
    check_corner_search(X, 3)


@settings(derandomize=True, deadline=None)
@given(st.one_of(SEARCH_IMAGES.map(lambda X: (X, 2)), DEGREE_3_IMAGES.map(lambda X: (X, 3))))
def test_ladder_levels_are_the_continuous_tables(case):
    # every level k lists every continuous k-table, degenerate ones too, in
    # lex order, and bit i-1 of its mask is set iff the table ignores t_i
    X, top = case
    pts = X.sorted_points
    ladder = _Ladder(X)
    for k in range(top + 1):
        keys, masks = ladder.level(k, DEFAULT_BUDGET)[:2]
        assert [tuple(pts[a] for a in key) for key in keys] == helpers.continuous_tables(X, k)
        for key, mask in zip(keys, masks):
            for b in range(k):
                ignores = all(key[c] == key[c | 1 << b] for c in range(1 << k) if not c >> b & 1)
                assert bool(mask >> b & 1) == ignores


@settings(derandomize=True, deadline=None)
@given(st.one_of(images((5,), 4), images((3, 3), 4), images((2, 2, 2), 4)),
       st.permutations(range(4)))
def test_a_shared_ladder_keeps_the_listing(X, order):
    # degrees listed from one ladder in any order, and their cofaces, are
    # those listed from a fresh ladder each
    ladder = _Ladder(X)
    for q in order:
        keys, cofaces = helpers.stream(X, q, DEFAULT_BUDGET, ladder)
        assert list(keys) == list(helpers.stream(X, q, DEFAULT_BUDGET)[0])
        if cofaces is not None:
            faces = list(helpers.stream(X, q - 1, DEFAULT_BUDGET)[0])[::3]
            assert list(cofaces(faces)) == list(helpers.stream(X, q, DEFAULT_BUDGET)[1](faces))


@settings(derandomize=True, deadline=None)
@given(SEARCH_IMAGES)
def test_materialized_bases_are_the_round_robin_listings(X):
    # each degree of the complex comes from its ladder level, the stream
    # from the level below: the same keys in the same order, and the same
    # refusal when a degree is over budget
    budget = 5000
    try:
        bases, top = build_singular_complex(X, 2, budget).bases, 3
    except BudgetExceeded as e:
        event(f"degree {e.degree} over budget")
        with pytest.raises(BudgetExceeded) as ei:
            list(helpers.stream(X, e.degree, budget)[0])
        assert (ei.value.degree, ei.value.count) == (e.degree, budget)
        bases, top = build_singular_complex(X, e.degree - 2, budget).bases, e.degree - 1
    for q in range(top + 1):
        assert bases[q] == tuple(helpers.stream(X, q, budget)[0])


def boundary_through(X, q, key, basis):
    """boundary() of the q-cube of key, a column over the keys basis of degree q-1."""
    at = {k: r for r, k in enumerate(basis)}
    points = {p: a for a, p in enumerate(X.sorted_points)}
    return {at[tuple(points[p] for p in s.corners)]: v
            for s, v in boundary(helpers.decode(X, q, key)).items()}


@settings(derandomize=True, deadline=None)
@given(st.one_of(images((5,), 5), images((3, 3), 5), images((2, 2, 2), 4)))
def test_index_columns_are_the_boundaries_of_the_cubes(X):
    # the columns of degrees 1 and 2 (the top one built as it is read), the
    # streamed degree 3 and the cofaces of some of its rows come from table
    # indices; boundary() finds the faces of each cube from its corners
    ladder = _Ladder(X)
    keys, mats, err = _materialize(2, DEFAULT_BUDGET, ladder)
    assert err is None
    for q in (1, 2):
        for j, key in enumerate(keys[q]):
            assert mats[q - 1].columns[j] == boundary_through(X, q, key, keys[q - 1])
    if not ladder.edges:
        return
    tables, level = ladder.cubes(2, DEFAULT_BUDGET), ladder.levels[2][0]
    column = ladder.column(2, tables)
    cubes = ladder.rounds(2, range(len(level)))
    fronts = list(tables[::7])
    for x, y in chain_from(islice(cubes, 300), ladder.cofaces(2, fronts)):
        assert column(x, y) == boundary_through(X, 3, level[x] + level[y], keys[2])


@settings(derandomize=True, deadline=None)
@given(st.one_of(images((5,), 5), images((3, 3), 5), images((2, 2, 2), 4)), st.integers(0, 2),
       st.randoms(use_true_random=False))
def test_cofaces_are_listed_in_the_order_of_their_moves(X, k, rnd):
    # the cofaces moved half by half are those of the full keys, in order
    ladder = _Ladder(X)
    n = len(ladder.level(k, DEFAULT_BUDGET)[0])
    fronts = sorted(rnd.sample(range(n), rnd.randint(0, min(n, 12))))
    assert list(ladder.cofaces(k, fronts)) == helpers.cofaces_oracle(ladder, k, fronts)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.integers(0, 2651), max_size=4, unique=True).map(sorted))
def test_cofaces_of_square_3_tables_are_listed_in_the_order_of_their_moves(fronts):
    ladder = _Ladder(helpers.square())
    assert len(ladder.level(3, DEFAULT_BUDGET)[0]) == 2652
    assert list(ladder.cofaces(3, fronts)) == helpers.cofaces_oracle(ladder, 3, fronts)


def box_without(box, fewest, most):
    """The cells of a box with fewest to most of them taken out."""
    cells = list(product(*map(range, box)))
    return st.sets(st.sampled_from(cells), min_size=fewest, max_size=most).map(
        lambda out: DigitalImage(len(box), [p for p in cells if p not in out]))


# 1D-3D images, most with edges and squares, small enough that a full scan
# of d_3 stays cheap: at most 5,590 3-cubes
SMALL_IMAGES = st.one_of(box_without((5,), 0, 3), box_without((3, 3), 3, 5),
                         box_without((2, 2, 2), 2, 4))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(SMALL_IMAGES, st.integers(0, 2), st.randoms(use_true_random=False))
def test_the_columns_listed_for_rows_include_every_column_meeting_them(X, k, rnd):
    # the lazy top boundary d_{k+1} lists, from the cofaces of the rows R,
    # every column with an entry in R that a full scan finds, building none
    C = build_singular_complex(X, k)
    d = C.boundaries[k].columns
    if not d:  # no (k+1)-cube: a plain empty list
        return
    n = len(C.basis(k))
    R = set(rnd.sample(range(n), rnd.randint(0, min(n, 12))))
    listed = d.meeting(R)
    assert d.cols.count(None) == len(d)
    assert len(set(listed)) == len(listed)
    assert {j for j, col in enumerate(d) if not R.isdisjoint(col)} <= set(listed)
    event(f"k={k}, listed {'all' if len(listed) == len(d) else 'some'} columns")


def beta_mutant(bm, q, j, col):
    """bm.matrices with column j of beta_q replaced by col."""
    M = bm.matrices[q]
    cols = list(M.columns)
    cols[j] = col
    return bm.matrices[:q] + (SparseIntMatrix(M.nrows, M.ncols, cols),) + bm.matrices[q + 1:]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(SMALL_IMAGES, st.integers(0, 2))
@example(helpers.square(), 1)
@example(helpers.square(), 2)
@example(helpers.block(), 2)
def test_the_chain_map_check_through_cofaces_keeps_its_verdicts(X, k):
    # beta through degree k+1, its top boundary lazy, is a chain map by the
    # columns that verify_chain_map reads, and by every product.  A negated
    # live column of beta_2, or a nonzero column of beta_3 on a 3-cube that
    # beta sends to zero, makes it fail either way
    bm = beta_matrices(X, k)
    CS, CE = bm.singular, bm.elementary.complex
    assert verify_chain_map(bm.matrices, CS, CE)
    mutants = []
    if k >= 1 and (live := [j for j, col in enumerate(bm.matrices[2].columns) if col]):
        j = live[len(live) // 2]
        mutants.append(beta_mutant(bm, 2, j, {i: -v for i, v in bm.matrices[2].columns[j].items()}))
    if k == 2 and bm.matrices[3].nrows:  # a c1 3-cube: beta_3 has rows
        j = next(j for j, col in enumerate(bm.matrices[3].columns) if not col)
        mutants.append(beta_mutant(bm, 3, j, {0: 1}))
    for phi in mutants:
        assert not verify_chain_map(phi, CS, CE)
    event(f"k={k}, {len(mutants)} mutants")
    for phi in [bm.matrices, *mutants]:  # reads every column
        assert helpers.chain_map_by_every_product(phi, CS, CE) == (phi is bm.matrices)


@st.composite
def corner_tables(draw):
    """A raw SingularCube, q <= 3, continuous or not, its corners all of one
    length: half the time the vertices of an elementary cube in some order,
    one of them perhaps moved."""
    q, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-1, 2)] * n)
    if q <= n and draw(st.booleans()):
        ext = sorted(draw(st.sets(st.integers(1, n), min_size=q, max_size=q)))
        corners = draw(st.permutations(ElementaryCube(draw(point), tuple(ext)).vertices()))
        if draw(st.booleans()):
            corners[draw(st.integers(0, len(corners) - 1))] = draw(point)
    else:
        corners = draw(st.lists(point, min_size=1 << q, max_size=1 << q))
    return SingularCube(q, tuple(corners))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(corner_tables())
def test_an_embedding_has_the_vertices_of_an_elementary_cube(sigma):
    # brute force: the 2^q corners are the vertices of an elementary q-cube,
    # whose least corner is theirs
    corners = sigma.corners
    lo = tuple(map(min, zip(*corners)))
    vertex_sets = (set(ElementaryCube(lo, ext).vertices())
                   for ext in combinations(range(1, len(lo) + 1), sigma.q))
    assert is_embedding(sigma) == (set(corners) in vertex_sets)


@st.composite
def cubes_and_operators(draw):
    """A q-cube, q <= 4, with distinct corners, and an operator tag on it."""
    q = draw(st.integers(1, 4))
    corners = draw(st.permutations([(c,) for c in range(1 << q)]))
    kind = draw(st.sampled_from("FCSR"))
    arity = 1 if kind == "F" else 2
    idx = draw(st.lists(st.integers(1, q), min_size=arity, max_size=arity))
    return SingularCube(q, tuple(corners)), (kind, *idx)


@settings(derandomize=True, deadline=None)
@given(cubes_and_operators())
def test_operators_precompose_with_their_coordinate_maps(case):
    sigma, op = case
    assert apply_operator(sigma, op) == helpers.precompose_oracle(sigma, op)


# integer matrices of up to 5x5, stored as lists of dense columns
MATRICES = st.integers(1, 5).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-3, 3), min_size=rows, max_size=rows), min_size=1, max_size=5))


@settings(derandomize=True, deadline=None)
@given(MATRICES)
def test_unit_pivots_give_unit_invariant_factors(cols):
    red = _ColumnReducer()
    for col in cols:
        red.add({r: v for r, v in enumerate(col) if v})
    factors = chain._pivot_invariant_factors(red)
    snf = smith_normal_form(
        Matrix(len(cols[0]), len(cols), lambda i, j: cols[j][i]), domain=ZZ)
    diagonal = [abs(snf[i, i]) for i in range(min(snf.shape))]
    assert sorted(factors) == sorted(d for d in diagonal if d)
    assert red.rank == len(factors)
    if red.nonunit == 0:
        assert all(f == 1 for f in factors)


# nonunit-heavy matrices of up to 8x8, as lists of dense columns: most
# entries are multiples of 2, 3 or 6 and a few are -1 or 1, so that two or
# more pivots are nonunit and unit rows run through them
NONUNIT_MATRICES = st.integers(1, 8).flatmap(lambda rows: st.lists(
    st.lists(st.one_of(st.sampled_from([0, 0, -1, 1]),
                       st.sampled_from([2, 3, 6]).flatmap(
                           lambda m: st.integers(-3, 3).map(lambda c: m * c))),
             min_size=rows, max_size=rows), min_size=1, max_size=8))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(NONUNIT_MATRICES)
def test_invariant_factors_match_sympy_on_nonunit_matrices(cols):
    rank, factors = rank_and_invariant_factors(
        [{r: v for r, v in enumerate(col) if v} for col in cols], len(cols[0]))
    snf = smith_normal_form(
        Matrix(len(cols[0]), len(cols), lambda i, j: cols[j][i]), domain=ZZ)
    diagonal = sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i])
    assert (rank, factors) == (len(diagonal), tuple(diagonal))


def is_incidence(col):
    """True for a column ±e_a or ±(e_a - e_b), or 0."""
    values = sorted(col.values())
    return values in ([], [-1], [1], [-1, 1])


@st.composite
def incidence_matrices(draw):
    """(nrows, columns, other) on 1 to 8 rows: up to 12 signed incidence
    columns, edges ±(e_a - e_b) of either sign, single entries ±e_a (edges
    to the ground) and zero columns, some repeated with either sign, their
    rows shuffled; other is None or a column that is not one, inserted
    somewhere."""
    nrows = draw(st.integers(1, 8))
    row, sign = st.integers(0, nrows - 1), st.sampled_from([-1, 1])
    edge = st.tuples(row, row, sign).filter(lambda e: e[0] != e[1]).map(
        lambda e: {e[0]: e[2], e[1]: -e[2]})
    column = st.one_of(st.just({}), st.tuples(row, sign).map(lambda e: {e[0]: e[1]}),
                       *([edge] * (nrows > 1)))
    cols = draw(st.lists(column, max_size=12))
    for _ in range(draw(st.integers(0, 3)) if cols else 0):
        m = draw(sign)
        cols.append({r: m * v for r, v in draw(st.sampled_from(cols)).items()})
    perm = draw(st.permutations(range(nrows)))
    cols = [{perm[r]: v for r, v in col.items()} for col in cols]
    other = draw(st.none() | st.dictionaries(row, st.integers(-3, 3).filter(bool), min_size=1,
                                             max_size=3).filter(lambda c: not is_incidence(c)))
    if other is not None:
        cols.insert(draw(st.integers(0, len(cols))), other)
    return nrows, cols, other


def certified(nrows, cols):
    """(rank, invariant factors) of the columns by the certified dense SNF."""
    res = chain.smith_normal_form([[c.get(i, 0) for c in cols] for i in range(nrows)],
                                  ncols=len(cols))
    return res.rank, res.invariant_factors


@settings(derandomize=True, deadline=None, max_examples=300)
@given(incidence_matrices())
def test_spanning_forest_ranks_incidence_matrices(case):
    nrows, cols, other = case
    expected = certified(nrows, cols)
    assert rank_and_invariant_factors(iter(cols), nrows) == expected
    red = chain._reduce(cols)
    event(f"spanning forest: {other is None}")
    assert type(red) is (chain._SpanningForest if other is None else _ColumnReducer)
    if other is None:
        # unit pivots at their largest rows that span the columns' lattice:
        # adding them keeps the rank and the factors 1, and they alone have both
        assert all(p[r] == 1 and max(p) == r for r, p in red.pivots.items())
        assert len(red.pivots) == red.rank
        pivots = list(red.pivots.values())
        assert certified(nrows, cols + pivots) == certified(nrows, pivots) == expected
    # the pivot rows and entries of the column reducer alone, so clearing
    # skips the same columns whichever of the two reduced
    plain = _ColumnReducer()
    for col in cols:
        plain.add(col)
    assert {r: p[r] for r, p in red.pivots.items()} == {r: p[r] for r, p in plain.pivots.items()}


# (nrows, columns) whose row keys are ints in range, ints out of range,
# floats or bools, and whose entries are ints (zeros too), floats or bools
ENTRY_COLUMNS = st.integers(1, 4).flatmap(lambda nrows: st.tuples(st.just(nrows), st.lists(
    st.dictionaries(st.one_of(st.integers(0, nrows - 1), st.integers(-2, nrows + 2),
                              st.floats(0, nrows), st.booleans()),
                    st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.booleans()),
                    max_size=3),
    max_size=4)))


def refuses(call):
    try:
        call()
    except ValueError:
        return True
    return False


@settings(derandomize=True, deadline=None)
@given(ENTRY_COLUMNS)
def test_reducer_and_matrix_refuse_the_same_entries(case):
    # the reducer takes explicit int zeros, which a matrix refuses; with
    # each made a 1 (dropping it would drop a bad row too), both must refuse
    # exactly the columns with a bad row or entry
    nrows, cols = case
    nonzero = [{r: 1 if type(v) is int and v == 0 else v for r, v in c.items()} for c in cols]
    refused = refuses(lambda: rank_and_invariant_factors(iter(cols), nrows))
    event(f"refused: {refused}")
    assert refused == refuses(lambda: SparseIntMatrix(nrows, len(cols), nonzero))


@st.composite
def redundant_streams(draw):
    """(nrows, columns) with 4 to 9 rows: one or two blocks, each a path
    (columns with a 1 at one row and -1 or 1 at the next row used) and one
    to three other new columns, then 16 to 24 combinations, each telescoping
    along a run of at least three path columns, plus at most one column so
    far.  Most have few entries but take a pivot step per column of the run,
    and the unit pivots of the path, often beside nonunit pivots, have
    entries at each other's rows for an interreduction to clear."""
    nrows = draw(st.integers(4, 9))
    entries = st.dictionaries(st.integers(0, nrows - 1),
                              st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    new, stream = [], []
    for _ in range(draw(st.integers(1, 2))):
        rows = sorted(draw(st.sets(st.integers(0, nrows - 1), min_size=4)))
        path = [{r: 1, s: draw(st.sampled_from([-1, 1]))} for r, s in zip(rows, rows[1:])]
        fresh = path + draw(st.lists(entries, min_size=1, max_size=3))
        new += fresh
        stream += fresh
        for _ in range(draw(st.integers(16, 24))):
            i = draw(st.integers(0, len(path) - 3))
            m = draw(st.sampled_from([-2, -1, 1, 2]))
            combo = {}
            for col in path[i:draw(st.integers(i + 3, len(path)))]:
                for r, v in col.items():
                    combo[r] = combo.get(r, 0) + m * v
                m = -m * col[max(col)]  # cancels this column's last row
            m = draw(st.integers(-1, 1))
            for r, v in draw(st.sampled_from(new)).items():
                combo[r] = combo.get(r, 0) + m * v
            stream.append({r: v for r, v in combo.items() if v})
    return nrows, stream


@settings(derandomize=True, deadline=None)
@given(redundant_streams())
def test_interreduction_keeps_the_reduction(case):
    nrows, stream = case
    red = _ColumnReducer()
    for col in stream:
        red.add(col)
    snf = smith_normal_form(
        Matrix(nrows, len(stream), lambda i, j: stream[j].get(i, 0)), domain=ZZ)
    diagonal = [abs(snf[i, i]) for i in range(min(snf.shape))]
    assert red.rank == sum(1 for d in diagonal if d)
    entries = {r: p[r] for r, p in red.pivots.items()}
    unit = {r for r, v in entries.items() if v == 1}
    tangled = any(k in unit for r in unit for k in red.pivots[r] if k != r)
    event(f"unit pivots at other unit rows: {tangled}")
    interreduced = helpers.interreduce(red.pivots)
    assert {r: p[r] for r, p in interreduced.items()} == entries
    for r in unit:
        assert not any(k in unit for k in interreduced[r] if k != r)
    # the same span: each column reduces to zero against the interreduced
    # pivots by subtraction alone, with no mix that would change an entry
    oracle = _ColumnReducer()
    oracle.pivots = {r: dict(p) for r, p in interreduced.items()}
    assert not any(oracle.add(col) for col in stream)
    assert {r: p[r] for r, p in oracle.pivots.items()} == entries
    # the nonunit pivots cleared by back-substitution against the pivots as
    # they stand are those cleared with the interreduced ones: the block
    # whose transpose is reduced has the same rows
    cleared = [_apply(interreduced, {r: 1, **{i: -v for i, v in n.items() if i in unit}})
               for r, n in interreduced.items() if r not in unit]
    rows = {}
    for j, col in enumerate(cleared):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    reduced = []
    reduce = chain._reduce

    def recording(columns, saturation=None, d=None, cofaces=None):
        columns = [dict(c) for c in columns]
        reduced.append(sorted(sorted(c.items()) for c in columns))
        return reduce(columns, saturation, d, cofaces)

    with patch.object(chain, "_reduce", recording):
        factors = chain._pivot_invariant_factors(red)
    assert reduced == ([sorted(sorted(c.items()) for c in rows.values())] if cleared else [])
    assert sorted(factors) == sorted(d for d in diagonal if d)


def plus(a, b):
    return {r: a.get(r, 0) + b.get(r, 0) for r in a.keys() | b.keys() if a.get(r, 0) + b.get(r, 0)}


def stream_of(draw, X, top):
    """(C, saturation, stream): the singular complex C of X through degree
    top + 1, saturation = dim ker d_top, and a stream of boundaries of
    degree top + 1.

    The boundary columns are shuffled, and a prefix of them, up to a drawn
    rank below saturation, is reduced to pivots p_1, ..., p_m, lowest row
    first.  The stream starts with p_1 and each p_i + p_{i-1}, which span
    what the prefix spans.  Then come 2m + 2 multiples of p_i that have
    fewer than i entries: each telescopes down through the sums in i pivot
    steps, so the reducer may choose witness rows.  The
    rest of the boundary columns then test them.
    """
    C = build_singular_complex(X, top)
    d, n = C.boundary_matrix(top).columns, len(C.basis(top))
    saturation = n - rank_and_invariant_factors(d, len(C.basis(top - 1)))[0]
    rng = draw(st.randoms(use_true_random=False))
    cols = list(C.boundary_matrix(top + 1).columns)
    rng.shuffle(cols)
    goal, k = rng.randint(0, max(saturation - 1, 0)), 0
    prefix = _ColumnReducer()
    while prefix.rank < goal and k < len(cols):
        prefix.add(cols[k])
        k += 1
    p = [prefix.pivots[r] for r in sorted(prefix.pivots)]
    sums = p[:1] + [plus(a, b) for a, b in zip(p[1:], p)]
    short = [q for i, q in enumerate(p, 1) if len(q) < i]
    slow = [{r: m * v for r, v in rng.choice(short).items()}
            for m in rng.choices([-2, -1, 1, 2], k=2 * len(p) + 2 if short else 0)]
    return C, saturation, sums + slow + cols[k:]


@st.composite
def boundary_streams(draw):
    """(d, n, saturation, stream) of stream_of for a random image of at
    least 4 points, top 0 or 1: d the columns of d_top, n = dim C_top."""
    X = draw(st.one_of(images((3, 3), min_size=4), images((2, 2, 2), min_size=4)))
    top = draw(st.integers(0, 1))
    C, saturation, stream = stream_of(draw, X, top)
    return C.boundary_matrix(top).columns, len(C.basis(top)), saturation, stream


@st.composite
def singular_streams(draw):
    """(X, top, C, saturation, stream): stream_of for a random image of 4 to
    6 points, top 0, 1 or 2."""
    X = draw(st.one_of(images((3, 3), 6, 4), images((2, 2, 2), 6, 4)))
    top = draw(st.integers(0, 2))
    return (X, top) + stream_of(draw, X, top)


@settings(derandomize=True, deadline=None)
@given(boundary_streams())
def test_witness_rows_keep_the_reduction(case):
    # the reduction with d_top must match the one without it; each time
    # witness rows J are chosen, the columns of d_top at the other free rows
    # must be independent, and until the next pivot each witness test must
    # say what reducing the column against the pivots says
    d, n, saturation, stream = case
    chosen = failed = 0
    oracle = None
    choose, spans = _ColumnReducer._choose_witness, _ColumnReducer.spans

    def choosing(red, d, saturation):
        nonlocal chosen, oracle
        choose(red, d, saturation)
        chosen += 1
        rest = [k for k in range(n) if k not in red.pivots and k not in red.witness]
        rows = max((max(d[k]) + 1 for k in rest if d[k]), default=0)
        assert helpers.rank_oracle([[d[k].get(i, 0) for i in range(rows)] for k in rest]) == len(rest)
        oracle = _ColumnReducer()
        oracle.pivots = {r: dict(p) for r, p in red.pivots.items()}

    def testing(red, col):
        nonlocal failed
        found = spans(red, col)
        if red.witness is not None:
            assert found == (not oracle.add(col))
            failed += not found
        return found

    with patch.object(_ColumnReducer, "_choose_witness", choosing), \
            patch.object(_ColumnReducer, "spans", testing):
        red = chain._reduce(stream, saturation, d)
    plain = chain._reduce(stream, saturation)
    event(f"witness rows chosen: {min(chosen, 1)}")
    event(f"columns failing the witness test: {min(failed, 1)}")
    assert red.rank == plain.rank
    assert {r: p[r] for r, p in red.pivots.items()} == {r: p[r] for r, p in plain.pivots.items()}
    assert chain._pivot_invariant_factors(red) == chain._pivot_invariant_factors(plain)


@settings(derandomize=True, deadline=None)
@given(boundary_streams(), st.data())
def test_solved_witness_rows_are_those_of_interreduced_pivots(case, data):
    # the witness rows solved on the pivots of a prefix of the stream as
    # they stand, which the solve leaves as they are, must be those read
    # off the same pivots interreduced: there the residual at j is c[j] -
    # sum of c[r] p_r[j]
    d, n, saturation, stream = case
    red = _ColumnReducer()
    for col in stream[:data.draw(st.integers(0, len(stream)))]:
        red.add(col)
    event(f"nonunit pivots: {min(red.nonunit, 1)}")
    if red.nonunit:
        return
    pivots = {r: dict(p) for r, p in red.pivots.items()}
    red._choose_witness(d, saturation)
    assert red.pivots == pivots
    solved, interreduced = red.witness, helpers.interreduce(pivots)
    event(f"interreduction changed the pivots: {interreduced != pivots}")
    event(f"witness rows: {min(len(solved), 2)}")
    assert solved == {j: {j: 1, **{r: -p[j] for r, p in interreduced.items() if j in p}}
                      for j in solved}


@settings(derandomize=True, deadline=None)
@given(singular_streams())
def test_coface_finish_keeps_the_reduction(case):
    # given the cofaces of the singular search, the reduction leaves the
    # stream unread once witness rows are chosen and reads the boundaries
    # of the cubes with a face at a row R of the residuals instead.  Every
    # boundary column without an entry in R must then lie in the span, and
    # the result must match the reduction of the whole stream
    X, top, C, saturation, stream = case
    d, rows = C.boundary_matrix(top).columns, C.basis(top)
    reducers, fired = [], []
    choose = _ColumnReducer._choose_witness

    def choosing(red, d, saturation):
        choose(red, d, saturation)
        reducers.append(red)

    def cofaces(R):
        fired.append(R)
        oracle = _ColumnReducer()
        oracle.pivots = {r: dict(p) for r, p in reducers[-1].pivots.items()}
        for col in C.boundary_matrix(top + 1).columns:
            assert not R.isdisjoint(col) or not oracle.add(col)
        at = {k: r for r, k in enumerate(rows)}
        return (_boundary_column(key, at) for key in
                helpers.stream(X, top + 1, DEFAULT_BUDGET)[1]([rows[r] for r in R]))

    with patch.object(_ColumnReducer, "_choose_witness", choosing):
        red = chain._reduce(stream, saturation, d, cofaces)
    full = chain._reduce(stream, saturation, d)
    event(f"finish fired: {bool(fired)}")
    assert red.rank == full.rank
    assert {r: p[r] for r, p in red.pivots.items()} == {r: p[r] for r, p in full.pivots.items()}
    assert chain._pivot_invariant_factors(red) == chain._pivot_invariant_factors(full)


# random images of 1 to 12 points anywhere in [-50, 50]^n, n = 1..4
FILE_IMAGES = st.integers(1, 4).flatmap(lambda n: st.sets(
    st.tuples(*[st.integers(-50, 50)] * n), min_size=1, max_size=12).map(
    lambda pts: DigitalImage(n, pts)))


def write_file(d, text):
    path = os.path.join(d, "image")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def text_file(rows):
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


@settings(derandomize=True, deadline=None)
@given(FILE_IMAGES, st.data())
def test_images_parse_back_from_their_files(X, data):
    rows = data.draw(st.permutations(X.sorted_points))
    doc = {"ambient_dim": X.ambient_dim, "points": [list(p) for p in rows]}
    with tempfile.TemporaryDirectory() as d:
        assert load_image(write_file(d, json.dumps(doc))) == X
        assert load_image(write_file(d, text_file(rows))) == X


@st.composite
def malformed_image_files(draw):
    """The text of an image file that is malformed in one way: a bool or a
    float coordinate, a "points" that is not a list, a duplicate point, text
    lines of different lengths, or an "ambient_dim" that is not an int."""
    X = draw(FILE_IMAGES)
    rows = [list(p) for p in draw(st.permutations(X.sorted_points))]
    doc = {"ambient_dim": X.ambient_dim, "points": rows}
    row = draw(st.sampled_from(rows))
    k = draw(st.integers(0, X.ambient_dim - 1))
    kind = draw(st.sampled_from(
        ["bool", "float", "points", "duplicate", "ragged", "ambient_dim"]))
    as_text = False
    if kind == "bool":
        row[k] = draw(st.booleans())
    elif kind == "float":
        row[k] += draw(st.sampled_from([0.0, 0.5, -0.25]))
        as_text = draw(st.booleans())
    elif kind == "points":
        doc["points"] = draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=8),
            st.dictionaries(st.text(max_size=3), st.just(row), max_size=2)))
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
        as_text = draw(st.booleans())
    elif kind == "ragged":
        n = X.ambient_dim + draw(st.sampled_from([-1, 1] if X.ambient_dim > 1 else [1]))
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
        as_text = True
    else:
        doc["ambient_dim"] = draw(st.one_of(
            st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=3), st.just([X.ambient_dim])))
    return text_file(rows) if as_text else json.dumps(doc)


@settings(derandomize=True, deadline=None)
@given(malformed_image_files(), st.sampled_from(["homology", "singular", "compare", "classify"]))
def test_malformed_image_files_exit_2(text, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, write_file(d, text)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
