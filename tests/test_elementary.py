import random
import time

import pytest

from dighom import (
    Chain,
    DigitalImage,
    ElementaryCube,
    EmptyImage,
    FGAbelianGroup,
    NoSuchFace,
    NotContinuous,
    PointMap,
    PointNotInImage,
    SingularCube,
    SparseIntMatrix,
    beta,
    build_c1_complex,
    c1_faces,
    compose,
    constant_map,
    cube_boundary,
    dimension,
    enumerate_elementary_cubes,
    homology,
    homology_through,
    identity_map,
    induced_map,
    make_cube,
    orientation,
    random_continuous_map,
    relative_c1_complex,
    verify_chain_map,
)

import helpers


# --- ElementaryCube -----------------------------------------------------------

def test_cube_basics():
    Q = ElementaryCube((0, 2), (1,))
    assert Q.dimension == 1
    assert Q.ambient_dim == 2
    assert Q.vertices() == [(0, 2), (1, 2)]
    assert str(Q) == "[0,1]x[2]"
    assert str(ElementaryCube((3,), ())) == "[3]"
    assert str(ElementaryCube((0, 0), (1, 2))) == "[0,1]x[0,1]"


def test_cube_validation():
    with pytest.raises(ValueError):
        ElementaryCube((), ())
    with pytest.raises(ValueError):
        ElementaryCube((0, 0), (2, 1))  # not increasing
    with pytest.raises(ValueError):
        ElementaryCube((0, 0), (1, 1))  # repeated
    with pytest.raises(ValueError):
        ElementaryCube((0, 0), (3,))  # out of range
    with pytest.raises(ValueError):
        ElementaryCube((0, 0), (0,))
    with pytest.raises(ValueError):
        ElementaryCube((0.5,), ())


def test_vertices_corner_order():
    Q = ElementaryCube((0, 0), (1, 2))
    # bit 0 bumps coordinate 1, bit 1 bumps coordinate 2
    assert Q.vertices() == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_from_vertices_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        q = rng.randint(0, n)
        mc = tuple(rng.randint(-3, 3) for _ in range(n))
        ext = tuple(sorted(rng.sample(range(1, n + 1), q)))
        Q = ElementaryCube(mc, ext)
        assert ElementaryCube.from_vertices(Q.vertices()) == Q
        assert ElementaryCube.from_vertices(reversed(Q.vertices())) == Q


def test_from_vertices_rejects_non_boxes():
    with pytest.raises(ValueError):
        ElementaryCube.from_vertices([])
    with pytest.raises(ValueError):
        ElementaryCube.from_vertices([(0,), (2,)])  # spread 2
    with pytest.raises(ValueError):
        ElementaryCube.from_vertices([(0, 0), (1, 1)])  # missing vertices
    with pytest.raises(ValueError):
        ElementaryCube.from_vertices([(0,), (1,), (2,), (3,)])
    with pytest.raises(ValueError):
        ElementaryCube.from_vertices([(0,), (1, 0)])


def test_cubes_are_ordered_and_hashable():
    a = ElementaryCube((0, 0), (1,))
    b = ElementaryCube((0, 0), (2,))
    assert a < b
    assert len({a, b, ElementaryCube((0, 0), (1,))}) == 2


# --- enumeration ----------------------------------------------------------------

def test_enumerate_unit_square():
    X = helpers.square()
    assert len(enumerate_elementary_cubes(X, 0)) == 4
    edges = enumerate_elementary_cubes(X, 1)
    assert len(edges) == 4
    assert enumerate_elementary_cubes(X, 2) == [ElementaryCube((0, 0), (1, 2))]
    assert enumerate_elementary_cubes(X, 3) == []
    assert enumerate_elementary_cubes(X, -1) == []


def induced_identity(X, q):
    return induced_map(identity_map(X), q)


@pytest.mark.parametrize("call, q", [
    *[pytest.param(enumerate_elementary_cubes, q, id=str(q)) for q in (1.5, True, "1")],
    *[pytest.param(induced_identity, q, id=f"induced_map-{q}") for q in (1.5, True, "1")],
])
def test_enumerate_refuses_a_degree_that_is_not_an_int(call, q):
    # 1.5 ended in a TypeError from a list index, and True was taken as 1
    with pytest.raises(ValueError, match="must be an int"):
        call(helpers.ring(), q)


def test_enumerate_ring_has_no_squares():
    X = helpers.ring()
    assert len(enumerate_elementary_cubes(X, 1)) == 8
    assert enumerate_elementary_cubes(X, 2) == []


def test_enumeration_order_is_lexicographic():
    X = helpers.square()
    edges = enumerate_elementary_cubes(X, 1)
    assert edges == sorted(edges)


# --- faces and boundary ------------------------------------------------------------

def test_c1_faces_of_interval():
    Q = ElementaryCube((4,), (1,))
    front, back = c1_faces(Q, 1)
    assert front == ElementaryCube((4,), ())
    assert back == ElementaryCube((5,), ())
    with pytest.raises(NoSuchFace):
        c1_faces(Q, 2)
    with pytest.raises(NoSuchFace):
        c1_faces(front, 1)
    for i in (1.0, True):  # the index must be a plain int
        with pytest.raises(NoSuchFace):
            c1_faces(Q, i)


def test_c1_faces_of_square_are_position_indexed():
    Q = ElementaryCube((0, 0), (1, 2))
    f1, b1 = c1_faces(Q, 1)  # first extent coordinate: x
    assert f1 == ElementaryCube((0, 0), (2,))  # left vertical edge
    assert b1 == ElementaryCube((1, 0), (2,))  # right vertical edge
    f2, b2 = c1_faces(Q, 2)
    assert f2 == ElementaryCube((0, 0), (1,))  # bottom horizontal edge
    assert b2 == ElementaryCube((0, 1), (1,))  # top horizontal edge


def test_face_positions_use_extent_rank_not_ambient_axis():
    # a vertical edge embedded in the plane: its only face index is 1,
    # although the varying ambient axis is 2
    Q = ElementaryCube((0, 0), (2,))
    front, back = c1_faces(Q, 1)
    assert front == ElementaryCube((0, 0), ())
    assert back == ElementaryCube((0, 1), ())


def test_cube_boundary_of_square():
    Q = ElementaryCube((0, 0), (1, 2))
    d = cube_boundary(Q)
    assert d.degree == 1
    assert d.coeffs == {
        ElementaryCube((0, 0), (2,)): -1,
        ElementaryCube((1, 0), (2,)): 1,
        ElementaryCube((0, 0), (1,)): 1,
        ElementaryCube((0, 1), (1,)): -1,
    }


def test_cube_boundary_squared_is_zero():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 4)
        q = rng.randint(2, n)
        mc = tuple(rng.randint(-2, 2) for _ in range(n))
        ext = tuple(sorted(rng.sample(range(1, n + 1), q)))
        acc = {}
        for Q, c in cube_boundary(ElementaryCube(mc, ext)).coeffs.items():
            for R, d in cube_boundary(Q).coeffs.items():
                acc[R] = acc.get(R, 0) + c * d
        assert all(v == 0 for v in acc.values())


# --- dimension -----------------------------------------------------------------------

def test_dimension_values():
    assert dimension(helpers.pt()) == 0
    assert dimension(helpers.ring()) == 1
    assert dimension(helpers.square()) == 2
    assert dimension(helpers.block()) == 3
    assert dimension(helpers.shell()) == 2  # every unit 3-box needs the center
    with pytest.raises(EmptyImage):
        dimension(DigitalImage(1, []))


def test_dimension_and_cubes_are_cheap_in_high_ambient_dimension():
    X = helpers.high_edge(40)
    start = time.perf_counter()
    assert dimension(X) == 1
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert enumerate_elementary_cubes(X, 1) == [ElementaryCube((0,) * 40, (40,))]
    assert time.perf_counter() - start < 1.0


# --- complexes ------------------------------------------------------------------------

def test_build_c1_complex_block():
    built = build_c1_complex(helpers.block())
    assert built.image == helpers.block()
    C = built.complex
    assert [len(C.basis(q)) for q in range(4)] == [8, 12, 6, 1]
    assert C.is_complex()
    assert homology_through(C, 3) == [
        FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(0), FGAbelianGroup(0)]


def test_build_c1_complex_values():
    assert homology_through(build_c1_complex(helpers.ring()).complex, 2) == [
        FGAbelianGroup(1), FGAbelianGroup(1), FGAbelianGroup(0)]
    assert homology_through(build_c1_complex(helpers.shell()).complex, 3) == [
        FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(1), FGAbelianGroup(0)]


def test_build_c1_complex_max_dim_cap():
    C = build_c1_complex(helpers.block(), max_dim=1).complex
    assert C.max_degree == 1
    assert homology(C, 1) == FGAbelianGroup(5)  # graph with 8 vertices, 12 edges
    with pytest.raises(ValueError):
        build_c1_complex(helpers.block(), max_dim=-1)


def test_build_c1_complex_empty_image():
    C = build_c1_complex(DigitalImage(2, [])).complex
    assert C.basis(0) == ()
    assert homology(C, 0) == FGAbelianGroup(0)


# --- relative complexes ------------------------------------------------------------

def test_relative_complex_interval_mod_endpoints():
    X = helpers.path3()
    Q = relative_c1_complex(X, [(0,), (2,)])
    assert [len(Q.basis(q)) for q in (0, 1)] == [1, 2]
    assert homology(Q, 0) == FGAbelianGroup(0)
    assert homology(Q, 1) == FGAbelianGroup(1)


def test_relative_complex_accepts_image_or_iterable():
    X = helpers.path3()
    A = DigitalImage(1, [(0,)])
    assert homology(relative_c1_complex(X, A), 0) == FGAbelianGroup(0)
    assert homology(relative_c1_complex(X, [(0,)]), 0) == FGAbelianGroup(0)


def test_relative_complex_requires_subset():
    with pytest.raises(PointNotInImage):
        relative_c1_complex(helpers.path3(), [(9,)])


def test_relative_complex_with_empty_subspace_is_absolute():
    X = helpers.ring()
    Q = relative_c1_complex(X, [])
    C = build_c1_complex(X).complex
    assert homology_through(Q, 1) == homology_through(C, 1)


# --- induced maps --------------------------------------------------------------------

def test_induced_identity_is_identity():
    X = helpers.square()
    f = identity_map(X)
    for q in range(3):
        n = len(enumerate_elementary_cubes(X, q))
        assert induced_map(f, q) == SparseIntMatrix.identity(n)


def test_induced_constant_kills_positive_degrees():
    X = helpers.square()
    f = constant_map(X, X, (0, 0))
    assert not induced_map(f, 0).is_zero()  # vertices all map to one vertex
    assert induced_map(f, 1).is_zero()
    assert induced_map(f, 2).is_zero()


def test_induced_reflection_flips_sign():
    X = helpers.edge()
    Y = DigitalImage(1, [(-1,), (0,)])
    f = PointMap(X, Y, {(0,): (0,), (1,): (-1,)})
    M = induced_map(f, 1)
    assert M.to_dense() == [[-1]]


def test_induced_map_requires_continuity():
    X, Y = helpers.edge(), helpers.path3()
    f = PointMap(X, Y, {(0,): (0,), (1,): (2,)})
    with pytest.raises(NotContinuous):
        induced_map(f, 1)


def test_induced_map_is_a_chain_map_on_random_maps():
    rng = random.Random(33)
    spaces = [helpers.square(), helpers.ring(), helpers.path3(), helpers.block()]
    for _ in range(10):
        X = spaces[rng.randrange(len(spaces))]
        Y = spaces[rng.randrange(len(spaces))]
        f = random_continuous_map(X, Y, rng)
        top = min(dimension(X), 2)
        CX = build_c1_complex(X, top).complex
        CY = build_c1_complex(Y, top).complex
        phi = [induced_map(f, q) for q in range(top + 1)]
        assert verify_chain_map(phi, CX, CY)


def test_induced_map_respects_composition():
    rng = random.Random(41)
    X, Y, Z = helpers.square(), helpers.ring(), helpers.square()
    for _ in range(5):
        f = random_continuous_map(X, Y, rng)
        g = random_continuous_map(Y, Z, rng)
        for q in (0, 1):
            assert induced_map(compose(g, f), q) == \
                induced_map(g, q) @ induced_map(f, q)


def test_induced_map_column_agrees_with_orientation_of_composite():
    # the column of each cube is the signed target computed via the corner map
    X = helpers.square()
    rng = random.Random(55)
    f = random_continuous_map(X, X, rng)
    for q in (1, 2):
        cubes = enumerate_elementary_cubes(X, q)
        targets = enumerate_elementary_cubes(X, q)
        M = induced_map(f, q)
        for col, Q in enumerate(cubes):
            image = [f(v) for v in Q.vertices()]
            if len(set(image)) != len(image):
                assert M.column(col) == {}
                continue
            sig = make_cube(image)
            b = beta(sig)
            assert b is not None
            o, target = b
            assert M.column(col) == {targets.index(target): o}
