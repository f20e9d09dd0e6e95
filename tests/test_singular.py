import dataclasses
import pickle
import random
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter
from itertools import product

import pytest

from dighom import (
    BudgetExceeded,
    Chain,
    ChainComplex,
    CubeClass,
    CubeType,
    DigitalImage,
    DighomError,
    FGAbelianGroup,
    IndexOutOfRange,
    NoSuchFace,
    NotCompatible,
    NotContinuous,
    NotInjective,
    PreconditionViolated,
    SingularCube,
    SparseIntMatrix,
    UnclassifiableCube,
    append,
    apply_operator,
    beta_matrices,
    boundary,
    build_singular_complex,
    classify,
    compatible,
    degree_of_injectivity,
    enumerate_singular_cubes,
    face,
    flip,
    homology_through,
    is_degenerate,
    is_embedding,
    is_injective,
    make_cube,
    orientation,
    rotate,
    shift,
    singular_homology,
    swap,
    verify_isomorphism,
)
from dighom.singular import (
    DEFAULT_BUDGET,
    _Ladder,
    _boundary_column,
    _certified_rank,
    _cube,
    _materialize,
    _signed_face_maps,
    _symmetries,
)

import helpers


def id_cube(q):
    """The identity embedding of the unit q-cube into Z^q."""
    corners = [tuple((c >> b) & 1 for b in range(q)) for c in range(1 << q)]
    return make_cube(corners)


def fold_cube():
    # sigma(t1, t2) = (t1 xor t2,): all four faces injective
    return make_cube([(0,), (1,), (1,), (0,)])


def and_cube():
    # sigma(t1, t2) = (t1 and t2,): only the two back faces injective
    return make_cube([(0,), (0,), (0,), (1,)])


# --- construction -------------------------------------------------------------

def test_make_cube_infers_degree():
    assert id_cube(0).q == 0
    assert id_cube(1).q == 1
    assert id_cube(2).q == 2
    assert id_cube(2).ambient_dim == 2


def test_make_cube_validation():
    with pytest.raises(ValueError):
        make_cube([])
    with pytest.raises(ValueError):
        make_cube([(0,), (1,), (2,)])  # not a power of two
    with pytest.raises(ValueError):
        make_cube([(0,), (1, 2)])  # mixed dimensions
    with pytest.raises(ValueError):
        make_cube([(0.5,), (1,)])


def test_make_cube_continuity():
    with pytest.raises(NotContinuous) as ei:
        make_cube([(0, 0), (2, 0)])
    assert ei.value.pair == ((0, 0), (2, 0))
    # only one-bit pairs are constrained: opposite corners may be far apart
    sq = id_cube(2)
    assert sq.corners[0] == (0, 0) and sq.corners[3] == (1, 1)


def test_is_degenerate():
    assert is_degenerate(make_cube([(0,), (0,)]))
    assert not is_degenerate(id_cube(1))
    # constant in t2 only
    c = make_cube([(0,), (1,), (0,), (1,)])
    assert is_degenerate(c)
    assert not is_degenerate(fold_cube())


# --- faces and boundary ---------------------------------------------------------

def test_face_index_math_on_labeled_square():
    labels = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sq = make_cube(labels)
    c0, c1, c2, c3 = labels
    assert face(sq, "front", 1).corners == (c0, c2)
    assert face(sq, "back", 1).corners == (c1, c3)
    assert face(sq, "front", 2).corners == (c0, c1)
    assert face(sq, "back", 2).corners == (c2, c3)


def test_face_errors():
    sq = id_cube(2)
    with pytest.raises(NoSuchFace):
        face(sq, "front", 0)
    with pytest.raises(NoSuchFace):
        face(sq, "front", 3)
    with pytest.raises(NoSuchFace):
        face(id_cube(0), "front", 1)
    # the index must be a plain int, also once face(sq, "front", 1) is cached
    face(sq, "front", 1)
    for i in (1.0, True):
        with pytest.raises(NoSuchFace):
            face(sq, "front", i)
    with pytest.raises(ValueError):
        face(sq, "left", 1)


def test_boundary_of_edge_is_tip_minus_tail():
    e = make_cube([(0, 0), (0, 1)])
    d = boundary(e)
    assert d.degree == 0
    assert d.coeffs == {
        SingularCube(0, ((0, 1),)): 1,
        SingularCube(0, ((0, 0),)): -1,
    }


def test_boundary_of_identity_square():
    sq = id_cube(2)
    d = boundary(sq)
    left = make_cube([(0, 0), (0, 1)])
    right = make_cube([(1, 0), (1, 1)])
    bottom = make_cube([(0, 0), (1, 0)])
    top = make_cube([(0, 1), (1, 1)])
    assert d.coeffs == {left: -1, right: 1, bottom: 1, top: -1}


def test_boundary_drops_degenerate_and_merges_coinciding_faces():
    # and_cube: front faces are constant, back faces coincide, so it all cancels
    assert not boundary(and_cube())
    # fold_cube: front and back faces pair up with opposite signs
    assert not boundary(fold_cube())


def test_boundary_squared_is_zero_including_degenerate_faces():
    X = helpers.ring()
    for q in (2, 3):
        cubes = enumerate_singular_cubes(X, q)
        rng = random.Random(q)
        for sigma in rng.sample(cubes, 25):
            dd = helpers.raw_boundary_chain(helpers.raw_boundary(sigma))
            assert dd == Counter()


# --- operators -------------------------------------------------------------------

def test_flip_and_swap_tables_on_labeled_square():
    labels = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sq = make_cube(labels)
    c0, c1, c2, c3 = labels
    assert flip(sq, 1).corners == (c1, c0, c3, c2)
    assert flip(sq, 2).corners == (c2, c3, c0, c1)
    assert swap(sq, 1, 2).corners == (c0, c2, c1, c3)
    assert rotate(sq, 1, 2).corners == (c2, c0, c3, c1)


def test_shift_moves_a_coordinate_to_a_slot():
    for q in (2, 3, 4):
        sigma = id_cube(q)
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                shifted = shift(sigma, i, j)
                for c in range(1 << q):
                    ts = [(c >> b) & 1 for b in range(q)]
                    u = list(ts)
                    u.insert(j - 1, u.pop(i - 1))
                    assert shifted.corners[c] == tuple(u)


def test_operator_identities():
    for q in (1, 2, 3):
        sigma = id_cube(q)
        for j in range(1, q + 1):
            assert flip(flip(sigma, j), j) == sigma
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                assert swap(sigma, i, j) == swap(sigma, j, i)
                assert swap(swap(sigma, i, j), i, j) == sigma
                assert shift(shift(sigma, i, j), j, i) == sigma
                if i != j:
                    assert rotate(rotate(sigma, i, j), j, i) == sigma
        assert shift(sigma, 1, 1) == sigma
        if q >= 2:
            assert shift(sigma, 1, 2) == swap(sigma, 1, 2)
            assert shift(sigma, 2, 1) == swap(sigma, 1, 2)


def test_rotate_on_equal_indices_is_flip():
    sigma = id_cube(2)
    assert rotate(sigma, 1, 1) == flip(sigma, 1)


def test_shift_decomposes_into_adjacent_swaps():
    for q in (3, 4):
        sigma = id_cube(q)
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                expect = sigma
                if i < j:
                    for a in range(j - 1, i - 1, -1):
                        expect = swap(expect, a, a + 1)
                elif i > j:
                    for a in range(j, i):
                        expect = swap(expect, a, a + 1)
                assert shift(sigma, i, j) == expect


def test_apply_operator_dispatch_and_errors():
    sigma = id_cube(2)
    assert apply_operator(sigma, ("F", 1)) == flip(sigma, 1)
    assert apply_operator(sigma, ("C", 1, 2)) == swap(sigma, 1, 2)
    assert apply_operator(sigma, ("S", 2, 1)) == shift(sigma, 2, 1)
    assert apply_operator(sigma, ("R", 1, 2)) == rotate(sigma, 1, 2)
    with pytest.raises(ValueError):
        apply_operator(sigma, ("X", 1))
    with pytest.raises(ValueError):
        apply_operator(sigma, ("C", 1))
    with pytest.raises(IndexOutOfRange):
        flip(sigma, 0)
    with pytest.raises(IndexOutOfRange):
        swap(sigma, 1, 3)
    with pytest.raises(IndexOutOfRange):
        shift(sigma, 1, "2")


@pytest.mark.parametrize("bad", [0, 4, -1, True, 2.0, "2", None, [2], {2: 1}])
@pytest.mark.parametrize("op", [
    lambda s, k: flip(s, k),
    lambda s, k: swap(s, 1, k), lambda s, k: swap(s, k, k),
    lambda s, k: shift(s, k, 2), lambda s, k: shift(s, k, k),
    lambda s, k: rotate(s, 2, k), lambda s, k: rotate(s, k, 1),
], ids=["flip", "swap", "swap-equal", "shift", "shift-equal", "rotate", "rotate-first"])
def test_operators_refuse_a_bad_index_before_any_lookup(op, bad):
    # the corner getters are cached by index: an unhashable, bool or float
    # index is refused as out of range, never a TypeError of the cache
    with pytest.raises(IndexOutOfRange):
        op(id_cube(3), bad)


@pytest.mark.parametrize("op, args, bad", [
    (flip, (0,), 0), (flip, (4,), 4), (flip, (True,), True), (flip, (2.0,), 2.0),
    *[(op, args, bad) for op in (swap, shift, rotate)
      for args, bad in (((0, 5), 0), ((1, 4), 4), ((True, 1), True), ((2, True), True),
                        (("2", 2), "2"), ((None, 9), None))],
], ids=lambda v: getattr(v, "__name__", None))
def test_a_bad_index_is_named_in_the_message(op, args, bad):
    # the first index that is not an int in 1..q, a bool included, is named
    with pytest.raises(IndexOutOfRange) as info:
        op(id_cube(3), *args)
    assert str(info.value) == f"coordinate index {bad!r} outside 1..3"


def library_made_cubes():
    """Cubes of _cube and of every library path that builds one from a
    corner table it has just made: enumeration, the four operators, face
    and append."""
    cubes = enumerate_singular_cubes(helpers.square(), 2)[:6] + [id_cube(3)]
    yield _cube(1, ((0, 0), (0, 1)))
    for s in cubes:
        yield s
        q = s.q
        yield from (flip(s, j) for j in range(1, q + 1))
        for i, j in product(range(1, q + 1), repeat=2):
            yield from (swap(s, i, j), shift(s, i, j), rotate(s, i, j))
        yield from (face(s, side, i) for side in ("front", "back") for i in range(1, q + 1))
        yield append(s, s)


def test_library_made_cubes_are_constructed_cubes():
    # a cube set up past __init__ equals, hashes, prints and compares as the
    # cube that SingularCube(q, corners) builds from the same table
    for s in library_made_cubes():
        built = SingularCube(s.q, s.corners)
        assert type(s) is SingularCube and 1 << s.q == len(s.corners)
        assert s == built and built == s and not s != built
        assert hash(s) == hash(built)
        assert (str(s), repr(s)) == (str(built), repr(built))
        assert s != SingularCube(s.q, s.corners[::-1]) or s.corners == s.corners[::-1]
        assert s != SingularCube(s.q + 1, s.corners)


def test_singular_cube_stays_a_frozen_dataclass():
    s = flip(id_cube(2), 1)
    for name in ("q", "corners", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.q
    assert [(f.name, f.type) for f in dataclasses.fields(SingularCube)] == \
        [("q", "int"), ("corners", "tuple")]
    for cube in (s, SingularCube(s.q, s.corners)):
        back = pickle.loads(pickle.dumps(cube))
        assert type(back) is SingularCube and back == cube and hash(back) == hash(cube)
    # a cube equals no other kind of value, also one with the same fields
    for other in (None, 2, s.corners, (s.q, s.corners), dataclasses.astuple(s)):
        assert (s == other, other == s, s != other) == (False, False, True)


def test_operators_commute_on_disjoint_indices():
    sigma = id_cube(3)
    assert flip(flip(sigma, 1), 3) == flip(flip(sigma, 3), 1)
    assert swap(flip(sigma, 3), 1, 2) == flip(swap(sigma, 1, 2), 3)


# --- append ----------------------------------------------------------------------

def test_append_faces_recover_the_pieces():
    sq = id_cube(2)
    rot = rotate(sq, 1, 2)
    assert compatible(sq, rot)
    cube = append(sq, rot)
    assert cube.q == 3
    assert face(cube, "front", 3) == sq
    assert face(cube, "back", 3) == rot


def test_append_requires_compatibility():
    e = make_cube([(0, 0), (0, 1)])
    far = make_cube([(5, 5), (5, 6)])
    assert not compatible(e, far)
    with pytest.raises(NotCompatible):
        append(e, far)
    with pytest.raises(NotCompatible):
        append(e, id_cube(2))
    assert not compatible(e, id_cube(2))
    assert not compatible(e, make_cube([(0,), (1,)]))


def test_append_boundary_formula():
    # d(sigma ++ gamma) = sum_k (-1)^k (A_k s ++ A_k g - B_k s ++ B_k g)
    #                     + (-1)^(q+1) (sigma - gamma), before normalization
    pairs = [
        (id_cube(2), rotate(id_cube(2), 1, 2)),
        (id_cube(2), id_cube(2)),
        (id_cube(1), flip(id_cube(1), 1)),
    ]
    for sigma, gamma in pairs:
        q = sigma.q
        cube = append(sigma, gamma)
        expect = Counter()
        for k in range(1, q + 1):
            sgn = (-1) ** k
            expect[append(face(sigma, "front", k), face(gamma, "front", k))] += sgn
            expect[append(face(sigma, "back", k), face(gamma, "back", k))] -= sgn
        sgn = (-1) ** (q + 1)
        expect[sigma] += sgn
        expect[gamma] -= sgn
        expect = Counter({k: v for k, v in expect.items() if v})
        assert helpers.raw_boundary(cube) == expect


# --- injectivity ------------------------------------------------------------------

def test_injectivity_and_embedding():
    assert is_injective(id_cube(2))
    assert is_embedding(id_cube(2))
    assert not is_injective(fold_cube())
    assert not is_embedding(fold_cube())
    # injective but corners not a box cannot happen for continuous cubes;
    # a raw non-box table is rejected by the embedding test
    skew = SingularCube(1, ((0, 0), (2, 0)))
    assert is_injective(skew) and not is_embedding(skew)


def test_degree_of_injectivity():
    assert degree_of_injectivity(id_cube(0)) == 0
    assert degree_of_injectivity(id_cube(2)) == 2
    assert degree_of_injectivity(fold_cube()) == 1
    assert degree_of_injectivity(and_cube()) == 1
    const = make_cube([(0,)] * 4)
    assert degree_of_injectivity(const) == 0


# --- classification -----------------------------------------------------------------

def test_classify_preconditions():
    with pytest.raises(PreconditionViolated):
        classify(id_cube(1))  # q < 2
    with pytest.raises(PreconditionViolated):
        classify(id_cube(2))  # injective, degree q
    with pytest.raises(PreconditionViolated):
        classify(make_cube([(0,), (1,), (0,), (1,)]))  # degenerate
    with pytest.raises(PreconditionViolated):
        classify(make_cube([(0, 0)] * 8 + [(0, 1)] * 8))  # degree too low at q=4


def _degenerate_per_corner(sigma):
    corners, q = sigma.corners, sigma.q
    total = 1 << q
    for b in range(q):
        bit = 1 << b
        if all(corners[c] == corners[c | bit] for c in range(total) if not c & bit):
            return True
    return False


def _face_per_corner(sigma, side, i):
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    if type(i) is not int or not 1 <= i <= sigma.q:
        raise NoSuchFace(f"no coordinate {i!r} in a {sigma.q}-cube")
    side_bit, low_mask = side == "back", (1 << (i - 1)) - 1
    fmap = [c & low_mask | side_bit << (i - 1) | (c >> (i - 1)) << i
            for c in range(1 << (sigma.q - 1))]
    return SingularCube(sigma.q - 1, tuple(sigma.corners[c] for c in fmap))


def _degree_per_corner(sigma):
    if is_injective(sigma) or sigma.q == 0:
        return sigma.q
    return max(_degree_per_corner(_face_per_corner(sigma, side, i))
               for i in range(1, sigma.q + 1) for side in ("front", "back"))


def _classify_per_corner(sigma):
    q = sigma.q
    if q < 2:
        raise PreconditionViolated(f"classification needs q >= 2, got q={q}")
    if _degenerate_per_corner(sigma):
        raise PreconditionViolated("cube is degenerate")
    d = _degree_per_corner(sigma)
    if d != q - 1:
        raise PreconditionViolated(f"degree of injectivity is {d}, expected {q - 1}")
    inj = [(i, side) for i in range(1, q + 1) for side in ("front", "back")
           if is_injective(_face_per_corner(sigma, side, i))]
    coords = sorted({i for i, _ in inj})
    kind = {(4, 2): CubeType.TYPE1, (2, 2): CubeType.TYPE2,
            (2, 1): CubeType.TYPE3}.get((len(inj), len(coords)))
    if kind is None:
        raise UnclassifiableCube(f"injective faces {inj} fit no recognized pattern for {sigma}")
    return CubeClass(kind, tuple(coords))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DighomError as e:
        return type(e), str(e)


def test_face_getters_match_the_per_corner_definitions():
    # every continuous table, degenerate ones too, of the edge and the
    # square through q=3 and the ring through q=2
    cases = [(X, q) for X in (helpers.edge(), helpers.square()) for q in range(4)]
    cases += [(helpers.ring(), q) for q in range(3)]
    kinds = Counter()
    for X, q in cases:
        for corners in helpers.continuous_tables(X, q):
            sigma = SingularCube(q, corners)
            assert is_degenerate(sigma) == _degenerate_per_corner(sigma)
            for side in ("front", "back"):
                for i in range(1, q + 1):
                    assert face(sigma, side, i) == _face_per_corner(sigma, side, i)
                for i in (0, q + 1, 1.0, True):
                    with pytest.raises(NoSuchFace):
                        face(sigma, side, i)
            with pytest.raises(ValueError, match="side must be"):
                face(sigma, "left", q + 1)  # the side is checked before the index
            if q:
                with pytest.raises(IndexOutOfRange):
                    flip(sigma, q + 1)
                assert degree_of_injectivity(sigma) == _degree_per_corner(sigma)
            got = _outcome(classify, sigma)
            assert got == _outcome(_classify_per_corner, sigma)
            kinds[got[0] if isinstance(got, tuple) else got.kind] += 1
    # both paths reach every precondition and every type
    assert kinds[PreconditionViolated] and not kinds[UnclassifiableCube]
    assert all(kinds[kind] for kind in CubeType)


def test_classify_fold_is_type1():
    cc = classify(fold_cube())
    assert cc.kind is CubeType.TYPE1
    assert cc.coords == (1, 2)


def test_classify_and_cube_is_type2():
    cc = classify(and_cube())
    assert cc.kind is CubeType.TYPE2
    assert cc.coords == (1, 2)


def test_classify_appended_rotation_is_type3():
    sq = id_cube(2)
    cube = append(sq, rotate(sq, 1, 2))
    cc = classify(cube)
    assert cc.kind is CubeType.TYPE3
    assert cc.coords == (3,)


def test_classification_histogram_on_unit_square():
    X = helpers.square()
    counts = {2: Counter(), 3: Counter()}
    for q in (2, 3):
        for sigma in enumerate_singular_cubes(X, q):
            if degree_of_injectivity(sigma) == q - 1:
                counts[q][classify(sigma).kind] += 1
    assert counts[2] == Counter({CubeType.TYPE2: 32, CubeType.TYPE1: 24})
    assert counts[3] == Counter(
        {CubeType.TYPE2: 576, CubeType.TYPE3: 48, CubeType.TYPE1: 24})


# --- orientation ---------------------------------------------------------------------

def test_orientation_of_axis_edges():
    up = make_cube([(0, 0), (0, 1)])
    d = orientation(up)
    assert (d.k, d.edge_signs, d.o) == ((2,), (1,), 1)
    down = make_cube([(0, 1), (0, 0)])
    assert orientation(down).o == -1
    with pytest.raises(NotInjective):
        orientation(fold_cube())


def test_orientation_of_squares():
    assert orientation(id_cube(2)).o == 1
    assert orientation(swap(id_cube(2), 1, 2)).o == -1
    d = orientation(swap(id_cube(2), 1, 2))
    assert d.k == (2, 1) and d.edge_signs == (1, 1)


def test_orientation_of_zero_cube():
    d = orientation(id_cube(0))
    assert d == type(d)(k=(), edge_signs=(), o=1)


def test_orientation_sign_laws_on_enumerated_cubes():
    # flip and swap negate the sign, rotate preserves it,
    # shift scales it by (-1)^(j-i)
    for X in (helpers.square(), helpers.tall_edge(), helpers.ring()):
        for q in (1, 2):
            for sigma in enumerate_singular_cubes(X, q):
                if not is_injective(sigma):
                    continue
                o = orientation(sigma).o
                for j in range(1, q + 1):
                    assert orientation(flip(sigma, j)).o == -o
                    for i in range(1, q + 1):
                        sh = orientation(shift(sigma, i, j)).o
                        assert sh == (-1) ** (j - i) * o
                        if i == j:
                            continue
                        assert orientation(swap(sigma, i, j)).o == -o
                        assert orientation(rotate(sigma, i, j)).o == o


def test_face_orientation_uses_rank_of_direction():
    # o(A_i sigma) = (-1)^(i + r_i) * s_i * o(sigma), where r_i is the rank of
    # k_i among the cube's directions.  An edge along the second axis of the
    # plane has k_1 = 2 but rank 1, so the rank is what matters.
    for X in (helpers.square(), helpers.tall_edge(), helpers.ring(), helpers.shell()):
        for q in (1, 2):
            for sigma in enumerate_singular_cubes(X, q):
                if not is_injective(sigma):
                    continue
                d = orientation(sigma)
                ranked = sorted(d.k)
                for i in range(1, q + 1):
                    r = ranked.index(d.k[i - 1]) + 1
                    expect = (-1) ** (i + r) * d.edge_signs[i - 1] * d.o
                    for side in ("front", "back"):
                        assert orientation(face(sigma, side, i)).o == expect


def test_face_orientation_rank_differs_from_ambient_index():
    up = make_cube([(0, 0), (0, 1)])  # k = (2,) but rank 1
    d = orientation(up)
    assert d.k == (2,)
    got = orientation(face(up, "front", 1)).o
    assert got == (-1) ** (1 + 1) * d.edge_signs[0] * d.o
    assert got != (-1) ** (1 + d.k[0]) * d.edge_signs[0] * d.o


# --- signed permutations and the trichotomy ------------------------------------------

def box_image(q):
    return DigitalImage(q, list(product((0, 1), repeat=q)))


def test_injective_self_maps_form_signed_permutation_group():
    for q in (1, 2, 3):
        X = box_image(q)
        full = [s for s in enumerate_singular_cubes(X, q)
                if is_injective(s) and len(set(s.corners)) == 1 << q]
        expected = (1 << q) * 1
        for f in range(2, q + 1):
            expected *= f
        assert len(full) == expected  # 2^q * q!
        # the same set is generated from the identity by flips and swaps
        seen = {id_cube(q)}
        frontier = [id_cube(q)]
        while frontier:
            cur = frontier.pop()
            nxt = [flip(cur, j) for j in range(1, q + 1)]
            nxt += [swap(cur, i, j)
                    for i in range(1, q + 1) for j in range(i + 1, q + 1)]
            for t in nxt:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        assert seen == set(full)


def test_compatible_equal_image_pairs_trichotomy():
    # a pair of compatible injective cubes with the same vertex set is either
    # equal, a flip, or a rotation of one another
    for q in (1, 2):
        X = box_image(q)
        full = [s for s in enumerate_singular_cubes(X, q)
                if is_injective(s) and len(set(s.corners)) == 1 << q]
        for sigma in full:
            alts = {sigma}
            alts |= {flip(sigma, j) for j in range(1, q + 1)}
            alts |= {rotate(sigma, i, j)
                     for i in range(1, q + 1) for j in range(1, q + 1) if i != j}
            for phi in full:
                # flips and rotations move every vertex one step, so the
                # trichotomy is exactly the compatibility relation here
                if compatible(sigma, phi):
                    assert phi in alts
                else:
                    assert phi not in alts


# --- enumeration -----------------------------------------------------------------------

def test_enumeration_matches_brute_force():
    cases = [
        (helpers.edge(), 1), (helpers.edge(), 2),
        (helpers.path3(), 1), (helpers.path3(), 2),
        (helpers.tall_edge(), 2),
        (helpers.square(), 1), (helpers.square(), 2),
    ]
    for X, q in cases:
        got = enumerate_singular_cubes(X, q)
        want = helpers.brute_singular_cubes(X, q)
        assert got == want  # same cubes in the same lexicographic order


def test_enumeration_degree_zero_and_empty():
    X = helpers.path3()
    zero = enumerate_singular_cubes(X, 0)
    assert [s.corners for s in zero] == [((0,),), ((1,),), ((2,),)]
    assert enumerate_singular_cubes(DigitalImage(1, []), 0) == []
    with pytest.raises(ValueError):
        enumerate_singular_cubes(X, -1)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_singular_cubes(helpers.square(), 2, budget=5)
    assert ei.value.degree == 2
    assert ei.value.count == 5
    # a budget exactly equal to the count is enough
    assert len(enumerate_singular_cubes(helpers.square(), 2, budget=64)) == 64
    # degree 0 lists the points, level 0 of the ladder, under the same rule
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_singular_cubes(helpers.path3(), 0, budget=2)
    assert (ei.value.degree, ei.value.count) == (0, 2)
    assert len(enumerate_singular_cubes(helpers.path3(), 0, budget=3)) == 3


def test_enumeration_without_edges_builds_no_level():
    # every continuous cube on isolated points is constant; level 30 would
    # hold 2^30-corner tables
    start = time.perf_counter()
    assert enumerate_singular_cubes(helpers.isolated(2), 30) == []
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("budget", [None, "5", 1.5, True, 0, -3])
@pytest.mark.parametrize("call", [enumerate_singular_cubes, build_singular_complex,
                                  singular_homology, beta_matrices, verify_isomorphism])
def test_budget_must_be_a_positive_int(call, budget):
    # a budget of 0 would skip every group, H_0 included
    with pytest.raises(ValueError, match="budget"):
        call(helpers.edge(), 1, budget)


def test_known_enumeration_counts():
    assert len(enumerate_singular_cubes(helpers.edge(), 2)) == 10
    assert len(enumerate_singular_cubes(helpers.square(), 2)) == 64
    assert len(enumerate_singular_cubes(helpers.square(), 3)) == 2432


def keys_of(X, cubes):
    """The keys of the cubes on X: the index of each corner in X.sorted_points."""
    at = {p: i for i, p in enumerate(X.sorted_points)}
    return [tuple(at[p] for p in s.corners) for s in cubes]


@pytest.mark.parametrize("name", ["ring", "shell", "square"])
def test_interleaved_stream_permutes_the_lex_enumeration(name):
    # the brute-force filter of every corner table lists the cubes in lex
    # order; degree 3 of the ring and the shell has too many tables for it
    X = getattr(helpers, name)()
    q = 3 if name == "square" else 2
    lex = keys_of(X, helpers.brute_singular_cubes(X, q))
    streamed = list(helpers.stream(X, q, DEFAULT_BUDGET)[0])
    assert len(set(streamed)) == len(streamed)
    assert sorted(streamed) == lex
    assert streamed != lex
    corners = [s.corners for s in enumerate_singular_cubes(X, q)]
    assert corners == sorted(corners)


def test_interleaved_stream_counts_the_budget():
    with pytest.raises(BudgetExceeded) as ei:
        list(helpers.stream(helpers.square(), 3, 2431)[0])
    assert (ei.value.degree, ei.value.count) == (3, 2431)
    assert len(list(helpers.stream(helpers.square(), 3, 2432)[0])) == 2432


def test_ladder_stays_bounded_over_budget():
    # degree 6 of the two-point edge needs the 2^32 tables of level 5 as
    # front faces, but level 4 already has more than the budget of
    # nondegenerate tables, so the ladder stops while building it
    ladder = _Ladder(helpers.edge())
    with pytest.raises(BudgetExceeded) as ei:
        list(helpers.stream(helpers.edge(), 6, 1000, ladder)[0])
    assert (ei.value.degree, ei.value.count) == (6, 1000)
    assert sum(len(level[0]) for level in ladder.levels) < 100_000


def test_one_ladder_per_call(monkeypatch):
    # every degree of a call, the streamed one included, comes from one ladder
    made = []
    init = _Ladder.__init__

    def recording(self, X):
        made.append(X)
        init(self, X)

    monkeypatch.setattr(_Ladder, "__init__", recording)
    X = helpers.square()
    assert singular_homology(X, 2) == [FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(0)]
    assert made == [X]
    build_singular_complex(X, 2)
    assert made == [X, X]


def test_a_level_over_budget_is_refused_before_it_is_stored():
    # level 4 of the two-point edge has 64,594 nondegenerate tables of
    # 65,536, level 5 2^32 tables: each is counted, not stored, once its
    # chunk lengths exceed the budget
    ladder = _Ladder(helpers.edge())
    with pytest.raises(BudgetExceeded) as ei:
        ladder.level(5, 1000)
    assert (ei.value.degree, ei.value.count) == (5, 1000)
    assert len(ladder.levels) == 4
    ladder.level(4, 64_594)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as ei:
            ladder.level(5, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ei.value.degree, ei.value.count) == (5, 20_000)
    assert len(ladder.levels) == 5
    assert peak < 2_000_000  # 20,000 tables of 32 corners take over 6 MB


@pytest.mark.parametrize("image, k", [("edge", 4), ("square", 3), ("ring", 2), ("shell", 2)])
def test_a_level_takes_the_partners_of_each_table_below_once(monkeypatch, image, k):
    # sizing a level and building it read one pass of partners; a budget
    # below its table count, at its count of nondegenerate tables, counts
    # them, keeping the partners it takes, and builds the same level
    X = getattr(helpers, image)()
    seen = []

    def ladder_below():
        """A ladder built to level k - 1 that records its partners from now on."""
        ladder = _Ladder(X)
        ladder.level(k - 1, DEFAULT_BUDGET)
        partners = ladder._partners
        monkeypatch.setattr(ladder, "_partners", lambda j, x: seen.append((j, x)) or partners(j, x))
        return ladder

    ladder = ladder_below()
    level = ladder.level(k, DEFAULT_BUDGET)
    once = [(k - 1, x) for x in range(len(ladder.levels[k - 1][0]))]
    assert seen == once
    assert level[0] == sorted(level[0])
    nondeg = level[1].count(0)
    assert nondeg < len(level[0])
    seen.clear()
    assert ladder_below().level(k, nondeg)[:5] == level[:5]
    assert seen == once


def test_a_level_fits_a_budget_of_its_nondegenerate_tables():
    # the square's level 3 has 2,652 tables, 2,432 of them nondegenerate
    assert len(_Ladder(helpers.square()).level(3, 2432)[0]) == 2652
    with pytest.raises(BudgetExceeded) as ei:
        _Ladder(helpers.square()).level(3, 2431)
    assert (ei.value.degree, ei.value.count) == (3, 2431)


def test_materialized_keys_are_the_tuples_of_their_level():
    # the top materialized degree is not held a second time beside its level
    X = helpers.square()
    ladder = _Ladder(X)
    keys, mats, err = _materialize(3, DEFAULT_BUDGET, ladder)
    assert err is None and len(mats) == 3
    level = ladder.levels[3][0]  # in lex order
    assert all(level[bisect_left(level, key)] is key for key in keys[3])
    assert keys[3] == list(helpers.stream(X, 3, DEFAULT_BUDGET)[0])


def test_top_stored_boundary_is_built_only_where_it_is_read(monkeypatch):
    # the reduction of d_3 reads 83 of its 2,432 columns to saturation, and
    # the stream's sampled d∘d checks read some more; each is built once
    built = Counter()
    column = _Ladder.column

    def counting(ladder, k, tables):
        build = column(ladder, k, tables)

        def counted(x, y):
            if k == 2:  # a 3-cube, the pair (x, y) of tables of level 2
                built[x, y] += 1
            return build(x, y)

        return counted

    monkeypatch.setattr(_Ladder, "column", counting)
    groups = singular_homology(helpers.square(), 3)
    assert groups == [FGAbelianGroup(1)] + [FGAbelianGroup(0)] * 3
    top = list(built.values())
    assert len(top) == 138 and set(top) == {1}


def test_the_stream_is_closed_once_its_cofaces_start(monkeypatch):
    # H_1 of the ring with a square is Z and its c1 top is 2, so its
    # streamed degree 2 is finished by the cofaces of its witness rows; the
    # stream's listing, with its live fronts, is closed before they start,
    # though the reduction still holds the stream
    events = []
    rounds = _Ladder.rounds

    def recording(ladder, k, fronts):
        kind = "stream" if isinstance(fronts, range) else "cofaces"
        events.append(("start", kind))
        try:
            yield from rounds(ladder, k, fronts)
        finally:
            events.append(("end", kind))

    monkeypatch.setattr(_Ladder, "rounds", recording)
    assert singular_homology(helpers.ring_with_square(), 1) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    assert events == [("start", "stream"), ("end", "stream"), ("start", "cofaces"), ("end", "cofaces")]


@pytest.mark.parametrize("name, q", [("edge", 1), ("square", 2), ("block", 3)])
def test_the_symmetries_move_a_cube_onto_every_injective_cube_with_its_vertices(name, q):
    # a top-degree cocycle is supported on the symmetries of I^q applied to
    # the canonical embedding of one c1 cube: those must be all 2^q q! of
    # the injective cubes onto its vertices, transpositions included, which
    # shifts of one coordinate alone do not give for q >= 3
    X = getattr(helpers, name)()
    embedding = helpers.alpha(X, (0, tuple(range(1, q + 1))))  # of the one c1 q-cube
    injective = {c.corners for c in enumerate_singular_cubes(X, q) if is_injective(c)}
    moved = {g(embedding) for g in _symmetries(q)}
    assert len(_symmetries(q)) == len(moved) == len(injective)
    assert moved == injective


@pytest.mark.parametrize("name, q", [("ring", 1), ("ring", 2), ("block", 2), ("square", 3)])
def test_coface_keys_are_the_cubes_with_a_face_in_the_rows(name, q):
    X = getattr(helpers, name)()
    rows = keys_of(X, enumerate_singular_cubes(X, q - 1))
    faces = random.Random(q).sample(rows, 3)
    found = list(helpers.stream(X, q, DEFAULT_BUDGET)[1](faces))
    assert len(found) == len(set(found))
    assert set(found) == {key for key in keys_of(X, enumerate_singular_cubes(X, q))
                          if any(get(key) in faces for get, _ in _signed_face_maps(q))}


# --- complexes and homology --------------------------------------------------------------

@pytest.mark.parametrize("name, m", [("ring", 0), ("ring", 1), ("path3", 2), ("square", 2)])
def test_build_singular_complex_basis_order(name, m):
    # every degree round-robin by front face, the order of the stream
    X = getattr(helpers, name)()
    C = build_singular_complex(X, m)
    for q in range(m + 2):
        assert C.basis(q) == tuple(helpers.stream(X, q, DEFAULT_BUDGET)[0])
        assert sorted(helpers.chain_groups(X, C, q), key=lambda s: s.corners) == (
            enumerate_singular_cubes(X, q))
    top = len(C.basis(m + 1))
    budget = (len(C.basis(m)) + top) // 2
    assert len(C.basis(m)) <= budget < top
    with pytest.raises(BudgetExceeded) as ei:
        build_singular_complex(X, m, budget)
    assert (ei.value.degree, ei.value.count) == (m + 1, budget)


@pytest.mark.parametrize("name, q", [("ring", 2), ("square", 2), ("path3", 2), ("block", 2)])
def test_singular_basis_does_not_depend_on_the_top(name, q):
    X = getattr(helpers, name)()
    C = build_singular_complex(X, q)
    assert C.bases[:q + 1] == build_singular_complex(X, q - 1).bases
    assert C.basis(0) == tuple((i,) for i in range(len(X.sorted_points)))


def test_build_singular_complex_shape():
    C = build_singular_complex(helpers.edge(), 1)
    assert [len(C.basis(q)) for q in (0, 1, 2)] == [2, 2, 10]
    assert C.is_complex()
    assert homology_through(C, 1) == [FGAbelianGroup(1), FGAbelianGroup(0)]


def eager_copy(C):
    """C checked anew, each boundary a plain list of the columns that
    _boundary_column, the path of boundary(), builds from the keys."""
    mats = []
    for q, M in enumerate(C.boundaries, 1):
        rows = {key: r for r, key in enumerate(C.basis(q - 1))}
        mats.append(SparseIntMatrix(M.nrows, M.ncols, [_boundary_column(key, rows) for key in C.basis(q)]))
    return ChainComplex(C.bases, mats)


def test_the_lazy_top_boundary_reads_like_a_list():
    # d_3 of the square is built column by column as it is read; each read
    # that a list allows gives what the eager copy gives
    X = helpers.square()
    C, eager = build_singular_complex(X, 2), eager_copy(build_singular_complex(X, 2))
    d3, e3 = C.boundaries[2].columns, eager.boundaries[2].columns
    assert type(e3) is list and type(d3) is not list and len(d3) == len(e3) == 2432
    assert d3[-1] == e3[-1] and d3[-2432] == e3[0] and d3[7] == e3[7]
    assert len(d3) - d3.cols.count(None) == 3  # only the columns read are built
    for s in (slice(None, 5), slice(-3, None), slice(10, 2), slice(None, None, 97), slice(-1, 3, -7)):
        assert d3[s] == e3[s]
    for j in (2432, -2433):
        with pytest.raises(IndexError):
            d3[j]
    last = {**e3[-1], 0: 1}
    assert d3[:-1] + [last] == e3[:-1] + [last]
    assert d3 + [last] == e3 + [last] and [last] + d3 == [last] + e3
    assert list(d3) == e3 and d3 == e3 and e3 == d3 and d3 != e3[:-1] and d3 != tuple(e3)
    assert e3[5] in d3 and list(reversed(d3)) == e3[::-1]
    assert repr(d3) == repr(e3) and repr(C.boundaries[2]) == repr(eager.boundaries[2])
    assert C.boundaries[2] == eager.boundaries[2] and C == eager and eager == C


def test_a_pickled_singular_complex_has_plain_list_columns():
    C = build_singular_complex(helpers.square(), 2)
    loaded = pickle.loads(pickle.dumps(C))
    assert [type(M.columns) for M in loaded.boundaries] == [list] * 3
    assert loaded == C == eager_copy(C)
    assert homology_through(loaded, 2) == homology_through(C, 2)


def test_beta_matrices_read_like_an_eager_copy():
    # the singular complex of beta_matrices compares equal to the eager
    # copy, and its beta_3 maps into the empty basis of the c1 degree 3
    X = helpers.square()
    bm = beta_matrices(X, 2)
    assert bm.singular == eager_copy(build_singular_complex(X, 2))
    assert bm.matrices[3] == SparseIntMatrix.zeros(0, 2432)
    d3 = bm.singular.boundaries[2].columns
    assert d3[:-1] + [d3[-1]] == list(d3) and bm.singular.is_complex()


def test_streaming_agrees_with_materialized():
    for X, m in [
        (helpers.edge(), 1),
        (helpers.path3(), 1),
        (helpers.tall_edge(), 2),
        (helpers.square(), 2),
        (helpers.ring(), 1),
    ]:
        C = build_singular_complex(X, m)
        assert singular_homology(X, m) == homology_through(C, m)


def test_singular_homology_values():
    assert singular_homology(helpers.pt(), 2) == [
        FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(0)]
    assert singular_homology(helpers.ring(), 1) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    assert singular_homology(helpers.isolated(3), 1) == [
        FGAbelianGroup(3), FGAbelianGroup(0)]


def test_singular_homology_deep_search_on_a_point():
    # a point has no nondegenerate cube above degree 0, so no degree is searched
    assert singular_homology(helpers.pt(), 9) == [FGAbelianGroup(1)] + [FGAbelianGroup(0)] * 9


def test_deep_search_on_an_edge():
    # a 10-cube is searched 2^10 corners deep, past the default recursion limit
    with pytest.raises(BudgetExceeded):
        enumerate_singular_cubes(helpers.edge(), 10, budget=3)


def test_singular_homology_empty_image():
    assert singular_homology(DigitalImage(1, []), 2) == [
        FGAbelianGroup(0)] * 3


def test_singular_homology_budget_partial_results():
    X = helpers.ring()  # 8 points, 16 nondegenerate 1-cubes, 112 2-cubes
    assert singular_homology(X, 2, budget=20) == [FGAbelianGroup(1), None, None]
    assert singular_homology(X, 1, budget=20) == [FGAbelianGroup(1), None]
    assert singular_homology(X, 1, budget=112) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    # H_1 = Z, so the streamed degree 2 cannot saturate: 18 cofaces certify
    # that H_1 has rank at least 1, then the stream stops after 21 cubes at
    # the rank that leaves it, and all 39 count toward the budget
    assert singular_homology(X, 1, budget=38) == [FGAbelianGroup(1), None]
    assert singular_homology(X, 1, budget=39) == [
        FGAbelianGroup(1), FGAbelianGroup(1)]
    # degree 1 of path3 is over a budget of 3 cubes: H_0 needs it, so no
    # group is given, and no pass runs below degree 0
    assert singular_homology(helpers.path3(), 1, budget=3) == [None, None]
    assert singular_homology(helpers.path3(), 2, budget=3) == [None, None, None]


def test_certificate_cofaces_over_budget_certify_nothing(monkeypatch):
    # the ring to q=1: the certificate of H_1 reads the 18 cofaces of its
    # cocycle's support, and the stream 21 cubes after them, all counted
    # toward one budget.  At 16 and 17 the cofaces run over it, so nothing
    # is certified and the stream, which cannot saturate, runs over too; at
    # 18 rank 1 is certified but the stream runs over; at 39 both fit
    certified = []

    def recording(*args):
        certified.append(_certified_rank(*args))
        return certified[-1]

    monkeypatch.setattr("dighom.singular._certified_rank", recording)
    Z = FGAbelianGroup(1)
    for budget, rank, groups in ((16, 0, [Z, None]), (17, 0, [Z, None]),
                                 (18, 1, [Z, None]), (39, 1, [Z, Z])):
        certified.clear()
        assert singular_homology(helpers.ring(), 1, budget=budget) == groups
        assert certified == [rank]


def test_a_cavity_below_the_c1_top_is_finished_by_witness_rows():
    # the 5x5x5 box minus its centre has c1 top 3, above degree 2, so the
    # streamed degree 3 of singular_homology(X, 2) gets no certificate, and
    # it cannot saturate as H_2 = Z.  Its witness rows and the cofaces of
    # the rows of their residuals finish it after 15,222 reads of the
    # stream and cofaces, of the 825,996 cubes of that degree
    X = DigitalImage(3, [p for p in product(range(5), repeat=3) if p != (2, 2, 2)])
    assert singular_homology(X, 2, budget=20_000) == [
        FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(1)]
    assert verify_isomorphism(X, 2).all_ok


def test_streamed_top_degree_saturates_within_a_small_budget():
    # degree 3 has 2,432 cubes; the streamed degree 4 has 1.3M, but its
    # columns span the 3-cycles after about 2,651 of them
    assert singular_homology(helpers.square(), 3, budget=5000) == [
        FGAbelianGroup(1)] + [FGAbelianGroup(0)] * 3
