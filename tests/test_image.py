import json
import random

import pytest

from dighom import (
    DigitalImage,
    DimensionMismatch,
    HomotopyTable,
    ParseError,
    PointMap,
    PointNotInImage,
    adjacent,
    closed_neighborhood,
    components,
    compose,
    constant_map,
    identity_map,
    interior,
    is_continuous,
    is_homotopy,
    load_image,
    load_point_map,
    open_neighborhood,
    parse_image,
    random_continuous_map,
)

import helpers


# --- adjacency ---------------------------------------------------------------

def test_adjacent_basic():
    assert adjacent((0, 0), (0, 1))
    assert adjacent((0, 1), (0, 0))
    assert adjacent((5,), (4,))
    assert not adjacent((0, 0), (0, 0))
    assert not adjacent((0, 0), (1, 1))
    assert not adjacent((0, 0), (0, 2))
    assert not adjacent((0, 0, 0), (1, 1, 0))


def test_adjacent_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        adjacent((0,), (0, 0))


def test_non_integer_coordinates_rejected_at_construction():
    with pytest.raises(ParseError):
        DigitalImage(1, [(0.5,)])
    with pytest.raises(ParseError):
        DigitalImage(1, [(True,)])
    with pytest.raises(ParseError):
        parse_image('{"ambient_dim": 1, "points": [[0.5]]}')


# --- DigitalImage ------------------------------------------------------------

def test_image_dedupes_and_sorts():
    X = DigitalImage(2, [(1, 0), (0, 0), (1, 0)])
    assert len(X) == 2
    assert X.sorted_points == ((0, 0), (1, 0))
    assert list(X) == [(0, 0), (1, 0)]
    assert (1, 0) in X
    assert (2, 2) not in X


def test_image_validates_points():
    with pytest.raises(ParseError):
        DigitalImage(0, [])
    with pytest.raises(DimensionMismatch):
        DigitalImage(2, [(0, 0, 0)])


def test_image_equality_and_hash():
    X = DigitalImage(2, [(0, 0), (1, 0)])
    Y = DigitalImage(2, [(1, 0), (0, 0)])
    assert X == Y
    assert hash(X) == hash(Y)
    assert X != DigitalImage(2, [(0, 0)])
    assert X != DigitalImage(3, [(0, 0, 0), (1, 0, 0)])


def test_image_immutable():
    X = helpers.edge()
    with pytest.raises(AttributeError):
        X.ambient_dim = 5


def test_neighbors():
    X = helpers.ring()
    assert X.neighbors((0, 0)) == [(0, 1), (1, 0)]
    assert X.neighbors((0, 1)) == [(0, 0), (0, 2)]  # (1,1) is missing
    with pytest.raises(PointNotInImage):
        X.neighbors((1, 1))


# --- neighborhoods -----------------------------------------------------------

def test_closed_neighborhood_single():
    X = helpers.ring()
    assert closed_neighborhood(X, [(0, 0)]) == {(0, 0), (0, 1), (1, 0)}


def test_open_neighborhood_single():
    X = helpers.ring()
    assert open_neighborhood(X, [(0, 0)]) == {(0, 1), (1, 0)}


def test_neighborhood_of_several_points_is_intersection():
    X = helpers.square()
    # closed neighborhoods: N*[(0,0)] = {00,01,10}, N*[(1,1)] = {11,01,10}
    assert closed_neighborhood(X, [(0, 0), (1, 1)]) == {(0, 1), (1, 0)}
    assert open_neighborhood(X, [(0, 0), (1, 1)]) == {(0, 1), (1, 0)}
    # an iterator of points is read once
    assert open_neighborhood(X, iter([(0, 0), (1, 1)])) == {(0, 1), (1, 0)}


def test_neighborhood_errors():
    X = helpers.square()
    with pytest.raises(ValueError):
        closed_neighborhood(X, [])
    with pytest.raises(PointNotInImage):
        open_neighborhood(X, [(9, 9)])
    with pytest.raises(ValueError, match="xs must be nonempty"):
        open_neighborhood(X, [])


# --- components --------------------------------------------------------------

def test_components_shapes():
    assert components(helpers.ring()) == [frozenset(helpers.ring().points)]
    comps = components(helpers.isolated(3))
    assert comps == [frozenset({(0,)}), frozenset({(3,)}), frozenset({(6,)})]
    assert components(DigitalImage(1, [])) == []


def test_components_match_oracle_on_random_images():
    rng = random.Random(7)
    for _ in range(25):
        X = helpers.random_image(rng, 2, 4, 0.5)
        assert components(X) == helpers.components_oracle(X)


# --- PointMap ----------------------------------------------------------------

def test_point_map_total_and_callable():
    X, Y = helpers.edge(), helpers.path3()
    f = PointMap(X, Y, {(0,): (1,), (1,): (2,)})
    assert f((0,)) == (1,)
    assert f((1,)) == (2,)


def test_point_map_requires_totality():
    X, Y = helpers.edge(), helpers.path3()
    with pytest.raises(ValueError):
        PointMap(X, Y, {(0,): (1,)})


def test_point_map_values_must_lie_in_codomain():
    X, Y = helpers.edge(), helpers.path3()
    with pytest.raises(PointNotInImage):
        PointMap(X, Y, {(0,): (0,), (1,): (9,)})
    with pytest.raises(PointNotInImage):
        PointMap(X, Y, {(0,): (0,), (9,): (1,)})
    f = PointMap(X, Y, {(0,): (0,), (1,): (1,)})
    with pytest.raises(PointNotInImage):
        f((7,))


def test_identity_constant_compose():
    X, Y = helpers.edge(), helpers.path3()
    idx = identity_map(X)
    assert idx((1,)) == (1,)
    c = constant_map(X, Y, (2,))
    assert c((0,)) == (2,) and c((1,)) == (2,)
    f = PointMap(X, Y, {(0,): (0,), (1,): (1,)})
    g = PointMap(Y, Y, {(0,): (1,), (1,): (2,), (2,): (2,)})
    gf = compose(g, f)
    assert gf((0,)) == (1,) and gf((1,)) == (2,)
    with pytest.raises(ValueError):
        compose(f, g)  # codomain of g is not the domain of f


def test_constant_map_target_must_exist():
    with pytest.raises(PointNotInImage):
        constant_map(helpers.edge(), helpers.path3(), (5,))


# --- continuity --------------------------------------------------------------

def test_identity_and_constant_are_continuous():
    X = helpers.ring()
    assert is_continuous(identity_map(X))
    assert is_continuous(constant_map(X, X, (0, 0)))


def test_stretching_map_is_discontinuous():
    X, Y = helpers.edge(), helpers.path3()
    f = PointMap(X, Y, {(0,): (0,), (1,): (2,)})
    assert not is_continuous(f)


def test_continuity_brute_force_agreement():
    # every self-map of a 3-point path, both by definition and via the library
    X = helpers.path3()
    from itertools import product as iproduct

    pts = X.sorted_points
    for values in iproduct(pts, repeat=3):
        f = PointMap(X, X, dict(zip(pts, values)))
        expected = all(
            f(x) == f(y) or adjacent(f(x), f(y))
            for x in pts
            for y in X.neighbors(x)
        )
        assert is_continuous(f) == expected


# --- homotopy ----------------------------------------------------------------

def test_homotopy_table_requires_total_table():
    X = helpers.edge()
    with pytest.raises(ValueError):
        HomotopyTable(X, X, 1, {((0,), 0): (0,), ((1,), 0): (1,)})
    with pytest.raises(ValueError):
        HomotopyTable(X, X, -1, {})


def test_homotopy_slide_along_path():
    # slide the left endpoint map to the right endpoint map across a path
    X, Y = helpers.pt(), helpers.path3()
    f = constant_map(X, Y, (0,))
    g = constant_map(X, Y, (2,))
    H = HomotopyTable(
        X, Y, 2,
        {((0, 0), 0): (0,), ((0, 0), 1): (1,), ((0, 0), 2): (2,)},
    )
    assert H((0, 0), 1) == (1,)
    assert is_homotopy(H, f, g)
    assert not is_homotopy(H, g, f)  # endpoints in the wrong order


def test_zero_step_homotopy_is_equality():
    X = helpers.edge()
    f = identity_map(X)
    H = HomotopyTable(X, X, 0, {(p, 0): p for p in X})
    assert is_homotopy(H, f, f)


def test_homotopy_with_broken_track_rejected():
    # the track of (0,) jumps by two between consecutive stages
    X, Y = helpers.pt(), helpers.path3()
    f = constant_map(X, Y, (0,))
    g = constant_map(X, Y, (2,))
    H = HomotopyTable(
        X, Y, 2,
        {((0, 0), 0): (0,), ((0, 0), 1): (2,), ((0, 0), 2): (2,)},
    )
    # stage 0 -> 1 moves distance 2, so this is not a homotopy
    assert not is_homotopy(H, f, g)


def test_homotopy_with_discontinuous_slice_rejected():
    X, Y = helpers.edge(), helpers.path3()
    f = PointMap(X, Y, {(0,): (0,), (1,): (1,)})
    g = PointMap(X, Y, {(0,): (2,), (1,): (1,)})
    # middle stage stretches the edge across the whole path
    H = HomotopyTable(
        X, Y, 2,
        {
            ((0,), 0): (0,), ((1,), 0): (1,),
            ((0,), 1): (0,), ((1,), 1): (2,),
            ((0,), 2): (2,), ((1,), 2): (1,),
        },
    )
    assert not is_homotopy(H, f, g)


def test_homotopy_domain_mismatch():
    X, Y = helpers.edge(), helpers.path3()
    f = constant_map(X, Y, (0,))
    g = constant_map(Y, Y, (0,))
    H = HomotopyTable(X, Y, 0, {((0,), 0): (0,), ((1,), 0): (0,)})
    with pytest.raises(ValueError):
        is_homotopy(H, f, g)


# --- interior ----------------------------------------------------------------

def test_interior_levels():
    X = helpers.strip()  # [0,8] x [0,1]
    A = {(x, y) for x in range(7) for y in (0, 1)}  # [0,6] x [0,1]
    assert interior(X, A, 0) == A
    assert interior(X, A, 1) == {(x, y) for x in range(6) for y in (0, 1)}
    assert interior(X, A, 2) == {(x, y) for x in range(5) for y in (0, 1)}


def test_interior_checks_containment():
    X = helpers.edge()
    with pytest.raises(PointNotInImage):
        interior(X, {(9,)}, 1)
    # 1.5 ended in a TypeError from range, and True was taken as 1
    for i in (-1, 1.5, True, "1", None):
        with pytest.raises(ValueError, match="must be an int"):
            interior(X, {(0,)}, i)


def test_interior_of_whole_image_is_whole_image():
    X = helpers.ring()
    assert interior(X, X.points, 3) == X.points


# --- parsing and files -------------------------------------------------------

def test_parse_json_image():
    X = parse_image('{"ambient_dim": 2, "points": [[0, 0], [1, 0]]}')
    assert X == DigitalImage(2, [(0, 0), (1, 0)])


def test_parse_text_image():
    X = parse_image("0 0\n1 0\n\n0 1\n")
    assert X == DigitalImage(2, [(0, 0), (1, 0), (0, 1)])


def test_parse_empty_text_gives_empty_image():
    X = parse_image("")
    assert X.ambient_dim == 1 and len(X) == 0


def test_parse_errors():
    for bad in (
        "{not json",
        '{"points": [[0]]}',
        '{"ambient_dim": 2}',
        '{"ambient_dim": 2, "points": [[0, 0], [0, 0]]}',  # duplicate
        '{"ambient_dim": 2, "points": [[0]]}',
        '{"ambient_dim": 2, "points": [[0, 0.5]]}',
        "0 0\n0 0\n",  # duplicate
        "0 0\n1\n",  # ragged
        "0 x\n",
    ):
        with pytest.raises(ParseError):
            parse_image(bad)


def test_duplicate_error_names_the_first_repeated_point_in_file_order():
    # a occurs twice but b repeats first; the report names a, which comes
    # first in the file
    for doc in ('{"ambient_dim": 2, "points": [[0, 0], [1, 0], [1, 0], [0, 0]]}',
                "0 0\n1 0\n1 0\n0 0\n"):
        with pytest.raises(ParseError, match=r"^duplicate point \(0, 0\)$"):
            parse_image(doc)


@pytest.mark.parametrize("doc", [
    '{"ambient_dim": 2, "points": [[3, -1], [0, 0], [1, 0]]}',
    "3 -1\n0 0\n1 0\n",
], ids=["json", "text"])
def test_each_loaded_point_is_checked_once(monkeypatch, doc):
    # the parsers check every point and build the image from the checked
    # set, without the constructor checking each point again
    from dighom import image

    checked = []
    as_point = image._as_point
    monkeypatch.setattr(image, "_as_point", lambda p: checked.append(p) or as_point(p))
    X = parse_image(doc)
    assert len(checked) == 3
    assert X == DigitalImage(2, [(3, -1), (0, 0), (1, 0)])
    assert X.sorted_points == ((0, 0), (1, 0), (3, -1))


def test_load_image_roundtrip(tmp_path):
    p = tmp_path / "ring.json"
    X = helpers.ring()
    p.write_text(json.dumps(
        {"ambient_dim": 2, "points": [list(q) for q in X.sorted_points]}
    ))
    assert load_image(str(p)) == X
    t = tmp_path / "ring.txt"
    t.write_text("\n".join(" ".join(map(str, q)) for q in X.sorted_points))
    assert load_image(str(t)) == X


def test_load_image_missing_file():
    with pytest.raises(ParseError):
        load_image("/no/such/file.json")


def test_load_point_map(tmp_path):
    X, Y = helpers.edge(), helpers.path3()
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"pairs": [[[0], [0]], [[1], [1]]]}))
    f = load_point_map(str(p), X, Y)
    assert f((0,)) == (0,) and f((1,)) == (1,)


def test_load_point_map_conflicting_pairs(tmp_path):
    X, Y = helpers.edge(), helpers.path3()
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"pairs": [[[0], [0]], [[0], [1]], [[1], [1]]]}))
    with pytest.raises(ParseError):
        load_point_map(str(p), X, Y)


def test_load_point_map_repeated_pair(tmp_path):
    # a domain point given twice is refused even with the same image; the
    # message tells the two cases apart
    X, Y = helpers.edge(), helpers.path3()
    p = tmp_path / "map.json"
    for second, message in (([0], "duplicate pair for"), ([1], "conflicting images for")):
        p.write_text(json.dumps({"pairs": [[[0], [0]], [[0], second], [[1], [1]]]}))
        with pytest.raises(ParseError, match=message + r" \(0,\)"):
            load_point_map(str(p), X, Y)


def test_load_point_map_bad_payload(tmp_path):
    X, Y = helpers.edge(), helpers.path3()
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"nope": []}))
    with pytest.raises(ParseError):
        load_point_map(str(p), X, Y)
    p.write_text(json.dumps({"pairs": [[[0], [9]], [[1], [1]]]}))
    with pytest.raises(PointNotInImage):
        load_point_map(str(p), X, Y)


# --- random maps -------------------------------------------------------------

def test_random_continuous_map_is_always_continuous():
    rng = random.Random(11)
    spaces = [helpers.edge(), helpers.path3(), helpers.square(), helpers.ring()]
    for _ in range(50):
        X = spaces[rng.randrange(len(spaces))]
        Y = spaces[rng.randrange(len(spaces))]
        f = random_continuous_map(X, Y, rng)
        assert f.domain == X and f.codomain == Y
        assert is_continuous(f)


def test_seeded_random_maps_match_the_breadth_first_oracle():
    # the visit order of each component and every draw of the rng fix the
    # table of a seeded map: 240 pairs of random images in 2D and 3D boxes,
    # with and without dead ends, give the oracle's table and leave the rng
    # where the oracle leaves it
    for seed in range(240):
        rng = random.Random(seed)
        n = 2 + seed % 2
        side = (4, 3)[n - 2]
        X = helpers.random_image(rng, n, side, 0.7)
        Y = helpers.random_image(rng, n, side, 0.6) or DigitalImage(n, [(0,) * n])
        ours, theirs = random.Random(seed), random.Random(seed)
        f = random_continuous_map(X, Y, ours)
        assert f.table == helpers.random_continuous_map_oracle(X, Y, theirs).table
        assert ours.random() == theirs.random()


def test_random_continuous_map_lists_the_components_once(monkeypatch):
    # a retry after a dead end walks the same components: the 240 seeded
    # maps of the oracle test take one components() call each
    from dighom import image

    calls = []
    components = image.components
    monkeypatch.setattr(image, "components", lambda X: calls.append(X) or components(X))
    for seed in range(240):
        rng = random.Random(seed)
        n = 2 + seed % 2
        X = helpers.random_image(rng, n, (4, 3)[n - 2], 0.7)
        Y = helpers.random_image(rng, n, (4, 3)[n - 2], 0.6) or DigitalImage(n, [(0,) * n])
        random_continuous_map(X, Y, random.Random(seed))
    assert len(calls) == 240


def test_random_continuous_map_empty_codomain():
    X = helpers.edge()
    empty = DigitalImage(1, [])
    with pytest.raises(ValueError):
        random_continuous_map(X, empty, random.Random(0))
    f = random_continuous_map(DigitalImage(1, []), helpers.edge(), random.Random(0))
    assert is_continuous(f)
