import json
from itertools import permutations, product

import pytest

from dighom import bridge
from dighom import (
    DigitalImage,
    ElementaryCube,
    FGAbelianGroup,
    beta,
    beta_matrices,
    build_c1_complex,
    components,
    dimension,
    enumerate_elementary_cubes,
    enumerate_singular_cubes,
    flip,
    is_injective,
    make_cube,
    orientation,
    swap,
    verify_chain_map,
    verify_isomorphism,
)

import helpers


def test_beta_of_noninjective_cube_is_none():
    fold = make_cube([(0,), (1,), (1,), (0,)])
    assert beta(fold) is None


def test_beta_of_embeddings():
    sq = make_cube([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert beta(sq) == (1, ElementaryCube((0, 0), (1, 2)))
    assert beta(swap(sq, 1, 2)) == (-1, ElementaryCube((0, 0), (1, 2)))
    assert beta(flip(sq, 1)) == (-1, ElementaryCube((0, 0), (1, 2)))
    up = make_cube([(0, 3), (0, 4)])
    assert beta(up) == (1, ElementaryCube((0, 3), (2,)))


def test_beta_sign_is_the_orientation():
    for X in (helpers.square(), helpers.ring(), helpers.tall_edge()):
        for q in (1, 2):
            for sigma in enumerate_singular_cubes(X, q):
                b = beta(sigma)
                if not is_injective(sigma):
                    assert b is None
                    continue
                o, target = b
                assert o == orientation(sigma).o
                assert target == ElementaryCube.from_vertices(sigma.corners)


def test_beta_matrices_columns_are_signed_unit_vectors():
    bm = beta_matrices(helpers.ring(), 1)
    for M in bm.matrices:
        for col in M.columns:
            assert len(col) <= 1
            for v in col.values():
                assert v in (1, -1)


def test_beta_is_a_chain_map_on_fixtures():
    for name, mk in helpers.FIXTURES.items():
        X = mk()
        max_q = min(dimension(X) if len(X) else 0, 2)
        bm = beta_matrices(X, max_q)
        assert verify_chain_map(bm.matrices, bm.singular, bm.elementary.complex), name


def test_beta_hits_every_elementary_cube_positively():
    # the canonical corner table of each elementary cube is a singular cube
    # mapping onto it with sign +1, so every basis element is in the image
    for X in (helpers.square(), helpers.ring(), helpers.block()):
        for q in range(dimension(X) + 1):
            for Q in enumerate_elementary_cubes(X, q):
                sigma = make_cube(Q.vertices())
                assert beta(sigma) == (1, Q)


def test_beta_above_the_c1_top_is_zero_without_a_key(monkeypatch):
    # the square has no c1 3-cube: beta_3 maps into an empty basis, so no
    # 3-cube goes through _beta_key
    keys = []
    beta_key = bridge._beta_key
    monkeypatch.setattr(bridge, "_beta_key", lambda key, pts: keys.append(len(key)) or beta_key(key, pts))
    bm = beta_matrices(helpers.square(), 2)
    assert [(M.nrows, M.ncols) for M in bm.matrices] == [(4, 4), (4, 8), (1, 64), (0, 2432)]
    assert sorted(set(keys)) == [1, 2, 4] and bm.matrices[3].is_zero()


def test_the_chain_map_check_builds_the_top_columns_at_live_rows():
    # of the 2,432 columns of d_3 of the square, the check of beta builds
    # the 648 of the cofaces of the 8 injective 2-cubes, the live columns
    # of beta_2, and composes only those
    bm = beta_matrices(helpers.square(), 2)
    d3 = bm.singular.boundaries[2].columns
    assert sum(1 for col in bm.matrices[2].columns if col) == 8
    assert verify_chain_map(bm.matrices, bm.singular, bm.elementary.complex)
    assert (len(d3) - d3.cols.count(None), len(d3)) == (648, 2432)


def test_verify_isomorphism_ring():
    rep = verify_isomorphism(helpers.ring(), 1)
    assert rep.all_ok and not rep.any_mismatch and not rep.any_skipped
    assert [c.q for c in rep.comparisons] == [0, 1]
    assert rep.comparisons[1].singular == FGAbelianGroup(1)
    assert rep.comparisons[1].c1 == FGAbelianGroup(1)


def test_verify_isomorphism_isolated_points():
    rep = verify_isomorphism(helpers.isolated(5), 2)
    assert rep.all_ok
    assert rep.comparisons[0].singular == FGAbelianGroup(5)
    assert rep.comparisons[1].singular == FGAbelianGroup(0)


def test_verify_isomorphism_budget_skips():
    rep = verify_isomorphism(helpers.ring(), 2, budget=20)
    assert not rep.all_ok
    assert rep.any_skipped
    assert not rep.any_mismatch
    verdicts = [c.verdict for c in rep.comparisons]
    assert verdicts == ["ok", "skipped", "skipped"]


def test_verify_isomorphism_empty_image():
    rep = verify_isomorphism(DigitalImage(1, []), 1)
    assert rep.all_ok
    assert rep.comparisons[0].singular == FGAbelianGroup(0)


def census(box):
    """One image per class of the nonempty subsets of the box of sides box
    under its symmetries, the coordinate permutations and reflections: the
    least of its images under them, as a sorted point tuple."""
    cells = list(product(*map(range, box)))
    moves = [(perm, flips) for perm in permutations(range(len(box)))
             if all(box[i] == box[j] for i, j in enumerate(perm))
             for flips in product((False, True), repeat=len(box))]
    classes = set()
    for bits in range(1, 1 << len(cells)):
        pts = [p for b, p in enumerate(cells) if bits >> b & 1]
        classes.add(min(tuple(sorted(tuple(box[i] - 1 - p[i] if f else p[i]
                                           for i, f in zip(perm, flips)) for p in pts))
                        for perm, flips in moves))
    return sorted(classes)


@pytest.mark.parametrize("box, count", [((3, 3), 101), ((2, 2, 2), 21)], ids=["3x3", "2x2x2"])
def test_census_of_small_boxes(box, count):
    # every class of subsets of the box: the two pipelines agree through
    # q=2, and H_0 is free on the components
    classes = census(box)
    assert len(classes) == count
    for pts in classes:
        X = DigitalImage(len(box), pts)
        rep = verify_isomorphism(X, 2)
        assert rep.all_ok
        assert rep.comparisons[0].singular == FGAbelianGroup(len(components(X)))


def test_iso_report_json_schema():
    rep = verify_isomorphism(helpers.ring(), 1)
    doc = rep.to_json()
    json.loads(json.dumps(doc))  # serializable
    assert doc["all_ok"] is True
    assert doc["comparisons"][1] == {
        "q": 1,
        "singular": {"rank": 1, "torsion": []},
        "c1": {"rank": 1, "torsion": []},
        "verdict": "ok",
    }
    skipped = verify_isomorphism(helpers.ring(), 1, budget=8).to_json()
    assert skipped["comparisons"][1]["singular"] is None
    assert skipped["comparisons"][1]["verdict"] == "skipped"
