import json
import os
import threading
import time

import pytest

from dighom import FGAbelianGroup, bridge, cli, elementary, singular, singular_homology
from dighom.cli import build_parser, main

import helpers


@pytest.fixture
def run(capsys):
    def _run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return _run


def write_image(tmp_path, name, X, as_text=False):
    p = tmp_path / name
    if as_text:
        p.write_text(
            "\n".join(" ".join(map(str, q)) for q in X.sorted_points) + "\n")
    else:
        p.write_text(json.dumps(
            {"ambient_dim": X.ambient_dim,
             "points": [list(q) for q in X.sorted_points]}))
    return str(p)


def write_map(tmp_path, name, pairs):
    p = tmp_path / name
    p.write_text(json.dumps({"pairs": pairs}))
    return str(p)


# --- homology -------------------------------------------------------------------

def test_homology_ring_text(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, err = run(["homology", path])
    assert rc == 0
    assert out == "H_0 = Z\nH_1 = Z\n"
    assert err == ""


def test_homology_accepts_text_format_images(run, tmp_path):
    path = write_image(tmp_path, "ring.txt", helpers.ring(), as_text=True)
    rc, out, _ = run(["homology", path])
    assert rc == 0 and out == "H_0 = Z\nH_1 = Z\n"


def test_homology_shell_with_max_dim(run, tmp_path):
    path = write_image(tmp_path, "shell.json", helpers.shell())
    rc, out, _ = run(["homology", path, "--max-dim", "3"])
    assert rc == 0
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = Z\nH_3 = 0\n"


@pytest.mark.parametrize("max_dim, out", [
    ("0", "H_0 = Z\n"),
    ("1", "H_0 = Z\nH_1 = 0\n"),
])
def test_homology_max_dim_below_the_dimension(run, tmp_path, max_dim, out):
    # H_k needs d_{k+1}, which a complex cut at degree k would lack
    path = write_image(tmp_path, "square.json", helpers.square())
    assert run(["homology", path, "--max-dim", max_dim]) == (0, out, "")


def test_homology_in_high_ambient_dimension(run, tmp_path):
    path = write_image(tmp_path, "edge.json", helpers.high_edge(40))
    start = time.perf_counter()
    assert run(["homology", path]) == (0, "H_0 = Z\nH_1 = 0\n", "")
    assert time.perf_counter() - start < 1.0


def test_homology_json(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["homology", path, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"groups": [
        {"q": 0, "rank": 1, "torsion": []},
        {"q": 1, "rank": 1, "torsion": []},
    ]}


def test_homology_empty_image(run, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    rc, out, _ = run(["homology", str(p)])
    assert rc == 0
    assert out == "H_0 = 0\n"


def test_homology_relative(run, tmp_path):
    X = write_image(tmp_path, "path3.json", helpers.path3())
    p = tmp_path / "ends.json"
    p.write_text(json.dumps({"ambient_dim": 1, "points": [[0], [2]]}))
    rc, out, _ = run(["homology", X, "--relative", str(p), "--max-dim", "1"])
    assert rc == 0
    assert out == "H_0 = 0\nH_1 = Z\n"


def test_homology_relative_below_the_dimension(run, tmp_path):
    X = write_image(tmp_path, "square.json", helpers.square())
    p = tmp_path / "corner.json"
    p.write_text(json.dumps({"ambient_dim": 2, "points": [[0, 0]]}))
    rc, out, _ = run(["homology", X, "--relative", str(p), "--max-dim", "1"])
    assert rc == 0
    assert out == "H_0 = 0\nH_1 = 0\n"


def test_homology_relative_not_a_subset(run, tmp_path):
    X = write_image(tmp_path, "edge.json", helpers.edge())
    A = write_image(tmp_path, "far.json", helpers.path3())
    rc, out, err = run(["homology", X, "--relative", A])
    assert rc == 3
    assert "error:" in err


def test_homology_bad_file(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert run(["homology", str(p)])[0] == 2
    assert run(["homology", str(tmp_path / "missing.json")])[0] == 2
    dup = tmp_path / "dup.txt"
    dup.write_text("0 0\n0 0\n")
    assert run(["homology", str(dup)])[0] == 2


@pytest.mark.parametrize("as_text", [False, True], ids=["json", "text"])
def test_duplicate_at_the_end_of_a_large_file_exits_2_quickly(run, tmp_path, as_text):
    # the duplicate check is linear in the number of points; a check that
    # counts each point's occurrences in the list is quadratic
    pts = [(i, j) for i in range(250) for j in range(200)] + [(249, 199)]
    p = tmp_path / "big.txt"
    if as_text:
        p.write_text("".join(f"{i} {j}\n" for i, j in pts))
    else:
        p.write_text(json.dumps({"ambient_dim": 2, "points": [list(q) for q in pts]}))
    start = time.perf_counter()
    rc, out, err = run(["homology", str(p)])
    assert time.perf_counter() - start < 10.0
    assert (rc, out, err) == (2, "", "error: duplicate point (249, 199)\n")


@pytest.mark.parametrize("doc, message", [
    ('{"ambient_dim": 2, "points": [[0, 0], [0, 0.5]]}', "non-integer coordinate 0.5"),
    ('{"ambient_dim": 2, "points": [[0, true]]}', "non-integer coordinate True"),
    ("0 0\n0 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ('{"ambient_dim": 2, "points": [[0, 0], [1]]}',
     "point (1,) has 1 coordinates, image is 2-dimensional"),
    ('{"ambient_dim": 2, "points": [[0, 0, 0], [1, 1, 1]]}',
     "point (0, 0, 0) has 3 coordinates, image is 2-dimensional"),
    ("0 0\n1\n", "point (1,) has 1 coordinates, expected 2"),
    ('{"ambient_dim": 2, "points": [[0, 0], [1, 0], [1, 0], [0, 0]]}', "duplicate point (0, 0)"),
    ("0 0\n1 0\n1 0\n0 0\n", "duplicate point (0, 0)"),
    # a duplicate is named before the mixed lengths, and a bad ambient_dim
    # before the lengths
    ('{"ambient_dim": 2, "points": [[0], [0], [1, 1]]}', "duplicate point (0,)"),
    ('{"ambient_dim": 0, "points": []}', "ambient dimension must be a positive integer, got 0"),
    ('{"ambient_dim": "2", "points": [[0, 0]]}',
     "ambient dimension must be a positive integer, got '2'"),
    ('{"ambient_dim": true, "points": [[0]]}',
     "ambient dimension must be a positive integer, got True"),
    ('{"ambient_dim": -1, "points": [[0], [0, 1]]}',
     "ambient dimension must be a positive integer, got -1"),
], ids=["json-float", "json-bool", "text-word", "json-short", "json-long", "text-short",
        "json-duplicate", "text-duplicate", "duplicate-first", "dim-zero", "dim-string",
        "dim-bool", "dim-first"])
def test_bad_image_exits_2_with_its_message(run, tmp_path, doc, message):
    p = tmp_path / "bad.txt"
    p.write_text(doc)
    assert run(["homology", str(p)]) == (2, "", f"error: {message}\n")


# --- singular -------------------------------------------------------------------

def test_singular_edge(run, tmp_path):
    path = write_image(tmp_path, "edge.json", helpers.edge())
    rc, out, _ = run(["singular", path])
    assert rc == 0
    assert out == "H_0 = Z\nH_1 = 0\n"


def test_singular_point_high_degree(run, tmp_path):
    # without an adjacent pair no cube above degree 0 is nondegenerate, and
    # none of the 2^q-corner tables of degree q is built
    for name, X, h0 in (("pt.json", helpers.pt(), "Z"),
                        ("two.json", helpers.isolated(2), "Z^2")):
        path = write_image(tmp_path, name, X)
        start = time.perf_counter()
        rc, out, err = run(["singular", path, "--max-q", "30"])
        assert time.perf_counter() - start < 1.0
        assert rc == 0 and err == ""
        assert out == f"H_0 = {h0}\n" + "".join(f"H_{q} = 0\n" for q in range(1, 31))


def test_singular_square_top_degree_within_small_budget(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    rc, out, err = run(["singular", path, "--max-q", "3", "--budget", "5000"])
    assert rc == 0 and err == ""
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = 0\nH_3 = 0\n"


def test_singular_budget_exceeded_is_partial(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["singular", path, "--max-q", "1", "--budget", "20"])
    assert rc == 4
    assert out == "H_0 = Z\nH_1 = ? (budget exceeded)\n"


def test_singular_budget_json_marks_skips(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(
        ["singular", path, "--max-q", "1", "--budget", "20", "--format", "json"])
    assert rc == 4
    doc = json.loads(out)
    assert doc["groups"][0] == {"q": 0, "rank": 1, "torsion": []}
    assert doc["groups"][1] == {"q": 1, "skipped": True}


# --- compare --------------------------------------------------------------------

def test_compare_ring(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["compare", path])
    assert rc == 0
    assert out == (
        "q=0: singular Z vs c1 Z OK\n"
        "q=1: singular Z vs c1 Z OK\n"
    )


def test_compare_budget_skip_is_not_failure(run, tmp_path):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["compare", path, "--budget", "20"])
    assert rc == 0
    assert out == (
        "q=0: singular Z vs c1 Z OK\n"
        "q=1: singular skipped (budget exceeded), c1 Z\n"
    )


def test_more_points_than_the_budget_skips_every_degree(run, tmp_path):
    # the ring has 8 points, so degree 0 is over a budget of 7: no group is
    # given, singular exits 4 and compare skips both degrees without failing
    assert singular_homology(helpers.ring(), 1, budget=7) == [None, None]
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["singular", path, "--max-q", "1", "--budget", "7"])
    assert rc == 4
    assert out == "H_0 = ? (budget exceeded)\nH_1 = ? (budget exceeded)\n"
    rc, out, _ = run(["compare", path, "--max-q", "1", "--budget", "7"])
    assert rc == 0
    assert out == (
        "q=0: singular skipped (budget exceeded), c1 Z\n"
        "q=1: singular skipped (budget exceeded), c1 Z\n"
    )


@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "0", "argument --budget: must be >= 1"),
    ("--max-q", "-1", "argument --max-q: must be >= 0"),
])
def test_budget_and_max_q_out_of_range_are_usage_errors(capsys, tmp_path, flag, value, message):
    path = write_image(tmp_path, "ring.json", helpers.ring())
    with pytest.raises(SystemExit) as e:
        main(["singular", path, flag, value])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith(f"dighom singular: error: {message}\n")


def test_compare_reports_a_mismatch(run, tmp_path, monkeypatch):
    # no image is known on which the two pipelines disagree, so a wrong
    # singular H_1 is put in by hand
    Z = FGAbelianGroup(1)
    monkeypatch.setattr(bridge, "_singular_homology",
                        lambda X, max_q, budget, c1: [Z, FGAbelianGroup(2)])
    assert bridge.verify_isomorphism(helpers.ring(), 1).any_mismatch
    path = write_image(tmp_path, "ring.json", helpers.ring())
    rc, out, _ = run(["compare", path, "--max-q", "1"])
    assert rc == 1
    assert out == "q=0: singular Z vs c1 Z OK\nq=1: singular Z^2 vs c1 Z MISMATCH\n"
    rc, out, _ = run(["compare", path, "--max-q", "1", "--format", "json"])
    assert rc == 1
    doc = json.loads(out)
    assert [c["verdict"] for c in doc["comparisons"]] == ["ok", "mismatch"]
    assert doc["all_ok"] is False


def test_compare_in_high_ambient_dimension(run, tmp_path):
    path = write_image(tmp_path, "edge.json", helpers.high_edge(40))
    start = time.perf_counter()
    rc, out, _ = run(["compare", path, "--max-q", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert out == "q=0: singular Z vs c1 Z OK\nq=1: singular 0 vs c1 0 OK\n"


def test_compare_json_roundtrip(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    rc, out, _ = run(["compare", path, "--max-q", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert [c["verdict"] for c in doc["comparisons"]] == ["ok"] * 3
    assert doc["comparisons"][0]["singular"] == {"rank": 1, "torsion": []}


@pytest.mark.parametrize("name, q", [("ring", 1), ("square", 2), ("shell", 2), ("path3", 1)])
def test_compare_builds_the_c1_levels_once(run, tmp_path, monkeypatch, name, q):
    # the c1 side and the certificate of the singular top degree read one
    # c1 complex: its levels are built once, to degree q + 1, and its
    # boundary columns once per degree
    X = getattr(helpers, name)()
    dim = elementary.dimension(X)
    levels, columns = [], []
    build_levels, build_columns = elementary._levels, elementary._boundary_columns
    monkeypatch.setattr(elementary, "_levels",
                        lambda X, top=None: levels.append(top) or build_levels(X, top))
    monkeypatch.setattr(elementary, "_boundary_columns",
                        lambda *args: columns.append(args[-1]) or build_columns(*args))
    path = write_image(tmp_path, f"{name}.json", X)
    rc, out, _ = run(["compare", path, "--max-q", str(q)])
    assert rc == 0 and "MISMATCH" not in out
    assert levels == [q + 1]
    assert columns == list(range(1, min(q + 1, dim) + 1))


# --- classify -------------------------------------------------------------------

def test_classify_edge(run, tmp_path):
    path = write_image(tmp_path, "edge.json", helpers.edge())
    rc, out, _ = run(["classify", path])
    assert rc == 0
    assert out == "q=2: total=10 Type1=2 Type2=8 Type3=0\n"


def test_classify_square_q3_sees_all_types(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    rc, out, _ = run(["classify", path, "--max-q", "3"])
    assert rc == 0
    assert out == (
        "q=2: total=56 Type1=24 Type2=32 Type3=0\n"
        "q=3: total=648 Type1=24 Type2=576 Type3=48\n"
    )


def test_classify_lists_every_degree_from_one_ladder(run, tmp_path, monkeypatch):
    made = []
    ladder = cli._Ladder
    monkeypatch.setattr(cli, "_Ladder", lambda X: made.append(X) or ladder(X))
    path = write_image(tmp_path, "square.json", helpers.square())
    rc, out, _ = run(["classify", path, "--max-q", "3"])
    assert rc == 0 and out.endswith("q=3: total=648 Type1=24 Type2=576 Type3=48\n")
    assert len(made) == 1


def test_classify_json(run, tmp_path):
    path = write_image(tmp_path, "edge.json", helpers.edge())
    rc, out, _ = run(["classify", path, "--format", "json"])
    doc = json.loads(out)
    assert doc == {
        "histogram": [{"q": 2, "total": 10, "type1": 2, "type2": 8, "type3": 0}],
        "unclassifiable": 0,
    }


def test_classify_budget(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    rc, out, err = run(["classify", path, "--budget", "10"])
    assert rc == 4
    assert "error:" in err


# --- induced --------------------------------------------------------------------

def test_induced_identity(run, tmp_path):
    sq = write_image(tmp_path, "sq.json", helpers.square())
    pairs = [[list(p), list(p)] for p in helpers.square().sorted_points]
    mp = write_map(tmp_path, "id.json", pairs)
    rc, out, _ = run(["induced", sq, sq, mp])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "q=0: 4x4"
    assert lines[-1] == "chain map: OK"
    assert "q=2: 1x1" in lines
    assert "  [1]" in lines


def test_induced_constant_map(run, tmp_path):
    sq = write_image(tmp_path, "sq.json", helpers.square())
    pairs = [[list(p), [0, 0]] for p in helpers.square().sorted_points]
    mp = write_map(tmp_path, "const.json", pairs)
    rc, out, _ = run(["induced", sq, sq, mp, "--max-q", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["chain_map"] is True
    assert doc["matrices"][1]["rows"] == [[0, 0, 0, 0]] * 4


def test_induced_reflection(run, tmp_path):
    import dighom

    edge = write_image(tmp_path, "edge.json", helpers.edge())
    mirror = write_image(
        tmp_path, "mirror.json", dighom.DigitalImage(1, [(-1,), (0,)]))
    mp = write_map(tmp_path, "neg.json", [[[0], [0]], [[1], [-1]]])
    rc, out, _ = run(["induced", edge, mirror, mp])
    assert rc == 0
    assert "q=1: 1x1" in out and "  [-1]" in out
    assert out.rstrip().endswith("chain map: OK")


def test_induced_discontinuous_map(run, tmp_path):
    edge = write_image(tmp_path, "edge.json", helpers.edge())
    p3 = write_image(tmp_path, "p3.json", helpers.path3())
    mp = write_map(tmp_path, "bad.json", [[[0], [0]], [[1], [2]]])
    rc, out, err = run(["induced", edge, p3, mp])
    assert rc == 3
    assert "error:" in err


def test_induced_malformed_map(run, tmp_path):
    edge = write_image(tmp_path, "edge.json", helpers.edge())
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"nope": 1}))
    rc, _, err = run(["induced", edge, edge, str(p)])
    assert rc == 2


@pytest.mark.parametrize("doc", [
    {"pairs": 5},
    {"pairs": [[0, 1]]},
    {"pairs": [[[0], 1]]},
    {"pairs": [[[0], [0]], [[0], [0]], [[1], [1]]]},  # a domain point given twice
])
def test_induced_map_of_the_wrong_shape(run, tmp_path, doc):
    edge = write_image(tmp_path, "edge.json", helpers.edge())
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(["induced", edge, edge, str(p)])
    assert rc == 2
    assert out == "" and err.startswith("error:")


def counting_levels(monkeypatch):
    """A list that gets the image of each call of elementary._levels."""
    calls = []
    levels = elementary._levels
    monkeypatch.setattr(elementary, "_levels", lambda X, *rest: calls.append(X) or levels(X, *rest))
    return calls


def test_induced_builds_the_levels_of_each_image_once(run, tmp_path, monkeypatch):
    # the quarter turn of the ring to degree 2: the levels of the domain and
    # the codomain are built once each, for the induced matrices of the
    # three degrees and the two c1 complexes of the chain-map check
    ring = helpers.ring()
    path = write_image(tmp_path, "ring.txt", ring, as_text=True)
    mp = write_map(tmp_path, "rot.json", [[[x, y], [2 - y, x]] for x, y in ring.sorted_points])
    calls = counting_levels(monkeypatch)
    rc, out, _ = run(["induced", path, path, mp, "--max-q", "2"])
    assert rc == 0 and out.endswith("chain map: OK\n")
    assert len(calls) == 2
    # by default the top degree is the dimension of the domain, read from
    # the levels of the domain themselves
    calls.clear()
    rc, out, _ = run(["induced", path, path, mp])
    assert rc == 0 and out.startswith("q=0: 8x8\n") and "q=2" not in out
    assert out.endswith("chain map: OK\n") and len(calls) == 2


def test_functorial_suite_builds_the_levels_of_each_image_once_per_run(run, monkeypatch):
    # 8 rounds of the suite each take f, g, g after f and the two c1
    # complexes, all over the levels of the run's square, ring and path3,
    # built once per run
    calls = counting_levels(monkeypatch)
    fixtures = [helpers.square(), helpers.ring(), helpers.path3()]
    for _ in range(2):
        calls.clear()
        rc, out, _ = run(["verify", "functorial", "--seed", "1"])
        assert (rc, out) == (0, "functorial: ok (16 random maps)\n")
        assert sorted(X.sorted_points for X in calls) == sorted(X.sorted_points for X in fixtures)


# --- verify ---------------------------------------------------------------------

def test_verify_all_suites(run):
    rc, out, _ = run(["verify"])
    assert rc == 0
    lines = out.splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == sorted(
        ["snf", "neighborhood", "operators", "signs",
         "chainmap", "classify", "functorial"])
    assert all(": ok (" in ln for ln in lines)


def test_verify_single_suite_json(run):
    rc, out, _ = run(["verify", "snf", "--seed", "5", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["suites"] == [
        {"name": "snf", "ok": True, "detail": "200 random matrices"}]


def test_verify_unknown_suite(run):
    rc, out, err = run(["verify", "nope"])
    assert rc == 2
    assert "unknown suite" in err
    assert "snf" in err  # lists what is available


def test_verify_is_deterministic(run):
    rc1, out1, _ = run(["verify", "functorial", "--seed", "3"])
    rc2, out2, _ = run(["verify", "functorial", "--seed", "3"])
    assert (rc1, out1) == (rc2, out2)


def fixture_expected():
    """The fixtures of verify by name, and the (points, q) of every listing
    of singular cubes that its suites read."""
    fixtures = {"edge": helpers.edge(), "square": helpers.square(),
                "tall_edge": helpers.tall_edge(), "ring": helpers.ring(),
                "path3": helpers.path3()}
    listings = {(fixtures[name].sorted_points, q)
                for names, qs in ((("edge", "square"), (1, 2, 3)),
                                  (("tall_edge", "ring"), (1, 2)))
                for name in names for q in qs}
    return fixtures, listings


def test_verify_lists_each_fixture_degree_once_per_run(run, monkeypatch):
    # in one process, the suites of one run share each listing of singular
    # cubes and the one ladder of each fixture they come from; a later run
    # makes them again, and each suite reports as it does alone
    monkeypatch.delattr(os, "fork")
    listed, made = [], []
    enumerate_cubes, ladder = cli._enumerate, cli._Ladder

    def recording(X, q, *rest):
        listed.append((X.sorted_points, q))
        return enumerate_cubes(X, q, *rest)

    monkeypatch.setattr(cli, "_enumerate", recording)
    monkeypatch.setattr(cli, "_Ladder", lambda X: made.append(X.sorted_points) or ladder(X))
    fixtures, expected = fixture_expected()
    for seed in ("1", "2", "3"):
        for fmt in ("text", "json"):
            listed.clear()
            made.clear()
            rc, out, err = run(["verify", "--seed", seed, "--format", fmt])
            assert (rc, err) == (0, "")
            assert len(listed) == len(set(listed)) and set(listed) == expected
            assert sorted(made) == sorted(X.sorted_points for X in fixtures.values())
            alone = [run(["verify", name, "--seed", seed, "--format", fmt])
                     for name in sorted(cli._SUITES)]
            assert all((rc1, err1) == (0, "") for rc1, _, err1 in alone)
            if fmt == "text":
                assert out == "".join(out1 for _, out1, _ in alone)
            else:
                suites = [s for _, out1, _ in alone for s in json.loads(out1)["suites"]]
                assert json.loads(out) == {"suites": suites, "all_ok": True}


def forking(monkeypatch, cpus):
    """Let verify take `cpus` workers, whatever this host has."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def as_tuples(value):
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


def per_pid(path):
    """{pid: [(kind, value), ...]} from the lines that record_in wrote, with
    JSON lists read back as tuples."""
    got = {}
    for line in path.read_text().splitlines():
        pid, kind, value = json.loads(line)
        got.setdefault(pid, []).append((kind, as_tuples(value)))
    return got


def record_in(path, kind, value):
    """Append one line for this process: a record that outlives a child."""
    with open(path, "a") as fh:
        fh.write(json.dumps([os.getpid(), kind, value]) + "\n")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_verify_lists_each_fixture_degree_once_per_worker(run, monkeypatch, tmp_path,
                                                                 cpus):
    # each worker makes its own fixtures: it lists each fixture degree and
    # builds each ladder at most once, and the workers together list every
    # degree that the suites read
    forking(monkeypatch, cpus)
    enumerate_cubes, ladder = cli._enumerate, cli._Ladder
    log = tmp_path / "log"

    def recording(X, q, *rest):
        record_in(log, "listed", [X.sorted_points, q])
        return enumerate_cubes(X, q, *rest)

    def recording_ladder(X):
        record_in(log, "ladder", [X.sorted_points, None])
        return ladder(X)

    monkeypatch.setattr(cli, "_enumerate", recording)
    monkeypatch.setattr(cli, "_Ladder", recording_ladder)
    fixtures, expected = fixture_expected()
    points = {X.sorted_points for X in fixtures.values()}
    for seed in ("1", "2"):
        log.write_text("")
        rc, out, err = run(["verify", "--seed", seed])
        assert (rc, err) == (0, "") and len(out.splitlines()) == len(cli._SUITES)
        workers = per_pid(log)
        assert 1 < len(workers) <= cpus
        union = set()
        for records in workers.values():
            listed = [(pts, q) for kind, (pts, q) in records if kind == "listed"]
            made = [pts for kind, (pts, _) in records if kind == "ladder"]
            assert len(listed) == len(set(listed)) and len(made) == len(set(made))
            assert set(made) <= points
            union.update(listed)
        assert union == expected


def one_worker_and_forked(run, monkeypatch, argv, cpus=3):
    """(report of one worker, report of `cpus` forked workers) of argv."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        alone = run(argv)
    with monkeypatch.context() as m:
        forking(m, cpus)
        forked = run(argv)
    return alone, forked


@needs_fork
def test_forked_and_one_worker_reports_are_byte_identical(run, monkeypatch):
    for seed in range(11):
        for suites in ([], ["signs", "snf"]):
            for fmt in ("text", "json"):
                argv = ["verify", *suites, "--seed", str(seed), "--format", fmt]
                alone, forked = one_worker_and_forked(run, monkeypatch, argv)
                assert alone == forked and alone[0] == 0


class SuiteFailure(Exception):
    pass


def raising(exc):
    def suite(rng, fx):
        raise exc
    return suite


def passing(detail):
    return lambda rng, fx: (True, detail)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_the_first_suite_in_order_to_raise_gives_the_error(run, monkeypatch, cpus):
    # whichever worker runs it, the first suite in order that raises gives
    # its exception, of the same class and with the same message; a
    # DighomError only fails its suite
    unsent = ValueError("unsent")
    unsent.hook = lambda: None  # a child cannot pickle this one
    monkeypatch.setattr(cli, "_SUITES", {
        "ok": passing("fine"), "boom": raising(ValueError("boom")),
        "key": raising(KeyError("k")), "own": raising(SuiteFailure("own")),
        "unsent": raising(unsent), "dighom": raising(cli.UnclassifiableCube("no type"))})
    forking(monkeypatch, cpus)
    cases = [
        (["ok", "boom", "ok", "key"], (3, "", "error: boom\n")),
        (["ok", "ok", "ok", "unsent", "boom"], (3, "", "error: unsent\n")),
        (["ok", "dighom", "ok"], (1, "ok: ok (fine)\ndighom: FAIL (no type)\nok: ok (fine)\n", "")),
        (["ok", "ok", "key", "boom"], KeyError("k")),
        (["own", "boom", "own"], SuiteFailure("own")),
    ]
    for names, want in cases:
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as info:
                main(["verify", *names])
            assert info.value.args == want.args
        else:
            assert run(["verify", *names]) == want, names
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_worker_stops_claiming_after_a_suite_raises(run, monkeypatch, tmp_path, cpus):
    # every suite raises, so each worker runs the one suite it claims first
    log = tmp_path / "log"
    log.write_text("")

    def suite(rng, fx):
        record_in(log, "ran", 0)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "_SUITES", {"stop": suite})
    forking(monkeypatch, cpus)
    rc, out, err = run(["verify", *["stop"] * 20])
    assert (rc, out, err) == (3, "", "error: stop\n")
    runs = per_pid(log)
    assert 1 <= len(runs) <= cpus and all(len(r) == 1 for r in runs.values())


@needs_fork
def test_each_suite_runs_once_over_the_workers(run, monkeypatch, tmp_path):
    log = tmp_path / "log"
    log.write_text("")

    def suite(rng, fx):
        record_in(log, "ran", 0)
        time.sleep(0.005)  # long enough that every worker claims some
        return True, "ran"

    monkeypatch.setattr(cli, "_SUITES", {"ran": suite})
    forking(monkeypatch, 3)
    assert run(["verify", *["ran"] * 30]) == (0, "ran: ok (ran)\n" * 30, "")
    runs = per_pid(log)
    assert len(runs) > 1 and sum(map(len, runs.values())) == 30


@needs_fork
def test_seventy_thousand_suites_finish_in_order(run, monkeypatch, tmp_path):
    # more indices than one byte holds and more results than a pipe holds,
    # over more workers than this host has CPUs: each suite runs once
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counted(ok, detail):
        return lambda rng, fx: os.write(log, b".") and (ok, detail)

    monkeypatch.setattr(cli, "_SUITES", {"a": counted(True, "1"), "b": counted(True, "2"),
                                         "c": counted(False, "3")})
    forking(monkeypatch, 4)
    names = ["abc"[i * i % 7 % 3] for i in range(70_000)]
    try:
        rc, out, err = run(["verify", *names])
    finally:
        os.close(log)
    assert (rc, err) == (1, "")
    words = {"a": "a: ok (1)", "b": "b: ok (2)", "c": "c: FAIL (3)"}
    assert out.splitlines() == [words[n] for n in names]
    assert (tmp_path / "log").stat().st_size == len(names)


@needs_fork
def test_every_child_is_reaped(run, monkeypatch):
    forking(monkeypatch, 3)
    rc, _, _ = run(["verify", "--seed", "4"])
    assert rc == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli, "_SUITES", {**cli._SUITES, "bad": lambda rng, fx: (False, "no")})
    rc, _, _ = run(["verify", "snf", "bad", "signs"])
    assert rc == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli, "_SUITES", {**cli._SUITES, "bad": raising(RuntimeError("x"))})
    with pytest.raises(RuntimeError, match="^x$"):
        main(["verify", "snf", "bad", "signs"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_no_child_is_forked_for_one_worker(run, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    forking(monkeypatch, 2)
    assert run(["verify", "snf", "--seed", "2"])[0] == 0
    with monkeypatch.context() as m:
        forking(m, 1)
        assert run(["verify", "--seed", "2"])[0] == 0
    release = threading.Event()
    second = threading.Thread(target=release.wait)
    second.start()
    try:
        assert run(["verify", "--seed", "2"])[0] == 0
    finally:
        release.set()
        second.join()


def broken_at(op, index, wrong):
    """op with wrong(sigma, *index) in place of its value at this one index tuple."""
    return lambda sigma, *idx: wrong(sigma, *idx) if idx == index else op(sigma, *idx)


@pytest.mark.parametrize("name, index, wrong", [
    pytest.param("flip", (2,), lambda s, j: singular.flip(s, 1), id="flip"),
    pytest.param("swap", (1, 2), lambda s, i, j: s, id="swap"),
    pytest.param("shift", (1, 3), lambda s, i, j: singular.swap(s, i, j), id="shift"),
    pytest.param("rotate", (1, 2), lambda s, i, j: singular.rotate(s, j, i), id="rotate"),
])
def test_an_operator_broken_at_one_index_fails_the_operators_suite(run, monkeypatch, name,
                                                                    index, wrong):
    monkeypatch.setattr(cli, name, broken_at(getattr(singular, name), index, wrong))
    for seed in ("0", "1", "2"):
        rc, out, err = run(["verify", "operators", "--seed", seed])
        assert (rc, err) == (1, "")
        assert out.startswith("operators: FAIL (identity failed on I^")


# --- general ---------------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    first = run(["compare", path, "--max-q", "2", "--format", "json"])
    second = run(["compare", path, "--max-q", "2", "--format", "json"])
    assert first == second


def test_one_parser_per_process_reports_as_a_fresh_one(capsys, tmp_path):
    # the parser is built once and reused; a parse error in between leaves
    # the later reports and exit codes as a fresh parser gives them
    ring = write_image(tmp_path, "ring.json", helpers.ring())
    argvs = [["singular", ring], ["singular", ring, "--max-q", "x"],
             ["homology", ring, "--format", "json"], ["nope"],
             ["verify", "operators", "--seed", "2"], ["classify", ring, "--max-q", "2"]]

    def outcomes(fresh):
        got = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
            got.append((rc, *capsys.readouterr()))
        return got

    assert build_parser() is build_parser()
    reused = outcomes(False)
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 2, 0, 0]
    assert reused == outcomes(True)


def test_console_script_is_installed(tmp_path):
    """Installing this checkout gives a ``dighom`` command that runs.

    The checkout's ``src/`` and ``pyproject.toml`` are copied into a
    throwaway venv and installed there with setuptools' ``develop``, which
    needs neither the network nor ``wheel``.  The script then runs without
    ``PYTHONPATH``, so it must load the installed entry point, not ``src/``.
    """
    import os
    import shutil
    import subprocess
    import venv
    from pathlib import Path

    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(root / "pyproject.toml", tmp_path)
    env_dir = tmp_path / "venv"
    builder = venv.EnvBuilder(system_site_packages=True, with_pip=False)
    builder.create(env_dir)
    context = builder.ensure_directories(env_dir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    install = subprocess.run(
        [context.env_exe, "-c", "from setuptools import setup; setup()",
         "develop", "--no-deps"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert install.returncode == 0, install.stderr

    exe = shutil.which("dighom", path=context.bin_path)
    assert exe is not None
    res = subprocess.run([exe, "--help"], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "homology" in res.stdout
