import json
import time

import pytest

from dighom.cli import main

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
])
def test_induced_map_of_the_wrong_shape(run, tmp_path, doc):
    edge = write_image(tmp_path, "edge.json", helpers.edge())
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(["induced", edge, edge, str(p)])
    assert rc == 2
    assert out == "" and err.startswith("error:")


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


# --- general ---------------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(run, tmp_path):
    path = write_image(tmp_path, "square.json", helpers.square())
    first = run(["compare", path, "--max-q", "2", "--format", "json"])
    second = run(["compare", path, "--max-q", "2", "--format", "json"])
    assert first == second


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
