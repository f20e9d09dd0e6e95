"""Checks of the benchmark itself: inputs, oracles, exception net, tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import dighom  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Oracle, Z  # noqa: E402

RING = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


@pytest.fixture
def workdir():
    d = BENCH / ".work" / f"selftest-{uuid.uuid4().hex}"
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d)


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, workdir):
    make = workloads.WORKLOADS[name]
    for sub in ("a", "b", "c"):
        (workdir / sub).mkdir()
    jobs_a, _ = make(7, str(workdir / "a"))
    jobs_b, _ = make(7, str(workdir / "b"))
    make(8, str(workdir / "c"))
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")
    assert [j.kind for j in jobs_a] == [j.kind for j in jobs_b]


def _ring_file(workdir):
    return workloads.write_image(str(workdir / "ring.json"), RING, random.Random(0))


def _rejects(oracle, job, code, out):
    assert oracle.check(job, code, out) is None
    return lambda c, o: oracle.check(job, c, o) is not None


def test_singular_oracle_rejects_wrong_groups(workdir):
    job = Job("singular", ("singular", _ring_file(workdir), "--max-q", "1"), [Z, Z])
    code, out = workloads.run_job(job)
    rejects = _rejects(Oracle(), job, code, out)
    doc = json.loads(out)
    doc["groups"][1]["rank"] = 0
    assert rejects(code, json.dumps(doc))
    doc["groups"][1] = {"q": 1, "skipped": True}
    assert rejects(code, json.dumps(doc))
    assert rejects(4, out)
    assert rejects(code, "")


def test_compare_oracle_rejects_flipped_verdict(workdir):
    job = Job("compare", ("compare", _ring_file(workdir), "--max-q", "1"))
    code, out = workloads.run_job(job)
    rejects = _rejects(Oracle(), job, code, out)
    doc = json.loads(out)
    doc["comparisons"][1]["verdict"] = "mismatch"
    assert rejects(code, json.dumps(doc))
    assert rejects(1, out)


def test_homology_oracle_rejects_wrong_ranks(workdir):
    job = Job("homology", ("homology", _ring_file(workdir)))
    code, out = workloads.run_job(job)
    rejects = _rejects(Oracle(), job, code, out)
    for q, rank in ((0, 2), (1, 0)):
        doc = json.loads(out)
        doc["groups"][q]["rank"] = rank
        assert rejects(code, json.dumps(doc))


def test_chainmap_oracle_rejects_wrong_answers(workdir):
    job = Job("chainmap", (_ring_file(workdir),))
    code, (ok, sing, c1) = workloads.run_job(job)
    rejects = _rejects(Oracle(), job, code, (ok, sing, c1))
    assert rejects(code, (False, sing, c1))
    assert rejects(code, (ok, [sing[0], dighom.ZERO_GROUP, sing[2]], c1))
    assert rejects(code, (ok, [sing[0], None, sing[2]], c1))


def test_verify_oracle_rejects_failed_suite():
    job = Job("verify", ("verify", "neighborhood", "--seed", "3"))
    code, out = workloads.run_job(job)
    rejects = _rejects(Oracle(), job, code, out)
    doc = json.loads(out)
    doc["suites"][0]["ok"] = False
    assert rejects(code, json.dumps(doc))


def test_exception_net_records_and_continues(workdir):
    jobs = [Job("chainmap", (str(workdir / "missing.json"),)),
            Job("singular", ("singular",)),  # argparse exits
            Job("singular", ("singular", _ring_file(workdir), "--max-q", "1"), [Z, Z])]
    _, lat, results = run.run_pass(jobs, workloads.run_job, None, 0)
    assert len(lat) == 3
    assert type(results[0][2]) is dighom.ParseError
    assert type(results[1][2]) is SystemExit
    assert run.check_results(Oracle(), jobs, results, "selftest") == 2


def test_missing_wrap_point_reads_zero(workdir):
    points = [p for p in tracing.WRAP_POINTS if p[1] != "build_c1_complex"]
    points += [("chain", "no_such_function", None), ("no_such_module", "f", None)]
    tracer = tracing.Tracer(wrap_points=points)
    missing = tracer.install()
    try:
        job = Job("homology", ("homology", _ring_file(workdir)))
        code, out = workloads.run_job(job)
    finally:
        tracer.uninstall()
    assert missing == ["chain.no_such_function", "no_such_module.f"]
    assert Oracle().check(job, code, out) is None
    m = tracing.layer_metrics(tracer.take())
    assert m["elementary.build_c1_s"] == 0 and m["elementary.cubes"] == 0
    assert m["singular.homology_calls"] == 0
    assert m["cli.jobs"] == 1 and m["image.points"] == len(RING)
    assert set(m) == set(tracing.SPAN_METRICS) | {
        "chain.reduce_yield", "trace.spans",
        *(f"{layer}.errors" for layer in tracing.LAYERS)}


def test_tracer_restores_every_namespace():
    orig = dighom.singular.singular_homology
    tracer = tracing.Tracer()
    tracer.install()
    assert dighom.cli.singular_homology is not orig
    assert dighom.bridge.singular_homology is dighom.cli.singular_homology
    tracer.uninstall()
    assert dighom.cli.singular_homology is orig
    assert dighom.singular_homology is orig
    assert dighom.chain.ChainComplex.is_complex.__name__ == "is_complex"


def test_self_time_excludes_children():
    spans = [["a", 0, -1, 0.0, 10.0, 0, 0, None],
             ["b", 0, 0, 1.0, 4.0, 0, 0, None],
             ["c", 0, 1, 2.0, 3.0, 0, 0, "ValueError"],
             ["b", 0, 0, 5.0, 7.0, 0, 0, None]]
    agg = tracing.aggregate(spans)
    assert agg["a"]["self"] == 5.0 and agg["a"]["total"] == 10.0
    assert agg["b"]["self"] == 4.0 and agg["b"]["calls"] == 2
    assert agg["c"]["errors"] == 1


def test_host_clock_scales_by_speed_inside_interval():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_S
    clock.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    clock.durations = [ref, 2 * ref, 2 * ref, ref, 4 * ref]
    # two samples inside, both at half speed: wall less the loops, halved
    assert clock.corrected(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) / 2)
    # no sample inside: the samples on either side, mean 2.5 * ref
    assert clock.corrected(3.5, 4.5) == pytest.approx(1.0 / 2.5)
    assert clock.corrected(11.0, 12.0) == pytest.approx(1.0 / 4)


def test_host_clock_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert len(clock.durations) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.corrected(t0, t1) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = set(tracing.SPAN_METRICS) | {"chain.reduce_yield", "trace.spans",
                                         "trace.wall_s", "trace.overhead"}
    names |= {f"{layer}.errors" for layer in tracing.LAYERS}
    names |= set(tracing.loc_counts(ROOT / "src" / "dighom"))
    assert set(layer) == names
    assert all(run.layer_unit(k) == u for k, u in layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
