"""Seeded inputs, jobs and answer oracles of the dighom benchmark.

A workload is a list of jobs run one after another by a single client.  A job
either calls the command line front end in-process (``dighom.cli.main`` with
``--format json``, stdout captured) or, for the chain-map kind, the library.
Every input image is generated from the workload seed and written to a file
during set-up; the program only ever sees those files.

Oracles check each answer after the timed pass.  They never raise: a wrong
answer, a nonzero exit, a skipped group or an exception all come back as a
reason string, and the run goes on with the next job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations

from dighom import bridge, chain, cli, image
from dighom import components, enumerate_elementary_cubes, load_image

Z = (1, ())
ZERO = (0, ())

# Sweep mix, close to the ratio 30 compare (half 2D, half 3D) : 24 homology :
# 24 chain-map : 12 verify.  The chain-map jobs are the census of all 36
# seven-point images in the 3x3 box (fill 0.75 rounds to 7 of 9 points): their
# cost varies fourfold between shapes, and a random draw of shapes made the
# pass time and its median job depend on the seed.  124 jobs leave twelve
# beyond the 90th percentile of one pass, about 15 s on a 2-core host.
SWEEP_MIX = (("compare2", 20), ("compare3", 20), ("homology", 32),
             ("chainmap", 36), ("verify", 16))


@dataclass(frozen=True)
class Job:
    """One unit of client work.

    kind selects the oracle; argv is the CLI argument list (for chainmap the
    single image path); expect holds what the oracle compares against.
    """

    kind: str
    argv: tuple
    expect: object = None


# --- inputs -----------------------------------------------------------------

def box_image(rng, shape, fill):
    """round(fill * cells) distinct points drawn from the box, as a list."""
    cells = [()]
    for n in shape:
        cells = [c + (i,) for c in cells for i in range(n)]
    return rng.sample(cells, round(fill * len(cells)))


def write_image(path, points, rng):
    """Write points as a JSON image, translated and in shuffled order.

    Translation and point order come from the seed, so each seed gives other
    file bytes while the homology, and the enumeration order, stay the same.
    """
    off = [rng.randrange(-50, 51) for _ in points[0]]
    pts = [[a + o for a, o in zip(p, off)] for p in points]
    rng.shuffle(pts)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ambient_dim": len(off), "points": pts}, fh)
    return path


def square():
    return [(x, y) for x in (0, 1) for y in (0, 1)]


def shell():
    return [(x, y, z) for x in range(3) for y in range(3) for z in range(3)
            if (x, y, z) != (1, 1, 1)]


def make_stream_sat(seed, workdir):
    """(jobs, warm-ups): the square streamed to degree 4, warmed at q=2."""
    rng = random.Random(seed)
    path = write_image(os.path.join(workdir, "square.json"), square(), rng)
    warm = write_image(os.path.join(workdir, "warm.json"), square(), rng)
    return ([Job("singular", ("singular", path, "--max-q", "3"), [Z, ZERO, ZERO, ZERO])],
            [Job("singular", ("singular", warm, "--max-q", "2"), [Z, ZERO, ZERO])])


def make_stream_full(seed, workdir):
    """(jobs, warm-ups): the hollow 3x3x3 shell to q=2, warmed at q=1."""
    rng = random.Random(seed)
    path = write_image(os.path.join(workdir, "shell.json"), shell(), rng)
    warm = write_image(os.path.join(workdir, "warm.json"), shell(), rng)
    return ([Job("singular", ("singular", path, "--max-q", "2"), [Z, ZERO, Z])],
            [Job("singular", ("singular", warm, "--max-q", "1"), [Z, ZERO])])


def _sweep_job(kind, rng, path, points=None):
    if kind == "compare2":
        write_image(path, box_image(rng, (4, 4), 0.6), rng)
        return Job("compare", ("compare", path, "--max-q", "1"))
    if kind == "compare3":
        write_image(path, box_image(rng, (3, 3, 3), 0.6), rng)
        return Job("compare", ("compare", path, "--max-q", "1"))
    if kind == "homology":
        write_image(path, box_image(rng, (12, 12, 12), 0.7), rng)
        return Job("homology", ("homology", path))
    if kind == "chainmap":
        write_image(path, points or box_image(rng, (3, 3), 0.67), rng)
        return Job("chainmap", (path,))
    return Job("verify", ("verify", "--seed", str(rng.randrange(1 << 30))))


def make_sweep(seed, workdir):
    """(jobs, warm-ups): the shuffled mixed pass, plus one held-out job per
    kind (its chain-map image has six points, so it is not in the census).

    The warm-ups are the same for every seed, so that set-up time does not
    depend on which random images a seed draws."""
    rng = random.Random(seed)
    census = [list(c) for c in combinations(box_image(rng, (3, 3), 1.0), 7)]
    rng.shuffle(census)
    kinds = [k for k, n in SWEEP_MIX for _ in range(n)]
    rng.shuffle(kinds)
    jobs = [_sweep_job(k, rng, os.path.join(workdir, f"job{i:03d}.json"),
                       census.pop() if k == "chainmap" else None)
            for i, k in enumerate(kinds)]
    warm_rng = random.Random(0)
    warm = [_sweep_job(k, warm_rng, os.path.join(workdir, f"warm-{k}.json"))
            for k, _ in SWEEP_MIX]
    return jobs, warm


WORKLOADS = {
    "stream-sat": make_stream_sat,
    "stream-full": make_stream_full,
    "sweep": make_sweep,
}


# --- running ----------------------------------------------------------------

def run_job(job):
    """Run one job; returns (exit code, output) without checking it.

    Library names are looked up on their modules at call time, so a tracer
    that wrapped them sees these calls.
    """
    if job.kind == "chainmap":
        X = image.load_image(job.argv[0])
        bm = bridge.beta_matrices(X, 2)
        ok = chain.verify_chain_map(bm.matrices, bm.singular, bm.elementary.complex)
        return 0, (ok, chain.homology_through(bm.singular, 2),
                   chain.homology_through(bm.elementary.complex, 2))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*job.argv, "--format", "json"])
    return code, buf.getvalue()


# --- oracles ----------------------------------------------------------------

def _groups_from_report(doc):
    """CLI report groups as [(rank, torsion) or None]."""
    return [None if g.get("skipped") else (g["rank"], tuple(g["torsion"]))
            for g in doc["groups"]]


def _group(g):
    return None if g is None else (g.rank, tuple(g.torsion))


class Oracle:
    """Answer checks; memoizes the per-image facts it derives from inputs."""

    def __init__(self):
        self._facts = {}

    def image_facts(self, path):
        """(number of c1 components, Euler characteristic) of the image."""
        if path not in self._facts:
            X = load_image(path)
            euler = sum((-1) ** q * len(enumerate_elementary_cubes(X, q))
                        for q in range(X.ambient_dim + 1))
            self._facts[path] = (len(components(X)), euler)
        return self._facts[path]

    def check(self, job, code, out):
        """None when the answer is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            return self._check(job, out)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"malformed output: {type(e).__name__}: {e}"

    def _check(self, job, out):
        if job.kind == "chainmap":
            ok, sing, c1 = out
            sing, c1 = [_group(g) for g in sing], [_group(g) for g in c1]
            if not ok:
                return "beta is not a chain map"
            if None in sing or sing != c1:
                return f"singular {sing} != c1 {c1}"
            return None
        doc = json.loads(out)
        if job.kind == "singular":
            got = _groups_from_report(doc)
            return None if got == job.expect else f"groups {got} != {job.expect}"
        if job.kind == "compare":
            bad = [c["q"] for c in doc["comparisons"] if c["verdict"] != "ok"]
            return f"verdict not ok at q={bad}" if bad or not doc["all_ok"] else None
        if job.kind == "homology":
            got = _groups_from_report(doc)
            if None in got:
                return "skipped group"
            ncomp, euler = self.image_facts(job.argv[1])
            if got[0][0] != ncomp:
                return f"rank H_0 {got[0][0]} != {ncomp} components"
            alt = sum((-1) ** q * g[0] for q, g in enumerate(got))
            return None if alt == euler else f"alternating rank sum {alt} != Euler {euler}"
        if job.kind == "verify":
            failed = [s["name"] for s in doc["suites"] if not s["ok"]]
            return None if doc["all_ok"] and not failed else f"suites failed: {failed}"
        return f"no oracle for job kind {job.kind}"
