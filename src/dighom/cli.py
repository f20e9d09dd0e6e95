"""Batch command line front end.

Commands: homology (c1 pipeline, optionally relative), singular (normalized
singular pipeline), compare (both pipelines, degreewise verdicts), classify
(histogram of near-injective cube types), induced (matrices of a map between
images plus chain-map verdict), verify (seeded property suites).

Exit codes: 0 ok, 1 failed check (mismatch, unclassifiable cube, failed
suite), 2 parse error, 3 precondition violation, 4 enumeration budget
exceeded.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import elementary  # its _levels is looked up at call time
from .bridge import _beta_matrices, beta, verify_isomorphism
from .chain import homology_through, rank_and_invariant_factors, smith_normal_form, verify_chain_map
from .elementary import _c1_complex, _induced_maps, build_c1_complex, relative_c1_complex
from .errors import (
    BudgetExceeded,
    DighomError,
    ParseError,
    UnclassifiableCube,
)
from .image import (
    DigitalImage,
    adjacent,
    closed_neighborhood,
    compose,
    load_image,
    load_point_map,
    open_neighborhood,
    random_continuous_map,
)
from .singular import (
    DEFAULT_BUDGET,
    _enumerate,
    _Ladder,
    _singular_complex,
    classify,
    degree_of_injectivity,
    flip,
    is_injective,
    rotate,
    shift,
    singular_homology,
    swap,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _nonnegative_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it is."""
    p = argparse.ArgumentParser(
        prog="dighom",
        description="Exact cubical homology of digital images.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")

    sp = sub.add_parser("homology", help="c1-cubical homology of an image")
    sp.add_argument("image")
    sp.add_argument("--max-dim", type=_nonnegative_int, default=None,
                    help="top degree to report (default: dimension of the image)")
    sp.add_argument("--relative", default=None, metavar="SUBIMAGE",
                    help="compute homology relative to this subimage")
    add_format(sp)

    # the commands over singular cubes: an image, a top degree and a budget
    for name, text, max_q in (("singular", "normalized singular homology", 1),
                              ("compare", "compare both homology pipelines", 1),
                              ("classify", "histogram of near-injective cube types", 2)):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("image")
        sp.add_argument("--max-q", type=_nonnegative_int, default=max_q)
        sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
        add_format(sp)

    sp = sub.add_parser("induced", help="matrices induced by a map between images")
    sp.add_argument("domain")
    sp.add_argument("codomain")
    sp.add_argument("map", help='JSON {"pairs": [[[x...],[y...]], ...]}')
    sp.add_argument("--max-q", type=_nonnegative_int, default=None,
                    help="top degree (default: dimension of the domain)")
    add_format(sp)

    sp = sub.add_parser("verify", help="run seeded property suites")
    sp.add_argument("suites", nargs="*", metavar="SUITE",
                    help=f"suites to run (default: all of {', '.join(sorted(_SUITES))})")
    sp.add_argument("--seed", type=int, default=0)
    add_format(sp)
    return p


def _emit(args, lines, obj):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _group_json(q, g):
    if g is None:
        return {"q": q, "skipped": True}
    return {"q": q, "rank": g.rank, "torsion": list(g.torsion)}


def _report_groups(args, groups):
    """Report the groups H_0, H_1, ..., None for a degree over budget, and
    give the exit code: EXIT_BUDGET if some degree is over budget."""
    lines = [f"H_{q} = ? (budget exceeded)" if g is None else f"H_{q} = {g}"
             for q, g in enumerate(groups)]
    _emit(args, lines, {"groups": [_group_json(q, g) for q, g in enumerate(groups)]})
    return EXIT_BUDGET if any(g is None for g in groups) else EXIT_OK


def cmd_homology(args):
    X = load_image(args.image)
    # H_k needs d_{k+1}, so the complex goes one degree above the report
    above = None if args.max_dim is None else args.max_dim + 1
    if args.relative is not None:
        C = relative_c1_complex(X, load_image(args.relative), above)
    else:
        C = build_c1_complex(X, above).complex
    top = args.max_dim if args.max_dim is not None else C.max_degree
    return _report_groups(args, homology_through(C, top))


def cmd_singular(args):
    X = load_image(args.image)
    return _report_groups(args, singular_homology(X, args.max_q, args.budget))


def cmd_compare(args):
    X = load_image(args.image)
    report = verify_isomorphism(X, args.max_q, args.budget)
    lines = []
    for c in report.comparisons:
        if c.verdict == "skipped":
            lines.append(f"q={c.q}: singular skipped (budget exceeded), c1 {c.c1}")
        else:
            word = "OK" if c.verdict == "ok" else "MISMATCH"
            lines.append(f"q={c.q}: singular {c.singular} vs c1 {c.c1} {word}")
    _emit(args, lines, report.to_json())
    return EXIT_FAIL if report.any_mismatch else EXIT_OK


def cmd_classify(args):
    X = load_image(args.image)
    ladder = _Ladder(X)
    rows = []
    bad = []
    for q in range(2, args.max_q + 1):
        counts = {1: 0, 2: 0, 3: 0}
        total = 0
        for s in _enumerate(X, q, args.budget, ladder):
            if degree_of_injectivity(s) != q - 1:
                continue
            total += 1
            try:
                counts[classify(s).kind.value] += 1
            except UnclassifiableCube as e:
                bad.append((q, str(e)))
        rows.append((q, total, counts))
    lines = [
        f"q={q}: total={total} Type1={c[1]} Type2={c[2]} Type3={c[3]}"
        for q, total, c in rows
    ]
    lines.extend(f"UNCLASSIFIABLE at q={q}: {msg}" for q, msg in bad)
    obj = {
        "histogram": [
            {"q": q, "total": total, "type1": c[1], "type2": c[2], "type3": c[3]}
            for q, total, c in rows
        ],
        "unclassifiable": len(bad),
    }
    _emit(args, lines, obj)
    return EXIT_FAIL if bad else EXIT_OK


def cmd_induced(args):
    X = load_image(args.domain)
    Y = load_image(args.codomain)
    f = load_point_map(args.map, X, Y)
    xfound = elementary._levels(X, args.max_q)  # by default every degree, to the dimension of X
    top = len(xfound[1]) - 1 if args.max_q is None else args.max_q
    yfound = elementary._levels(Y, top)
    mats = _induced_maps(f, range(top + 1), xfound, yfound)
    CX = _c1_complex(X, xfound).complex
    CY = _c1_complex(Y, yfound).complex
    ok = verify_chain_map(mats, CX, CY)
    lines = []
    rows_json = []
    for q, M in enumerate(mats):
        lines.append(f"q={q}: {M.nrows}x{M.ncols}")
        dense = M.to_dense()
        lines.extend(f"  {row}" for row in dense)
        rows_json.append({"q": q, "shape": [M.nrows, M.ncols], "rows": dense})
    lines.append(f"chain map: {'OK' if ok else 'FAIL'}")
    _emit(args, lines, {"matrices": rows_json, "chain_map": ok})
    return EXIT_OK if ok else EXIT_FAIL


# --- verify suites ----------------------------------------------------------

class _Fixtures(dict):
    """The fixture images of one verify run by name.  fx[name, "ladder"] is
    the _Ladder of one, fx[name, "levels"] its c1 levels in every degree,
    and fx[name, q] lists its singular q-cubes in lex order from level q of
    that ladder.  Each is made the first time a suite of the run asks, for
    the later suites of that run to share, and goes when the run ends."""

    def __missing__(self, key):
        name, q = key
        X = self[name]
        if q == "ladder":
            made = _Ladder(X)
        elif q == "levels":
            made = elementary._levels(X)
        else:
            made = _enumerate(X, q, DEFAULT_BUDGET, self[name, "ladder"])
        self[key] = made
        return made


def _fixtures():
    square = DigitalImage(2, [(x, y) for x in (0, 1) for y in (0, 1)])
    ring = DigitalImage(2, [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    edge = DigitalImage(1, [(0,), (1,)])
    tall_edge = DigitalImage(2, [(0, 0), (0, 1)])
    path3 = DigitalImage(1, [(0,), (1,), (2,)])
    return _Fixtures(square=square, ring=ring, edge=edge, tall_edge=tall_edge, path3=path3)


def _suite_snf(rng, fx):
    trials = 200
    for _ in range(trials):
        m = rng.randrange(0, 6)
        n = rng.randrange(0, 6)
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(M, ncols=n)  # self-certifying
        cols = [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(n)]
        rank, factors = rank_and_invariant_factors(cols, m)
        if rank != res.rank or tuple(factors) != res.invariant_factors:
            return False, "sparse and dense reductions disagree"
    return True, f"{trials} random matrices"


def _suite_neighborhood(rng, fx):
    checks = 0
    for _ in range(40):
        pts = [(x, y) for x in range(4) for y in range(4) if rng.random() < 0.6]
        if not pts:
            continue
        X = DigitalImage(2, pts)
        sample = [rng.choice(X.sorted_points) for _ in range(4)]
        for x in sample:
            cn = closed_neighborhood(X, [x])
            on = open_neighborhood(X, [x])
            if x not in cn or x in on or cn != on | {x}:
                return False, "single-point neighborhood broken"
            for y in on:
                if not adjacent(x, y):
                    return False, "non-adjacent point in open neighborhood"
            checks += 1
        a, b = rng.choice(X.sorted_points), rng.choice(X.sorted_points)
        if a != b:
            both = closed_neighborhood(X, [a, b])
            if both != closed_neighborhood(X, [a]) & closed_neighborhood(X, [b]):
                return False, "pair neighborhood is not the intersection"
            checks += 1
    return True, f"{checks} point checks"


def _operator_identities(s):
    q = s.q
    idx = range(1, q + 1)
    # every identity that names flip(s, j) or swap(s, i, j) reads one value
    flips = {j: flip(s, j) for j in idx}
    swaps = {(i, j): swap(s, i, j) for i in idx for j in idx}
    for j in idx:
        if flip(flips[j], j) != s:
            return False
        if rotate(s, j, j) != flips[j]:
            return False
        for i in idx:
            if swap(swaps[i, j], i, j) != s:
                return False
            if swaps[i, j] != swaps[j, i]:
                return False
            if rotate(rotate(s, i, j), j, i) != s:
                return False
            for k in idx:
                if k != i and k != j:
                    if flip(swaps[i, j], k) != swap(flips[k], i, j):
                        return False
    for i in idx:
        for j in idx:
            t = s
            if i < j:
                for a in range(j - 1, i - 1, -1):
                    t = swap(t, a, a + 1)
            elif i > j:
                for a in range(j, i):
                    t = swap(t, a, a + 1)
            if shift(s, i, j) != t:
                return False
    return True


def _suite_operators(rng, fx):
    count = 0
    for name in ("edge", "square"):
        for q in (1, 2, 3):
            cubes = fx[name, q]
            for s in rng.sample(cubes, min(len(cubes), 60)):
                if not _operator_identities(s):
                    return False, f"identity failed on {s}"
                count += 1
    return True, f"{count} cubes"


def _beta_eq(a, b, sign):
    if a is None or b is None:
        return a is None and b is None
    return a[1] == b[1] and a[0] == sign * b[0]


def _suite_signs(rng, fx):
    checked = 0
    for name in ("tall_edge", "square", "ring"):
        for q in (1, 2):
            for s in fx[name, q]:
                if not is_injective(s):
                    continue
                bs = beta(s)
                for j in range(1, q + 1):
                    if not _beta_eq(beta(flip(s, j)), bs, -1):
                        return False, f"flip law failed on {s}"
                for i in range(1, q + 1):
                    for j in range(1, q + 1):
                        if i != j:
                            if not _beta_eq(beta(swap(s, i, j)), bs, -1):
                                return False, f"swap law failed on {s}"
                            if not _beta_eq(beta(rotate(s, i, j)), bs, 1):
                                return False, f"rotation law failed on {s}"
                        if not _beta_eq(beta(shift(s, i, j)), bs, (-1) ** (j - i)):
                            return False, f"shift law failed on {s}"
                checked += 1
    return True, f"{checked} injective cubes"


def _suite_chainmap(rng, fx):
    for name in ("edge", "tall_edge", "path3", "square", "ring"):
        X, found = fx[name], fx[name, "levels"]
        top = len(found[1]) - 1  # dimension(X)
        sing = _singular_complex(top, DEFAULT_BUDGET, fx[name, "ladder"])
        bm = _beta_matrices(X, sing, _c1_complex(X, found))
        if not verify_chain_map(bm.matrices, bm.singular, bm.elementary.complex):
            return False, f"chain map failed on {name}"
    return True, "5 fixtures"


def _suite_classify(rng, fx):
    total = 0
    for name in ("edge", "square"):
        for q in (2, 3):
            for s in fx[name, q]:
                if degree_of_injectivity(s) != q - 1:
                    continue
                classify(s)  # raises UnclassifiableCube on failure
                total += 1
    return True, f"{total} cubes classified"


def _suite_functorial(rng, fx):
    # the fixtures have no c1 3-cube: their levels in every degree are
    # those through degree 2
    degrees = range(3)
    done = 0
    for a, b in (("square", "ring"), ("ring", "square"), ("path3", "square"), ("square", "square")):
        X, Y, xfound, yfound = fx[a], fx[b], fx[a, "levels"], fx[b, "levels"]
        CX, CY = _c1_complex(X, xfound).complex, _c1_complex(Y, yfound).complex
        for _ in range(2):
            f = random_continuous_map(X, Y, rng)
            g = random_continuous_map(Y, X, rng)
            mf = _induced_maps(f, degrees, xfound, yfound)
            mg = _induced_maps(g, degrees, yfound, xfound)
            if not verify_chain_map(mf, CX, CY) or not verify_chain_map(mg, CY, CX):
                return False, "induced matrices are not a chain map"
            for q, mgf in enumerate(_induced_maps(compose(g, f), degrees, xfound, xfound)):
                if mgf != mg[q] @ mf[q]:
                    return False, "composition law failed"
            done += 2
    return True, f"{done} random maps"


_SUITES = {
    "snf": _suite_snf,
    "neighborhood": _suite_neighborhood,
    "operators": _suite_operators,
    "signs": _suite_signs,
    "chainmap": _suite_chainmap,
    "classify": _suite_classify,
    "functorial": _suite_functorial,
}


def cmd_verify(args):
    names = args.suites or sorted(_SUITES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ParseError(f"unknown suite(s) {', '.join(unknown)}; "
                         f"available: {', '.join(sorted(_SUITES))}")
    fx = _fixtures()
    results = []
    for name in names:
        try:
            ok, detail = _SUITES[name](random.Random(args.seed), fx)
        except DighomError as e:
            ok, detail = False, str(e)
        results.append((name, ok, detail))
    lines = [f"{name}: {'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in results]
    obj = {
        "suites": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "all_ok": all(ok for _, ok, _ in results),
    }
    _emit(args, lines, obj)
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_FAIL


_COMMANDS = {
    "homology": cmd_homology,
    "singular": cmd_singular,
    "compare": cmd_compare,
    "classify": cmd_classify,
    "induced": cmd_induced,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (DighomError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
