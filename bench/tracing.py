"""Spans around dighom's public entry points, and the per-layer metrics.

The tracer replaces a public function by a wrapper in every ``dighom``
namespace that binds it (the defining module, the package, and each module
that imported it by name), so calls between modules are seen as well as calls
from the benchmark.  Functions called once per cube, point or matrix entry
(``face``, ``flip``, ``beta``, ``c1_faces``, ``adjacent``, ...) are left
alone: a span each would cost more than the work it measures.  Classes and
constants are never wrapped, so ``isinstance`` checks keep working.

A wrap point whose module or name is missing is skipped; its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _n_points(args, res):
    return len(res), 0


def _n_c1_cubes(args, res):
    return sum(len(b) for b in res.complex.bases), 0


def _n_cubes(args, res):
    return len(res), 0


def _boundary_nnz(args, res):
    return sum(len(c) for M in res.boundaries for c in M.columns), 0


def _reduce_counts(args, res):
    cols = args[0] if args else ()
    return (len(cols) if hasattr(cols, "__len__") else 0), res[0]


# (module, dotted attribute, counter of (args, result) -> (n1, n2))
WRAP_POINTS = (
    ("cli", "main", None),
    ("image", "load_image", _n_points),
    ("image", "parse_image", None),
    ("image", "load_point_map", None),
    ("elementary", "dimension", None),
    ("elementary", "enumerate_elementary_cubes", _n_cubes),
    ("elementary", "build_c1_complex", _n_c1_cubes),
    ("elementary", "relative_c1_complex", None),
    ("elementary", "induced_map", None),
    ("singular", "enumerate_singular_cubes", _n_cubes),
    ("singular", "build_singular_complex", _boundary_nnz),
    ("singular", "singular_homology", None),
    ("chain", "smith_normal_form", None),
    ("chain", "rank_and_invariant_factors", _reduce_counts),
    ("chain", "ChainComplex.is_complex", None),
    ("chain", "homology", None),
    ("chain", "homology_through", None),
    ("chain", "quotient_complex", None),
    ("chain", "verify_chain_map", None),
    ("bridge", "beta_matrices", None),
    ("bridge", "verify_isomorphism", None),
)

LAYERS = ("cli", "image", "elementary", "singular", "chain", "bridge")

# metric -> (span name, field); fields are total, self, calls, n1, n2
SPAN_METRICS = {
    "cli.self_s": ("cli.main", "self"),
    "cli.jobs": ("cli.main", "calls"),
    "image.load_s": ("image.load_image", "total"),
    "image.points": ("image.load_image", "n1"),
    "elementary.build_c1_s": ("elementary.build_c1_complex", "total"),
    "elementary.cubes": ("elementary.build_c1_complex", "n1"),
    "singular.homology_self_s": ("singular.singular_homology", "self"),
    "singular.homology_calls": ("singular.singular_homology", "calls"),
    "singular.enumerate_s": ("singular.enumerate_singular_cubes", "total"),
    "singular.cubes": ("singular.enumerate_singular_cubes", "n1"),
    "singular.build_complex_self_s": ("singular.build_singular_complex", "self"),
    "singular.boundary_nnz": ("singular.build_singular_complex", "n1"),
    "chain.is_complex_s": ("chain.ChainComplex.is_complex", "total"),
    "chain.is_complex_calls": ("chain.ChainComplex.is_complex", "calls"),
    "chain.reduce_s": ("chain.rank_and_invariant_factors", "total"),
    "chain.reduce_cols": ("chain.rank_and_invariant_factors", "n1"),
    "chain.reduce_rank": ("chain.rank_and_invariant_factors", "n2"),
    "chain.snf_s": ("chain.smith_normal_form", "total"),
    "chain.snf_calls": ("chain.smith_normal_form", "calls"),
    "chain.homology_self_s": ("chain.homology", "self"),
    "chain.verify_chain_map_s": ("chain.verify_chain_map", "total"),
    "bridge.verify_isomorphism_self_s": ("bridge.verify_isomorphism", "self"),
    "bridge.beta_matrices_self_s": ("bridge.beta_matrices", "self"),
}

# span record fields
NAME, JOB, PARENT, START, END, N1, N2, ERROR = range(8)


class Tracer:
    """Records one span per call of a wrapped function, kept in memory."""

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.spans = []
        self.job = -1
        self._stack = []
        self._swaps = []  # (namespace, attribute, original, wrapper)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[N1], rec[N2] = counter(args, res)
            return res

        return wrapper

    def install(self):
        """Wrap every wrap point that exists; returns the missing ones."""
        missing = []
        for mod_name, attr, counter in self.wrap_points:
            try:
                owner = importlib.import_module(f"dighom.{mod_name}")
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, last)
            except (ImportError, AttributeError):
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", fn, counter)
            if path:
                self._swaps.append((owner, last, fn, wrapper))
                continue
            for key, mod in list(sys.modules.items()):
                if key.split(".")[0] != "dighom":
                    continue
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        self._swaps.append((mod, k, fn, wrapper))
        for ns, k, _, wrapper in self._swaps:
            setattr(ns, k, wrapper)
        return missing

    def take(self):
        """The spans recorded so far; the tracer starts a fresh record."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def uninstall(self):
        for ns, k, fn, _ in reversed(self._swaps):
            setattr(ns, k, fn)
        self._swaps = []


def aggregate(spans):
    """Per span name: {total, self, calls, n1, n2, errors}; self time is the
    duration minus the time covered by direct child spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    for i, rec in enumerate(spans):
        a = out.setdefault(rec[NAME], {"total": 0.0, "self": 0.0, "calls": 0,
                                       "n1": 0, "n2": 0, "errors": 0})
        dur = rec[END] - rec[START]
        a["total"] += dur
        a["self"] += dur - child[i]
        a["calls"] += 1
        a["n1"] += rec[N1]
        a["n2"] += rec[N2]
        a["errors"] += rec[ERROR] is not None
    return out


def layer_metrics(spans):
    """Every per-layer span metric for one traced pass; 0 where unreached."""
    agg = aggregate(spans)
    m = {}
    for metric, (span, field) in SPAN_METRICS.items():
        m[metric] = agg[span][field] if span in agg else 0
    m["chain.reduce_yield"] = (m["chain.reduce_rank"] / m["chain.reduce_cols"]
                               if m["chain.reduce_cols"] else 0)
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(a["errors"] for name, a in agg.items()
                                   if name.split(".")[0] == layer)
    m["trace.spans"] = len(spans)
    return m


def loc_counts(src_dir):
    """Non-blank, non-comment lines per module of the package, and in total."""
    out = {}
    for fname in sorted(f for f in src_dir.iterdir() if f.suffix == ".py"):
        with open(fname, encoding="utf-8") as fh:
            n = sum(1 for line in fh
                    if line.strip() and not line.lstrip().startswith("#"))
        out[f"{fname.stem.strip('_')}.loc"] = n
    out["src.loc"] = sum(out.values())
    return out
