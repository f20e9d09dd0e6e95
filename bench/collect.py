"""Repeat benchmark runs over several seeds and summarize their spread.

From the root of a checkout:

    python3 bench/collect.py --workloads stream-sat stream-full sweep --seeds 10 \\
        --out bench/.work/summary.json

Each run is a fresh process of bench/run.py, one after another, with seeds
0..N-1 (seed outer, workload inner, so host drift is shared).  For every
metric the summary holds the values, their median and quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median.  Metrics
that BENCHMARK.json bounds are flagged when the spread exceeds the bound
(setup_s is exempt); the exit code is then 1.  The raw, uncorrected times
that run.py prints beside the corrected ones are summarized too, as
``raw.<metric>``, without a bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, value, unit in re.findall(r"\] (\S+) raw (\S+) (\S+), corrected",
                                        proc.stdout):
        res["metrics"][f"raw.{name}"] = {"value": float(value), "unit": unit}
    return res


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=10, help="run seeds 0..N-1")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="", help="free text stored in the summary")
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    runs = {w: [] for w in args.workloads}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        for w in args.workloads:
            res = run_once(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, **res})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()
                if not k.endswith(".loc")), flush=True)

    summary = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
               "seeds": list(seeds), "host": {
                   "cpus": os.cpu_count(), "python": platform.python_version(),
                   "machine": platform.machine(), "system": platform.system()},
               "workloads": {}}
    ok = True
    for w, rs in runs.items():
        names = rs[0]["metrics"]
        metrics = {k: {"unit": rs[0]["metrics"][k]["unit"],
                       **summarize([r["metrics"][k]["value"] for r in rs])}
                   for k in names}
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": metrics,
        }
        for k, m in metrics.items():
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and m["spread"] > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            print(f"{w:12s} {k:32s} median {m['median']:.6g} {m['unit']}"
                  f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
