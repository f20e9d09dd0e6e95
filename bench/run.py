"""Run a dighom benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Workloads (see workloads.py and NOTES.md): stream-sat, stream-full, sweep;
``all`` runs the three in turn in this one process.  One client runs the jobs
of a workload back to back (closed loop, no threads, no subprocesses), in
whole passes over the same job list: at least one, and then another only
while it ends the timed phase nearer --seconds than stopping does.

Times are corrected for the shared host's speed at the moment they were taken
(see hostclock.py); the raw wall times are printed beside them.  --trace 0
reports the end-to-end metrics.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the tracing
overhead; its spans are written to bench/.work/traces/.

Every answer is checked after its pass.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from math import ceil
from pathlib import Path

from hostclock import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# Set-up runs this many times before the timed phase and again after it, so
# that its median samples the host at both ends of the run.
SETUP_BEFORE, SETUP_AFTER = 3, 2
WORKLOAD_NAMES = ("stream-sat", "stream-full", "sweep")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
def import_modules():
    """Import dighom from this checkout's src/ anew, and the modules using it.

    Each set-up repetition calls this, so set-up time includes the import.
    """
    for key in list(sys.modules):
        if key.split(".")[0] in ("dighom", "tracing", "workloads"):
            del sys.modules[key]
    dighom = importlib.import_module("dighom")
    if Path(dighom.__file__).resolve().parent != SRC / "dighom":
        sys.exit(f"error: imported dighom from {dighom.__file__}, not {SRC}")
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".loc"):
        return "lines"
    if name.endswith(("yield", "overhead")):
        return "ratio"
    return "count"


def percentile(values, p):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def execute(job, run_job):
    """(exit code, output, exception): the per-job exception net."""
    try:
        code, out = run_job(job)
        return code, out, None
    except (Exception, SystemExit) as e:  # recorded and counted, never fatal
        return None, None, e


def run_pass(jobs, run_job, tracer, first_id):
    """Run every job once; returns (pass interval, job intervals, raw results),
    each interval a (start, end) pair of perf_counter readings."""
    intervals, results = [], []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        t = time.perf_counter()
        res = execute(job, run_job)
        intervals.append((t, time.perf_counter()))
        results.append(res)
    return (t0, time.perf_counter()), intervals, results


def check_results(oracle, jobs, results, label, first_id=0):
    """Check every answer, report each failure on stderr; returns how many."""
    failed = 0
    for i, (job, (code, out, exc)) in enumerate(zip(jobs, results), start=first_id):
        if exc is not None:
            tb = "".join(traceback.format_exception(exc)[-3:])
            reason = f"{type(exc).__name__}: {exc}\n{tb}"
        else:
            reason = oracle.check(job, code, out)
        if reason is not None:
            failed += 1
            print(f"{label} job {i} ({job.kind}) failed: {reason}", file=sys.stderr)
    return failed


def set_up(name, seed, workdir):
    """Import, write the inputs, run the warm-ups; returns the set-up's
    interval and what the run needs."""
    t = time.perf_counter()
    tracing, workloads = import_modules()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs, warm = workloads.WORKLOADS[name](seed, str(workdir))
    warm_results = [execute(job, workloads.run_job) for job in warm]
    return (t, time.perf_counter()), (tracing, workloads, jobs, warm, warm_results)


def run_workload(name, seed, seconds, trace):
    """Set up, time and check one workload; returns the result object."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    setups, walls, jobs_timed = [], {False: [], True: []}, []
    layer_samples, all_spans = [], []
    attempted = failed = 0
    try:
        with HostClock() as clock:
            for _ in range(SETUP_BEFORE):
                interval, (tracing, workloads, jobs, warm, warm_results) = \
                    set_up(name, seed, workdir)
                setups.append(interval)

            oracle = workloads.Oracle()
            warm_ok = check_results(oracle, warm, warm_results, "warm-up") == 0

            tracer = tracing.Tracer()
            t_timed = time.perf_counter()
            while True:
                traced = bool(trace) and len(walls[False]) > len(walls[True])
                if traced:
                    missing = tracer.install()
                    if missing:
                        print(f"wrap points not found: {missing}", file=sys.stderr)
                try:
                    interval, job_intervals, results = run_pass(
                        jobs, workloads.run_job, tracer if traced else None, attempted)
                finally:
                    tracer.uninstall()
                walls[traced].append(interval)
                if traced:
                    spans = tracer.take()
                    layer_samples.append(tracing.layer_metrics(spans))
                    all_spans.append(spans)
                else:
                    jobs_timed.extend(job_intervals)
                failed += check_results(oracle, jobs, results, name, attempted)
                attempted += len(jobs)
                elapsed = time.perf_counter() - t_timed
                mean_pass = elapsed / (len(walls[False]) + len(walls[True]))
                # another pass only if it ends nearer --seconds than stopping now
                done = elapsed + mean_pass / 2 >= seconds
                if done and (not trace or walls[True]):
                    break

            for _ in range(SETUP_AFTER):
                interval, (_, _, _, warm, warm_results) = set_up(name, seed, workdir)
                setups.append(interval)
                warm_ok &= check_results(oracle, warm, warm_results, "warm-up") == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def raw(intervals):
        return [t1 - t0 for t0, t1 in intervals]

    def corrected(intervals):
        return [clock.corrected(t0, t1) for t0, t1 in intervals]

    timings = {"setup_s": (statistics.median(raw(setups)),
                           statistics.median(corrected(setups))),
               "wall_s": (statistics.fmean(raw(walls[False])),
                          statistics.fmean(corrected(walls[False])))}
    for key, p in (("job_p50_ms", 0.5), ("job_p90_ms", 0.9)):
        timings[key] = (1000 * percentile(raw(jobs_timed), p),
                        1000 * percentile(corrected(jobs_timed), p))
    if trace:
        values = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        values["trace.wall_s"] = statistics.median(raw(walls[True]))
        values["trace.overhead"] = (statistics.median(corrected(walls[True]))
                                    / statistics.median(corrected(walls[False])) - 1)
        values.update(tracing.loc_counts(SRC / "dighom"))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        write_spans(name, seed, all_spans)
    else:
        values = {k: fixed for k, (_, fixed) in timings.items()}
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return {"correct": warm_ok and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "info": {"jobs_timed": len(jobs_timed), "timings": timings,
                     "host_samples": len(clock.durations)}}


def write_spans(name, seed, passes):
    out = WORK / "traces" / f"{name}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "job", "parent", "start", "end", "n1", "n2", "error")
    with open(out, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(passes):
            for rec in spans:
                fh.write(json.dumps({"pass": p, **dict(zip(keys, rec))}) + "\n")


def summary_lines(name, result):
    info = result["info"]
    lines = [f"[{name}] jobs attempted {result['attempted']}, failed {result['failed']}, "
             f"failed_frac {result['failed'] / result['attempted']:.4f} ratio; "
             f"{info['jobs_timed']} untraced jobs timed, {info['host_samples']} host samples"]
    for k, (raw, corrected) in info["timings"].items():
        unit = E2E_UNITS[k]
        lines.append(f"[{name}] {k} raw {raw:.6g} {unit}, corrected {corrected:.6g} {unit}")
    for k, m in result["metrics"].items():
        lines.append(f"[{name}] {k} = {m['value']:.6g} {m['unit']}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum timed length; whole passes are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dighom" / "__init__.py").is_file():
        sys.exit(f"error: no dighom package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(summary_lines(name, results[name])), flush=True)
        del results[name]["info"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
