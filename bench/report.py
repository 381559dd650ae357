"""Run every workload several times and print each metric's median and quartiles.

    python3 bench/report.py                      # all workloads, seeds 1..10, untraced
    python3 bench/report.py --workloads verify --seeds 1 2 3 4 5
    python3 bench/report.py --trace 1 --seeds 42 42   # per-layer; counts must repeat

Runs are sequential (each run uses every core).  Untraced runs also print
the workload-specific end-to-end figures (``run.py --detail 1``) and the
failed-op fraction.  ``spread`` is the quartile distance over the median,
the figure ``BENCHMARK.json``'s bounds are set against; ``ok`` marks a
spread under a third of the bound.  With ``--trace 1``, ``same`` says
whether a count read identically on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(workload, seed, seconds, trace, size) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--detail", str(1 - trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace, args.size))
            print(f"  {workload} seed {seed}: correct={results[-1]['correct']}",
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {attempted} ops attempted, {failed} failed "
              f"(ops_failed_frac {failed / attempted:.4g})")
        print(f"  {'metric':36s} {'unit':9s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}  {'bound':>5s}  {'ok/same'}")
        rows = {}
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            if args.trace:
                flag = str(len(set(vals)) == 1) if first["unit"] in ("count", "states") else ""
            else:
                flag = "" if bound is None else str(spread < bound / 3)
            print(f"  {name:36s} {first['unit']:9s} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.2%}  {bound if bound is not None else '':>5}  {flag}")
            rows[name] = {"unit": first["unit"], "n": len(vals), "median": med, "q1": q1,
                          "q3": q3, "spread": spread, "values": vals}
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
