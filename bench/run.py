"""liftlab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {rtp-sweep,sampler,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; liftlab is imported from the
checkout's ``src`` (nothing needs installing).  The workload runs in a worker
process of its own (``worker.py``), so its peak RSS is its own.  All files
go to a scratch directory under ``.bench_tmp/`` in the checkout, removed at
the end.  The line before the result also gives each op's median seconds.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
set-up time (median of five fresh interpreters that import ``liftlab.cli``
and parse the workload's first config, after one warm-up) and the worker's
peak RSS.  ``--trace 1`` reports the per-layer metrics from traced passes
(see ``spans.py``), per-module import times from one ``-X importtime`` run
and the tracing overhead.  ``--detail 1`` adds to an untraced result the
end-to-end figures that only some workloads have (events/s, slope errors)
and the failed-op fraction.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment, pass walls and any failures.
Exit code 0 whenever that line is printed; 2 when the checkout has no
liftlab sources; 1 when the worker dies or runs out of time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 5
LIFTLAB_MODULES = (
    "liftlab", "cli", "core", "divergence", "errors", "flow_poincare", "generators",
    "io_utils", "lift_check", "simulate", "spectral", "studies",
)
_SETUP_CODE = "import sys, json, liftlab.cli as c; c.parse_config(json.loads(sys.argv[1]))"


def unit(name: str) -> str:
    if name.endswith("events_per_s"):
        return "events/s"
    if name.endswith("_ms_per_rhs"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("max_dim"):
        return "states"
    if name.endswith("_err"):
        return "abs"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _python(args, deadline, **kw):
    return subprocess.run([sys.executable, *args], env=_env(), check=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), **kw)


def setup_seconds(argv, cwd, deadline) -> float:
    """Median wall time of fresh interpreters importing liftlab.cli and parsing argv."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        _python(["-c", _SETUP_CODE, json.dumps(argv)], deadline, cwd=cwd)
        if i:  # the first one also compiles bytecode
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds(cwd, deadline) -> dict:
    """Cumulative import time of each liftlab module from one ``-X importtime`` run."""
    _python(["-c", "import liftlab.cli"], deadline, cwd=cwd)  # warm bytecode
    err = _python(["-X", "importtime", "-c", "import liftlab.cli"], deadline, cwd=cwd,
                  capture_output=True).stderr
    cumulative = {}
    for line in err.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {f"{m}.import_s": cumulative.get(m if m == "liftlab" else "liftlab." + m, 0.0)
            for m in LIFTLAB_MODULES}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ops = workloads.build(args.workload, args.seed, args.size)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        metrics = {}
        if not args.trace:
            setup = setup_seconds([*ops[0].argv, "--output", ops[0].artifact], tmp, deadline)
        worker = _python(
            [os.path.join(BENCH, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--src", SRC],
            deadline, cwd=tmp, stdout=subprocess.PIPE)
        rec = json.loads(worker.stdout.strip().splitlines()[-1])
        values = rec["values"]
        extra = {
            "events_per_s": rec.get("events_per_s", 0.0),
            "slope_low_err": values.get("slope_low_err", 0.0),
            "slope_high_err": values.get("slope_high_err", 0.0),
        }
        if args.trace:
            metrics.update(rec["layers"])
            metrics.update(import_seconds(tmp, deadline))
            metrics["trace.overhead_s"] = rec["trace_overhead_s"]
            metrics.update(extra)
        else:
            metrics.update(wall_s=rec["wall_s"], setup_s=setup, peak_rss_mb=rec["peak_rss_mb"])
            if args.detail:
                metrics.update({k: v for k, v in extra.items() if v})
                metrics["ops_failed_frac"] = rec["failed"] / rec["attempted"]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(tmp))
    env = dict(rec.pop("env"), nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               git_commit=git_commit(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, size=args.size)
    print(json.dumps({"env": env, "passes": rec["passes"], "walls": rec["walls"],
                      "op_median_s": rec["op_median_s"], "failures": rec["failures"]}))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one liftlab benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="keep starting passes until this long has elapsed (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny: seconds-long inputs for the smoke test")
    p.add_argument("--detail", type=int, choices=(0, 1), default=0,
                   help="add workload-specific end-to-end figures to an untraced result")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftlab", "cli.py")):
        print(f"no liftlab sources under {SRC}: run from a liftlab checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
