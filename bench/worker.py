"""Runs one workload in this process and prints one JSON record.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and a
fresh scratch directory as its working directory.  It drives liftlab only
through ``liftlab.cli.main``, one closed-loop client: each call starts when
the previous one has returned.  A pass is one run of the workload's ops; the
worker repeats passes, at least one, and stops at the pass boundary nearest
to ``--seconds``.

Untraced (``--trace 0``): every pass is timed with nothing wrapped.
Traced (``--trace 1``): untraced and traced passes alternate, at least one
of each; the traced passes give the per-layer metrics and the difference of
the two medians is the tracing overhead.

The first pass's outputs are checked in full; every later pass must write
byte-identical artifacts and summaries (reruns with one seed are
deterministic), which is cheaper than re-reading every CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import workloads
from spans import Tracer


class Outcome:
    """What one CLI call returned: exit code, summary, error text, seconds."""

    __slots__ = ("rc", "summary", "error", "seconds")

    def __init__(self, rc, summary, error, seconds):
        self.rc, self.summary, self.error, self.seconds = rc, summary, error, seconds


def execute(op, main) -> Outcome:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main([*op.argv, "--output", op.artifact])
    except Exception:  # a crash is a failed op, not a failed benchmark
        return Outcome(None, None, traceback.format_exc(), time.perf_counter() - start)
    seconds = time.perf_counter() - start
    try:
        summary = json.loads(buf.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        summary = None
    return Outcome(rc, summary, None, seconds)


def run_pass(ops, main) -> tuple:
    """Run every op once; returns (outcomes, wall seconds)."""
    outcomes = []
    gc.collect()  # every pass starts from the same heap, so peak RSS repeats
    start = time.perf_counter()
    for op in ops:
        outcomes.append(execute(op, main))
    return outcomes, time.perf_counter() - start


def _digest(op, outcome) -> str:
    h = hashlib.sha256(json.dumps(outcome.summary, sort_keys=True).encode())
    with open(op.artifact, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def judge(ops, outcomes, reference=None) -> tuple:
    """Check one pass; returns (failures, values, digests).

    With ``reference`` (digests of an earlier checked pass) an op passes when
    it reproduces that pass byte for byte; otherwise its check runs.
    """
    failures, values, digests = [], {}, []
    for op, out in zip(ops, outcomes):
        digest = None
        try:
            if out.error is not None:
                problems = [out.error.strip().splitlines()[-1]]
            elif out.rc != 0 or out.summary is None:
                problems = [f"exit code {out.rc}, summary {out.summary!r}"]
            elif out.summary.get("artifacts") != [op.artifact]:
                problems = [f"summary names artifacts {out.summary.get('artifacts')!r}"]
            else:
                digest = _digest(op, out)
                if reference is None:
                    problems, found = op.check(out.summary, op.artifact)
                    for k, v in found.items():
                        values[k] = values.get(k, 0) + v
                elif reference[len(digests)] is None:
                    problems = ["this op failed on the first pass"]
                elif digest != reference[len(digests)]:
                    problems = ["output differs from the first pass with the same seed"]
                else:
                    problems = []
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        digests.append(None if problems else digest)
        if problems:
            failures.append({"op": " ".join(op.argv), "problems": problems})
    for op in ops:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.artifact)
    return failures, values, digests


def blas_info() -> list:
    """Each bundled OpenBLAS with its live thread count.

    Read through ``scipy_openblas_get_num_threads*``, because threadpoolctl
    is not available; numpy and scipy each ship their own copy.
    """
    out = []
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            info = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
                if get is not None:
                    get.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=get(), config=config().decode())
                    break
            out.append(info)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas": blas_info(),
    }


def measure(ops, main, seconds: float, traced: bool) -> dict:
    plain_walls, traced_walls, layers, op_seconds = [], [], [], []
    failures, values, attempted = [], {}, 0
    reference = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for use_tracer in ((False, True) if traced else (False,)):
            tracer = Tracer() if use_tracer else None
            if tracer:
                tracer.install()
            try:
                outcomes, wall = run_pass(ops, main)
            finally:
                if tracer:
                    tracer.uninstall()
            attempted += len(ops)
            bad, found, digests = judge(ops, outcomes, reference)
            failures += bad
            if reference is None:
                reference, values = digests, found
            if tracer:
                traced_walls.append(wall)
                layers.append(tracer.layer_metrics())
            else:
                plain_walls.append(wall)
                op_seconds.append([o.seconds for o in outcomes])
        # stop at the pass boundary nearest to ``seconds``
        elapsed, last = time.perf_counter() - start, time.perf_counter() - round_start
        if elapsed + last / 2 >= seconds:
            break
    wall = statistics.median(plain_walls)
    record = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(plain_walls),
        "wall_s": wall,
        "walls": plain_walls,
        "op_median_s": {op.artifact: statistics.median(t) for op, t in zip(ops, zip(*op_seconds))},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "values": values,
    }
    if "events" in values:
        record["events_per_s"] = values["events"] / wall
    if traced:
        record["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        record["trace_overhead_s"] = statistics.median(traced_walls) - wall
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    args = p.parse_args(argv)
    import liftlab.cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(liftlab.cli.__file__).startswith(src + os.sep):
        print(f"liftlab imported from {liftlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.size)
    record = measure(ops, liftlab.cli.main, args.seconds, bool(args.trace))
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
