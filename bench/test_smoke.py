"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_artifact_or_bad_exit_is_a_failed_op(workload, tmp_path, monkeypatch):
    from liftlab.cli import main

    monkeypatch.chdir(tmp_path)
    ops = workloads.build(workload, 7, "tiny")
    outcomes, _ = worker.run_pass(ops, main)
    failures, _, reference = worker.judge(ops, outcomes)
    assert failures == []

    outcomes, _ = worker.run_pass(ops, main)
    for op in ops:  # truncate every artifact to half its bytes
        with open(op.artifact, "r+b") as fh:
            fh.truncate(os.path.getsize(op.artifact) // 2)
    assert len(worker.judge(ops, outcomes)[0]) == len(ops)

    outcomes, _ = worker.run_pass(ops, main)
    with open(ops[0].artifact, "a") as fh:  # still parses, but not byte-identical
        fh.write("\n")
    assert len(worker.judge(ops, outcomes, reference)[0]) == 1

    bad = workloads.Op("bad.json", ("spectrum", "--process", "no-such-process"), ops[0].check)
    outcomes, _ = worker.run_pass([bad], main)
    assert outcomes[0].rc == 2
    assert len(worker.judge([bad], outcomes)[0]) == 1
