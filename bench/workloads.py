"""The benchmark's workloads: the CLI calls each one makes and the checks on their outputs.

A workload is a list of ``Op``s.  Each op is one ``liftlab`` CLI invocation
whose arguments are generated from the seed; its check reads the one-line
JSON summary and the artifact the call wrote and returns a list of problems
(empty when the output is correct) plus the figures the benchmark reports.
Tolerances on sampled moments are about 6.5 seed-to-seed standard deviations
(measured over 12 seeds at the full sizes), so a correct sampler never trips
them while a bias of a few percent does.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("rtp-sweep", "sampler", "verify")
SIZES = ("full", "tiny")

RTP_OMEGAS = (0.01, 0.02, 0.05, 0.1, 1.0, 25.0, 50.0, 100.0, 200.0)
N_GAMMAS = 11
_HASH_LINE = re.compile(r"^# config_hash=([0-9a-f]{16}) version=\S+$")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``liftlab <argv> --output <artifact>``."""

    artifact: str
    argv: tuple
    check: Callable[[dict, str], tuple]


def build(workload: str, seed: int, size: str = "full") -> list:
    """The ops of one workload pass; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    tiny = size == "tiny"
    s = ("--seed", str(seed))
    if workload == "rtp-sweep":
        # criterion 07's run; the tiny size shrinks L so no grid exceeds
        # a few dozen nodes, which leaves the ballistic slope unresolved
        extra = ("--length", "0.1", "--n-grid", "20", "--n-replicas", "150") if tiny else ()
        return [
            Op("rtp-scaling.csv", ("study", "--preset", "rtp-scaling", *extra, *s),
               partial(check_rtp_scaling, slope_tol=0.8 if tiny else 0.15)),
        ]
    if workload == "sampler":
        scale = 100.0 if tiny else 1.0  # t_end divisor; tolerances grow by its root
        widen = math.sqrt(scale)

        def sim(artifact, process, t_end, moment, tol, *args):
            argv = ("simulate", "--process", process, *args, "--t-end", repr(t_end / scale), *s)
            return Op(artifact, argv, partial(check_trajectory, moment=moment, tol=tol * widen))

        # RTP on [0, 2]: mean position 1; Gaussian targets with m = 1: E x_k^2 = 1
        return [
            sim("rtp.csv", "rtp", 1e5, "mean_x", 0.03, "--omega", "1", "--length", "2"),
            sim("zigzag-d2.csv", "zigzag", 1e5, "second", 0.04, "--d", "2"),
            sim("zigzag-d50.csv", "zigzag", 1e3, "second", 0.06, "--d", "50"),
            sim("forward-d2.csv", "forward", 1e5, "second", 0.05, "--d", "2"),
            Op("gamma-forward.csv",
               ("study", "--preset", "gamma-forward",
                *(("--n-replicas", "150") if tiny else ()), *s),
               check_gamma_study),
        ]
    n, n_rhs = (40, 5) if tiny else (400, 100)
    ni = str(n)
    return [
        # --n-eigen equal to the dimension: the whole spectrum is the output
        Op("spectrum-rtp.json",
           ("spectrum", "--process", "rtp", "--n-interior", ni, "--n-eigen", str(3 * (n + 2)), *s),
           partial(check_spectrum, dim=3 * (n + 2))),
        Op("spectrum-zigzag.json",
           ("spectrum", "--process", "zigzag", "--n-interior", ni, "--n-eigen", str(2 * (n + 2)), *s),
           partial(check_spectrum, dim=2 * (n + 2))),
        Op("lift-rtp.json", ("lift-check", "--process", "rtp", "--n-interior", ni, *s), check_lift),
        Op("lift-zigzag.json", ("lift-check", "--process", "zigzag", "--n-interior", ni, *s),
           check_lift),
        # flow-poincare stays at its default 200 interior nodes: from
        # dimension 906 up it recomputes Pade steps per probe (see NOTES.md)
        Op("flow-poincare.json",
           ("flow-poincare", *(("--n-interior", "40") if tiny else ()), *s), check_flow),
        Op("divergence.json",
           ("divergence-check", "--n-interior", ni, "--n-rhs", str(n_rhs), *s),
           partial(check_divergence, n_rhs=n_rhs)),
        Op("gamma-zigzag.csv",
           ("study", "--preset", "gamma-zigzag", *(("--n-grid", "30") if tiny else ()), *s),
           check_gamma_study),
    ]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _json_artifact(summary: dict, path: str) -> tuple:
    with open(path) as fh:
        art = json.load(fh)
    problems = []
    if art.get("config_hash") != summary["config_hash"]:
        problems.append("artifact config_hash differs from the summary's")
    return art, problems


def _csv_table(path: str, header: str) -> tuple:
    """Config-hash comment line, then ``header``, then float rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    problems = []
    if not lines or not _HASH_LINE.match(lines[0]):
        problems.append("first line is not '# config_hash=<16 hex> version=...'")
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"header is not {header!r}")
    rows = []
    for line in lines[2:]:
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            problems.append(f"unparsable row {line[:60]!r}")
            break
    ncol = header.count(",") + 1
    if any(len(r) != ncol for r in rows):
        problems.append(f"a row does not have {ncol} fields")
    elif rows and not np.isfinite(np.array(rows, dtype=float)[:, 0]).all():
        problems.append("non-finite first column")
    return rows, problems


def check_rtp_scaling(summary: dict, path: str, slope_tol: float) -> tuple:
    m = summary["metrics"]
    slope_low, slope_high = m.get("slope_low"), m.get("slope_high")
    problems = []
    if not _finite(slope_low, slope_high):
        return ["slopes missing or not finite"], {}
    low_err, high_err = abs(slope_low - 1.0), abs(slope_high + 1.0)
    if low_err > slope_tol:
        problems.append(f"|slope_low - 1| = {low_err:.3f} > {slope_tol}")
    if high_err > slope_tol:
        problems.append(f"|slope_high + 1| = {high_err:.3f} > {slope_tol}")
    if m.get("rows") != len(RTP_OMEGAS):
        problems.append(f"summary reports {m.get('rows')} rows")
    if m.get("all_upper_bounds_ok") is not True:
        problems.append("an upper bound check failed")
    rows, bad = _csv_table(path, "omega,L,T,nu_hat,nu_sim,gap_collapse,upper_bound_ok")
    problems += bad
    if not bad:
        if tuple(r[0] for r in rows) != RTP_OMEGAS:
            problems.append(f"artifact holds {len(rows)} rows, not the 9 omegas")
        elif not all(r[3] > 0 and math.isfinite(r[4]) and r[6] == 1.0 for r in rows):
            problems.append("a row has nu_hat <= 0, non-finite nu_sim or upper_bound_ok != 1")
    return problems, {"slope_low_err": low_err, "slope_high_err": high_err}


def check_gamma_study(summary: dict, path: str) -> tuple:
    m = summary["metrics"]
    problems = []
    if not (_finite(m.get("gamma_star"), m.get("nu_star")) and m["nu_star"] > 0):
        problems.append("gamma_star / nu_star missing or not a positive number")
    rows, bad = _csv_table(path, "gamma,nu_hat,nu_formula")
    problems += bad
    if not bad:
        if len(rows) != N_GAMMAS:
            problems.append(f"artifact holds {len(rows)} rows, not {N_GAMMAS}")
        elif not all(r[1] > 0 and math.isfinite(r[2]) for r in rows):
            problems.append("a row has nu_hat <= 0 or a non-finite prediction")
    return problems, {}


def check_trajectory(summary: dict, path: str, moment: str, tol: float) -> tuple:
    """Row count equals n_events; a stationary moment is 1 within ``tol``.

    ``mean_x``: time-averaged position of the RTP pair on [0, 2], whose
    invariant law is symmetric about the midpoint.  ``second``: coordinate
    mean of the time-averaged x_k^2 under a standard Gaussian target.
    Between events every path is linear from one recorded row to the next,
    so the segment integrals are exact.
    """
    n_events = summary["metrics"]["n_events"]
    with open(path) as fh:
        first = _HASH_LINE.match(fh.readline().rstrip("\n"))
        header = fh.readline().rstrip("\n").split(",")
    problems = []
    if first is None or first.group(1) != summary["config_hash"]:
        problems.append("artifact config_hash line missing or differs from the summary's")
    d = (len(header) - 2) // 2
    if d < 1 or header[0] != "t" or header[-1] != "kind":
        return problems + [f"bad header {header[:4]}"], {}
    data = np.loadtxt(path, delimiter=",", skiprows=2, usecols=range(1 + d), ndmin=2)
    if data.shape[0] != n_events:
        problems.append(f"{data.shape[0]} rows for {n_events} events")
    t, x = data[:, 0], data[:, 1:]
    dt = np.diff(t)
    a, b = x[:-1], x[1:]
    if moment == "mean_x":
        value = float((0.5 * (a + b)[:, 0] * dt).sum() / t[-1])
    else:
        value = float(((a * a + a * b + b * b) / 3.0 * dt[:, None]).sum(axis=0).mean() / t[-1])
    if not abs(value - 1.0) <= tol:
        problems.append(f"{moment} = {value:.4f}, expected 1 +- {tol:.3f}")
    return problems, {"events": n_events}


def check_spectrum(summary: dict, path: str, dim: int) -> tuple:
    art, problems = _json_artifact(summary, path)
    re_, im = np.array(art["eigenvalues_real"]), np.array(art["eigenvalues_imag"])
    if art["dim"] != dim or re_.size != dim or im.size != dim:
        return problems + [f"{re_.size} eigenvalues for dim {art['dim']}, expected {dim}"], {}
    if not (np.isfinite(re_).all() and np.isfinite(im).all()):
        return problems + ["non-finite eigenvalue"], {}
    scale = float(np.abs(re_ + 1j * im).max())
    if abs(re_[0]) > 1e-8 * scale or re_.max() > 1e-8 * scale:
        problems.append("leading eigenvalue is not 0 or the spectrum is not in Re <= 0")
    rates = -re_
    gap = float(rates[rates > 1e-9].min())
    if not (art["gap"] == summary["metrics"]["gap"] and abs(art["gap"] - gap) <= 1e-12 * scale):
        problems.append(f"reported gap {art['gap']} != smallest nonzero rate {gap}")
    return problems, {}


def check_lift(summary: dict, path: str) -> tuple:
    art, problems = _json_artifact(summary, path)
    m = summary["metrics"]
    keys = ("first_order_residual", "second_order_residual", "antisymmetry_residual")
    if not _finite(*(m.get(k) for k in keys)):
        problems.append("a lift residual is missing or not finite")
    elif any(art["report"][k] != m[k] for k in keys):
        problems.append("artifact residuals differ from the summary's")
    if not (_finite(m.get("nu_formula")) and m["nu_formula"] > 0):
        problems.append("nu_formula is not a positive number")
    return problems, {}


def check_flow(summary: dict, path: str) -> tuple:
    art, problems = _json_artifact(summary, path)
    m = summary["metrics"]
    if m.get("upper_bound_ok") is not True or art["upper_bound_ok"] is not True:
        problems.append("lifting upper bound violated")
    if not (_finite(m.get("decay_margin")) and m["decay_margin"] >= -1e-8):
        problems.append(f"decay_margin {m.get('decay_margin')} < -1e-8")
    if not (_finite(m.get("nu_hat")) and m["nu_hat"] > 0 and art["nu_hat"] == m["nu_hat"]):
        problems.append("nu_hat missing, not positive or differs from the artifact")
    return problems, {}


def check_divergence(summary: dict, path: str, n_rhs: int) -> tuple:
    art, problems = _json_artifact(summary, path)
    m = summary["metrics"]
    if not (_finite(m.get("worst_residual")) and m["worst_residual"] <= 1e-8):
        problems.append(f"worst_residual {m.get('worst_residual')} > 1e-8")
    if m.get("bounds_ok") is not True or art["bounds_ok"] is not True:
        problems.append("bound ratios exceed their limit")
    if art["n_rhs"] != n_rhs or art["worst_residual"] != m["worst_residual"]:
        problems.append("artifact n_rhs or worst_residual differs")
    return problems, {}
