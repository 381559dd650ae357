"""Parameter sweeps: rate scaling regimes and refresh-rate optimization.

Three orchestrated studies: the run-and-tumble sweep over the tumble
rate omega exhibiting the ballistic (nu proportional to omega) and
diffusive (nu proportional to 1/(omega L^2)) regimes of the relaxation
rate, the refresh-rate sweep locating the optimal gamma near sqrt(m),
and a side-by-side report of the closed-form rate predictions across
process families.  All studies emit deterministic CSV tables embedding
the configuration hash.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .core import RngStream, quadratic_potential
from .errors import InvalidParameter
from .generators import RtpParams, rtp_model, zigzag_model
from .io_utils import atomic_write_text, config_hash
from .lift_check import assumption_constants, rate_formula
from .flow_poincare import best_nu, lifted_probe_family, lifting_upper_bound_check
from .simulate import (
    empirical_decay_rate,
    rtp_stationary_state,
    simulate_forward,
    simulate_rtp,
    simulate_zigzag,
)
from .spectral import Semigroup, decompose, spectral_gap

__all__ = [
    "rtp_scaling_study",
    "gamma_study",
    "constants_report",
    "loglog_slope",
    "spearman_rho",
]

RTP_SCALING_HEADER = "omega,L,T,nu_hat,nu_sim,gap_collapse,upper_bound_ok"
GAMMA_HEADER = "gamma,nu_hat,nu_formula"


def loglog_slope(xs, ys):
    """Least-squares slope of log ys vs log xs with its standard error."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    if xs.size < 2:
        raise InvalidParameter("need at least two points for a slope")
    A = np.vander(xs, 2)
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    dof = max(xs.size - 2, 1)
    resid = ys - A @ coef
    var = float(resid @ resid) / dof
    cov = var * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


def _average_ranks(x):
    # ranks 1..n; a run of tied values shares the mean of its ranks
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.r_[True, xs[1:] != xs[:-1]]
    first = np.nonzero(new)[0]
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(new) - 1]
    return ranks


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation, with tied values given average ranks."""
    return float(np.corrcoef(_average_ranks(xs), _average_ranks(ys))[0, 1])


def _windowed_nu(split, collapse, T_rule: str):
    """Flow ratio minimum with the window length set by T_rule.

    "collapse" uses the quadratic timescale m^{-1/2} of the collapsed
    gap; "relaxation" refines it in a second pass to five times the
    first-pass relaxation time, so the reported rate reflects the
    asymptotic decay rather than the initial hypocoercive transient.
    """
    if T_rule not in ("collapse", "relaxation"):
        raise InvalidParameter(f"unknown T_rule {T_rule!r}")
    m = spectral_gap(collapse)
    T = m**-0.5
    sg = Semigroup(split.full)
    mu = split.full.reference_measure
    probes = lifted_probe_family(split, collapse)
    nu = best_nu(split.full, mu, T, probes, semigroup=sg).nu_hat
    if T_rule == "relaxation":
        T = min(5.0 / max(nu, 1e-12), 1e4 * T)
        nu = best_nu(split.full, mu, T, probes, semigroup=sg).nu_hat
    return nu, m, T


def _rtp_nu_hat(omega: float, L: float, n_interior: int, T_rule: str = "relaxation"):
    # resolve the O(1/omega) boundary layer: the relative discretization
    # error of the gap behaves like omega*h, so the node count scales
    # with omega up to a hard cap
    n_eff = max(n_interior, min(800, round(4.0 * omega * L)))
    split, collapse, _ = rtp_model(omega, L, n_eff)
    return _windowed_nu(split, collapse, T_rule)


def _rtp_nu_sim(omega: float, L: float, nu_guess: float, seed: int, n_replicas: int):
    params = RtpParams(omega=omega, length_L=L)
    c = 1.0 / (2.0 + omega * L)
    mean_x = c * L + omega * c * L * L / 2.0

    def run(stream, t_grid):
        x0, v0 = rtp_stationary_state(params, stream)
        traj = simulate_rtp(params, x0, v0, float(t_grid[-1]) * (1 + 1e-12) + 1e-9, stream)
        xs, _ = traj.sample_path(t_grid)
        return xs[:, 0] - mean_x

    horizon = 2.5 / max(nu_guess, 1e-6)
    t_grid = np.linspace(0.0, horizon, 12)
    return empirical_decay_rate(run, n_replicas, t_grid, RngStream(seed))


def rtp_scaling_study(
    omega_grid,
    L: float,
    n_grid: int = 200,
    T_rule: str = "relaxation",
    output=None,
    seed: int = 42,
    n_replicas: int = 1000,
    with_sim: bool = True,
) -> dict:
    """Sweep omega: spectral and simulated rates with regime slopes.

    Per omega the discretized pair process yields nu_hat (flow ratio
    minimum) and the event-driven simulator yields nu_sim (replica
    autocovariance regression); every row records the collapsed gap and
    whether the lifting upper bound nu <= (1 + log C) sqrt(2 m) holds.
    Log-log slopes are fitted on the sub-grids omega L <= 0.3 and
    omega L >= 3.
    """
    omegas = sorted(float(w) for w in omega_grid)
    config = {
        "study": "rtp-scaling",
        "omega_grid": omegas,
        "L": L,
        "n_grid": n_grid,
        "T_rule": T_rule,
        "seed": seed,
        "n_replicas": n_replicas,
        "with_sim": with_sim,
    }
    rows = []
    for i, omega in enumerate(omegas):
        nu_hat, m, T = _rtp_nu_hat(omega, L, n_grid, T_rule)
        C = float(np.exp(nu_hat * T))
        ok, _ = lifting_upper_bound_check(nu_hat, C, m)
        nu_sim = (
            _rtp_nu_sim(omega, L, nu_hat, seed + i, n_replicas) if with_sim else float("nan")
        )
        rows.append(
            {
                "omega": omega,
                "L": L,
                "T": T,
                "nu_hat": nu_hat,
                "nu_sim": nu_sim,
                "gap_collapse": m,
                "upper_bound_ok": ok,
            }
        )
    low = [r for r in rows if r["omega"] * L <= 0.3]
    high = [r for r in rows if r["omega"] * L >= 3.0]
    result = {"rows": rows, "config_hash": config_hash(config)}
    if len(low) >= 2:
        result["slope_low"], result["slope_low_stderr"] = loglog_slope(
            [r["omega"] for r in low], [r["nu_hat"] for r in low]
        )
    if len(high) >= 2:
        result["slope_high"], result["slope_high_stderr"] = loglog_slope(
            [r["omega"] for r in high], [r["nu_hat"] for r in high]
        )
    if output is not None:
        lines = [f"# config_hash={result['config_hash']} version={__version__}"]
        lines.append(RTP_SCALING_HEADER)
        for r in rows:
            lines.append(
                f"{float(r['omega'])!r},{float(r['L'])!r},{float(r['T'])!r},"
                f"{float(r['nu_hat'])!r},{float(r['nu_sim'])!r},"
                f"{float(r['gap_collapse'])!r},{int(r['upper_bound_ok'])}"
            )
        atomic_write_text(output, "\n".join(lines) + "\n")
    return result


def _zigzag_discrete_nu(m: float, gamma: float, n_interior: int):
    # spectral relaxation rate of the lifted generator (smallest nonzero
    # real-part magnitude): the sharpest deterministic rate available for
    # a discretized process, and directly comparable across gamma
    split, _, _ = zigzag_model(m, gamma, n_interior)
    vals = decompose(split.full).eigenvalues
    rates = -np.atleast_1d(vals).real
    return float(rates[rates > 1e-9].min())


def _zigzag_sim_nu(m: float, gamma: float, seed: int, n_replicas: int):
    U = quadratic_potential([m])

    def run(stream, t_grid):
        x0 = stream.gaussian(sd=1.0 / np.sqrt(m), size=1)
        traj = simulate_zigzag(
            U, "hypercube", gamma, x0, float(t_grid[-1]) * (1 + 1e-12) + 1e-9, stream
        )
        xs, _ = traj.sample_path(t_grid)
        return xs[:, 0]

    horizon = 3.0 / np.sqrt(m)
    t_grid = np.linspace(0.0, horizon, 12)
    return empirical_decay_rate(run, n_replicas, t_grid, RngStream(seed))


def _forward_sim_nu(m: float, gamma: float, seed: int, n_replicas: int):
    U = quadratic_potential([m])

    def run(stream, t_grid):
        x0 = stream.gaussian(sd=1.0 / np.sqrt(m), size=1)
        traj = simulate_forward(
            U, gamma, x0, float(t_grid[-1]) * (1 + 1e-12) + 1e-9, stream
        )
        xs, _ = traj.sample_path(t_grid)
        return xs[:, 0]

    horizon = 3.0 / np.sqrt(m)
    t_grid = np.linspace(0.0, horizon, 12)
    return empirical_decay_rate(run, n_replicas, t_grid, RngStream(seed))


_GAMMA_PROCESSES = {
    "zigzag_1d_discrete": ("zigzag_hypercube", _zigzag_discrete_nu),
    "zigzag_sim": ("zigzag_hypercube", _zigzag_sim_nu),
    "forward_sim": ("forward", _forward_sim_nu),
}


def gamma_study(
    process: str,
    m: float,
    gamma_grid,
    output=None,
    n_grid: int = 60,
    seed: int = 42,
    n_replicas: int = 400,
) -> dict:
    """Refresh-rate sweep: measured rate vs the closed-form prediction.

    Reports the measured nu per gamma, the argmax, the prediction from
    the rate formula (same constants across the sweep), and their
    Spearman rank correlation.
    """
    if process not in _GAMMA_PROCESSES:
        raise InvalidParameter(
            f"process {process!r} not in {sorted(_GAMMA_PROCESSES)}"
        )
    process_id, runner = _GAMMA_PROCESSES[process]
    gammas = sorted(float(g) for g in gamma_grid)
    config = {
        "study": "gamma",
        "process": process,
        "m": m,
        "gamma_grid": gammas,
        "n_grid": n_grid,
        "seed": seed,
        "n_replicas": n_replicas,
    }
    U = quadratic_potential([m])
    rows = []
    for i, gamma in enumerate(gammas):
        if process == "zigzag_1d_discrete":
            nu = runner(m, gamma, n_grid)
        else:
            nu = runner(m, gamma, seed + i, n_replicas)
        consts = assumption_constants(process_id, m, gamma, potential=U)
        rows.append(
            {"gamma": gamma, "nu_hat": nu, "nu_formula": rate_formula(consts)}
        )
    nus = np.array([r["nu_hat"] for r in rows])
    preds = np.array([r["nu_formula"] for r in rows])
    best = int(np.argmax(nus))
    rho = spearman_rho(nus, preds)
    sqrt_m = float(np.sqrt(m / 2.0))  # collapse gap of U = m x^2/2 is m/2
    result = {
        "rows": rows,
        "gamma_star": rows[best]["gamma"],
        "nu_star": rows[best]["nu_hat"],
        "edge_ratio": float(max(nus[0], nus[-1]) / nus[best]),
        "spearman_rho": rho,
        "sqrt_m_collapse": sqrt_m,
        "c_fit": float(rows[best]["nu_hat"] / sqrt_m),
        "config_hash": config_hash(config),
    }
    if output is not None:
        lines = [f"# config_hash={result['config_hash']} version={__version__}"]
        lines.append(GAMMA_HEADER)
        for r in rows:
            lines.append(
                f"{float(r['gamma'])!r},{float(r['nu_hat'])!r},"
                f"{float(r['nu_formula'])!r}"
            )
        atomic_write_text(output, "\n".join(lines) + "\n")
    return result


def constants_report(entries, output=None) -> dict:
    """Side-by-side closed-form rate predictions for process configs.

    Each entry is a dict with keys process (the process id accepted by
    the constants table), m, gamma, optional T, potential parameters
    (quadratic coefficients) and an optional measured nu.
    """
    report = []
    for entry in entries:
        coeffs = entry.get("coeffs", [entry["m"]])
        U = quadratic_potential(coeffs)
        consts = assumption_constants(
            entry["process"],
            entry["m"],
            entry["gamma"],
            T=entry.get("T"),
            potential=U,
        )
        report.append(
            {
                "process": entry["process"],
                "m": consts.m,
                "gamma": consts.gamma,
                "T": consts.T,
                "C1": consts.C1,
                "C2": consts.C2,
                "m_v": consts.m_v,
                "nu_formula": consts.nu,
                "nu_measured": entry.get("nu_measured"),
            }
        )
    out = {"entries": report, "version": __version__}
    if output is not None:
        import json

        atomic_write_text(output, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out
