"""Flow Poincare ratios, empirical rates, and decay verification.

The flow Poincare inequality with duration T and rate nu reads

    int_0^T ||P_t f||^2 dt  <=  (1/nu) int_0^T <P_t f, -L P_t f> dt,

and is equivalent to exponential decay of T-averaged squared norms,

    int_t^{t+T} ||P_s f||^2 ds <= e^{-2 nu t} int_0^T ||P_s f||^2 ds,

as well as to the pointwise bound ||P_t f|| <= e^{nu T} e^{-nu t} ||f||.
This module evaluates the ratio per probe function with Gauss-Legendre
time quadrature, takes the empirical rate nu_hat as the minimum over a
probe family (an upper bound on the true rate, comparable across
parameters when the probe-generation rules are fixed), and verifies the
decay statements and the lifting upper bound nu <= (1 + log C) sqrt(2 m)
against the collapsed spectral gap m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from .core import OperatorMatrix, WeightedMeasure, inner_product
from .errors import InvalidParameter
from .generators import SplitGenerator
from .spectral import Semigroup, decompose

__all__ = [
    "FlowReport",
    "gauss_legendre",
    "flow_ratio",
    "lifted_probe_family",
    "best_nu",
    "decay_check",
    "pointwise_decay_bound",
    "lifting_upper_bound_check",
]


@dataclass(frozen=True)
class FlowReport:
    """Empirical flow Poincare rate over one probe family."""

    nu_hat: float
    worst_probe_id: int


def gauss_legendre(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _require_mean_zero(f: np.ndarray, mu: WeightedMeasure):
    f = np.asarray(f, dtype=float)
    nrm = np.sqrt(inner_product(f, f, mu))
    if nrm == 0.0:
        raise InvalidParameter("probe is identically zero in L2(mu)")
    ones = np.ones_like(f)
    if abs(inner_product(f, ones, mu)) > 1e-10 * nrm * np.sqrt(mu.total_mass):
        raise InvalidParameter("probe has nonzero mean against the measure")
    return f


def _flow_sums(sg, op, mu, F, T, n_quad):
    """Gauss-Legendre sums over [0, T] for each column f of the block F.

    Returns (num, den) with num = int <P_t f, -L P_t f> dt and
    den = int ||P_t f||^2 dt, accumulated one time node at a time.
    """
    if T <= 0:
        raise InvalidParameter(f"duration T={T} must be > 0")
    nodes, weights = gauss_legendre(0.0, T, n_quad)
    L = scipy.sparse.csr_array(op.entries)
    wmu = mu.weights
    num = np.zeros(F.shape[1])
    den = np.zeros(F.shape[1])
    for i, P in sg.sweep(F, nodes):
        den += weights[i] * (wmu @ (P * P))
        num -= weights[i] * (wmu @ (P * (L @ P)))
    return num, den


def flow_ratio(
    op: OperatorMatrix,
    mu: WeightedMeasure,
    f: np.ndarray,
    T: float,
    n_quad: int = 64,
    semigroup: Optional[Semigroup] = None,
) -> float:
    """Energy-to-norm ratio of the semigroup trajectory over [0, T].

    Returns [int_0^T <P_t f, -L P_t f> dt] / [int_0^T ||P_t f||^2 dt];
    the flow Poincare rate of the single probe f.
    """
    f = _require_mean_zero(f, mu)
    sg = semigroup if semigroup is not None else Semigroup(op)
    num, den = _flow_sums(sg, op, mu, f[:, None], T, n_quad)
    return float(num[0] / den[0])


def lifted_probe_family(
    split: SplitGenerator,
    collapse: OperatorMatrix,
    n_eig: int = 10,
    n_random: int = 5,
    n_slow: int = 4,
    seed: int = 13,
) -> list:
    """Mean-zero probes on the lifted state space.

    Combines lifted collapse eigenvectors, velocity-fluctuation probes
    (position modes modulated by a mean-zero velocity pattern), the
    slowest nontrivial eigenvectors of the lifted operator itself (real
    and imaginary parts), and random mean-zero vectors.  All probes are
    unit-normalized in L2 of the lifted measure.
    """
    mu = split.full.reference_measure
    probes = []
    sd_c = decompose(collapse)
    for k in range(1, min(n_eig + 1, collapse.dim)):
        probes.append(split.lift(sd_c.eigenvectors[:, k].real.copy()))
    ramp = np.linspace(1.0, -1.0, split.n_velocity)
    for k in range(min(n_eig, collapse.dim - 1)):
        base = sd_c.eigenvectors[:, k].real.copy()
        probes.append(np.concatenate([c * base for c in ramp]))
    if n_slow > 0:
        sd_f = decompose(split.full)
        for k in range(1, min(n_slow + 1, split.full.dim)):
            v = sd_f.eigenvectors[:, k]
            probes.append(v.real.copy())
            if np.abs(v.imag).max() > 1e-12:
                probes.append(v.imag.copy())
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        probes.append(rng.normal(size=split.full.dim))
    out = []
    ones = np.ones(split.full.dim)
    for p in probes:
        p = p - inner_product(p, ones, mu) / mu.total_mass
        nrm = np.sqrt(inner_product(p, p, mu))
        if nrm > 1e-12:
            out.append(p / nrm)
    if not out:
        raise InvalidParameter("no usable probes")
    return out


def best_nu(
    op: OperatorMatrix,
    mu: WeightedMeasure,
    T: float,
    probes,
    n_quad: int = 64,
    semigroup: Optional[Semigroup] = None,
) -> FlowReport:
    """Empirical flow Poincare rate: minimum flow ratio over the probes.

    The probes propagate together as one (dim, p) block.
    """
    if not probes:
        raise InvalidParameter("empty probe family")
    F = np.column_stack([_require_mean_zero(f, mu) for f in probes])
    sg = semigroup if semigroup is not None else Semigroup(op)
    num, den = _flow_sums(sg, op, mu, F, T, n_quad)
    ratios = num / den
    worst = int(np.argmin(ratios))
    return FlowReport(nu_hat=float(ratios[worst]), worst_probe_id=worst)


def _window_integral(sg, mu, f, t0, T, n_quad):
    nodes, weights = gauss_legendre(t0, t0 + T, n_quad)
    P = sg.apply_many(f, nodes)
    return float(weights @ ((P * P) @ mu.weights))


def decay_check(
    op: OperatorMatrix,
    mu: WeightedMeasure,
    f: np.ndarray,
    T: float,
    nu: float,
    t_grid,
    n_quad: int = 64,
    semigroup: Optional[Semigroup] = None,
) -> float:
    """Worst slack of the T-window decay bound along a time grid.

    Returns min over t in t_grid of
    e^{-2 nu t} int_0^T ||P_s f||^2 ds - int_t^{t+T} ||P_s f||^2 ds,
    normalized by the t = 0 window so the tolerance is scale-free.
    A value >= -1e-8 verifies the decay statement up to quadrature error.
    """
    f = _require_mean_zero(f, mu)
    sg = semigroup if semigroup is not None else Semigroup(op)
    base = _window_integral(sg, mu, f, 0.0, T, n_quad)
    margin = np.inf
    for t in t_grid:
        window = _window_integral(sg, mu, f, float(t), T, n_quad)
        margin = min(margin, (np.exp(-2.0 * nu * t) * base - window) / base)
    return float(margin)


def pointwise_decay_bound(
    op: OperatorMatrix,
    mu: WeightedMeasure,
    f: np.ndarray,
    nu: float,
    T: float,
    t_grid,
    semigroup: Optional[Semigroup] = None,
):
    """Check ||P_t f|| <= C e^{-nu t} ||f|| with C = e^{nu T} on a grid.

    Returns (C, min_slack) where the slack at each t is the bound minus
    the observed norm, relative to ||f||; nonnegative min_slack means
    the bound holds everywhere on the grid.
    """
    f = _require_mean_zero(f, mu)
    sg = semigroup if semigroup is not None else Semigroup(op)
    C = float(np.exp(nu * T))
    nf = np.sqrt(inner_product(f, f, mu))
    ts = np.asarray(list(t_grid), dtype=float)
    P = sg.apply_many(f, ts)
    norms = np.sqrt((P * P) @ mu.weights)
    slack = np.min(C * np.exp(-nu * ts) * nf - norms) / nf
    return C, float(slack)


def lifting_upper_bound_check(nu: float, C: float, collapse_gap: float):
    """Upper bound on any lifted rate: nu <= (1 + log C) sqrt(2 m).

    Returns (ok, slack) with slack = bound - nu.
    """
    if C < 1.0:
        raise InvalidParameter(f"C={C} must be >= 1")
    bound = (1.0 + np.log(C)) * np.sqrt(2.0 * collapse_gap)
    slack = float(bound - nu)
    return slack >= 0.0, slack
