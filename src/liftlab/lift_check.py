"""Lift identities, weak antisymmetry, and the scalar constant pipeline.

Checks, on a lifted/collapsed operator pair, the defining identities of a
second-order lift:

- first order:   <L_hat (f o pi), g o pi> = 0,
- second order:  (1/2) <L_hat (f o pi), L_hat (g o pi)> = E(f, g),

together with weak antisymmetry of the transport part, all in L2 of the
lifted reference measure.  The discrete transport is upwind, so the
residuals vanish only at rate O(h); callers assert the convergence
order, not exact zeros.

Also evaluates the closed-form constants (C1, C2, m_v) per process and
the resulting convergence-rate formula

    1/nu = (1/gamma) (gamma^2 C2^2 + C1^2 + (1/m_v)(1 + 1/(m T^2))),

with every universal prefactor set to 1: reported rates are meaningful
up to a constant, and all scaling tests are constant-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .core import OperatorMatrix, Potential, inner_product
from .errors import InvalidParameter
from .generators import SplitGenerator, VelocityKernel
from .spectral import Semigroup, decompose, dirichlet_form

__all__ = [
    "AssumptionConstants",
    "LiftReport",
    "collapse_probes",
    "check_first_order",
    "check_second_order",
    "check_weak_antisymmetry",
    "transport_test_functions",
    "lift_report",
    "velocity_poincare",
    "assumption_constants",
    "rate_formula",
    "optimal_gamma",
]


@dataclass
class AssumptionConstants:
    """Scalar pipeline (m, m_v, C1, C2, gamma, T) and the output rate nu.

    ``nu`` is always the value of :func:`rate_formula` on the other
    fields; ``scaling_only`` marks constants whose absolute size carries
    an unspecified universal prefactor (set to 1 here).
    """

    m: float
    m_v: float
    C1: float
    C2: float
    gamma: float
    T: float
    K: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    hess_L: Optional[float] = None
    d: Optional[int] = None
    scaling_only: bool = False
    nu: float = field(init=False)

    def __post_init__(self):
        if self.m <= 0 or self.m_v <= 0 or self.gamma <= 0 or self.T <= 0:
            raise InvalidParameter("m, m_v, gamma, T must all be positive")
        if self.C1 < 0 or self.C2 < 0:
            raise InvalidParameter("C1, C2 must be nonnegative")
        if self.K is not None and self.K < 0:
            raise InvalidParameter("K must be >= 0")
        if self.a is not None and not (0 <= self.a < 1):
            raise InvalidParameter("a must lie in [0, 1)")
        if self.b is not None and self.b < 0:
            raise InvalidParameter("b must be >= 0")
        self.nu = rate_formula(self)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "m_v": self.m_v,
            "C1": self.C1,
            "C2": self.C2,
            "gamma": self.gamma,
            "T": self.T,
            "K": self.K,
            "a": self.a,
            "b": self.b,
            "hess_L": self.hess_L,
            "d": self.d,
            "scaling_only": self.scaling_only,
            "nu": self.nu,
        }


@dataclass(frozen=True)
class LiftReport:
    """Residuals of the three lift checks at one grid resolution."""

    first_order_residual: float
    second_order_residual: float
    antisymmetry_residual: float
    h: float
    probe_count: int

    def to_dict(self) -> dict:
        return {
            "first_order_residual": self.first_order_residual,
            "second_order_residual": self.second_order_residual,
            "antisymmetry_residual": self.antisymmetry_residual,
            "h": self.h,
            "probe_count": self.probe_count,
        }


def collapse_probes(
    collapse: OperatorMatrix,
    n_eig: int = 10,
    n_random: int = 10,
    seed: int = 7,
    smoothing: float = 0.01,
) -> list:
    """Probe family on the collapse: leading eigenvectors + smoothed noise.

    The random vectors are filtered through exp(smoothing * L) to damp
    grid-scale roughness; every probe is normalized in L2 of the
    collapse measure.
    """
    mu = collapse.reference_measure
    sd = decompose(collapse)
    probes = []
    for k in range(1, min(n_eig + 1, collapse.dim)):
        v = sd.eigenvectors[:, k].real.copy()
        # fix the sign so the probe family is resolution-consistent
        lead = v[0] if abs(v[0]) > 1e-8 * np.abs(v).max() else v[np.argmax(np.abs(v))]
        if lead < 0:
            v = -v
        probes.append(v)
    if n_random > 0:
        rng = np.random.default_rng(seed)
        sg = Semigroup(collapse)
        for _ in range(n_random):
            z = rng.normal(size=collapse.dim)
            probes.append(sg.apply(z, smoothing))
    out = []
    for p in probes:
        p = p - mu.mean(p)
        nrm = np.sqrt(inner_product(p, p, mu))
        if nrm > 0:
            out.append(p / nrm)
    if not out:
        raise InvalidParameter("no usable probes")
    return out


def _check_probe_dims(split: SplitGenerator, probes):
    if not probes:
        raise InvalidParameter("empty probe list")
    for p in probes:
        if np.asarray(p).shape[0] != split.n_position:
            raise InvalidParameter(
                f"probe of length {np.asarray(p).shape[0]} does not match "
                f"{split.n_position} position nodes"
            )


def check_first_order(split: SplitGenerator, collapse: OperatorMatrix, probes) -> float:
    """Largest relative |<L_hat (f o pi), g o pi>| over probe pairs.

    Each pair is normalized by ||L_hat (f o pi)|| * ||g o pi|| so the
    statistic is scale-free; pairs where either factor vanishes (e.g.
    constant f) contribute zero.
    """
    _check_probe_dims(split, probes)
    op = split.full
    mu = op.reference_measure
    lifted = [split.lift(np.asarray(p, dtype=float)) for p in probes]
    applied = [op.apply(F) for F in lifted]
    norms_g = [np.sqrt(inner_product(G, G, mu)) for G in lifted]
    norms_lf = [np.sqrt(inner_product(LF, LF, mu)) for LF in applied]
    worst = 0.0
    for LF, nlf in zip(applied, norms_lf):
        if nlf == 0.0:
            continue
        for G, ng in zip(lifted, norms_g):
            if ng == 0.0:
                continue
            worst = max(worst, abs(inner_product(LF, G, mu)) / (nlf * ng))
    return worst


def check_second_order(split: SplitGenerator, collapse: OperatorMatrix, probes) -> float:
    """Largest relative defect of (1/2)<L_hat f o pi, L_hat g o pi> = E(f, g).

    Each pair's defect is normalized by max(1, ||L_hat f o pi|| *
    ||L_hat g o pi|| / 2, |E(f, g)|) so rough probes do not dominate
    through sheer magnitude.
    """
    _check_probe_dims(split, probes)
    mu = split.full.reference_measure
    fs = [np.asarray(p, dtype=float) for p in probes]
    applied = [split.full.apply(split.lift(f)) for f in fs]
    norms = [np.sqrt(inner_product(LF, LF, mu)) for LF in applied]
    worst = 0.0
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            lhs = 0.5 * inner_product(applied[i], applied[j], mu)
            rhs = dirichlet_form(collapse, f, g)
            denom = max(1.0, 0.5 * norms[i] * norms[j], abs(rhs))
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def transport_test_functions(split: SplitGenerator, n_modes: int = 5) -> list:
    """Smooth lifted test functions spanning position and velocity patterns.

    Deterministic family u(x, v) = cos(j pi x / L) * c_v over low cosine
    modes j and a fixed set of velocity patterns c; it is the same
    continuum family at every resolution, so residuals computed against
    it have clean convergence orders.
    """
    N = split.n_position
    nv = split.n_velocity
    x = np.linspace(0.0, 1.0, N)
    patterns = [np.ones(nv)]
    ramp = np.linspace(1.0, -1.0, nv)
    patterns.append(ramp)
    if nv > 2:
        patterns.append(np.abs(ramp) - 0.5)
    out = []
    mu = split.full.reference_measure
    for j in range(n_modes):
        base = np.cos(j * np.pi * x)
        for c in patterns:
            u = np.concatenate([cv * base for cv in c])
            nrm = np.sqrt(inner_product(u, u, mu))
            if nrm > 0:
                out.append(u / nrm)
    return out


def check_weak_antisymmetry(
    split: SplitGenerator,
    probes,
    test_functions=None,
) -> float:
    """Largest relative |<L_tr (f o pi), u> + <f o pi, L_tr u>|.

    ``u`` ranges over smooth lifted test functions (the deterministic
    cosine/velocity-pattern family by default, standing in for a core of
    the operator); each pair is normalized by ||L_tr f o pi|| * ||u|| +
    ||f o pi|| * ||L_tr u||.
    """
    _check_probe_dims(split, probes)
    op = split.transport
    mu = op.reference_measure
    us = transport_test_functions(split) if test_functions is None else test_functions
    worst = 0.0
    for p in probes:
        F = split.lift(np.asarray(p, dtype=float))
        LF = op.apply(F)
        nF = np.sqrt(inner_product(F, F, mu))
        nLF = np.sqrt(inner_product(LF, LF, mu))
        for u in us:
            Lu = op.apply(u)
            nu_ = np.sqrt(inner_product(u, u, mu))
            nLu = np.sqrt(inner_product(Lu, Lu, mu))
            denom = nLF * nu_ + nF * nLu
            if denom == 0.0:
                continue
            val = inner_product(LF, u, mu) + inner_product(F, Lu, mu)
            worst = max(worst, abs(val) / denom)
    return worst


def lift_report(
    split: SplitGenerator,
    collapse: OperatorMatrix,
    probes,
    h: float,
) -> LiftReport:
    """Bundle the three residuals at one resolution."""
    return LiftReport(
        first_order_residual=check_first_order(split, collapse, probes),
        second_order_residual=check_second_order(split, collapse, probes),
        antisymmetry_residual=check_weak_antisymmetry(split, probes),
        h=h,
        probe_count=len(probes),
    )


def velocity_poincare(kernel: VelocityKernel) -> float:
    """Velocity Poincare constant: smallest nonzero eigenvalue of -Q in S."""
    d = np.sqrt(np.diag(kernel.weight_matrix))
    M = kernel.q_matrix * (d[:, None] / d[None, :])
    vals = scipy.linalg.eigh(0.5 * (M + M.T), eigvals_only=True)
    nonzero = sorted(abs(v) for v in vals if abs(v) > 1e-10)
    return float(nonzero[0])


def assumption_constants(
    process_id: str,
    m: float,
    gamma: float,
    T: Optional[float] = None,
    potential: Optional[Potential] = None,
) -> AssumptionConstants:
    """Closed-form (C1, C2, m_v) per process plus the rate nu.

    ``process_id`` is one of "rtp", "langevin", "zigzag_gaussian",
    "zigzag_hypercube", "zigzag_coords", "forward".  ``m`` is the
    spectral gap of the collapsed operator; ``T`` defaults to
    m^{-1/2}.  The potential must carry the bounds the chosen process
    needs (K for Langevin/Zig-Zag, additionally hess_L for Zig-Zag and
    the Lyapunov pair (a, b) for the forward process).
    """
    if m <= 0:
        raise InvalidParameter(f"m={m} must be > 0")
    if T is None:
        T = m ** -0.5
    C2 = 1.0 / np.sqrt(2.0 * m)
    K = a = b = hess_L = d = None
    scaling_only = False
    if process_id == "rtp":
        C1, m_v = 1.0, 2.0
    elif process_id == "langevin":
        K = _need(potential, "curvature_lower", process_id)
        C1, m_v = float(np.sqrt(2.0 + K)), 1.0
    elif process_id in ("zigzag_gaussian", "zigzag_hypercube"):
        K = _need(potential, "curvature_lower", process_id)
        hess_L = _need(potential, "hess_L", process_id)
        C1 = float(np.sqrt(44.0 * (1.0 + K) + 20.0 * hess_L / m))
        m_v = 1.0
        d = potential.dim
    elif process_id == "zigzag_coords":
        K = _need(potential, "curvature_lower", process_id)
        hess_L = _need(potential, "hess_L", process_id)
        d = potential.dim
        C1 = float(np.sqrt(18.0 * d * (1.0 + K) + 8.0 * d * hess_L / m))
        m_v = 1.0
    elif process_id == "forward":
        K = _need(potential, "curvature_lower", process_id)
        pair = _need(potential, "lyapunov_pair", process_id)
        a, b = float(pair[0]), float(pair[1])
        C1 = float(np.sqrt((b + (1.0 + K) * m) / (m * (1.0 - a) ** 2)))
        m_v = 1.0
        d = potential.dim
        scaling_only = True
    else:
        raise InvalidParameter(f"unknown process_id {process_id!r}")
    return AssumptionConstants(
        m=m,
        m_v=m_v,
        C1=C1,
        C2=C2,
        gamma=gamma,
        T=T,
        K=K,
        a=a,
        b=b,
        hess_L=hess_L,
        d=d,
        scaling_only=scaling_only,
    )


def _need(potential: Optional[Potential], attr: str, process_id: str):
    if potential is None or getattr(potential, attr) is None:
        raise InvalidParameter(f"process {process_id!r} needs potential.{attr}")
    return getattr(potential, attr)


def rate_formula(constants: AssumptionConstants) -> float:
    """Convergence rate nu from the scalar pipeline (universal constant 1)."""
    c = constants
    inv = (
        c.gamma**2 * c.C2**2 + c.C1**2 + (1.0 / c.m_v) * (1.0 + 1.0 / (c.m * c.T**2))
    ) / c.gamma
    return 1.0 / inv


def optimal_gamma(constants: AssumptionConstants) -> float:
    """Refresh rate gamma* = (1 + C1) sqrt(m) maximizing the rate scaling."""
    return (1.0 + constants.C1) * np.sqrt(constants.m)
