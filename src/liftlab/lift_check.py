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

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .core import OperatorMatrix, Potential, inner_product
from .errors import InvalidParameter
from .generators import SplitGenerator, VelocityKernel
from .spectral import decompose

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
        return asdict(self)


@dataclass(frozen=True)
class LiftReport:
    """Residuals of the three lift checks at one grid resolution."""

    first_order_residual: float
    second_order_residual: float
    antisymmetry_residual: float
    h: float
    probe_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def collapse_probes(collapse: OperatorMatrix, n_eig: int = 10) -> list:
    """The ``n_eig`` slowest nontrivial collapse eigenvectors.

    Each probe is centered and normalized in L2 of the collapse measure.
    """
    mu = collapse.reference_measure
    sd = decompose(collapse)
    out = []
    for k in range(1, min(n_eig + 1, collapse.dim)):
        v = sd.eigenvectors[:, k].real.copy()
        # fix the sign so the probe family is resolution-consistent
        lead = v[0] if abs(v[0]) > 1e-8 * np.abs(v).max() else v[np.argmax(np.abs(v))]
        if lead < 0:
            v = -v
        v = v - mu.mean(v)
        out.append(v / np.sqrt(inner_product(v, v, mu)))
    return out


def _probe_block(split: SplitGenerator, probes) -> np.ndarray:
    """Lifted probes iota p as the rows of one array."""
    if not probes:
        raise InvalidParameter("empty probe list")
    for p in probes:
        if np.asarray(p).shape[0] != split.n_position:
            raise InvalidParameter(
                f"probe of length {np.asarray(p).shape[0]} does not match "
                f"{split.n_position} position nodes"
            )
    P = np.array([np.asarray(p, dtype=float) for p in probes])
    return np.tile(P, (1, split.n_velocity))


def _gram(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pairings <x_i, y_j> of the rows of X and Y.

    Each entry is summed exactly as :func:`inner_product` sums it.
    """
    return (X[:, None, :] * Y[None, :, :] * w).sum(axis=-1)


def _whitener(G: np.ndarray, floor: float) -> np.ndarray:
    """M with M^T G M = I on the directions where G exceeds ``floor``.

    G is a symmetric positive semidefinite Gram matrix; directions whose
    eigenvalue is at most ``floor`` (vanishing to rounding) are dropped,
    so M may have fewer columns than G, or none.
    """
    vals, vecs = np.linalg.eigh(0.5 * (G + G.T))
    keep = vals > floor
    return vecs[:, keep] / np.sqrt(vals[keep])


def _lifted_span(split: SplitGenerator, probes):
    """Rows A spanning the lifted probes, orthonormal in L2(mu_hat); L_hat A; W.

    Directions in which the probes are linearly dependent are dropped.
    """
    A = _probe_block(split, probes)
    w = split.full.reference_measure.weights
    G = _gram(A, A, w)
    A = _whitener(G, 1e-12 * float(np.diag(G).max())).T @ A
    return A, A @ split.full.entries.T, w


def check_first_order(split: SplitGenerator, collapse: OperatorMatrix, probes) -> float:
    """Largest relative |<L_hat (f o pi), g o pi>| over the probe span.

    The supremum of |<L_hat F, G>| / (||L_hat F|| ||G||) over lifted F, G
    in the span is sigma_max(G_B^{-1/2} B^T W A) for an orthonormal
    lifted basis A, B = L_hat A and G_B = B^T W B.  Directions where
    L_hat F vanishes to rounding (e.g. constant f) are dropped, so a span
    with no other direction gives zero.
    """
    A, B, w = _lifted_span(split, probes)
    floor = (1e-12 * float(np.abs(split.full.entries).max())) ** 2
    M = _whitener(_gram(B, B, w), floor)
    return float(np.linalg.norm(M.T @ _gram(B, A, w), 2))


def check_second_order(split: SplitGenerator, collapse: OperatorMatrix, probes) -> float:
    """Largest relative defect of (1/2)||L_hat f o pi||^2 = E(f, f) over the span.

    This is the spectral radius of E^{-1/2} ((1/2) B^T W B - E) E^{-1/2},
    with B = L_hat A for a lifted basis A of the span, W the lifted
    measure and E the collapse energy Gram matrix.  It also bounds every
    pair: |(1/2)<L_hat f o pi, L_hat g o pi> - E(f, g)| is at most the
    residual times sqrt(E(f, f) E(g, g)).  Directions of zero energy
    (constants, to rounding) are dropped.
    """
    A, B, w = _lifted_span(split, probes)
    P = A[:, : split.n_position]
    E = -_gram(P, P @ collapse.entries.T, collapse.reference_measure.weights)
    M = _whitener(E, 1e-12 * float(np.abs(collapse.entries).max()))
    D = M.T @ (0.5 * _gram(B, B, w) - E) @ M
    return float(np.abs(np.linalg.eigvalsh(0.5 * (D + D.T))).max(initial=0.0))


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
    F = _probe_block(split, probes)
    op = split.transport
    w = op.reference_measure.weights
    us = transport_test_functions(split) if test_functions is None else test_functions
    U = np.array(us)
    LF = np.array([op.apply(f) for f in F])
    LU = np.array([op.apply(u) for u in U])
    num = np.abs(_gram(LF, U, w) + _gram(F, LU, w))
    nF, nLF, nU, nLU = (np.sqrt(np.diag(_gram(X, X, w))) for X in (F, LF, U, LU))
    denom = np.outer(nLF, nU) + np.outer(nF, nLU)
    ratios = num[denom > 0.0] / denom[denom > 0.0]
    return float(ratios.max(initial=0.0))


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
    """Refresh rate gamma* maximizing :func:`rate_formula`.

    The formula is gamma / (gamma^2 C2^2 + c) with
    c = C1^2 + (1/m_v)(1 + 1/(m T^2)), so its argmax is sqrt(c) / C2.
    """
    c = constants
    return float(np.sqrt(c.C1**2 + (1.0 + 1.0 / (c.m * c.T**2)) / c.m_v) / c.C2)
