"""Constructive space-time divergence solves h_t - 2Lg = f with bounds.

Given a self-adjoint collapsed generator L with spectral gap m, this
module solves the space-time divergence problem

    d/dt h(t,x) - 2 L g(t,x) = f(t,x)   on [0, T] x S,

with h and g vanishing at t = 0 and t = T, for mean-zero right-hand
sides f.  The construction splits f against the harmonic basis of
d_tt + 2L: per spatial eigenmode e_k (eigenvalue -alpha_k^2) the time
profiles

    u_k^a(t) = e^{-r_k t} - e^{-r_k (T-t)}        (antisymmetric)
    u_k^s(t) = e^{-r_k t} + e^{-r_k (T-t)}        (symmetric)

with decay rate r_k = sqrt(2) alpha_k (the rate that makes the
profiles genuinely harmonic for d_tt + 2L)

span the harmonic space, partitioned into low modes (alpha_k <= 2/T)
and high modes, and the orthogonal complement is handled by a
Neumann-in-time elliptic solve.  Each of the five resulting components
gets its own closed-form or variational construction, chosen so the
three bound ratios

    r1 = ||2Lg|| / ||f||
    r2 = sqrt(2 E_T(h)) / ||f||
    r3 = sqrt(2 E_T(d_t g)) / ((1 + 1/(T sqrt(m))) ||f||)

stay uniformly bounded.  Time is discretized on Chebyshev-Lobatto
nodes with the barycentric differentiation matrix and Clenshaw-Curtis
quadrature, so the divergence identity holds to near machine accuracy
on the grid for right-hand sides within the resolvable band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OperatorMatrix
from .errors import InvalidParameter, NumericalFailure
from .spectral import decompose

__all__ = [
    "HarmonicBasis",
    "RhsComponents",
    "DivergenceSolution",
    "chebyshev_time_grid",
    "build_harmonic_basis",
    "decompose_rhs",
    "solve_divergence",
    "verify_divergence_bounds",
    "space_time_identity_check",
    "random_rhs",
]


def chebyshev_time_grid(n_time: int, T: float):
    """Chebyshev-Lobatto nodes on [0, T] with differentiation and weights.

    Returns (t, D, w): nodes ascending from 0 to T, the spectral
    differentiation matrix (negative-sum-trick diagonal), and
    Clenshaw-Curtis quadrature weights.
    """
    if n_time < 4:
        raise InvalidParameter(f"n_time={n_time} must be >= 4")
    if T <= 0:
        raise InvalidParameter(f"T={T} must be > 0")
    N = n_time - 1
    theta = np.pi * np.arange(N + 1) / N
    x = np.cos(theta)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    w = np.zeros(N + 1)
    v = np.ones(N - 1)
    for k in range(1, N // 2 + 1):
        scale = 1.0 if 2 * k == N else 2.0
        v -= scale * np.cos(2 * k * theta[1:-1]) / (4 * k * k - 1)
    w[1:-1] = 2.0 * v / N
    w[0] = w[-1] = 1.0 / (N * N - 1) if N % 2 == 0 else 1.0 / (N * N)
    t = (1.0 + x[::-1]) * (T / 2.0)
    return t, D[::-1, ::-1] * (2.0 / T), w[::-1] * (T / 2.0)


class HarmonicBasis:
    """Harmonic decomposition data for d_tt + 2L on [0, T] x S.

    Carries the spatial eigenpairs (alpha_k, e_k) of the collapsed
    generator, the Chebyshev time grid, and per-mode antisymmetric and
    symmetric time profiles with closed-form antiderivatives.  Modes
    are classified low/high by alpha_k <= 2/T (ties low) and covered
    by the resolvable band alpha_k * T <= band_limit; harmonic content
    beyond the band cannot be differentiated accurately on the time
    grid and is rejected by the solver.
    """

    __slots__ = (
        "T",
        "measure",
        "alphas",
        "vecs",
        "t",
        "D",
        "w_t",
        "rates",
        "is_low",
        "is_covered",
        "profiles_a",
        "profiles_s",
        "antideriv_a",
        "antideriv_s",
        "band_limit",
    )

    def __init__(
        self,
        collapse: OperatorMatrix,
        T: float,
        n_time: int = 96,
        band_limit: float = 100.0,
    ):
        eigen_data = decompose(collapse)
        if not eigen_data.is_self_adjoint:
            raise InvalidParameter("harmonic basis requires a self-adjoint collapse")
        vals = eigen_data.eigenvalues.real
        if vals.max() > 1e-8 * max(1.0, np.abs(vals).max()):
            raise InvalidParameter("spectrum must be nonpositive")
        self.T = float(T)
        self.measure = collapse.reference_measure
        self.alphas = np.sqrt(np.maximum(-vals, 0.0))
        self.vecs = eigen_data.eigenvectors.real
        self.t, self.D, self.w_t = chebyshev_time_grid(n_time, T)
        self.band_limit = float(band_limit)
        self.is_low = self.alphas <= 2.0 / self.T
        self.rates = np.sqrt(2.0) * self.alphas
        self.is_covered = self.rates * self.T <= self.band_limit
        # harmonicity for d_tt + 2L forces the decay rate sqrt(2) alpha_k
        a = self.rates[:, None]
        t = self.t[None, :]
        self.profiles_a = np.exp(-a * t) - np.exp(-a * (self.T - t))
        self.profiles_s = np.exp(-a * t) + np.exp(-a * (self.T - t))
        # leading mode: alpha_0 = 0 carries the linear profile 2t - T
        self.profiles_a[0] = 2.0 * self.t - self.T
        self.profiles_s[0] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ia = np.where(a > 0, 1.0 / np.where(a > 0, a, 1.0), 0.0)
        self.antideriv_a = ia * (
            (1.0 - np.exp(-a * t)) - (np.exp(-a * (self.T - t)) - np.exp(-a * self.T))
        )
        self.antideriv_s = ia * (
            (1.0 - np.exp(-a * t)) + (np.exp(-a * (self.T - t)) - np.exp(-a * self.T))
        )
        self.antideriv_a[0] = self.t * self.t - self.T * self.t
        self.antideriv_s[0] = 0.0

    @property
    def n_time(self) -> int:
        return self.t.size

    @property
    def n_space(self) -> int:
        return self.alphas.size

    def spatial_coefficients(self, F: np.ndarray) -> np.ndarray:
        """Eigen-expansion c_k(t) = <F(t, .), e_k>_mu, shape (n_time, n_space)."""
        F = np.asarray(F, dtype=float)
        if F.shape != (self.n_time, self.n_space):
            raise InvalidParameter(
                f"field shape {F.shape}, expected {(self.n_time, self.n_space)}"
            )
        return F @ (self.measure.weights[:, None] * self.vecs)

    def reconstruct(self, C: np.ndarray) -> np.ndarray:
        """Inverse of spatial_coefficients."""
        return C @ self.vecs.T

    def element(self, k: int, kind: str) -> np.ndarray:
        """Basis field H_k^a or H_k^s as an (n_time, n_space) array."""
        if kind not in ("antisym", "sym"):
            raise InvalidParameter(f"kind={kind!r} must be 'antisym' or 'sym'")
        prof = self.profiles_a[k] if kind == "antisym" else self.profiles_s[k]
        return np.outer(prof, self.vecs[:, k])

    def harmonic_residual(self, k: int, kind: str) -> float:
        """Relative grid residual of (d_tt + 2L) H_k, near zero in band."""
        prof = self.profiles_a[k] if kind == "antisym" else self.profiles_s[k]
        res = self.D @ (self.D @ prof) - 2.0 * self.alphas[k] ** 2 * prof
        scale = max(np.abs(prof).max() * max(2.0 * self.alphas[k] ** 2, 1.0), 1e-300)
        return float(np.abs(res).max() / scale)

    def norm(self, F: np.ndarray) -> float:
        """L2 norm in time x measure: sqrt(int ||F(t,.)||^2_mu dt)."""
        return float(np.sqrt(self.w_t @ ((F * F) @ self.measure.weights)))

    def energy_integral(self, C: np.ndarray) -> float:
        """E_T from eigen-coefficients: int sum_k alpha_k^2 c_k(t)^2 dt."""
        return float(self.w_t @ ((C * C) @ self.alphas**2))


def build_harmonic_basis(
    collapse: OperatorMatrix,
    T: float,
    n_time: int = 96,
    band_limit: float = 100.0,
) -> HarmonicBasis:
    """Harmonic basis of a collapsed generator on [0, T].

    The collapse must be self-adjoint in L2 of its reference measure,
    with nonpositive spectrum.
    """
    return HarmonicBasis(collapse, T, n_time=n_time, band_limit=band_limit)


@dataclass(frozen=True)
class RhsComponents:
    """Orthogonal split of a right-hand side into the five case subspaces."""

    perp: np.ndarray
    low_antisym: np.ndarray
    low_sym: np.ndarray
    high_antisym: np.ndarray
    high_sym: np.ndarray
    coeff_a: np.ndarray = field(repr=False)
    coeff_s: np.ndarray = field(repr=False)
    coeff_perp: np.ndarray = field(repr=False)

    def as_tuple(self):
        return (
            self.perp,
            self.low_antisym,
            self.low_sym,
            self.high_antisym,
            self.high_sym,
        )


def decompose_rhs(f: np.ndarray, basis: HarmonicBasis) -> RhsComponents:
    """Split a mean-zero field into harmonic parts plus complement.

    Per spatial mode the time profile is projected onto the span of the
    antisymmetric and symmetric harmonic profiles (Gram solve in the
    quadrature metric); the remainders form the complement.  The five
    returned fields are mutually orthogonal and sum to f.
    """
    C = basis.spatial_coefficients(f)
    nf = basis.norm(f)
    if nf == 0.0:
        raise InvalidParameter("right-hand side is identically zero")
    mean = float(basis.w_t @ (C[:, 0] * np.sqrt(basis.measure.total_mass)))
    if abs(mean) > 1e-8 * nf * np.sqrt(basis.T * basis.measure.total_mass):
        raise InvalidParameter(f"nonzero mean {mean:g} relative to norm {nf:g}")
    n_t, n_x = C.shape
    coeff_a = np.zeros(n_x)
    coeff_s = np.zeros(n_x)
    C_perp = C.copy()
    C_la = np.zeros_like(C)
    C_ls = np.zeros_like(C)
    C_ha = np.zeros_like(C)
    C_hs = np.zeros_like(C)
    for k in range(n_x):
        ua = basis.profiles_a[k]
        us = basis.profiles_s[k]
        cols = [p for p in (ua, us) if np.abs(p).max() > 0]
        if not cols:
            continue
        P = np.stack(cols, axis=1)
        G = P.T @ (basis.w_t[:, None] * P)
        rhs = P.T @ (basis.w_t * C[:, k])
        try:
            sol = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - Gram SPD
            raise NumericalFailure(f"singular profile Gram at mode {k}") from exc
        ba = sol[0]
        bs = sol[1] if len(cols) == 2 else 0.0
        coeff_a[k] = ba
        coeff_s[k] = bs
        C_perp[:, k] = C[:, k] - ba * ua - bs * us
        if basis.is_low[k]:
            C_la[:, k] = ba * ua
            C_ls[:, k] = bs * us
        else:
            C_ha[:, k] = ba * ua
            C_hs[:, k] = bs * us
    return RhsComponents(
        perp=basis.reconstruct(C_perp),
        low_antisym=basis.reconstruct(C_la),
        low_sym=basis.reconstruct(C_ls),
        high_antisym=basis.reconstruct(C_ha),
        high_sym=basis.reconstruct(C_hs),
        coeff_a=coeff_a,
        coeff_s=coeff_s,
        coeff_perp=C_perp,
    )


@dataclass(frozen=True)
class DivergenceSolution:
    """Solution pair of the space-time divergence equation.

    h and g vanish at t = 0 and t = T on the time grid; residual is
    the relative grid norm of d_t h - 2Lg - f and bound_ratios the
    triple (r1, r2, r3) defined in the module docstring.
    """

    h: np.ndarray
    g: np.ndarray
    residual: float
    bound_ratios: tuple
    basis: HarmonicBasis = field(repr=False)


def _solve_complement(C_perp: np.ndarray, basis: HarmonicBasis, scale: float):
    """Neumann-in-time elliptic solve (-d_tt + 2 alpha_k^2) g_k = c_k.

    Per spatial mode a square spectral collocation system with the two
    endpoint rows replaced by the Neumann conditions; the k = 0 mode
    (pure -d_tt) adds a zero-mean row and goes through least squares.
    Right-hand sides orthogonal to the harmonic profiles make the
    overdetermined endpoint equations consistent to spectral accuracy.
    """
    n_t, n_x = C_perp.shape
    D, w_t = basis.D, basis.w_t
    D2 = D @ D
    G = np.zeros_like(C_perp)
    eye = np.eye(n_t)
    for k in range(n_x):
        ck = C_perp[:, k]
        if np.abs(ck).max() <= 1e-14 * scale:
            continue
        a2 = basis.alphas[k] ** 2
        if a2 <= 1e-12:
            a2 = 0.0
        A = -D2 + 2.0 * a2 * eye
        A[0] = D[0]
        A[-1] = D[-1]
        b = ck.copy()
        b[0] = 0.0
        b[-1] = 0.0
        try:
            if a2 == 0.0:
                Am = np.vstack([A, w_t[None, :]])
                bm = np.concatenate([b, [0.0]])
                G[:, k] = np.linalg.lstsq(Am, bm, rcond=None)[0]
            else:
                G[:, k] = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"complement solve failed at mode {k}") from exc
    return G


def _solve_high_mode(basis: HarmonicBasis, k: int, kind: str, n_sine: int = 32):
    """Variational split u = v' + w for one high harmonic mode.

    w is sought in a span of sin(j pi t / T) (so w(0) = w(T) = 0) and
    v = U - W with U, W exact antiderivatives, which makes the split
    identity exact; v(T) = 0 becomes one linear constraint.  The
    quadratic objective ||w||^2 + ||w'||^2/(2 alpha^2) + 2 alpha^2 ||v||^2
    mirrors the three bound ratios, minimized subject to the constraint
    through a KKT system.  Returns (v, w) time profiles for a unit
    harmonic coefficient.
    """
    alpha = basis.alphas[k]
    a2 = alpha * alpha
    t, w_t, T = basis.t, basis.w_t, basis.T
    if kind == "antisym":
        u = basis.profiles_a[k]
        U = basis.antideriv_a[k]
    else:
        u = basis.profiles_s[k]
        U = basis.antideriv_s[k]
    tau = t / T
    j = np.arange(1, n_sine + 1)
    S = np.sin(np.pi * np.outer(tau, j))
    S[0] = 0.0
    S[-1] = 0.0
    Sd = (np.pi * j / T) * np.cos(np.pi * np.outer(tau, j))
    W = (T / (np.pi * j)) * (1.0 - np.cos(np.pi * np.outer(tau, j)))
    con = (T / (np.pi * j)) * (1.0 - (-1.0) ** j)
    Q = (
        S.T @ (w_t[:, None] * S)
        + (Sd.T @ (w_t[:, None] * Sd)) / (2.0 * a2)
        + 2.0 * a2 * (W.T @ (w_t[:, None] * W))
    )
    b = 2.0 * a2 * (W.T @ (w_t * U))
    K = np.zeros((n_sine + 1, n_sine + 1))
    K[:n_sine, :n_sine] = Q
    K[:n_sine, -1] = con
    K[-1, :n_sine] = con
    rhs = np.concatenate([b, [U[-1]]])
    try:
        c = np.linalg.solve(K, rhs)[:n_sine]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"high-mode KKT singular at mode {k}") from exc
    w_prof = S @ c
    v_prof = U - W @ c
    v_prof[0] = 0.0
    v_prof[-1] = 0.0
    return v_prof, w_prof


def solve_divergence(f: np.ndarray, basis: HarmonicBasis, m: float) -> DivergenceSolution:
    """Assemble (h, g) with d_t h - 2Lg = f from the five-case split.

    Complement: Neumann elliptic solve with h = -d_t g.  Low
    antisymmetric: h = int_0^t f, g = 0.  Low symmetric: split off
    f(0, x) cos(2 pi t / T), integrate it into h, invert 2L on the
    remainder.  High modes: per-mode variational split.  Raises
    NumericalFailure for harmonic content beyond the resolvable band or if
    the complement inverse exceeds its norm ceiling max(1/(2m), T^2/pi^2).
    """
    if m <= 0:
        raise InvalidParameter(f"collapse gap m={m} must be > 0")
    parts = decompose_rhs(f, basis)
    nf = basis.norm(f)
    T = basis.T
    n_t, n_x = parts.coeff_perp.shape
    bad = ~basis.is_covered
    if np.any(bad):
        stray = np.abs(parts.coeff_a[bad]).max(initial=0.0) + np.abs(
            parts.coeff_s[bad]
        ).max(initial=0.0)
        if stray > 1e-9 * nf:
            raise NumericalFailure(
                "harmonic content beyond the resolvable band "
                f"(coefficient {stray:g} vs norm {nf:g}); refine the time grid"
            )
    H = np.zeros((n_t, n_x))
    G = _solve_complement(parts.coeff_perp, basis, nf)
    norm_g = float(np.sqrt(basis.w_t @ (G * G).sum(axis=1)))
    norm_fp = basis.norm(parts.perp)
    ceiling = max(1.0 / (2.0 * m), T * T / np.pi**2)
    if norm_g > ceiling * norm_fp * (1.0 + 1e-6) + 1e-12 * nf:
        raise NumericalFailure(
            f"complement inverse norm {norm_g:g} exceeds ceiling "
            f"{ceiling:g} x {norm_fp:g}"
        )
    H -= basis.D @ G
    low = basis.is_low
    for k in np.nonzero(low)[0]:
        H[:, k] += parts.coeff_a[k] * basis.antideriv_a[k]
    sin2 = np.sin(2.0 * np.pi * basis.t / T)
    sin2[0] = 0.0
    sin2[-1] = 0.0
    cos2 = np.cos(2.0 * np.pi * basis.t / T)
    for k in np.nonzero(low)[0]:
        bs = parts.coeff_s[k]
        if k == 0 or bs == 0.0:
            continue
        f0_amp = bs * basis.profiles_s[k][0]
        H[:, k] += f0_amp * (T / (2.0 * np.pi)) * sin2
        G[:, k] += (bs * basis.profiles_s[k] - f0_amp * cos2) / (
            2.0 * basis.alphas[k] ** 2
        )
    for k in np.nonzero(~low & basis.is_covered)[0]:
        for kind, coeff in (("antisym", parts.coeff_a[k]), ("sym", parts.coeff_s[k])):
            if coeff == 0.0:
                continue
            v_prof, w_prof = _solve_high_mode(basis, k, kind)
            H[:, k] += coeff * v_prof
            G[:, k] += coeff * (w_prof / (2.0 * basis.alphas[k] ** 2))
    H[0] = 0.0
    H[-1] = 0.0
    G[0] = 0.0
    G[-1] = 0.0
    h = basis.reconstruct(H)
    g = basis.reconstruct(G)
    Lg = basis.reconstruct(-G * basis.alphas**2)
    res_field = basis.reconstruct(basis.D @ H) - 2.0 * Lg - f
    residual = basis.norm(res_field) / nf
    ratios = _bound_ratios(H, G, nf, basis, m)
    return DivergenceSolution(
        h=h, g=g, residual=float(residual), bound_ratios=ratios, basis=basis
    )


def _bound_ratios(H, G, nf, basis, m):
    a2 = basis.alphas**2
    r1 = float(np.sqrt(basis.w_t @ (((2.0 * G * a2) ** 2).sum(axis=1)))) / nf
    r2 = float(np.sqrt(2.0 * basis.energy_integral(H))) / nf
    dG = basis.D @ G
    r3 = float(np.sqrt(2.0 * basis.energy_integral(dG))) / (
        (1.0 + 1.0 / (basis.T * np.sqrt(m))) * nf
    )
    return (r1, r2, r3)


def verify_divergence_bounds(sol: DivergenceSolution, f: np.ndarray, T: float, m: float):
    """Recompute the bound ratios (r1, r2, r3) of a solution pair.

    r1 = ||2Lg||/||f||, r2 = sqrt(2 E_T(h))/||f||,
    r3 = sqrt(2 E_T(d_t g)) / ((1 + 1/(T sqrt(m))) ||f||).
    """
    basis = sol.basis
    nf = basis.norm(np.asarray(f, dtype=float))
    if nf == 0.0:
        raise InvalidParameter("cannot form bound ratios for zero right-hand side")
    H = basis.spatial_coefficients(sol.h)
    G = basis.spatial_coefficients(sol.g)
    return _bound_ratios(H, G, nf, basis, m)


def space_time_identity_check(
    transport: OperatorMatrix,
    collapse: OperatorMatrix,
    f: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    T: float,
) -> float:
    """Residual of the space-time pairing identity of transport lifts.

    With A = -d_t + L_tr acting on lifted fields, the identity

        int <A(f o pi), h o pi + L_tr (g o pi)>_mu_hat dt
            = -int <h, d_t f>_mu dt + 2 int E(f(t), g(t)) dt

    holds for the continuum pair; on the grid the residual is O(h)
    from upwinding.  Fields are sampled on the Chebyshev time grid of
    size f.shape[0] over [0, T].  Returns |lhs - rhs| / (1 + max(|lhs|, |rhs|)).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if f.shape != g.shape or f.shape != h.shape:
        raise InvalidParameter(
            f"field shapes differ: {f.shape}, {g.shape}, {h.shape}"
        )
    n_t, n_x = f.shape
    if n_x != collapse.dim:
        raise InvalidParameter(f"{n_x} spatial nodes, collapse dim {collapse.dim}")
    if transport.dim % collapse.dim != 0:
        raise InvalidParameter(
            f"lifted dim {transport.dim} not a multiple of {collapse.dim}"
        )
    n_v = transport.dim // collapse.dim
    _, D, w_t = chebyshev_time_grid(n_t, T)
    F_lift = np.tile(f, (1, n_v))
    G_lift = np.tile(g, (1, n_v))
    H_lift = np.tile(h, (1, n_v))
    AF = -(D @ F_lift) + F_lift @ transport.entries.T
    pair = H_lift + G_lift @ transport.entries.T
    w_hat = transport.reference_measure.weights
    lhs = float(w_t @ ((AF * pair) @ w_hat))
    w_mu = collapse.reference_measure.weights
    dt_f = D @ f
    term1 = -float(w_t @ ((h * dt_f) @ w_mu))
    Lg = g @ collapse.entries.T
    term2 = -2.0 * float(w_t @ ((f * Lg) @ w_mu))
    rhs = term1 + term2
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def random_rhs(
    basis: HarmonicBasis,
    seed: int,
    n_space_modes: int = 12,
    n_time_modes: int = 8,
    harmonic_weight: float = 0.5,
) -> np.ndarray:
    """Random mean-zero band-limited right-hand side on the space-time grid.

    Mixes smooth polynomial-in-time content over the lowest covered
    spatial modes with explicit harmonic components, so all five case
    subspaces are exercised while staying within the resolvable band.
    """
    rng = np.random.default_rng(seed)
    covered = np.nonzero(basis.is_covered & (basis.rates * basis.T <= 0.5 * basis.band_limit))[0]
    modes = covered[: max(2, n_space_modes)]
    tau = 2.0 * basis.t / basis.T - 1.0
    P = np.polynomial.legendre.legvander(tau, n_time_modes - 1)
    C = np.zeros((basis.n_time, basis.n_space))
    for k in modes:
        C[:, k] = P @ rng.normal(size=n_time_modes)
        C[:, k] += harmonic_weight * (
            rng.normal() * basis.profiles_a[k] + rng.normal() * basis.profiles_s[k]
        )
    f = basis.reconstruct(C)
    ones = np.ones(basis.n_space)
    mean = float(basis.w_t @ ((f * ones) @ basis.measure.weights))
    f -= mean / (basis.T * basis.measure.total_mass)
    return f
