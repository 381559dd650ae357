"""Eigendecomposition, spectral gaps and matrix-exponential semigroups.

All norms, forms and orthogonality statements are taken in the weighted
L2 space of the operator's own reference measure; there is no Lebesgue
fallback.  Self-adjointness is detected numerically, and self-adjoint
operators are diagonalized through the symmetric similarity transform
D^{1/2} L D^{-1/2} with D the weight diagonal, so the solve runs on a
symmetric matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import OperatorMatrix, inner_product
from .errors import InvalidParameter, NumericalFailure

__all__ = [
    "SpectralData",
    "decompose",
    "is_self_adjoint",
    "spectral_gap",
    "poincare_constant",
    "Semigroup",
    "dirichlet_form",
]


class SpectralData:
    """Eigenpairs of an operator, sorted by real part descending.

    For generators the leading eigenvalue is zero with constant
    eigenvector; ``gap`` is the negated largest nonleading real part.
    Self-adjoint operators have real eigenvalues and eigenvectors
    orthonormal in L2 of the reference measure.  The arrays are
    read-only: one instance is cached per operator and shared.
    """

    __slots__ = ("eigenvalues", "eigenvectors", "is_self_adjoint", "gap")

    def __init__(self, eigenvalues, eigenvectors, self_adjoint: bool):
        order = np.argsort(-eigenvalues.real, kind="stable")
        vals = eigenvalues[order]
        vecs = eigenvectors[:, order]
        if self_adjoint:
            vals = vals.real
            vecs = vecs.real
        vals.setflags(write=False)
        vecs.setflags(write=False)
        self.eigenvalues = vals
        self.eigenvectors = vecs
        self.is_self_adjoint = self_adjoint
        self.gap = float(-vals[1].real) if vals.size > 1 else 0.0


def is_self_adjoint(op: OperatorMatrix, n_probes: int = 20, tol: float = 1e-10) -> bool:
    """Test <f, Lg> = <Lf, g> on random probe pairs in L2 of the measure."""
    rng = np.random.default_rng(2024)
    w = op.reference_measure.weights
    scale = np.abs(op.entries).max() * max(w.max(), 1e-300)
    for _ in range(n_probes):
        f = rng.normal(size=op.dim)
        g = rng.normal(size=op.dim)
        lhs = inner_product(f, op.apply(g), op.reference_measure)
        rhs = inner_product(op.apply(f), g, op.reference_measure)
        if abs(lhs - rhs) > tol * max(scale, 1.0):
            return False
    return True


def decompose(op: OperatorMatrix) -> SpectralData:
    """Full eigendecomposition against the operator's reference measure.

    Self-adjoint operators go through a symmetric solve and come back
    with L2(mu)-orthonormal eigenvectors; general operators use the
    standard nonsymmetric solve and may carry complex pairs.  The result
    is computed once per operator and cached on it.
    """
    if op._spectrum is None:
        op._spectrum = _solve(op)
    return op._spectrum


def _solve(op: OperatorMatrix) -> SpectralData:
    sa = is_self_adjoint(op)
    w = op.reference_measure.weights
    try:
        if sa and w.min() > 0:
            d = np.sqrt(w)
            M = op.entries * (d[:, None] / d[None, :])
            M = 0.5 * (M + M.T)
            vals, phi = scipy.linalg.eigh(M)
            return SpectralData(vals, phi / d[:, None], True)
        vals, vecs = scipy.linalg.eig(op.entries)
        return SpectralData(vals, vecs, False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def spectral_gap(op: OperatorMatrix) -> float:
    return decompose(op).gap


def poincare_constant(op: OperatorMatrix) -> float:
    gap = spectral_gap(op)
    if gap <= 0:
        raise NumericalFailure(f"nonpositive spectral gap {gap}")
    return 1.0 / gap


class Semigroup:
    """Cached propagator P_t = exp(tL) for repeated applications.

    Uses the operator's eigendecomposition when its propagation agrees
    with a scaling-and-squaring matrix exponential on a test vector
    (relative accuracy 1e-9; always the case for self-adjoint
    operators); otherwise falls back to matrix exponentials per time
    increment.  Vectors and (dim, p) blocks propagate alike.

    The eigen route runs in real arithmetic.  Only the modes with
    Im(lambda) >= 0 are kept; the coefficient row of each conjugate
    partner is folded into its mode, so that
    Re(V e^{t Lambda} V^{-1} f) = [Re V_k, -Im V_c] [Re z; Im z_c] with
    z = e^{t lambda_k} c_k, where k runs over the kept modes and c over
    the complex ones among them.
    """

    __slots__ = (
        "op",
        "_vinv",
        "_keep",
        "_fold",
        "_rates",
        "_basis",
        "_diagonalizable",
        "_norm",
        "_step_cache",
    )

    def __init__(self, op: OperatorMatrix):
        self.op = op
        self._norm = float(np.abs(op.entries).max())
        self._step_cache = {}
        sd = decompose(op)
        vals = np.atleast_1d(sd.eigenvalues).astype(complex)
        vecs = sd.eigenvectors
        try:
            vinv = scipy.linalg.inv(vecs)
        except scipy.linalg.LinAlgError:
            self._diagonalizable = False
            return
        upper = np.nonzero(vals.imag > 0)[0]
        lower = upper + 1
        if not np.array_equal(np.nonzero(vals.imag < 0)[0], lower) or (
            vals[lower] != vals[upper].conj()
        ).any():
            raise NumericalFailure("complex eigenvalues do not come in adjacent conjugate pairs")
        keep = vals.imag >= 0
        self._vinv = vinv
        self._keep = keep
        self._fold = ((np.cumsum(keep) - 1)[upper], lower)
        self._rates = vals[keep]
        self._basis = np.hstack([vecs.real[:, keep], -vecs.imag[:, upper]])
        # validate against the Pade route on a test vector at the
        # relaxation timescale of the slowest nontrivial mode (the
        # regime the semigroup is used in; eigen-route noise from
        # ill-conditioned fast modes is damped there).  This cutoff is
        # not SpectralData.gap: the zero eigenvalue's rounding noise
        # exceeds 1e-12 at omega = 200, so the gap rule would turn on
        # the validation there, one dense expm at dim 2406.  Aligning
        # the two waits for the sparse propagator.
        nonzero = np.abs(vals.real)[np.abs(vals.real) > 1e-12]
        gap = float(nonzero.min()) if nonzero.size else 1.0
        self._diagonalizable = self._eig_route_agrees(gap)

    def _eig_route_agrees(self, gap: float) -> bool:
        # one matrix exponential: the reference at t2 = 2/gap = 20 t1
        # applies exp(t1 L) twenty times
        t1, t2 = 0.1 / gap, 2.0 / gap
        if t1 * self._norm > 1e6:
            return True
        f = np.random.default_rng(99).normal(size=self.op.dim)
        step = scipy.linalg.expm(self.op.entries * t1)
        ref = f
        for t, n_steps in ((t1, 1), (t2, 19)):
            if t * self._norm > 1e6:
                break
            for _ in range(n_steps):
                ref = step @ ref
            got = self._eig_at(self._coefficients(f), t)
            scale = max(float(np.abs(ref).max()), 1e-12)
            if np.abs(got - ref).max() > 1e-9 * scale:
                return False
        return True

    def _coefficients(self, f: np.ndarray) -> np.ndarray:
        # c = V^{-1} f on the kept modes, each with its partner's
        # coefficient folded in as c+ + conj(c-)
        x = self._vinv @ f
        coef = x[self._keep]
        rows, partners = self._fold
        coef[rows] += x[partners].conj()
        return coef

    def _eig_at(self, coef: np.ndarray, t: float) -> np.ndarray:
        z = np.exp(self._rates * t).reshape((-1,) + (1,) * (coef.ndim - 1)) * coef
        return self._basis @ np.concatenate([z.real, z.imag[self._rates.imag > 0]])

    def _step(self, dt: float) -> np.ndarray:
        # mirrored Gauss-Legendre increments differ only in the last
        # bits, so the cache key keeps 12 significant digits
        key = float(f"{dt:.11e}")
        step = self._step_cache.get(key)
        if step is None:
            step = scipy.linalg.expm(self.op.entries * dt)
            if len(self._step_cache) < max(1, int(4e8 / (8 * self.op.dim**2))):
                self._step_cache[key] = step
        return step

    def _validate(self, f: np.ndarray, t: float):
        if t < 0:
            raise InvalidParameter(f"negative time t={t}")
        if t * self._norm > 1e6:
            raise InvalidParameter(f"t * ||L|| = {t * self._norm:g} exceeds 1e6")
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.op.dim:
            raise InvalidParameter(f"vector of length {f.shape[0]}, dim {self.op.dim}")
        return f

    def apply(self, f: np.ndarray, t: float) -> np.ndarray:
        f = self._validate(f, t)
        if t == 0.0:
            return f.copy()
        if self._diagonalizable:
            return self._eig_at(self._coefficients(f), t)
        return scipy.linalg.expm(self.op.entries * t) @ f

    def sweep(self, f: np.ndarray, ts):
        """Iterate (i, P_{ts[i]} f) in ascending time order.

        ``f`` is a vector (dim,) or a block (dim, p).  One time node is
        held at a time; the Pade route steps the whole block from node
        to node with one cached increment propagator per step.  The
        arguments are checked when iteration starts.
        """
        ts = np.asarray(ts, dtype=float)
        f = self._validate(f, float(ts.max(initial=0.0)))
        order = np.argsort(ts, kind="stable")
        if self._diagonalizable:
            coef = self._coefficients(f)
            for i in order:
                yield i, self._eig_at(coef, ts[i])
            return
        cur, prev = f, 0.0
        for i in order:
            if ts[i] > prev:
                cur = self._step(float(ts[i]) - prev) @ cur
                prev = float(ts[i])
            yield i, cur

    def apply_many(self, f: np.ndarray, ts) -> np.ndarray:
        """P_t f for a batch of times; f is a vector (dim,) or a block
        (dim, p), and the result has shape (len(ts),) + f.shape."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size,) + np.shape(f))
        for i, P in self.sweep(f, ts):
            out[i] = P
        return out


def dirichlet_form(op: OperatorMatrix, f: np.ndarray, g: np.ndarray) -> float:
    """Energy pairing E(f, g) = -<f, Lg> in L2 of the reference measure."""
    return -inner_product(f, op.apply(np.asarray(g, dtype=float)), op.reference_measure)
