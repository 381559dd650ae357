"""Shared domain types: grids, weighted measures, potentials and RNG streams.

All types are immutable after construction and safe to share across
threads; :class:`RngStream` is single-owner and must be split explicitly
for parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter

__all__ = [
    "Grid1D",
    "WeightedMeasure",
    "OperatorMatrix",
    "Potential",
    "RngStream",
    "make_grid",
    "inner_product",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, L] including both boundary nodes.

    Parameters
    ----------
    length_L : float
        Domain length, must be positive.
    n_interior : int
        Number of interior nodes, at least 2. The grid has
        ``n_interior + 2`` nodes with spacing ``h = L / (n_interior + 1)``.
    """

    length_L: float
    n_interior: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.length_L <= 0:
            raise InvalidParameter(f"length_L={self.length_L} must be > 0")
        if self.n_interior < 2:
            raise InvalidParameter(f"n_interior={self.n_interior} must be >= 2")
        h = self.length_L / (self.n_interior + 1)
        nodes = np.linspace(0.0, self.length_L, self.n_interior + 2)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        self.nodes.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.n_interior + 2


def make_grid(length_L: float, n_interior: int) -> Grid1D:
    """Build a uniform grid on [0, length_L] with boundary nodes included."""
    return Grid1D(length_L, n_interior)


class WeightedMeasure:
    """Nonnegative measure on an ordered state set: boundary atoms plus
    interior density weights.

    The density weights are interpreted as density value times quadrature
    weight h, so ``weights = atom_weights + density_weights`` is directly
    the vector of L2 weights for the matching state enumeration.
    """

    __slots__ = ("states", "atom_weights", "density_weights", "probability")

    def __init__(
        self,
        states: Sequence,
        atom_weights: np.ndarray,
        density_weights: np.ndarray,
        probability: bool = False,
    ):
        atom = np.asarray(atom_weights, dtype=float)
        dens = np.asarray(density_weights, dtype=float)
        if len(states) != atom.size or atom.size != dens.size:
            raise InvalidParameter("states and weight arrays must have equal length")
        if (atom < -1e-15).any() or (dens < -1e-15).any():
            raise InvalidParameter("measure weights must be nonnegative")
        self.states = tuple(states)
        self.atom_weights = atom
        self.density_weights = dens
        self.probability = probability
        atom.setflags(write=False)
        dens.setflags(write=False)
        if probability and abs(self.total_mass - 1.0) > 1e-12:
            raise InvalidParameter(
                f"probability measure has total mass {self.total_mass!r}"
            )

    @property
    def weights(self) -> np.ndarray:
        return self.atom_weights + self.density_weights

    @property
    def total_mass(self) -> float:
        return float(self.atom_weights.sum() + self.density_weights.sum())

    @property
    def dim(self) -> int:
        return len(self.states)

    def mean(self, f: np.ndarray) -> float:
        """Integral of f against the measure divided by the total mass."""
        w = self.weights
        return float(w @ np.asarray(f, dtype=float)) / self.total_mass


def inner_product(f: np.ndarray, g: np.ndarray, mu: WeightedMeasure) -> float:
    """Weighted L2 pairing sum_i f_i g_i w_i against the measure mu."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.size != mu.dim:
        raise InvalidParameter(
            f"shapes {f.shape}, {g.shape} incompatible with measure dim {mu.dim}"
        )
    return float(np.sum(f * g * mu.weights))


class OperatorMatrix:
    """Dense linear operator with an L2 reference measure.

    When ``is_generator`` is set the matrix must be Metzler (nonnegative
    off-diagonal entries) with zero row sums, i.e. the generator of a
    Markov jump process on the measure's state enumeration.  The entries
    are read-only, so ``spectral.decompose`` caches the operator's one
    eigendecomposition in the ``_spectrum`` slot.
    """

    __slots__ = ("dim", "entries", "reference_measure", "is_generator", "_spectrum")

    def __init__(
        self,
        entries: np.ndarray,
        reference_measure: WeightedMeasure,
        is_generator: bool = False,
    ):
        A = np.asarray(entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidParameter(f"entries must be square, got {A.shape}")
        if A.shape[0] != reference_measure.dim:
            raise InvalidParameter(
                f"operator dim {A.shape[0]} != measure dim {reference_measure.dim}"
            )
        if is_generator:
            off = A - np.diag(np.diag(A))
            if off.min() < -1e-12:
                raise InvalidParameter(
                    f"generator has negative off-diagonal entry {off.min()!r}"
                )
            rs = np.abs(A.sum(axis=1)).max()
            if rs > 1e-10 * max(1.0, np.abs(A).max()):
                raise InvalidParameter(f"generator row sums deviate by {rs!r}")
        self.dim = A.shape[0]
        self.entries = A
        self.reference_measure = reference_measure
        self.is_generator = is_generator
        self._spectrum = None
        A.setflags(write=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.dim:
            raise InvalidParameter(f"vector of length {f.shape[0]}, dim {self.dim}")
        return self.entries @ f


class Potential:
    """Potential U on R^d with gradient and optional curvature bounds.

    ``hess_L`` is the uniform upper bound on the diagonal Hessian entries,
    ``curvature_lower`` the constant K in the lower bound -K*m on the
    Hessian, and ``lyapunov_pair`` the pair (a, b) bounding the Laplacian
    by a|grad U|^2 + b.
    """

    __slots__ = (
        "dim",
        "value",
        "gradient",
        "hess_L",
        "curvature_lower",
        "lyapunov_pair",
        "quad_coeffs",
    )

    def __init__(
        self,
        dim: int,
        value: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        hess_L: Optional[float] = None,
        curvature_lower: Optional[float] = None,
        lyapunov_pair: Optional[tuple] = None,
        check_gradient: bool = True,
        quad_coeffs: Optional[np.ndarray] = None,
    ):
        if dim < 1:
            raise InvalidParameter("dim must be >= 1")
        if curvature_lower is not None and curvature_lower < 0:
            raise InvalidParameter("curvature_lower K must be >= 0")
        if lyapunov_pair is not None:
            a, b = lyapunov_pair
            if not (0 <= a < 1) or b < 0:
                raise InvalidParameter("lyapunov_pair requires a in [0,1), b >= 0")
        self.dim = dim
        self.value = value
        self.gradient = gradient
        self.hess_L = hess_L
        self.curvature_lower = curvature_lower
        self.lyapunov_pair = lyapunov_pair
        self.quad_coeffs = (
            None if quad_coeffs is None else np.asarray(quad_coeffs, dtype=float)
        )
        if check_gradient:
            self._check_gradient()

    def _check_gradient(self, n_probes: int = 100, tol: float = 1e-5):
        # central differences against the declared gradient at random probes
        rng = np.random.default_rng(1234)
        xs = rng.normal(size=(n_probes, self.dim))
        eps = 1e-6
        for x in xs:
            g = np.atleast_1d(np.asarray(self.gradient(x), dtype=float))
            fd = np.empty(self.dim)
            for k in range(self.dim):
                e = np.zeros(self.dim)
                e[k] = eps
                fd[k] = (self.value(x + e) - self.value(x - e)) / (2 * eps)
            scale = max(float(np.linalg.norm(g)), 1.0)
            if np.linalg.norm(fd - g) > tol * scale:
                raise InvalidParameter(
                    f"gradient inconsistent with value at x={x}: fd={fd}, grad={g}"
                )


def quadratic_potential(coeffs: Sequence[float]) -> Potential:
    """U(x) = sum_k c_k x_k^2 / 2 with exact curvature bounds attached."""
    c = np.asarray(coeffs, dtype=float)
    if (c <= 0).any():
        raise InvalidParameter("quadratic coefficients must be positive")
    return Potential(
        dim=c.size,
        value=lambda x, c=c: float(0.5 * np.sum(c * np.asarray(x) ** 2)),
        gradient=lambda x, c=c: c * np.asarray(x, dtype=float),
        hess_L=float(c.max()),
        curvature_lower=0.0,
        lyapunov_pair=(0.0, float(c.sum())),
        quad_coeffs=c,
    )


class RngStream:
    """Deterministic random stream with explicit splitting.

    Backed by the counter-based Philox generator; identical seed and call
    sequence give identical output across runs. ``split`` derives
    independent child streams for parallel replicas.
    """

    def __init__(self, seed: int, _seq: Optional[np.random.SeedSequence] = None):
        if _seq is None:
            _seq = np.random.SeedSequence(seed)
        self.seed = seed
        self._seq = _seq
        self._gen = np.random.Generator(np.random.Philox(_seq))

    def split(self, n: int) -> list["RngStream"]:
        return [RngStream(self.seed, _seq=child) for child in self._seq.spawn(n)]

    def uniform(self, size=None):
        return self._gen.random(size)

    def gaussian(self, sd: float = 1.0, size=None):
        if sd <= 0:
            raise InvalidParameter("sd must be > 0")
        return self._gen.normal(0.0, sd, size)

    def exponential(self, rate: float, size=None):
        if rate <= 0:
            raise InvalidParameter("rate must be > 0")
        return self._gen.exponential(1.0 / rate, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, n: int, p=None):
        return int(self._gen.choice(n, p=p))
