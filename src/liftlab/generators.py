"""Discrete generator matrices for the model processes.

Builds finite jump-process generators, each with its reference measure, for

- sticky Brownian motion on [0, L] with boundary parameter omega,
- the jamming run-and-tumble pair on [0, L] x {+2, 0, -2}, split into
  transport and velocity-refreshment parts,
- the 1D overdamped diffusion with potential U (birth-death chain),
- the 1D zig-zag process on a truncation box.

``rtp_model`` and ``zigzag_model`` build each lift together with its
collapse, and own the grid and box rules of the two model pairs.

Conventions: position grids include both boundary nodes; lifted state
spaces are enumerated velocity-block-major, i.e. all nodes for the first
velocity, then all nodes for the second, and so on, so that a lifted
position function is a tiled copy of the position vector.

The transport discretizations are upwind one-sided differences, which
keeps every matrix a genuine jump-process generator (Metzler, zero row
sums) at the cost of O(h) accuracy.  Sticky-BM and overdamped chains are
exactly reversible for their stated measures at every h; the lifted
chains reproduce their stated measures only in the h -> 0 limit, and the
stated measure is normalized over the grid so it is a probability at
every resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    Grid1D,
    OperatorMatrix,
    Potential,
    WeightedMeasure,
    make_grid,
    quadratic_potential,
)
from .errors import InvalidParameter

__all__ = [
    "RtpParams",
    "VelocityKernel",
    "SplitGenerator",
    "velocity_kernel",
    "sticky_bm_generator",
    "rtp_generator",
    "overdamped_generator_1d",
    "zigzag_generator_1d",
    "rtp_model",
    "zigzag_model",
    "invariance_residual",
    "stationary_distribution",
]

RTP_VELOCITIES = (2, 0, -2)


def _jump_generator(dim: int, jumps) -> np.ndarray:
    """Dense generator of a jump list.

    ``jumps`` holds (source, target, rate) triples of broadcastable index
    and rate arrays.  Each jump adds its rate at (source, target); each
    diagonal entry is minus its row's total exit rate.
    """
    L = np.zeros((dim, dim))
    for source, target, rate in jumps:
        np.add.at(L, (source, target), rate)
    exit_rate = L.sum(axis=1)
    # rows without jumps keep their zero diagonal unwritten, so memory
    # pages that hold nothing but zeros are never allocated
    rows = np.flatnonzero(exit_rate)
    L[rows, rows] -= exit_rate[rows]
    return L


@dataclass(frozen=True)
class RtpParams:
    """Tumble rate omega and domain length for the jamming pair process."""

    omega: float
    length_L: float

    def __post_init__(self):
        if self.omega <= 0:
            raise InvalidParameter(f"omega={self.omega} must be > 0")
        if self.length_L <= 0:
            raise InvalidParameter(f"length_L={self.length_L} must be > 0")


class VelocityKernel:
    """Relative-velocity jump kernel on {+2, 0, -2}.

    ``rate_matrix`` holds the jump rates (rows sum to zero), ``q_matrix``
    the rates divided by omega, and ``weight_matrix`` the stationary
    velocity weights S = diag(1/4, 1/2, 1/4).  Q is required to be
    self-adjoint in the S-weighted inner product.
    """

    __slots__ = ("states", "rate_matrix", "weight_matrix", "q_matrix")

    def __init__(self, rate_matrix: np.ndarray, omega: float):
        lam = np.asarray(rate_matrix, dtype=float)
        if lam.shape != (3, 3):
            raise InvalidParameter(f"rate matrix must be 3x3, got {lam.shape}")
        off = lam - np.diag(np.diag(lam))
        if off.min() < 0:
            raise InvalidParameter("rate matrix has a negative off-diagonal entry")
        if np.abs(lam.sum(axis=1)).max() > 1e-12 * max(1.0, np.abs(lam).max()):
            raise InvalidParameter("rate matrix rows must sum to zero")
        S = np.diag([0.25, 0.5, 0.25])
        Q = lam / omega
        # S-self-adjointness: Q = S^{-1} Q^T S, entrywise
        Q_star = np.diag(1.0 / np.diag(S)) @ Q.T @ S
        if np.abs(Q - Q_star).max() > 1e-14 * max(1.0, np.abs(Q).max()):
            raise InvalidParameter("Q is not self-adjoint in the S inner product")
        self.states = RTP_VELOCITIES
        self.rate_matrix = lam
        self.weight_matrix = S
        self.q_matrix = Q
        lam.setflags(write=False)
        Q.setflags(write=False)


def velocity_kernel(omega: float) -> VelocityKernel:
    """Relative-velocity kernel of the jamming pair at tumble rate omega."""
    if omega <= 0:
        raise InvalidParameter(f"omega={omega} must be > 0")
    lam = omega * np.array(
        [
            [-2.0, 2.0, 0.0],
            [1.0, -2.0, 1.0],
            [0.0, 2.0, -2.0],
        ]
    )
    return VelocityKernel(lam, omega)


class SplitGenerator:
    """Lifted generator with its transport/refresh splitting.

    ``full`` equals ``transport + gamma * refresh`` entrywise; all three
    operators share one reference measure.  States are enumerated
    velocity-block-major over ``velocities`` x nodes, so a position
    function f of length ``n_position`` lifts to ``np.tile(f, n_velocity)``.
    """

    __slots__ = ("full", "transport", "refresh", "gamma", "n_position", "velocities")

    def __init__(
        self,
        full: OperatorMatrix,
        transport: OperatorMatrix,
        refresh: OperatorMatrix,
        gamma: float,
        n_position: int,
        velocities: tuple,
    ):
        if gamma < 0:
            raise InvalidParameter(f"gamma={gamma} must be >= 0")
        mu = full.reference_measure
        if transport.reference_measure is not mu or refresh.reference_measure is not mu:
            raise InvalidParameter("split parts must share one reference measure")
        combo = transport.entries + gamma * refresh.entries
        scale = max(1.0, np.abs(full.entries).max())
        if np.abs(full.entries - combo).max() > 1e-12 * scale:
            raise InvalidParameter("full generator != transport + gamma * refresh")
        if n_position * len(velocities) != full.dim:
            raise InvalidParameter("state count != n_position * n_velocity")
        self.full = full
        self.transport = transport
        self.refresh = refresh
        self.gamma = gamma
        self.n_position = n_position
        self.velocities = tuple(velocities)

    @property
    def n_velocity(self) -> int:
        return len(self.velocities)

    def lift(self, f: np.ndarray) -> np.ndarray:
        """Lift a position function: (f o pi)(x, v) = f(x)."""
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.n_position:
            raise InvalidParameter(
                f"position vector of length {f.shape[0]}, expected {self.n_position}"
            )
        return np.tile(f, self.n_velocity)

    def conditional_velocity_law(self, node: int) -> np.ndarray:
        """Conditional law of the velocity given position node ``node``."""
        w = self.full.reference_measure.weights
        col = w.reshape(self.n_velocity, self.n_position)[:, node]
        return col / col.sum()

    def velocity_average(self, F: np.ndarray) -> np.ndarray:
        """Project a lifted function onto position functions: (Pi_v F)(x)."""
        F = np.asarray(F, dtype=float)
        if F.shape[0] != self.full.dim:
            raise InvalidParameter(
                f"lifted vector of length {F.shape[0]}, expected {self.full.dim}"
            )
        w = self.full.reference_measure.weights
        blocks = F.reshape(self.n_velocity, self.n_position)
        kw = w.reshape(self.n_velocity, self.n_position)
        tot = kw.sum(axis=0)
        return (blocks * kw).sum(axis=0) / tot


def sticky_bm_generator(grid: Grid1D, omega: float):
    """Generator and invariant probability of sticky Brownian motion.

    Interior rows are the second difference (f(x+h) - 2f(x) + f(x-h))/h^2;
    each boundary node jumps to its neighbor at rate omega/h.  The measure
    puts equal atoms on the boundary nodes and density weight
    proportional to omega*h on interior nodes, normalized to a
    probability.  With these weights the chain is exactly reversible at
    every h, so the measure is an exact left null vector of the matrix.

    Returns
    -------
    (OperatorMatrix, WeightedMeasure)
    """
    if omega <= 0:
        raise InvalidParameter(f"omega={omega} must be > 0")
    N = grid.n_nodes
    h = grid.h
    inner = np.arange(1, N - 1)
    L = _jump_generator(N, [
        (inner, inner - 1, 1.0 / h**2),
        (inner, inner + 1, 1.0 / h**2),
        (0, 1, omega / h),
        (N - 1, N - 2, omega / h),
    ])

    atoms = np.zeros(N)
    dens = np.zeros(N)
    atoms[0] = atoms[N - 1] = 1.0
    dens[1 : N - 1] = omega * h
    total = atoms.sum() + dens.sum()
    mu = WeightedMeasure(
        states=tuple(range(N)),
        atom_weights=atoms / total,
        density_weights=dens / total,
        probability=True,
    )
    return OperatorMatrix(L, mu, is_generator=True), mu


def rtp_generator(grid: Grid1D, params: RtpParams) -> SplitGenerator:
    """Split generator of the jamming run-and-tumble pair on the grid.

    States are (node, v) for v in (+2, 0, -2), velocity-block-major.  The
    transport part carries the upwind one-sided differences (clamped at
    the blocking boundary) together with the omega-rate velocity jumps
    that act only at the boundary nodes.  The refresh part carries the
    remaining velocity jumps at unit scale; the full generator is
    transport + omega * refresh and reproduces the relative-velocity jump
    rates (2*omega out of +-2, omega each way out of 0) in the interior.

    The reference measure is the continuum invariant law sampled on the
    grid and normalized: per-velocity boundary atoms (0 at the blocked
    corners (0,+2) and (L,-2), 1/2 elsewhere, relative to the collapse
    normalization) and interior densities proportional to
    (omega/4, omega/2, omega/4)*h.  The discrete chain reproduces it only
    up to O(h): the blocked corner states carry stationary mass O(h) at
    finite resolution.
    """
    if abs(params.length_L - grid.length_L) > 1e-12 * params.length_L:
        raise InvalidParameter(
            f"grid length {grid.length_L} != params length {params.length_L}"
        )
    omega = params.omega
    N = grid.n_nodes
    h = grid.h
    n_states = 3 * N
    # state indices of the velocity blocks v = +2, 0, -2
    i = np.arange(N)
    up, mid, down = i, N + i, 2 * N + i

    L_tr = _jump_generator(n_states, [
        # transport: v = +2 moves right at speed 2, blocked at x = L
        (up[:-1], up[1:], 2.0 / h),
        # transport: v = -2 moves left at speed 2, blocked at x = 0
        (down[1:], down[:-1], 2.0 / h),
        # boundary velocity jumps at rate omega (transport part)
        (up[-1], mid[-1], omega),
        (mid[0], up[0], omega),
        (mid[-1], down[-1], omega),
        (down[0], mid[0], omega),
    ])

    L_v = _jump_generator(n_states, [
        # refresh at unit scale: v = +2 -> 0 at rate 2 away from x = L, 1 at x = L
        (up, mid, np.where(i < N - 1, 2.0, 1.0)),
        # v = 0 -> +2 away from x = 0, v = 0 -> -2 away from x = L, rate 1 each
        (mid[1:], up[1:], 1.0),
        (mid[:-1], down[:-1], 1.0),
        # v = -2 -> 0 at rate 2 away from x = 0, 1 at x = 0
        (down, mid, np.where(i > 0, 2.0, 1.0)),
    ])

    L_full = L_tr + omega * L_v

    states = tuple((i, v) for v in RTP_VELOCITIES for i in range(N))
    atoms = np.zeros(n_states)
    dens = np.zeros(n_states)
    atoms[[up[-1], mid[0], mid[-1], down[0]]] = 0.5
    dens[up[1:-1]] = omega * h / 4.0
    dens[mid[1:-1]] = omega * h / 2.0
    dens[down[1:-1]] = omega * h / 4.0
    total = atoms.sum() + dens.sum()
    mu_hat = WeightedMeasure(
        states=states,
        atom_weights=atoms / total,
        density_weights=dens / total,
        probability=True,
    )
    full = OperatorMatrix(L_full, mu_hat, is_generator=True)
    transport = OperatorMatrix(L_tr, mu_hat, is_generator=True)
    refresh = OperatorMatrix(L_v, mu_hat, is_generator=True)
    return SplitGenerator(full, transport, refresh, omega, N, RTP_VELOCITIES)


def overdamped_generator_1d(grid: Grid1D, U: Potential, x_min: float = 0.0):
    """Reversible birth-death discretization of (1/2)(Delta - grad U . grad).

    Nodes live at x_min + grid.nodes.  Jump rates i -> i+-1 are
    (1/(2h^2)) exp(-(U(x_{i+-1}) - U(x_i))/2), which satisfies detailed
    balance exactly for mu_h proportional to exp(-U(x_i)); the boundary
    nodes simply lack an outward jump (reflecting).

    Returns
    -------
    (OperatorMatrix, WeightedMeasure)
    """
    if U.dim != 1:
        raise InvalidParameter(f"need a 1D potential, got dim {U.dim}")
    N = grid.n_nodes
    h = grid.h
    xs = x_min + grid.nodes
    Uv = np.array([U.value(np.array([x])) for x in xs])
    i = np.arange(N - 1)
    # nearest-neighbour jumps i -> i + 1 and i + 1 -> i
    source = np.concatenate([i, i + 1])
    target = np.concatenate([i + 1, i])
    rate = np.exp(-(Uv[target] - Uv[source]) / 2.0) / (2.0 * h**2)
    L = _jump_generator(N, [(source, target, rate)])
    w = np.exp(Uv.min() - Uv) * h
    w /= w.sum()
    mu = WeightedMeasure(
        states=tuple(range(N)),
        atom_weights=np.zeros(N),
        density_weights=w,
        probability=True,
    )
    return OperatorMatrix(L, mu, is_generator=True), mu


def zigzag_generator_1d(
    grid: Grid1D, U: Potential, gamma: float, x_min: float = 0.0
) -> SplitGenerator:
    """Split generator of the 1D zig-zag process on a truncation box.

    States are (node, v) for v in (+1, -1), velocity-block-major, on
    nodes x_min + grid.nodes.  The transport part is the upwind
    difference v d/dx with a reflecting clamp at the box edges (the
    outward-moving edge state flips instead of leaving) plus the
    potential flip rate (v U'(x))_+ to the opposite velocity.  The
    refresh part is Pi_v - I for the uniform velocity law, scaled by
    gamma in the full generator.  The reference measure is
    mu_h x (1/2, 1/2) with mu_h proportional to exp(-U); it is invariant
    for the chain up to O(h) plus the box truncation error.
    """
    if U.dim != 1:
        raise InvalidParameter(f"need a 1D potential, got dim {U.dim}")
    if gamma < 0:
        raise InvalidParameter(f"gamma={gamma} must be >= 0")
    N = grid.n_nodes
    h = grid.h
    xs = x_min + grid.nodes
    dU = np.array([float(np.atleast_1d(U.gradient(np.array([x])))[0]) for x in xs])
    n_states = 2 * N
    # state indices of the velocity blocks v = +1, -1
    up, down = np.arange(N), N + np.arange(N)

    L_tr = _jump_generator(n_states, [
        # upwind transport at speed 1, reflecting clamp at the edges
        (up[:-1], up[1:], 1.0 / h),
        (up[-1], down[-1], 1.0 / h),
        (down[1:], down[:-1], 1.0 / h),
        (down[0], up[0], 1.0 / h),
        # potential flips at rate (v U'(x))_+
        (up, down, np.maximum(dU, 0.0)),
        (down, up, np.maximum(-dU, 0.0)),
    ])

    # refresh Pi_v - I with the uniform law on {+1, -1}
    L_v = _jump_generator(n_states, [(up, down, 0.5), (down, up, 0.5)])

    L_full = L_tr + gamma * L_v

    Uv = np.array([U.value(np.array([x])) for x in xs])
    w = np.exp(Uv.min() - Uv) * h
    w /= w.sum()
    dens = 0.5 * np.concatenate([w, w])
    states = tuple((i, v) for v in (1, -1) for i in range(N))
    mu_hat = WeightedMeasure(
        states=states,
        atom_weights=np.zeros(n_states),
        density_weights=dens,
        probability=True,
    )
    full = OperatorMatrix(L_full, mu_hat, is_generator=True)
    transport = OperatorMatrix(L_tr, mu_hat, is_generator=True)
    refresh = OperatorMatrix(L_v, mu_hat, is_generator=True)
    return SplitGenerator(full, transport, refresh, gamma, N, (1, -1))


def rtp_model(omega: float, L: float, n_interior: int):
    """The RTP lift and its sticky-BM collapse on one grid of [0, L].

    Returns (split, collapse, h): the run-and-tumble split generator, the
    sticky Brownian motion generator it collapses to, and the grid
    spacing.
    """
    grid = make_grid(L, n_interior)
    split = rtp_generator(grid, RtpParams(omega, L))
    collapse, _ = sticky_bm_generator(grid, omega)
    return split, collapse, grid.h


def zigzag_model(m: float, gamma: float, n_interior: int):
    """The 1D Zig-Zag lift and its overdamped collapse for U = m x^2 / 2.

    Both live on the truncation box [-4/sqrt(m), 4/sqrt(m)], four
    standard deviations of the target law on each side.  Returns
    (split, collapse, h) as :func:`rtp_model` does.
    """
    width = 4.0 / np.sqrt(m)
    grid = make_grid(2.0 * width, n_interior)
    U = quadratic_potential([m])
    split = zigzag_generator_1d(grid, U, gamma, x_min=-width)
    collapse, _ = overdamped_generator_1d(grid, U, x_min=-width)
    return split, collapse, grid.h


def invariance_residual(op: OperatorMatrix, exclude=()) -> float:
    """Relative stationarity defect of the reference measure.

    Returns max_j |sum_i w_i L_{ij}| over state columns j not in
    ``exclude``, normalized by the largest jump rate so the value is
    comparable across resolutions.  Zero (to rounding) for exactly
    reversible chains; O(h) for the upwind lifted chains.
    """
    w = op.reference_measure.weights
    r = np.delete(w @ op.entries, list(exclude))
    scale = np.abs(np.diag(op.entries)).max()
    return float(np.abs(r).max() / max(scale, 1.0))


def stationary_distribution(op: OperatorMatrix) -> np.ndarray:
    """Exact stationary probability vector of a generator matrix.

    Computed as the left null space of the matrix; the result is
    normalized to total mass one and clipped of rounding-level negatives.
    """
    ns = scipy.linalg.null_space(op.entries.T)
    if ns.shape[1] < 1:
        raise InvalidParameter("generator has no stationary vector")
    v = ns[:, 0]
    if v.sum() < 0:
        v = -v
    v = np.clip(v, 0.0, None)
    return v / v.sum()
