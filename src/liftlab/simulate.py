"""Exact event-driven samplers and trajectory diagnostics.

Three piecewise-deterministic processes are simulated without time
discretization: the jamming run-and-tumble pair on [0, L] (velocity
jumps at constant rates drive a clamped linear position flow, so every
event time is closed-form), the Zig-Zag process in d dimensions with
per-coordinate flip rates (v_k dU/dx_k)_+ simulated by thinning against
affine rate envelopes (with exact inversion for quadratic potentials),
and the Forward process whose single event clock (v . grad U)_+
triggers a full velocity resample from the gradient-tilted law, drawn
rejection-free as a Rayleigh component against the gradient direction
plus an independent Gaussian orthogonal part.

Many short stationary RTP replicas, read only at a few grid times, are
advanced together in numpy lockstep over the event index
(:func:`rtp_grid_positions`), with the same exact law.

Diagnostics: exact sojourn-time occupation measures (boundary atoms
kept separate from histogram cells), autocorrelation with Geyer-style
integrated time, and replica-based empirical decay rates.
"""

from __future__ import annotations

import numpy as np

from .core import Grid1D, Potential, RngStream, WeightedMeasure
from .errors import InvalidParameter, NumericalFailure
from .generators import RTP_VELOCITIES, RtpParams
from .io_utils import atomic_write_text

__all__ = [
    "EVENT_KINDS",
    "Trajectory",
    "simulate_rtp",
    "rtp_stationary_state",
    "rtp_grid_positions",
    "rtp_occupation",
    "quadratic_rate_bound",
    "lipschitz_rate_bound",
    "simulate_zigzag",
    "simulate_forward",
    "sample_velocity",
    "autocorrelation",
    "empirical_decay_rate",
    "trajectory_moment",
]

EVENT_KINDS = (
    "start",
    "flip",
    "refresh",
    "boundary-hit",
    "boundary-leave",
    "forward-jump",
    "end",
)


_CSV_CHUNK_ROWS = 256


class Trajectory:
    """Event log of a piecewise-deterministic trajectory.

    Rows are (time, position, velocity, kind); the first row is the
    initial state at time 0 (kind 'start'), the last the final state at
    t_end (kind 'end').  Between events the position moves linearly with
    the recorded velocity, clamped to ``clamp`` bounds when set (the
    jamming mechanism); velocities change only at events.
    """

    __slots__ = ("times", "positions", "velocities", "kinds", "t_end", "clamp")

    def __init__(self, times, positions, velocities, kinds, t_end, clamp=None):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float).T).T
        self.velocities = np.atleast_2d(np.asarray(velocities, dtype=float).T).T
        self.kinds = list(kinds)
        self.t_end = float(t_end)
        self.clamp = clamp
        n = self.times.size
        if n < 2:
            raise InvalidParameter(f"trajectory has {n} events, needs at least 2")
        if (np.diff(self.times) <= 0).any():
            raise InvalidParameter("event times must be strictly increasing")
        if self.times[-1] != self.t_end:
            raise InvalidParameter("last event time must equal t_end")
        bad = set(self.kinds) - set(EVENT_KINDS)
        if bad:
            raise InvalidParameter(f"unknown event kinds {sorted(bad)}")

    def __len__(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def sample_path(self, ts):
        """Positions and velocities at arbitrary times in [0, t_end]."""
        ts = np.asarray(ts, dtype=float)
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self) - 1)
        dt = ts - self.times[idx]
        x = self.positions[idx] + self.velocities[idx] * dt[:, None]
        if self.clamp is not None:
            x = np.clip(x, self.clamp[0], self.clamp[1])
        return x, self.velocities[idx]

    def to_csv(self, path, comment=None):
        header = "t," + ",".join(f"x{i}" for i in range(self.dim))
        header += "," + ",".join(f"v{i}" for i in range(self.dim)) + ",kind"
        lines = [] if comment is None else [f"# {comment}"]
        lines.append(header)
        # one repr per value, column by column; tolist() yields Python
        # floats, whose repr is the shortest round-trip form.  Rows go in
        # chunks so that only one chunk's floats are alive at a time.
        for i in range(0, len(self), _CSV_CHUNK_ROWS):
            rows = slice(i, i + _CSV_CHUNK_ROWS)
            numeric = [self.times[rows], *self.positions[rows].T, *self.velocities[rows].T]
            columns = [map(repr, col.tolist()) for col in numeric]
            lines.extend(map(",".join, zip(*columns, self.kinds[rows])))
        atomic_write_text(path, "\n".join(lines) + "\n")


def simulate_rtp(
    params: RtpParams, x0: float, v0: int, t_end: float, rng: RngStream
) -> Trajectory:
    """Exact velocity-first simulation of the jamming pair process.

    The relative velocity is a jump process with rate 2*omega out of
    +-2 (to 0) and rate omega to each of +-2 out of 0; the position
    integrates the clamped linear flow x' = v between jumps, with
    boundary hit times in closed form.  No discretization anywhere.
    """
    omega, L = params.omega, params.length_L
    if not (0.0 <= x0 <= L):
        raise InvalidParameter(f"x0={x0} outside [0, {L}]")
    if v0 not in RTP_VELOCITIES:
        raise InvalidParameter(f"v0={v0} not in {RTP_VELOCITIES}")
    if t_end <= 0:
        raise InvalidParameter(f"t_end={t_end} must be > 0")
    times = [0.0]
    xs = [float(x0)]
    vs = [float(v0)]
    kinds = ["start"]
    t, x, v = 0.0, float(x0), int(v0)
    while True:
        tau = rng.exponential(2.0 * omega)
        t_next = t + tau
        seg_end = min(t_next, t_end)
        if v > 0 and x < L:
            t_hit = t + (L - x) / 2.0
            if t_hit < seg_end:
                times.append(t_hit)
                xs.append(L)
                vs.append(float(v))
                kinds.append("boundary-hit")
                x = L
            else:
                x = min(L, x + 2.0 * (seg_end - t))
        elif v < 0 and x > 0.0:
            t_hit = t + x / 2.0
            if t_hit < seg_end:
                times.append(t_hit)
                xs.append(0.0)
                vs.append(float(v))
                kinds.append("boundary-hit")
                x = 0.0
            else:
                x = max(0.0, x - 2.0 * (seg_end - t))
        if t_next >= t_end:
            break
        if v != 0:
            new_v = 0
        else:
            new_v = 2 if rng.uniform() < 0.5 else -2
        jammed_leave = (x == 0.0 and new_v > 0) or (x == L and new_v < 0)
        times.append(t_next)
        xs.append(x)
        vs.append(float(new_v))
        kinds.append("boundary-leave" if jammed_leave else "flip")
        t, v = t_next, new_v
    times.append(t_end)
    xs.append(x)
    vs.append(float(v))
    kinds.append("end")
    return Trajectory(times, xs, vs, kinds, t_end, clamp=(0.0, L))


def rtp_stationary_state(params: RtpParams, rng: RngStream):
    """Draw (x, v) exactly from the closed-form invariant law.

    Four boundary atoms of mass c/2 each plus interior densities
    (omega c/4, omega c/2, omega c/4) with c = 1/(2 + omega L).
    """
    omega, L = params.omega, params.length_L
    c = 1.0 / (2.0 + omega * L)
    masses = np.array(
        [
            0.5 * c,  # (L, +2)
            0.5 * c,  # (0, 0)
            0.5 * c,  # (L, 0)
            0.5 * c,  # (0, -2)
            omega * L * c / 4.0,  # interior, +2
            omega * L * c / 2.0,  # interior, 0
            omega * L * c / 4.0,  # interior, -2
        ]
    )
    k = rng.choice(7, p=masses / masses.sum())
    if k == 0:
        return L, 2
    if k == 1:
        return 0.0, 0
    if k == 2:
        return L, 0
    if k == 3:
        return 0.0, -2
    x = float(L * rng.uniform())
    return x, (2, 0, -2)[k - 4]


# holding times and tumble signs drawn per replica at a time; a few MB
# for hundreds of replicas
_RTP_BLOCK = 1024


def rtp_grid_positions(params: RtpParams, t_grid, streams) -> np.ndarray:
    """Positions of stationary RTP replicas at the grid times, in lockstep.

    Replica i starts from :func:`rtp_stationary_state` drawn from
    ``streams[i]``; its holding times (exponential, rate 2 omega) and
    tumble signs then come ``_RTP_BLOCK`` values at a time from two separate
    children of that stream, so no value depends on the block size or on
    the other replicas.  All replicas advance together over the event
    index: each grid time in the holding interval [t, t + tau) reads
    clip(x + v (t_g - t), 0, L), then x moves to clip(x + v tau, 0, L)
    and v jumps to 0 from +-2 and to +-2 from 0.  The velocity chain
    never reads x and the clamp is the jamming, so this is the exact law
    of :func:`simulate_rtp` with no time step.  Returns an array of shape
    (len(streams), len(t_grid)).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise InvalidParameter("t_grid must be a non-empty 1-D array")
    if not np.isfinite(t_grid).all() or t_grid[0] < 0.0 or (np.diff(t_grid) < 0.0).any():
        raise InvalidParameter("t_grid must be finite, non-negative and non-decreasing")
    rate, L = 2.0 * params.omega, params.length_L
    n, n_t = len(streams), t_grid.size
    x, v = np.zeros(n), np.zeros(n)
    children = []
    for i, stream in enumerate(streams):
        x[i], v[i] = rtp_stationary_state(params, stream)
        children.append(stream.split(2))
    out = np.empty((n, n_t))
    t = np.zeros(n)
    nxt = np.zeros(n, dtype=np.intp)  # index of each replica's next unread grid time
    grid_ext = np.append(t_grid, np.inf)
    t_read = grid_ext[nxt]
    while (nxt < n_t).any():
        taus = np.stack([hold.exponential(rate, size=_RTP_BLOCK) for hold, _ in children], axis=1)
        signs = np.stack([tumble.uniform(size=_RTP_BLOCK) for _, tumble in children], axis=1)
        signs = np.where(signs < 0.5, 2.0, -2.0)
        for tau, sign in zip(taus, signs):
            t_next = t + tau
            hit = t_read < t_next
            while hit.any():
                r = np.flatnonzero(hit)
                g = nxt[r]
                out[r, g] = np.clip(x[r] + v[r] * (t_grid[g] - t[r]), 0.0, L)
                nxt[r] += 1
                t_read[r] = grid_ext[nxt[r]]
                hit[r] = t_read[r] < t_next[r]
            x = np.clip(x + v * tau, 0.0, L)
            v = np.where(v != 0.0, 0.0, sign)
            t = t_next
    return out


def rtp_occupation(traj: Trajectory, grid: Grid1D) -> WeightedMeasure:
    """Exact sojourn-time occupation on (node, velocity) states.

    Jammed sojourns at x = 0 or x = L accumulate into boundary atoms;
    moving and interior time distributes over histogram cells centered
    at the grid nodes (crossing times are exact interval overlaps
    divided by the speed).  States mirror the discretized generator
    layout (velocity-block-major); weights normalize to total mass 1.
    """
    if len(traj) < 2:
        raise InvalidParameter("trajectory has no time span")
    L = grid.length_L
    N = grid.n_nodes
    h = grid.h
    # cell edges: node i owns [i*h - h/2, i*h + h/2] clipped to [0, L]
    edges = np.concatenate([[0.0], (np.arange(N - 1) + 0.5) * h, [L]])
    blocks = {2: 0, 0: 1, -2: 2}
    atoms = np.zeros((3, N))
    dens = np.zeros((3, N))
    t = traj.times
    x = traj.positions[:, 0]
    v = traj.velocities[:, 0]
    for i in range(len(traj) - 1):
        dt = t[i + 1] - t[i]
        if dt <= 0:
            continue
        b = blocks[int(v[i])]
        xi = x[i]
        jammed = (xi == 0.0 and v[i] <= 0) or (xi == L and v[i] >= 0)
        if v[i] == 0 or jammed:
            if xi == 0.0:
                atoms[b, 0] += dt
            elif xi == L:
                atoms[b, N - 1] += dt
            else:
                dens[b, min(N - 1, int(xi / h + 0.5))] += dt
            continue
        xb = xi + v[i] * dt
        lo, hi = (xi, xb) if xb >= xi else (xb, xi)
        j0 = max(0, np.searchsorted(edges, lo, side="right") - 1)
        j1 = min(N, np.searchsorted(edges, hi, side="left") + 1)
        seg = np.clip(edges[j0 : j1 + 1], lo, hi)
        dens[b, j0:j1] += np.diff(seg) / abs(v[i])
    atoms = atoms.reshape(-1)
    dens = dens.reshape(-1)
    total = atoms.sum() + dens.sum()
    states = tuple((i, w) for w in RTP_VELOCITIES for i in range(N))
    return WeightedMeasure(
        states=states,
        atom_weights=atoms / total,
        density_weights=dens / total,
        probability=True,
    )


def quadratic_rate_bound(U: Potential):
    """Exact affine rate for quadratic potentials.

    For U = sum c_k x_k^2 / 2 the per-coordinate Zig-Zag rate along the
    ray x + v t is exactly (a_k + b_k t)_+ with a_k = c_k v_k x_k and
    b_k = c_k v_k^2, so exact inversion needs no rejection step.  The
    thinning branch of :func:`simulate_zigzag` proposes from the clamped
    envelope (a_k)_+ + (b_k)_+ t instead, which exceeds the rate whenever
    a_k < 0; it rejects part of its proposals (about 19 % at d = 2,
    gamma = 1).
    """
    if U.quad_coeffs is None:
        raise InvalidParameter("potential does not declare quadratic coefficients")
    c = U.quad_coeffs

    def bound(x, v):
        return c * v * x, c * v * v

    bound.exact = True
    return bound


def lipschitz_rate_bound(U: Potential):
    """Affine envelope from a diagonal Hessian bound.

    Valid for coordinatewise-separable potentials: the rate along the
    ray is at most (v_k dU/dx_k(x))_+ + v_k^2 G t with G = hess_L.
    """
    if U.hess_L is None:
        raise InvalidParameter("potential does not declare hess_L")
    G = float(U.hess_L)

    def bound(x, v):
        return v * U.gradient(x), v * v * G

    bound.exact = False
    return bound


def _affine_arrival(a: float, b: float, E: float) -> float:
    """First arrival time of a Poisson clock with rate (a + b t)_+.

    Solves the integrated-rate equation for exponential variate E;
    returns inf when the total integrated rate stays below E.
    """
    if b > 0:
        if a >= 0:
            return (np.sqrt(a * a + 2.0 * b * E) - a) / b
        t0 = -a / b
        return t0 + np.sqrt(2.0 * E / b)
    if b == 0:
        return E / a if a > 0 else np.inf
    if a <= 0:
        return np.inf
    disc = a * a + 2.0 * b * E
    if disc < 0:
        return np.inf
    return (a - np.sqrt(disc)) / (-b)


def sample_velocity(law: str, d: int, rng: RngStream) -> np.ndarray:
    """Draw from the refresh law kappa: gaussian, hypercube, or coords."""
    if law == "gaussian":
        return np.atleast_1d(rng.gaussian(size=d))
    if law == "hypercube":
        return np.where(np.atleast_1d(rng.uniform(size=d)) < 0.5, -1.0, 1.0)
    if law == "coords":
        v = np.zeros(d)
        k = rng.choice(d)
        v[k] = np.sqrt(d) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return v
    raise InvalidParameter(f"velocity law {law!r} not in (gaussian, hypercube, coords)")


def simulate_zigzag(
    U: Potential,
    velocity_law: str,
    gamma: float,
    x0,
    t_end: float,
    rng: RngStream,
    rate_bound=None,
    method: str = "thinning",
) -> Trajectory:
    """Zig-Zag process with per-coordinate flips and velocity refresh.

    Coordinate k flips sign at rate (v_k dU/dx_k(x))_+; an independent
    exponential(gamma) clock resamples v from kappa.  Event times come
    from thinning against the bound strategy's affine envelopes, or
    from exact inversion when the strategy is exact and method is
    'inversion'.  A proposed rate above its declared envelope raises
    NumericalFailure.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = U.dim
    if x0.size != d:
        raise InvalidParameter(f"x0 has dim {x0.size}, potential dim {d}")
    if t_end <= 0:
        raise InvalidParameter(f"t_end={t_end} must be > 0")
    if method not in ("thinning", "inversion"):
        raise InvalidParameter(f"method={method!r} not in (thinning, inversion)")
    if rate_bound is None:
        rate_bound = (
            quadratic_rate_bound(U) if U.quad_coeffs is not None else lipschitz_rate_bound(U)
        )
    if method == "inversion" and not getattr(rate_bound, "exact", False):
        raise InvalidParameter("exact inversion requires an exact rate bound")
    v = sample_velocity(velocity_law, d, rng)
    times, xs, vs, kinds = [0.0], [x0.copy()], [v.copy()], ["start"]
    t = 0.0
    x = x0.copy()
    while t < t_end:
        a, b = rate_bound(x, v)
        if method == "inversion":
            taus = np.array(
                [_affine_arrival(a[k], b[k], rng.exponential(1.0)) for k in range(d)]
            )
        else:
            taus = np.array(
                [
                    _affine_arrival(max(a[k], 0.0), max(b[k], 0.0), rng.exponential(1.0))
                    for k in range(d)
                ]
            )
        tau_r = rng.exponential(gamma) if gamma > 0 else np.inf
        k_min = int(np.argmin(taus))
        tau = min(taus[k_min], tau_r)
        if t + tau >= t_end:
            x = x + v * (t_end - t)
            t = t_end
            break
        t += tau
        x = x + v * tau
        if tau_r <= taus[k_min]:
            v = sample_velocity(velocity_law, d, rng)
            kind = "refresh"
        else:
            if method == "thinning":
                rate = max(v[k_min] * float(U.gradient(x)[k_min]), 0.0)
                env = max(a[k_min], 0.0) + max(b[k_min], 0.0) * tau
                if rate > env * (1.0 + 1e-9) + 1e-300:
                    raise NumericalFailure(
                        f"rate {rate:g} exceeds envelope {env:g} at t={t:g}"
                    )
                if env <= 0.0 or rng.uniform() > rate / env:
                    continue
            v = v.copy()
            v[k_min] = -v[k_min]
            kind = "flip"
        times.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
        kinds.append(kind)
    times.append(t_end)
    xs.append(x.copy())
    vs.append(v.copy())
    kinds.append("end")
    return Trajectory(times, xs, vs, kinds, t_end)


def simulate_forward(
    U: Potential,
    gamma: float,
    x0,
    t_end: float,
    rng: RngStream,
    rate_bound=None,
) -> Trajectory:
    """Forward process: gradient-tilted full velocity resampling.

    A single clock with rate (v . grad U(x + v t))_+ triggers a jump to
    w = -R n + w_perp, with n the unit gradient direction, R a
    Rayleigh(1) radius and w_perp standard Gaussian on the orthogonal
    complement; an exponential(gamma) refresh resamples w ~ N(0, I).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = U.dim
    if x0.size != d:
        raise InvalidParameter(f"x0 has dim {x0.size}, potential dim {d}")
    if t_end <= 0:
        raise InvalidParameter(f"t_end={t_end} must be > 0")
    if rate_bound is None:
        rate_bound = (
            quadratic_rate_bound(U) if U.quad_coeffs is not None else lipschitz_rate_bound(U)
        )
    v = np.atleast_1d(rng.gaussian(size=d))
    times, xs, vs, kinds = [0.0], [x0.copy()], [v.copy()], ["start"]
    t = 0.0
    x = x0.copy()
    while t < t_end:
        ak, bk = rate_bound(x, v)
        a = float(np.sum(ak))
        b = float(np.sum(bk))
        tau_j = _affine_arrival(max(a, 0.0), max(b, 0.0), rng.exponential(1.0))
        tau_r = rng.exponential(gamma) if gamma > 0 else np.inf
        tau = min(tau_j, tau_r)
        if t + tau >= t_end:
            x = x + v * (t_end - t)
            t = t_end
            break
        t += tau
        x = x + v * tau
        if tau_r <= tau_j:
            v = np.atleast_1d(rng.gaussian(size=d))
            kind = "refresh"
        else:
            grad = np.asarray(U.gradient(x), dtype=float)
            rate = max(float(v @ grad), 0.0)
            env = max(a, 0.0) + max(b, 0.0) * tau
            if rate > env * (1.0 + 1e-9) + 1e-300:
                raise NumericalFailure(f"rate {rate:g} exceeds envelope {env:g} at t={t:g}")
            if env <= 0.0 or rng.uniform() > rate / env:
                continue
            gn = float(np.linalg.norm(grad))
            if gn <= 0.0:
                raise NumericalFailure(f"grad U = 0 at jump position {x}")
            n = grad / gn
            R = np.sqrt(2.0 * rng.exponential(1.0))
            z = np.atleast_1d(rng.gaussian(size=d))
            w_perp = z - (z @ n) * n
            v = -R * n + w_perp
            kind = "forward-jump"
        times.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
        kinds.append(kind)
    times.append(t_end)
    xs.append(x.copy())
    vs.append(v.copy())
    kinds.append("end")
    return Trajectory(times, xs, vs, kinds, t_end)


def autocorrelation(series, dt: float, max_lag: int):
    """Autocorrelation and integrated time of a uniformly sampled series.

    Returns (acf, tau_int) with acf the biased-normalized
    autocovariance up to max_lag and tau_int = dt * (1 + 2 sum acf_k)
    truncated by Geyer's initial-positive-sequence rule on lag-pair
    sums.  A constant series yields tau_int = nan.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 10 * max_lag:
        raise InvalidParameter(f"series length {n} < 10 * max_lag = {10 * max_lag}")
    y = y - y.mean()
    c0 = float(y @ y) / n
    if c0 == 0.0:
        return np.ones(max_lag + 1), float("nan")
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = float(y[: n - k] @ y[k:]) / n / c0
    s = 0.0
    m = 1
    while m + 1 <= max_lag:
        pair = acf[m] + acf[m + 1]
        if pair <= 0:
            break
        s += pair
        m += 2
    return acf, float(dt * (1.0 + 2.0 * s))


def empirical_decay_rate(run_replicas, n_replicas: int, t_grid, rng: RngStream) -> float:
    """Decay rate from replica-averaged stationary autocovariance.

    run_replicas(streams, t_grid) gets one split stream per replica and
    returns the (n_replicas, len(t_grid)) matrix of the centered
    observable along each stationary-start trajectory at the grid
    times.  The estimator regresses log |autocovariance(t)| against t
    over the window where the signal exceeds three times its Monte Carlo
    standard error; raises NumericalFailure when fewer than three points
    survive.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    Y = np.asarray(run_replicas(rng.split(n_replicas), t_grid), dtype=float)
    if Y.shape != (n_replicas, t_grid.size):
        raise InvalidParameter(
            f"replica runner returned shape {Y.shape}, expected {(n_replicas, t_grid.size)}"
        )
    prod = Y * Y[:, :1]
    acov = prod.mean(axis=0)
    sigma = prod.std(axis=0, ddof=1) / np.sqrt(n_replicas)
    keep = np.abs(acov) > 3.0 * sigma
    if keep.sum() < 3:
        raise NumericalFailure(f"only {int(keep.sum())} points above the noise floor")
    ts = t_grid[keep]
    ys = np.log(np.abs(acov[keep]))
    slope = np.polyfit(ts, ys, 1)[0]
    return float(-slope)


def trajectory_moment(traj: Trajectory, coord: int, power: int) -> float:
    """Exact time average of x_coord^power (power 1 or 2) along a trajectory.

    Integrates the piecewise-linear path in closed form per segment.
    """
    if power not in (1, 2):
        raise InvalidParameter("power must be 1 or 2")
    t = traj.times
    x = traj.positions[:, coord]
    v = traj.velocities[:, coord]
    dt = np.diff(t)
    xa = x[:-1]
    va = v[:-1]
    xb = xa + va * dt
    if traj.clamp is not None:
        xb = np.clip(xb, traj.clamp[0], traj.clamp[1])
    if power == 1:
        seg = 0.5 * (xa + xb) * dt
    else:
        seg = (xa * xa + xa * xb + xb * xb) / 3.0 * dt
    return float(seg.sum() / traj.t_end)
