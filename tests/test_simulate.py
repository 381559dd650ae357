"""Event-driven samplers: exactness, determinism, and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from liftlab.core import RngStream, make_grid, quadratic_potential
from liftlab.errors import InvalidParameter, NumericalFailure
from liftlab.generators import RtpParams
from liftlab.simulate import (
    Trajectory,
    autocorrelation,
    empirical_decay_rate,
    lipschitz_rate_bound,
    quadratic_rate_bound,
    rtp_occupation,
    rtp_stationary_state,
    sample_velocity,
    simulate_forward,
    simulate_rtp,
    simulate_zigzag,
    trajectory_moment,
)
from liftlab.simulate import _affine_arrival


class TestTrajectory:
    def _traj(self):
        return Trajectory(
            [0.0, 1.0, 3.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0],
            ["start", "flip", "end"],
            3.0,
        )

    def test_sample_path_interpolates_linearly(self):
        traj = self._traj()
        x, v = traj.sample_path([0.5, 2.0])
        assert x[0, 0] == pytest.approx(0.5)
        assert x[1, 0] == pytest.approx(1.0)
        assert v[0, 0] == 1.0

    def test_invalid_times_rejected(self):
        with pytest.raises(InvalidParameter):
            Trajectory([0.0, 1.0, 0.5], [0, 0, 0], [0, 0, 0],
                       ["start", "flip", "end"], 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameter):
            Trajectory([0.0, 1.0], [0, 0], [0, 0], ["start", "teleport"], 1.0)

    def test_csv_round_trip_fields(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "t.csv"
        traj.to_csv(str(path), comment="hash=abc")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# hash=abc"
        assert lines[1] == "t,x0,v0,kind"
        assert len(lines) == 2 + len(traj)
        t_back = float(lines[2].split(",")[0])
        assert t_back == 0.0

    def test_binary_format(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "t.bin"
        traj.to_binary(str(path))
        blob = path.read_bytes()
        assert blob[:4] == b"TRAJ"
        # header 8 + 8 bytes, then (1 + 2) * 8 + 1 per event in 1D
        assert len(blob) == 16 + len(traj) * 25


class TestAffineArrival:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.01, 5.0),
        st.floats(0.01, 10.0),
    )
    def test_inverts_integrated_rate(self, a, b, E):
        tau = _affine_arrival(a, b, E)
        assert np.isfinite(tau)
        # integral of (a + b s)_+ over [0, tau] equals E
        s0 = max(0.0, -a / b)
        integral = 0.0 if tau <= s0 else a * (tau - s0) + 0.5 * b * (tau**2 - s0**2)
        assert integral == pytest.approx(E, rel=1e-9, abs=1e-9)

    def test_zero_rate_never_fires(self):
        assert _affine_arrival(0.0, 0.0, 1.0) == np.inf
        assert _affine_arrival(-1.0, 0.0, 1.0) == np.inf

    def test_decreasing_rate_can_never_fire(self):
        # total integrated rate a^2/(2|b|) below E
        assert _affine_arrival(1.0, -1.0, 10.0) == np.inf


class TestRtpSimulation:
    def test_initial_state_validated(self):
        p = RtpParams(omega=1.0, length_L=1.0)
        with pytest.raises(InvalidParameter, match="x0=2.0 outside"):
            simulate_rtp(p, 2.0, 2, 1.0, RngStream(0))
        with pytest.raises(InvalidParameter, match="v0=1 not in"):
            simulate_rtp(p, 0.5, 1, 1.0, RngStream(0))
        with pytest.raises(InvalidParameter, match="t_end=0.0 must be > 0"):
            simulate_rtp(p, 0.5, 2, 0.0, RngStream(0))

    def test_deterministic_replay(self):
        p = RtpParams(omega=1.0, length_L=1.0)
        a = simulate_rtp(p, 0.5, 2, 100.0, RngStream(4))
        b = simulate_rtp(p, 0.5, 2, 100.0, RngStream(4))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)
        assert a.kinds == b.kinds

    def test_flip_times_exponential(self):
        # velocity jumps fire at rate 2*omega regardless of state
        p = RtpParams(omega=1.5, length_L=5.0)
        traj = simulate_rtp(p, 2.5, 0, 4000.0, RngStream(8))
        jump_t = [traj.times[i] for i, k in enumerate(traj.kinds)
                  if k in ("flip", "boundary-leave")]
        gaps = np.diff(jump_t)
        assert np.mean(gaps) == pytest.approx(1.0 / 3.0, rel=0.05)
        ks = stats.kstest(gaps, stats.expon(scale=1.0 / 3.0).cdf)
        assert ks.pvalue > 0.01

    def test_flip_direction_symmetric(self):
        p = RtpParams(omega=1.0, length_L=5.0)
        traj = simulate_rtp(p, 2.5, 0, 5000.0, RngStream(12))
        vs = traj.velocities[:, 0]
        ups = np.sum(vs == 2.0)
        downs = np.sum(vs == -2.0)
        assert abs(ups - downs) < 4.0 * np.sqrt(ups + downs)

    def test_positions_stay_in_box(self):
        p = RtpParams(omega=1.0, length_L=1.0)
        traj = simulate_rtp(p, 0.5, 2, 500.0, RngStream(3))
        assert traj.positions.min() >= 0.0
        assert traj.positions.max() <= 1.0

    def test_occupation_matches_invariant_law(self):
        p = RtpParams(omega=1.0, length_L=1.0)
        rng = RngStream(17)
        x0, v0 = rtp_stationary_state(p, rng)
        traj = simulate_rtp(p, x0, v0, 3e4, rng)
        grid = make_grid(1.0, 20)
        occ = rtp_occupation(traj, grid)
        c = 1.0 / 3.0
        N = grid.n_nodes
        # the four nonzero atoms carry c/2 each
        atom_idx = [N - 1, N, 2 * N - 1, 2 * N]
        for idx in atom_idx:
            assert occ.atom_weights[idx] == pytest.approx(0.5 * c, abs=0.02)
        # blocked corners: a (0, +2) or (L, -2) state never sojourns as an atom
        assert occ.atom_weights[0] == 0.0
        assert occ.atom_weights[3 * N - 1] == 0.0

    def test_stationary_state_atoms(self):
        p = RtpParams(omega=2.0, length_L=1.0)
        rng = RngStream(1)
        draws = [rtp_stationary_state(p, rng) for _ in range(20000)]
        c = 1.0 / 4.0
        at_L_up = np.mean([x == 1.0 and v == 2 for x, v in draws])
        assert at_L_up == pytest.approx(0.5 * c, abs=0.01)
        interior = np.mean([0.0 < x < 1.0 for x, v in draws])
        assert interior == pytest.approx(2.0 * c, abs=0.01)


class TestZigzag:
    def test_rate_bounds(self):
        U = quadratic_potential([2.0])
        qb = quadratic_rate_bound(U)
        a, b = qb(np.array([1.0]), np.array([-1.0]))
        assert a[0] == pytest.approx(-2.0)
        assert b[0] == pytest.approx(2.0)
        assert qb.exact
        lb = lipschitz_rate_bound(U)
        assert not lb.exact

    def test_missing_bound(self):
        import liftlab.core as core

        U = core.Potential(
            dim=1,
            value=lambda x: float(np.cosh(x[0])),
            gradient=lambda x: np.sinh(np.asarray(x, dtype=float)),
        )
        with pytest.raises(InvalidParameter, match="does not declare quadratic coefficients"):
            quadratic_rate_bound(U)
        with pytest.raises(InvalidParameter, match="does not declare hess_L"):
            lipschitz_rate_bound(U)

    def test_inversion_requires_exact_bound(self):
        U = quadratic_potential([1.0])
        loose = lipschitz_rate_bound(U)
        with pytest.raises(InvalidParameter, match="requires an exact rate bound"):
            simulate_zigzag(U, "hypercube", 1.0, [0.0], 1.0, RngStream(0),
                            rate_bound=loose, method="inversion")

    def test_wrong_envelope_raises_bound_violation(self):
        U = quadratic_potential([1.0])

        def bad(x, v):
            return 0.01 * x * v, 0.01 * v * v

        bad.exact = False
        with pytest.raises(NumericalFailure, match="exceeds envelope"):
            simulate_zigzag(U, "hypercube", 0.0, [3.0], 50.0, RngStream(2),
                            rate_bound=bad)

    def test_stationary_variance(self):
        U = quadratic_potential([1.0])
        traj = simulate_zigzag(U, "hypercube", 1.0, [0.0], 5e4, RngStream(42))
        var = trajectory_moment(traj, 0, 2) - trajectory_moment(traj, 0, 1) ** 2
        assert var == pytest.approx(1.0, rel=0.05)

    def test_thinning_matches_inversion(self):
        U = quadratic_potential([1.0, 1.0])

        def flip_gaps(method, seed):
            tr = simulate_zigzag(U, "hypercube", 0.5, [0.5, -0.3], 5e3,
                                 RngStream(seed), method=method)
            ft = [tr.times[i] for i, k in enumerate(tr.kinds) if k == "flip"]
            return np.diff(ft)

        ks = stats.ks_2samp(flip_gaps("thinning", 3), flip_gaps("inversion", 4))
        assert ks.pvalue > 0.01

    def test_velocity_laws(self):
        rng = RngStream(0)
        v = sample_velocity("hypercube", 3, rng)
        assert set(np.abs(v)) == {1.0}
        v = sample_velocity("coords", 4, rng)
        assert np.count_nonzero(v) == 1
        assert abs(np.linalg.norm(v) - 2.0) < 1e-12
        with pytest.raises(InvalidParameter, match="velocity law 'bogus' not in"):
            sample_velocity("bogus", 2, rng)


class TestForward:
    def test_post_jump_rate_vanishes(self):
        U = quadratic_potential([1.0, 1.0])
        traj = simulate_forward(U, 0.5, [1.0, 0.0], 5e3, RngStream(11))
        worst = 0.0
        for i, k in enumerate(traj.kinds):
            if k == "forward-jump":
                g = U.gradient(traj.positions[i])
                worst = max(worst, float(traj.velocities[i] @ g))
        assert worst <= 1e-12

    def test_jump_kernel_rayleigh(self):
        U = quadratic_potential([1.0, 1.0])
        traj = simulate_forward(U, 0.5, [1.0, 0.0], 2e4, RngStream(11))
        s_vals = []
        for i, k in enumerate(traj.kinds):
            if k == "forward-jump":
                g = np.asarray(U.gradient(traj.positions[i]))
                n = g / np.linalg.norm(g)
                s_vals.append(-float(traj.velocities[i] @ n))
        assert len(s_vals) > 1000
        ks = stats.kstest(np.asarray(s_vals), stats.rayleigh.cdf)
        assert ks.pvalue > 0.01

    def test_stationary_moments(self):
        U = quadratic_potential([1.0])
        traj = simulate_forward(U, 0.5, [1.0], 5e4, RngStream(7))
        mean = trajectory_moment(traj, 0, 1)
        var = trajectory_moment(traj, 0, 2) - mean**2
        assert mean == pytest.approx(0.0, abs=0.05)
        assert var == pytest.approx(1.0, rel=0.05)


class TestDiagnostics:
    def test_autocorrelation_iid(self):
        iid = RngStream(5).gaussian(size=20000)
        _, tau = autocorrelation(iid, 0.5, 100)
        assert tau == pytest.approx(0.5, rel=0.1)

    def test_autocorrelation_ar1(self):
        rho = 0.9
        n = 200000
        eps = RngStream(6).gaussian(size=n)
        ar = np.empty(n)
        ar[0] = 0.0
        for i in range(1, n):
            ar[i] = rho * ar[i - 1] + eps[i]
        _, tau = autocorrelation(ar, 1.0, 400)
        assert tau == pytest.approx((1 + rho) / (1 - rho), rel=0.15)

    def test_autocorrelation_constant_series(self):
        _, tau = autocorrelation(np.ones(1000), 1.0, 10)
        assert np.isnan(tau)

    def test_series_too_short(self):
        with pytest.raises(InvalidParameter, match="series length 50 < 10"):
            autocorrelation(np.arange(50.0), 1.0, 10)

    def test_empirical_decay_rate_flip_chain(self):
        # continuous-time flip chain on {+1,-1} at rate 1 decays at rate 2
        def run_flip(stream, t_grid):
            s = 1.0 if stream.uniform() < 0.5 else -1.0
            t = 0.0
            out = np.empty(len(t_grid))
            j = 0
            while j < len(t_grid):
                tau = stream.exponential(1.0)
                while j < len(t_grid) and t_grid[j] < t + tau:
                    out[j] = s
                    j += 1
                t += tau
                s = -s
            return out

        nu = empirical_decay_rate(run_flip, 4000, np.linspace(0, 1.5, 12), RngStream(9))
        assert nu == pytest.approx(2.0, rel=0.1)

    def test_noise_floor_raised_for_pure_noise(self):
        def run_noise(stream, t_grid):
            return stream.gaussian(size=len(t_grid))

        with pytest.raises(NumericalFailure, match="above the noise floor"):
            empirical_decay_rate(run_noise, 100, np.linspace(0.5, 5.0, 10), RngStream(3))

    def test_trajectory_moment_matches_quadrature(self):
        U = quadratic_potential([1.0])
        traj = simulate_zigzag(U, "hypercube", 1.0, [0.0], 200.0, RngStream(1))
        ts = np.linspace(0.0, traj.t_end, 200001)
        xs, _ = traj.sample_path(ts)
        assert trajectory_moment(traj, 0, 2) == pytest.approx(
            float(np.mean(xs[:, 0] ** 2)), rel=1e-2
        )
