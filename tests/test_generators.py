"""Generator matrices: structure, reversibility, and invariant measures."""

import numpy as np
import pytest

from liftlab.core import make_grid, quadratic_potential
from liftlab.errors import InvalidParameter
from liftlab.generators import (
    RTP_VELOCITIES,
    RtpParams,
    VelocityKernel,
    invariance_residual,
    overdamped_generator_1d,
    rtp_generator,
    rtp_model,
    stationary_distribution,
    sticky_bm_generator,
    velocity_kernel,
    zigzag_generator_1d,
    zigzag_model,
)
from liftlab.spectral import is_self_adjoint, spectral_gap


class TestVelocityKernel:
    def test_q_eigenvalues(self):
        k = velocity_kernel(1.7)
        d = np.sqrt(np.diag(k.weight_matrix))
        M = k.q_matrix * (d[:, None] / d[None, :])
        vals = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))
        assert np.abs(vals - np.array([-4.0, -2.0, 0.0])).max() < 1e-12

    def test_rates_scale_with_omega(self):
        assert np.allclose(velocity_kernel(3.0).rate_matrix,
                           3.0 * velocity_kernel(1.0).rate_matrix)
        assert np.allclose(velocity_kernel(3.0).q_matrix,
                           velocity_kernel(1.0).q_matrix)

    def test_non_self_adjoint_rejected(self):
        lam = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        with pytest.raises(InvalidParameter, match="not self-adjoint"):
            VelocityKernel(lam, 1.0)

    def test_invalid_omega(self):
        with pytest.raises(InvalidParameter, match="omega=0.0 must be > 0"):
            velocity_kernel(0.0)


class TestStickyBm:
    def test_reversible_and_exactly_stationary(self, sticky_200):
        op = sticky_200["op"]
        assert is_self_adjoint(op)
        # the stated measure is an exact left null vector
        assert invariance_residual(op) < 1e-12

    def test_measure_matches_null_space(self, sticky_200):
        pi = stationary_distribution(sticky_200["op"])
        assert np.abs(pi - sticky_200["mu"].weights).max() < 1e-10

    def test_boundary_atoms(self):
        grid = make_grid(1.0, 50)
        _, mu = sticky_bm_generator(grid, 2.0)
        # atoms 1 each, interior density omega*h, normalized
        expected = 1.0 / (2.0 + 2.0 * (1.0 - grid.h))
        assert mu.atom_weights[0] == pytest.approx(expected)
        assert mu.atom_weights[-1] == pytest.approx(expected)
        assert mu.total_mass == pytest.approx(1.0)

    def test_gap_positive_and_grid_stable(self, sticky_200):
        g400 = spectral_gap(sticky_bm_generator(make_grid(1.0, 400), 1.0)[0])
        assert g400 > 0
        assert abs(g400 - sticky_200["m"]) / g400 < 0.01


class TestRtp:
    def test_split_consistency(self, rtp_pair_100):
        split = rtp_pair_100["split"]
        assert split.velocities == RTP_VELOCITIES
        combo = split.transport.entries + split.gamma * split.refresh.entries
        assert np.abs(split.full.entries - combo).max() < 1e-12

    def test_blocked_corners_carry_no_mass(self, rtp_pair_100):
        mu = rtp_pair_100["split"].full.reference_measure
        N = rtp_pair_100["split"].n_position
        # (0, +2) and (L, -2) are unreachable in the continuum law
        assert mu.weights[0] == 0.0
        assert mu.weights[3 * N - 1] == 0.0
        assert mu.total_mass == pytest.approx(1.0)

    def test_boundary_atoms_quarter_each(self):
        grid = make_grid(2.0, 60)
        split = rtp_generator(grid, RtpParams(omega=1.0, length_L=2.0))
        mu = split.full.reference_measure
        N = split.n_position
        # four atoms of c/2 with grid normalization 2 + omega*(L - h)
        c = 1.0 / (2.0 + 1.0 * (2.0 - grid.h))
        for idx in (N - 1, N, 2 * N - 1, 2 * N):
            assert mu.atom_weights[idx] == pytest.approx(0.5 * c)

    def test_stationarity_improves_with_resolution(self):
        res = []
        for n in (50, 100):
            grid = make_grid(1.0, n)
            split = rtp_generator(grid, RtpParams(omega=1.0, length_L=1.0))
            res.append(invariance_residual(split.full))
        assert res[1] < res[0] * 0.7  # O(h) defect

    def test_lift_and_velocity_average_are_adjoint_sections(self, rtp_pair_100):
        split = rtp_pair_100["split"]
        f = np.sin(np.linspace(0.0, 3.0, split.n_position))
        assert np.allclose(split.velocity_average(split.lift(f)), f)

    def test_conditional_velocity_law_interior(self, rtp_pair_100):
        split = rtp_pair_100["split"]
        law = split.conditional_velocity_law(split.n_position // 2)
        assert np.allclose(law, [0.25, 0.5, 0.25])

    def test_grid_length_mismatch(self):
        with pytest.raises(InvalidParameter, match="grid length 1.0 != params length 2.0"):
            rtp_generator(make_grid(1.0, 20), RtpParams(omega=1.0, length_L=2.0))


class TestOverdamped:
    def test_reversible_with_gibbs_measure(self):
        U = quadratic_potential([1.0])
        grid = make_grid(8.0, 120)
        op, mu = overdamped_generator_1d(grid, U, x_min=-4.0)
        assert is_self_adjoint(op)
        assert invariance_residual(op) < 1e-12

    def test_gap_is_half_curvature(self):
        # the overdamped diffusion for U = m x^2/2 relaxes at rate m/2
        for m in (1.0, 4.0):
            width = 4.0 / np.sqrt(m)
            op, _ = overdamped_generator_1d(
                make_grid(2.0 * width, 200), quadratic_potential([m]), x_min=-width
            )
            assert spectral_gap(op) == pytest.approx(m / 2.0, rel=0.02)


class TestZigzag:
    def test_split_and_measure(self, zigzag_pair_80):
        split = zigzag_pair_80["split"]
        assert split.velocities == (1, -1)
        mu = split.full.reference_measure
        assert mu.total_mass == pytest.approx(1.0)
        # velocity marginal is uniform at every node
        law = split.conditional_velocity_law(split.n_position // 3)
        assert np.allclose(law, 0.5)

    def test_gamma_zero_allowed_and_negative_rejected(self):
        U = quadratic_potential([1.0])
        grid = make_grid(8.0, 30)
        split = zigzag_generator_1d(grid, U, 0.0, x_min=-4.0)
        assert np.abs(split.full.entries - split.transport.entries).max() == 0.0
        with pytest.raises(InvalidParameter, match="gamma=-1.0 must be >= 0"):
            zigzag_generator_1d(grid, U, -1.0, x_min=-4.0)

    def test_stationarity_defect_shrinks(self):
        U = quadratic_potential([1.0])
        res = []
        for n in (40, 80):
            split = zigzag_generator_1d(make_grid(8.0, n), U, 1.0, x_min=-4.0)
            res.append(invariance_residual(split.full))
        assert res[1] < res[0] * 0.7


class TestModels:
    def test_rtp_model_matches_builders(self):
        split, collapse, h = rtp_model(2.0, 1.5, 30)
        grid = make_grid(1.5, 30)
        assert h == grid.h
        ref = rtp_generator(grid, RtpParams(omega=2.0, length_L=1.5))
        assert np.array_equal(split.full.entries, ref.full.entries)
        assert np.array_equal(collapse.entries, sticky_bm_generator(grid, 2.0)[0].entries)
        assert split.n_position == collapse.dim

    def test_zigzag_model_box_is_four_standard_deviations(self):
        m = 4.0
        split, collapse, h = zigzag_model(m, 0.5, 30)
        width = 4.0 / np.sqrt(m)
        assert h == pytest.approx(2.0 * width / 31)
        U = quadratic_potential([m])
        grid = make_grid(2.0 * width, 30)
        ref = zigzag_generator_1d(grid, U, 0.5, x_min=-width)
        assert np.array_equal(split.full.entries, ref.full.entries)
        ref_c, _ = overdamped_generator_1d(grid, U, x_min=-width)
        assert np.array_equal(collapse.entries, ref_c.entries)
        assert split.n_position == collapse.dim


def _loop_generator(dim, jumps):
    """Reference assembly, one jump at a time: +rate at (i, j), -rate at (i, i)."""
    L = np.zeros((dim, dim))
    for i, j, rate in jumps:
        L[i, j] += rate
        L[i, i] -= rate
    return L


@pytest.mark.parametrize("n", [2, 3, 10, 61])
class TestJumpListsMatchLoops:
    """The vectorized builders equal a per-node loop entry for entry."""

    def test_sticky_bm(self, n):
        grid = make_grid(1.3, n)
        N, h, omega = grid.n_nodes, grid.h, 0.7
        jumps = [(i, i + s, 1.0 / h**2) for i in range(1, N - 1) for s in (-1, 1)]
        jumps += [(0, 1, omega / h), (N - 1, N - 2, omega / h)]
        op, _ = sticky_bm_generator(grid, omega)
        assert np.array_equal(op.entries, _loop_generator(N, jumps))

    @pytest.mark.parametrize("omega", [0.01, 1.0, 200.0])
    def test_rtp(self, n, omega):
        grid = make_grid(1.0, n)
        N, h = grid.n_nodes, grid.h
        up, mid, down = 0, N, 2 * N
        transport = [(up + N - 1, mid + N - 1, omega), (mid, up, omega),
                     (mid + N - 1, down + N - 1, omega), (down, mid, omega)]
        refresh = []
        for i in range(N):
            if i < N - 1:
                transport.append((up + i, up + i + 1, 2.0 / h))
                refresh.append((mid + i, down + i, 1.0))
            if i > 0:
                transport.append((down + i, down + i - 1, 2.0 / h))
                refresh.append((mid + i, up + i, 1.0))
            refresh.append((up + i, mid + i, 2.0 if i < N - 1 else 1.0))
            refresh.append((down + i, mid + i, 2.0 if i > 0 else 1.0))
        split = rtp_generator(grid, RtpParams(omega=omega, length_L=1.0))
        L_tr, L_v = _loop_generator(3 * N, transport), _loop_generator(3 * N, refresh)
        assert np.array_equal(split.transport.entries, L_tr)
        assert np.array_equal(split.refresh.entries, L_v)
        assert np.array_equal(split.full.entries, L_tr + omega * L_v)

    def test_overdamped(self, n):
        U = quadratic_potential([2.5])
        grid = make_grid(3.0, n)
        N, h = grid.n_nodes, grid.h
        Uv = [U.value(np.array([x])) for x in grid.nodes - 1.5]
        jumps = [(i, j, np.exp(-(Uv[j] - Uv[i]) / 2.0) / (2.0 * h**2))
                 for i in range(N) for j in (i - 1, i + 1) if 0 <= j < N]
        op, _ = overdamped_generator_1d(grid, U, x_min=-1.5)
        assert np.array_equal(op.entries, _loop_generator(N, jumps))

    @pytest.mark.parametrize("m,gamma", [(1.0, 1.0), (0.5, 0.0), (4.0, 22.4)])
    def test_zigzag(self, n, m, gamma):
        split, _, h = zigzag_model(m, gamma, n)
        N = split.n_position
        width = 4.0 / np.sqrt(m)
        xs = -width + make_grid(2.0 * width, n).nodes
        up, down = 0, N
        transport, refresh = [], []
        for i in range(N):
            transport.append((up + i, up + i + 1 if i < N - 1 else down + i, 1.0 / h))
            transport.append((down + i, down + i - 1 if i > 0 else up + i, 1.0 / h))
            transport.append((up + i, down + i, max(m * xs[i], 0.0)))
            transport.append((down + i, up + i, max(-m * xs[i], 0.0)))
            refresh += [(up + i, down + i, 0.5), (down + i, up + i, 0.5)]
        L_tr, L_v = _loop_generator(2 * N, transport), _loop_generator(2 * N, refresh)
        assert np.array_equal(split.transport.entries, L_tr)
        assert np.array_equal(split.refresh.entries, L_v)
        assert np.array_equal(split.full.entries, L_tr + gamma * L_v)
