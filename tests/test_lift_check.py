"""Lift identities, weak antisymmetry, and the closed-form constants."""

import numpy as np
import pytest

from liftlab.core import make_grid, quadratic_potential
from liftlab.errors import InvalidParameter
from liftlab.generators import RtpParams, rtp_generator, sticky_bm_generator, velocity_kernel
from liftlab.lift_check import (
    AssumptionConstants,
    assumption_constants,
    check_first_order,
    check_second_order,
    check_weak_antisymmetry,
    collapse_probes,
    lift_report,
    optimal_gamma,
    rate_formula,
    velocity_poincare,
)
from liftlab.spectral import spectral_gap


@pytest.fixture(scope="module")
def probes_100(rtp_pair_100):
    return collapse_probes(rtp_pair_100["collapse"], n_eig=6, n_random=4)


class TestLiftChecks:
    def test_residuals_small_at_moderate_resolution(self, rtp_pair_100, probes_100):
        split, collapse = rtp_pair_100["split"], rtp_pair_100["collapse"]
        rep = lift_report(split, collapse, probes_100, rtp_pair_100["grid"].h)
        assert rep.first_order_residual < 0.15
        assert rep.second_order_residual < 0.15
        assert rep.antisymmetry_residual < 0.15
        assert rep.probe_count == len(probes_100)

    def test_residuals_shrink_with_resolution(self, rtp_pair_100, probes_100):
        rep1 = lift_report(
            rtp_pair_100["split"],
            rtp_pair_100["collapse"],
            probes_100,
            rtp_pair_100["grid"].h,
        )
        grid2 = make_grid(1.0, 200)
        split2 = rtp_generator(grid2, RtpParams(omega=1.0, length_L=1.0))
        collapse2, _ = sticky_bm_generator(grid2, 1.0)
        probes2 = collapse_probes(collapse2, n_eig=6, n_random=4)
        rep2 = lift_report(split2, collapse2, probes2, grid2.h)
        assert rep2.first_order_residual < rep1.first_order_residual / 1.5
        assert rep2.second_order_residual < rep1.second_order_residual / 1.5
        assert rep2.antisymmetry_residual < rep1.antisymmetry_residual / 1.5

    def test_constant_probe_exact_zero(self, rtp_pair_100):
        split, collapse = rtp_pair_100["split"], rtp_pair_100["collapse"]
        c = [np.ones(split.n_position)]
        assert check_first_order(split, collapse, c) == 0.0
        assert check_second_order(split, collapse, c) == 0.0

    def test_second_order_linear_probe_closed_form(self):
        # for f = g = x on [0, L] the energy is omega L / (2 (2 + omega L))
        # relative to the half-pairing; with the pair normalized the
        # identity pins (1/2)<Lf, Lf> = E(f, f) and both converge to the
        # continuum value as h -> 0
        grid = make_grid(2.0, 200)
        split = rtp_generator(grid, RtpParams(omega=1.0, length_L=2.0))
        collapse, mu = sticky_bm_generator(grid, 1.0)
        f = grid.nodes.copy()
        res = check_second_order(split, collapse, [f])
        assert res < 0.02

    def test_probe_length_validated(self, rtp_pair_100):
        with pytest.raises(InvalidParameter, match="probe of length 5 does not match"):
            check_first_order(
                rtp_pair_100["split"], rtp_pair_100["collapse"], [np.ones(5)]
            )
        with pytest.raises(InvalidParameter, match="empty probe list"):
            check_weak_antisymmetry(rtp_pair_100["split"], [])

    def test_zigzag_pair_residuals_converge(self, zigzag_pair_80):
        from liftlab.generators import overdamped_generator_1d, zigzag_generator_1d

        probes = collapse_probes(zigzag_pair_80["collapse"], n_eig=5, n_random=3)
        rep1 = lift_report(
            zigzag_pair_80["split"],
            zigzag_pair_80["collapse"],
            probes,
            zigzag_pair_80["grid"].h,
        )
        U = zigzag_pair_80["U"]
        grid2 = make_grid(8.0, 160)
        split2 = zigzag_generator_1d(grid2, U, 1.0, x_min=-4.0)
        collapse2, _ = overdamped_generator_1d(grid2, U, x_min=-4.0)
        probes2 = collapse_probes(collapse2, n_eig=5, n_random=3)
        rep2 = lift_report(split2, collapse2, probes2, grid2.h)
        assert rep2.first_order_residual < rep1.first_order_residual / 1.5
        assert rep2.second_order_residual < rep1.second_order_residual / 1.5
        assert rep2.antisymmetry_residual < rep1.antisymmetry_residual / 1.5


class TestVelocityPoincare:
    def test_value_is_two(self):
        assert velocity_poincare(velocity_kernel(1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_independent_of_omega(self):
        assert velocity_poincare(velocity_kernel(17.0)) == pytest.approx(2.0, abs=1e-12)


class TestConstants:
    def test_rtp_values(self):
        c = assumption_constants("rtp", m=0.25, gamma=1.0)
        assert c.C1 == 1.0 and c.m_v == 2.0
        assert c.T == pytest.approx(0.25 ** -0.5)
        assert c.C2 == pytest.approx(1.0 / np.sqrt(0.5))

    def test_zigzag_hypercube_formula(self):
        U = quadratic_potential([1.0])
        c = assumption_constants("zigzag_hypercube", m=0.5, gamma=1.0, potential=U)
        assert c.C1 == pytest.approx(np.sqrt(44.0 * 1.0 + 20.0 * 1.0 / 0.5))

    def test_zigzag_coords_scales_with_dimension(self):
        U2 = quadratic_potential([1.0, 1.0])
        U4 = quadratic_potential([1.0] * 4)
        c2 = assumption_constants("zigzag_coords", m=0.5, gamma=1.0, potential=U2)
        c4 = assumption_constants("zigzag_coords", m=0.5, gamma=1.0, potential=U4)
        assert c4.C1 == pytest.approx(np.sqrt(2.0) * c2.C1)

    def test_forward_is_scaling_only(self):
        U = quadratic_potential([1.0])
        c = assumption_constants("forward", m=0.5, gamma=1.0, potential=U)
        assert c.scaling_only
        assert c.C1 == pytest.approx(np.sqrt((1.0 + 0.5) / 0.5))

    def test_missing_bounds_raise(self):
        with pytest.raises(InvalidParameter, match="needs potential.curvature_lower"):
            assumption_constants("langevin", m=0.5, gamma=1.0, potential=None)

    def test_unknown_process(self):
        with pytest.raises(InvalidParameter, match="unknown process_id 'bogus'"):
            assumption_constants("bogus", m=0.5, gamma=1.0)

    def test_invalid_scalars(self):
        with pytest.raises(InvalidParameter, match="must all be positive"):
            AssumptionConstants(m=-1.0, m_v=1.0, C1=1.0, C2=1.0, gamma=1.0, T=1.0)


class TestRateFormula:
    def _consts(self, **kw):
        base = dict(m=0.5, m_v=1.0, C1=2.0, C2=1.0, gamma=1.0, T=2.0)
        base.update(kw)
        return AssumptionConstants(**base)

    def test_closed_form_value(self):
        c = self._consts()
        inv = (1.0 * 1.0 + 4.0 + 1.0 * (1.0 + 1.0 / (0.5 * 4.0))) / 1.0
        assert rate_formula(c) == pytest.approx(1.0 / inv)
        assert c.nu == pytest.approx(rate_formula(c))

    def test_monotonicity(self):
        base = self._consts()
        assert rate_formula(self._consts(m=1.0)) > base.nu
        assert rate_formula(self._consts(m_v=2.0)) > base.nu
        assert rate_formula(self._consts(C1=3.0)) < base.nu
        assert rate_formula(self._consts(C2=2.0)) < base.nu

    def test_optimal_gamma_maximizes_formula(self):
        c = self._consts()
        g_star = optimal_gamma(c)
        assert g_star == pytest.approx(3.0 * np.sqrt(0.5))
        # with T tied to m the formula peak sits at sqrt(C2^-2 (C1^2 + 2/m_v))
        grid = np.geomspace(0.01, 100.0, 4001)
        nus = [rate_formula(self._consts(gamma=g)) for g in grid]
        g_num = grid[int(np.argmax(nus))]
        g_exact = np.sqrt((c.C1**2 + (1.0 + 1.0 / (c.m * c.T**2)) / c.m_v) / c.C2**2)
        assert g_num == pytest.approx(g_exact, rel=0.01)
