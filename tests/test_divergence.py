"""Space-time divergence solves: harmonic basis, splits, and bounds."""

import numpy as np
import pytest

from liftlab.divergence import (
    build_harmonic_basis,
    chebyshev_time_grid,
    decompose_rhs,
    random_rhs,
    solve_divergence,
    space_time_identity_check,
    verify_divergence_bounds,
)
from liftlab.core import make_grid
from liftlab.errors import InvalidParameter
from liftlab.generators import RtpParams, rtp_generator, sticky_bm_generator
from liftlab.spectral import decompose


@pytest.fixture(scope="module")
def basis_200(sticky_200):
    m = sticky_200["m"]
    return build_harmonic_basis(sticky_200["op"], m**-0.5), m


class TestChebyshevGrid:
    def test_differentiates_polynomials_exactly(self):
        t, D, w = chebyshev_time_grid(24, 2.0)
        for p in (1, 3, 7):
            assert np.abs(D @ t**p - p * t ** (p - 1)).max() < 1e-9

    def test_differentiates_exponential_spectrally(self):
        t, D, w = chebyshev_time_grid(48, 1.0)
        f = np.exp(-3.0 * t)
        assert np.abs(D @ f + 3.0 * f).max() < 1e-10

    def test_quadrature_weights(self):
        t, D, w = chebyshev_time_grid(32, 2.0)
        assert w.sum() == pytest.approx(2.0)
        assert w @ t**4 == pytest.approx(32.0 / 5.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameter, match="n_time=3 must be >= 4"):
            chebyshev_time_grid(3, 1.0)
        with pytest.raises(InvalidParameter, match="T=0.0 must be > 0"):
            chebyshev_time_grid(16, 0.0)


class TestHarmonicBasis:
    def test_requires_self_adjoint_collapse(self, rtp_pair_100):
        with pytest.raises(InvalidParameter, match="requires a self-adjoint collapse"):
            build_harmonic_basis(rtp_pair_100["split"].full, 1.0)

    def test_leading_antisym_vanishes_at_midpoint(self, basis_200):
        basis, _ = basis_200
        prof = basis.profiles_a[0]
        # 2t - T is zero at T/2
        mid = np.interp(basis.T / 2.0, basis.t, prof)
        assert abs(mid) < 1e-12

    def test_harmonic_residuals_small_in_band(self, basis_200):
        basis, _ = basis_200
        assert basis.harmonic_residual(1, "antisym") < 1e-8
        worst = max(
            basis.harmonic_residual(k, kind)
            for k in range(1, 10)
            for kind in ("antisym", "sym")
        )
        assert worst < 1e-7

    def test_antisym_sym_orthogonal(self, basis_200):
        basis, _ = basis_200
        worst = 0.0
        for k in (1, 2, 3):
            for j in (1, 2, 3):
                a = basis.element(k, "antisym")
                s = basis.element(j, "sym")
                ip = basis.w_t @ ((a * s) @ basis.measure.weights)
                worst = max(worst, abs(ip) / (basis.norm(a) * basis.norm(s)))
        assert worst < 1e-12


class TestDecomposeRhs:
    def test_components_sum_and_pythagoras(self, basis_200):
        basis, _ = basis_200
        f = random_rhs(basis, 0)
        parts = decompose_rhs(f, basis)
        s = sum(parts.as_tuple())
        assert basis.norm(s - f) / basis.norm(f) < 1e-10
        pyth = sum(basis.norm(p) ** 2 for p in parts.as_tuple())
        assert abs(pyth - basis.norm(f) ** 2) / basis.norm(f) ** 2 < 1e-9

    def test_pure_basis_element_routed(self, basis_200):
        basis, _ = basis_200
        f = basis.element(1, "antisym")
        parts = decompose_rhs(f, basis)
        target = parts.low_antisym if basis.is_low[1] else parts.high_antisym
        assert basis.norm(target - f) / basis.norm(f) < 1e-9

    def test_mean_zero_required(self, basis_200):
        basis, _ = basis_200
        with pytest.raises(InvalidParameter, match="nonzero mean .* relative to norm"):
            decompose_rhs(np.ones((basis.n_time, basis.n_space)), basis)

    def test_zero_rhs_rejected(self, basis_200):
        basis, _ = basis_200
        with pytest.raises(InvalidParameter, match="right-hand side is identically zero"):
            decompose_rhs(np.zeros((basis.n_time, basis.n_space)), basis)


class TestSolveDivergence:
    def test_case1_perp(self, basis_200):
        basis, m = basis_200
        parts = decompose_rhs(random_rhs(basis, 3), basis)
        sol = solve_divergence(parts.perp, basis, m)
        assert sol.residual < 1e-8
        r1, r2, r3 = verify_divergence_bounds(sol, parts.perp, basis.T, m)
        assert r1 <= 1.0 + 1e-6
        assert r2 <= 1.0 + 1e-6
        assert r3 <= 1.0 + 1e-6

    def test_case2_low_antisym(self, basis_200):
        basis, m = basis_200
        for k in (0, 1):
            f = basis.element(k, "antisym")
            sol = solve_divergence(f, basis, m)
            assert sol.residual < 1e-8
            _, r2, _ = verify_divergence_bounds(sol, f, basis.T, m)
            assert r2 <= 2.0 + 1e-6
            # Case 2 keeps g = 0
            assert np.abs(sol.g).max() < 1e-10 * np.abs(sol.h).max()

    def test_case3_low_sym(self, basis_200):
        basis, m = basis_200
        f = basis.element(1, "sym")
        sol = solve_divergence(f, basis, m)
        assert sol.residual < 1e-8
        r1, _, r3 = verify_divergence_bounds(sol, f, basis.T, m)
        assert r1 <= 1.0 + np.e + 1e-6
        raw = r3 * (1.0 + 1.0 / (basis.T * np.sqrt(m)))
        assert raw <= 10.0 / (np.sqrt(m) * basis.T) + 1e-6

    def test_high_modes(self, basis_200):
        basis, m = basis_200
        k_high = np.nonzero(~basis.is_low & basis.is_covered)[0]
        for k in (int(k_high[0]), int(k_high[-1])):
            for kind in ("antisym", "sym"):
                f = basis.element(k, kind)
                sol = solve_divergence(f, basis, m)
                assert sol.residual < 1e-8
                assert max(sol.bound_ratios) <= 50.0

    def test_mixed_random(self, basis_200):
        basis, m = basis_200
        for seed in range(5):
            sol = solve_divergence(random_rhs(basis, seed), basis, m)
            assert sol.residual < 1e-8
            assert max(sol.bound_ratios) <= 50.0

    def test_boundary_conditions(self, basis_200):
        basis, m = basis_200
        sol = solve_divergence(random_rhs(basis, 9), basis, m)
        scale = np.abs(sol.h).max() + np.abs(sol.g).max()
        assert np.abs(sol.h[0]).max() < 1e-12 * scale
        assert np.abs(sol.h[-1]).max() < 1e-12 * scale
        assert np.abs(sol.g[0]).max() < 1e-12 * scale
        assert np.abs(sol.g[-1]).max() < 1e-12 * scale

    def test_linearity_and_homogeneity(self, basis_200):
        basis, m = basis_200
        f1 = random_rhs(basis, 101)
        f2 = random_rhs(basis, 102)
        sA = solve_divergence(2.0 * f1 + 0.5 * f2, basis, m)
        s1 = solve_divergence(f1, basis, m)
        s2 = solve_divergence(f2, basis, m)
        lin = basis.norm(sA.h - 2.0 * s1.h - 0.5 * s2.h) + basis.norm(
            sA.g - 2.0 * s1.g - 0.5 * s2.g
        )
        assert lin < 1e-8 * basis.norm(sA.h)
        sB = solve_divergence(3.7 * f1, basis, m)
        assert np.abs(np.array(sB.bound_ratios) - np.array(s1.bound_ratios)).max() < 1e-10

    def test_random_rhs_deterministic(self, basis_200):
        basis, _ = basis_200
        assert np.array_equal(random_rhs(basis, 5), random_rhs(basis, 5))
        assert not np.array_equal(random_rhs(basis, 5), random_rhs(basis, 6))


class TestSpaceTimeIdentity:
    def test_trivial_constant_fields(self, rtp_pair_100):
        split, collapse = rtp_pair_100["split"], rtp_pair_100["collapse"]
        n_t, n_x = 24, collapse.dim
        z = np.zeros((n_t, n_x))
        c = np.ones((n_t, n_x))
        res = space_time_identity_check(split.transport, collapse, c, z, z, 1.0)
        assert res < 1e-12

    def test_residual_halves_with_resolution(self):
        vals = []
        for n in (100, 200):
            grid = make_grid(1.0, n)
            split = rtp_generator(grid, RtpParams(omega=1.0, length_L=1.0))
            collapse, _ = sticky_bm_generator(grid, 1.0)
            sd = decompose(collapse)
            e1 = sd.eigenvectors[:, 1].real
            T = 1.0
            t, _, _ = chebyshev_time_grid(32, T)
            f = np.outer(np.sin(np.pi * t / T), e1)
            vals.append(
                space_time_identity_check(
                    split.transport, collapse, f, f, np.zeros_like(f), T
                )
            )
        assert vals[0] < 1e-2
        assert vals[1] < vals[0] / 1.5
