"""Flow Poincare ratios, decay verification, and the lifting upper bound."""

import numpy as np
import pytest
import scipy.linalg

from liftlab.core import inner_product, make_grid
from liftlab.errors import InvalidParameter
from liftlab.flow_poincare import (
    best_nu,
    decay_check,
    flow_ratio,
    gauss_legendre,
    lifted_probe_family,
    lifting_upper_bound_check,
    pointwise_decay_bound,
)
from liftlab.generators import RtpParams, rtp_generator, sticky_bm_generator
from liftlab.spectral import Semigroup, decompose, spectral_gap


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(0.0, 2.0, 6)
        # degree <= 11 integrated exactly
        for p in range(12):
            exact = 2.0 ** (p + 1) / (p + 1)
            assert weights @ nodes**p == pytest.approx(exact, rel=1e-12)

    def test_interval_transform(self):
        nodes, weights = gauss_legendre(1.0, 3.0, 4)
        assert nodes.min() > 1.0 and nodes.max() < 3.0
        assert weights.sum() == pytest.approx(2.0)


class TestFlowRatio:
    def test_eigenvector_gives_eigenvalue(self, sticky_200):
        op, mu = sticky_200["op"], sticky_200["mu"]
        sd = decompose(op)
        for k in (1, 3):
            v = sd.eigenvectors[:, k].real
            lam = -sd.eigenvalues[k].real
            assert flow_ratio(op, mu, v, T=1.0) == pytest.approx(lam, rel=1e-8)

    def test_mean_zero_required(self, sticky_200):
        with pytest.raises(InvalidParameter, match="probe has nonzero mean"):
            flow_ratio(sticky_200["op"], sticky_200["mu"], np.ones(sticky_200["op"].dim), 1.0)

    def test_zero_probe_rejected(self, sticky_200):
        with pytest.raises(InvalidParameter, match="probe is identically zero"):
            flow_ratio(sticky_200["op"], sticky_200["mu"], np.zeros(sticky_200["op"].dim), 1.0)


class TestBestNu:
    def test_probes_mean_zero_and_normalized(self, rtp_pair_100):
        split = rtp_pair_100["split"]
        mu = split.full.reference_measure
        probes = lifted_probe_family(split, rtp_pair_100["collapse"])
        ones = np.ones(split.full.dim)
        for p in probes:
            assert abs(inner_product(p, ones, mu)) < 1e-8
            assert inner_product(p, p, mu) == pytest.approx(1.0)

    def test_nu_hat_below_collapse_driven_ratio(self, rtp_pair_100):
        split, collapse = rtp_pair_100["split"], rtp_pair_100["collapse"]
        m = rtp_pair_100["m"]
        T = m**-0.5
        mu = split.full.reference_measure
        sg = Semigroup(split.full)
        probes = lifted_probe_family(split, collapse)
        report = best_nu(split.full, mu, T, probes, semigroup=sg)
        assert report.nu_hat > 0
        # the minimum over the family is no larger than any single ratio
        single = flow_ratio(split.full, mu, probes[0], T, semigroup=sg)
        assert report.nu_hat <= single + 1e-12
        assert 0 <= report.worst_probe_id < len(probes)

    def test_decay_and_pointwise_bounds(self, rtp_pair_100):
        split, collapse = rtp_pair_100["split"], rtp_pair_100["collapse"]
        m = rtp_pair_100["m"]
        T = m**-0.5
        mu = split.full.reference_measure
        sg = Semigroup(split.full)
        probes = lifted_probe_family(split, collapse)
        report = best_nu(split.full, mu, T, probes, semigroup=sg)
        worst = probes[report.worst_probe_id]
        margin = decay_check(
            split.full, mu, worst, T, report.nu_hat,
            np.linspace(0.0, 10.0 * T, 11), semigroup=sg,
        )
        assert margin >= -1e-8
        C, slack = pointwise_decay_bound(
            split.full, mu, worst, report.nu_hat, T,
            np.linspace(0.0, 20.0 * T, 21), semigroup=sg,
        )
        assert C == pytest.approx(np.exp(report.nu_hat * T))
        assert slack >= -1e-10

    def test_decay_fails_for_inflated_rate(self, sticky_200):
        # doubling the true rate must break the decay statement
        op, mu = sticky_200["op"], sticky_200["mu"]
        sd = decompose(op)
        v = sd.eigenvectors[:, 1].real
        lam = -sd.eigenvalues[1].real
        margin = decay_check(op, mu, v, 1.0, 2.5 * lam, np.linspace(0.0, 8.0, 9))
        assert margin < -1e-3


class TestBlockFlowRatios:
    # omega = 1 takes the eigen route; omega = 0.01 at 120 interior nodes
    # takes the Pade route
    @pytest.mark.parametrize("omega,n_interior,eigen_route", [(1.0, 40, True), (0.01, 120, False)])
    def test_best_nu_matches_dense_expm(self, omega, n_interior, eigen_route):
        grid = make_grid(1.0, n_interior)
        split = rtp_generator(grid, RtpParams(omega=omega, length_L=1.0))
        collapse, _ = sticky_bm_generator(grid, omega)
        op, mu = split.full, split.full.reference_measure
        T = spectral_gap(collapse) ** -0.5
        sg = Semigroup(op)
        assert sg._diagonalizable is eigen_route
        probes = lifted_probe_family(split, collapse)
        n_quad = 12
        report = best_nu(op, mu, T, probes, n_quad=n_quad, semigroup=sg)
        nodes, weights = gauss_legendre(0.0, T, n_quad)
        F = np.column_stack(probes)
        num = np.zeros(len(probes))
        den = np.zeros(len(probes))
        for t, w in zip(nodes, weights):
            P = scipy.linalg.expm(op.entries * t) @ F
            num -= w * (mu.weights @ (P * (op.entries @ P)))
            den += w * (mu.weights @ (P * P))
        ratios = num / den
        assert report.nu_hat == pytest.approx(ratios.min(), rel=1e-12)
        assert report.worst_probe_id == int(np.argmin(ratios))
        single = flow_ratio(op, mu, probes[3], T, n_quad=n_quad, semigroup=sg)
        assert single == pytest.approx(ratios[3], rel=1e-12)


class TestLiftingUpperBound:
    def test_slack_formula(self):
        ok, slack = lifting_upper_bound_check(nu=0.5, C=np.e, collapse_gap=0.5)
        assert ok
        assert slack == pytest.approx(2.0 * 1.0 - 0.5)

    def test_violated_bound_flagged(self):
        ok, slack = lifting_upper_bound_check(nu=10.0, C=1.0, collapse_gap=0.5)
        assert not ok and slack < 0

    def test_c_below_one_rejected(self):
        with pytest.raises(InvalidParameter, match="C=0.5 must be >= 1"):
            lifting_upper_bound_check(nu=0.1, C=0.5, collapse_gap=1.0)
