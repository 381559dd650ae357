"""Grids, measures, operators, potentials, and RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.core import (
    Grid1D,
    OperatorMatrix,
    Potential,
    RngStream,
    WeightedMeasure,
    inner_product,
    make_grid,
    quadratic_potential,
)
from liftlab.errors import InvalidParameter


class TestGrid:
    def test_node_count_and_spacing(self):
        g = make_grid(2.0, 9)
        assert g.n_nodes == 11
        assert g.h == pytest.approx(0.2)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.allclose(np.diff(g.nodes), g.h)

    def test_nonpositive_length(self):
        with pytest.raises(InvalidParameter, match="length_L=0.0 must be > 0"):
            make_grid(0.0, 10)
        with pytest.raises(InvalidParameter, match="length_L=-1.0 must be > 0"):
            make_grid(-1.0, 10)

    def test_too_few_nodes(self):
        with pytest.raises(InvalidParameter, match="n_interior=1 must be >= 2"):
            make_grid(1.0, 1)

    def test_nodes_immutable(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestWeightedMeasure:
    def _mu(self, probability=False):
        atoms = np.array([0.25, 0.0, 0.0, 0.25])
        dens = np.array([0.0, 0.25, 0.25, 0.0])
        return WeightedMeasure(range(4), atoms, dens, probability=probability)

    def test_weights_and_mass(self):
        mu = self._mu(probability=True)
        assert mu.total_mass == pytest.approx(1.0)
        assert np.allclose(mu.weights, 0.25)

    def test_mean_is_weighted_average(self):
        mu = self._mu()
        f = np.array([1.0, 2.0, 3.0, 4.0])
        assert mu.mean(f) == pytest.approx(2.5)

    def test_probability_validation(self):
        with pytest.raises(InvalidParameter):
            WeightedMeasure(range(2), [0.5, 0.0], [0.0, 0.1], probability=True)

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidParameter):
            WeightedMeasure(range(2), [-0.5, 0.5], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameter, match="must have equal length"):
            WeightedMeasure(range(3), [0.5, 0.5], [0.0, 0.0])


class TestInnerProduct:
    def test_dimension_mismatch(self):
        mu = WeightedMeasure(range(3), np.zeros(3), np.ones(3) / 3, probability=True)
        with pytest.raises(InvalidParameter, match="incompatible with measure dim 3"):
            inner_product(np.ones(2), np.ones(3), mu)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        w = rng.random(n) + 0.1
        mu = WeightedMeasure(range(n), np.zeros(n), w)
        f, g, h = rng.normal(size=(3, n))
        a = float(rng.normal())
        assert inner_product(f, g, mu) == pytest.approx(inner_product(g, f, mu))
        assert inner_product(a * f + h, g, mu) == pytest.approx(
            a * inner_product(f, g, mu) + inner_product(h, g, mu)
        )
        assert inner_product(f, f, mu) >= 0.0


class TestOperatorMatrix:
    def _mu(self, n):
        return WeightedMeasure(range(n), np.zeros(n), np.ones(n) / n, probability=True)

    def test_generator_negative_offdiagonal_rejected(self):
        A = np.array([[1.0, -1.0], [2.0, -2.0]])
        with pytest.raises(InvalidParameter):
            OperatorMatrix(A, self._mu(2), is_generator=True)

    def test_generator_row_sum_rejected(self):
        A = np.array([[-1.0, 0.5], [2.0, -2.0]])
        with pytest.raises(InvalidParameter):
            OperatorMatrix(A, self._mu(2), is_generator=True)

    def test_valid_generator_kills_constants(self):
        A = np.array([[-1.0, 1.0], [2.0, -2.0]])
        op = OperatorMatrix(A, self._mu(2), is_generator=True)
        assert np.allclose(op.apply(np.ones(2)), 0.0)

    def test_dim_mismatch_with_measure(self):
        with pytest.raises(InvalidParameter, match="operator dim 3 != measure dim 2"):
            OperatorMatrix(np.zeros((3, 3)), self._mu(2))


class TestPotential:
    def test_quadratic_fields(self):
        U = quadratic_potential([2.0, 0.5])
        assert U.dim == 2
        assert U.hess_L == pytest.approx(2.0)
        assert U.curvature_lower == 0.0
        a, b = U.lyapunov_pair
        assert a == 0.0 and b == pytest.approx(2.5)
        x = np.array([1.0, 2.0])
        assert U.value(x) == pytest.approx(2.0)
        assert np.allclose(U.gradient(x), [2.0, 1.0])

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(InvalidParameter):
            quadratic_potential([1.0, 0.0])

    def test_inconsistent_gradient_rejected(self):
        with pytest.raises(InvalidParameter):
            Potential(
                dim=1,
                value=lambda x: float(x[0] ** 2),
                gradient=lambda x: np.asarray(x),  # off by factor 2
            )

    def test_lyapunov_pair_validated(self):
        with pytest.raises(InvalidParameter):
            Potential(
                dim=1,
                value=lambda x: float(x[0] ** 2 / 2),
                gradient=lambda x: np.asarray(x, dtype=float),
                lyapunov_pair=(1.5, 1.0),
            )


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7).gaussian(size=10)
        b = RngStream(7).gaussian(size=10)
        assert np.array_equal(a, b)

    def test_split_streams_independent_and_reproducible(self):
        kids = RngStream(11).split(3)
        vals = [k.uniform(size=5) for k in kids]
        assert not np.array_equal(vals[0], vals[1])
        again = [k.uniform(size=5) for k in RngStream(11).split(3)]
        for v, w in zip(vals, again):
            assert np.array_equal(v, w)

    def test_exponential_rate_validated(self):
        with pytest.raises(InvalidParameter):
            RngStream(0).exponential(0.0)

    def test_exponential_mean(self):
        x = RngStream(3).exponential(4.0, size=200_000)
        assert np.mean(x) == pytest.approx(0.25, rel=0.02)

    def test_gaussian_sd_validated(self):
        with pytest.raises(InvalidParameter):
            RngStream(0).gaussian(sd=0.0)
