"""Eigendecomposition, spectral gaps, and semigroup propagation."""

import numpy as np
import pytest
import scipy.linalg

from liftlab.core import OperatorMatrix, WeightedMeasure, make_grid
from liftlab.errors import InvalidParameter
from liftlab.generators import RtpParams, rtp_generator
from liftlab.spectral import (
    Semigroup,
    decompose,
    dirichlet_form,
    is_self_adjoint,
    poincare_constant,
    spectral_gap,
)


def _uniform_mu(n):
    return WeightedMeasure(range(n), np.zeros(n), np.ones(n) / n, probability=True)


def _ring_generator(n=8, rate=1.0):
    """Symmetric random walk on a ring: self-adjoint for the uniform measure."""
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[i, (i - 1) % n] = rate
        A[i, i] = -2.0 * rate
    return OperatorMatrix(A, _uniform_mu(n), is_generator=True)


def _drift_generator(n=6):
    """One-way ring: not self-adjoint, complex spectrum."""
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0
        A[i, i] = -1.0
    return OperatorMatrix(A, _uniform_mu(n), is_generator=True)


def _jordan_operator():
    """Defective 3x3 matrix (Jordan block); exercises the expm fallback."""
    A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    return OperatorMatrix(A, _uniform_mu(3))


class TestDecompose:
    def test_ring_spectrum_matches_closed_form(self):
        n = 8
        sd = decompose(_ring_generator(n))
        assert sd.is_self_adjoint
        expected = np.sort([-2.0 + 2.0 * np.cos(2 * np.pi * k / n) for k in range(n)])
        assert np.allclose(np.sort(sd.eigenvalues.real), expected, atol=1e-10)

    def test_eigenvectors_orthonormal_in_measure(self):
        op = _ring_generator(7)
        sd = decompose(op)
        V = sd.eigenvectors.real
        G = V.T @ (op.reference_measure.weights[:, None] * V)
        assert np.abs(G - np.eye(7)).max() < 1e-9

    def test_nonreversible_detected(self):
        sd = decompose(_drift_generator())
        assert not sd.is_self_adjoint
        assert np.abs(sd.eigenvalues.imag).max() > 0.1

    def test_generator_leading_eigenvalue_zero(self):
        sd = decompose(_ring_generator())
        assert abs(sd.eigenvalues[0]) < 1e-12

    def test_spectral_gap_and_poincare(self):
        op = _ring_generator(8)
        gap = spectral_gap(op)
        assert gap == pytest.approx(2.0 - 2.0 * np.cos(2 * np.pi / 8), rel=1e-10)
        assert poincare_constant(op) == pytest.approx(1.0 / gap)

    def test_is_self_adjoint(self):
        assert is_self_adjoint(_ring_generator())
        assert not is_self_adjoint(_drift_generator())

    @pytest.mark.parametrize("make", [_ring_generator, _drift_generator])
    def test_cached_once_per_operator_and_read_only(self, make):
        op = make()
        sd = decompose(op)
        assert decompose(op) is sd
        assert spectral_gap(op) == sd.gap
        for arr in (sd.eigenvalues, sd.eigenvectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestSemigroup:
    def test_identity_at_zero(self):
        sg = Semigroup(_ring_generator())
        f = np.arange(8.0)
        assert np.array_equal(sg.apply(f, 0.0), f)

    def test_matches_expm(self):
        op = _drift_generator()
        sg = Semigroup(op)
        f = np.sin(np.arange(6.0))
        for t in (0.3, 1.7):
            ref = scipy.linalg.expm(op.entries * t) @ f
            assert np.abs(sg.apply(f, t) - ref).max() < 1e-9

    def test_semigroup_property(self):
        sg = Semigroup(_ring_generator())
        f = np.cos(np.arange(8.0))
        ab = sg.apply(sg.apply(f, 0.4), 0.9)
        assert np.abs(sg.apply(f, 1.3) - ab).max() < 1e-9

    def test_apply_many_consistent(self):
        sg = Semigroup(_ring_generator())
        f = np.sin(np.arange(8.0))
        ts = np.array([0.8, 0.1, 0.0, 2.5])
        batch = sg.apply_many(f, ts)
        for row, t in zip(batch, ts):
            assert np.abs(row - sg.apply(f, t)).max() < 1e-9

    def test_defective_fallback_matches_expm(self):
        op = _jordan_operator()
        sg = Semigroup(op)
        f = np.array([1.0, -2.0, 3.0])
        ts = np.array([1.5, 0.2, 0.2, 0.7])  # unsorted, with a repeat
        batch = sg.apply_many(f, ts)
        for row, t in zip(batch, ts):
            ref = scipy.linalg.expm(op.entries * t) @ f
            assert np.abs(row - ref).max() < 1e-9
        # repeated time grids hit the per-increment propagator cache
        assert len(sg._step_cache) > 0
        again = sg.apply_many(f, ts)
        assert np.array_equal(batch, again)

    def test_negative_time_rejected(self):
        sg = Semigroup(_ring_generator())
        with pytest.raises(InvalidParameter, match="negative time t=-1.0"):
            sg.apply(np.ones(8), -1.0)

    def test_overflow_guard(self):
        sg = Semigroup(_ring_generator())
        with pytest.raises(InvalidParameter, match="exceeds 1e6"):
            sg.apply(np.ones(8), 1e9)

    def test_dimension_mismatch(self):
        sg = Semigroup(_ring_generator())
        with pytest.raises(InvalidParameter, match="vector of length 5, dim 8"):
            sg.apply(np.ones(5), 1.0)


def _rtp_full(omega, n_interior):
    grid = make_grid(1.0, n_interior)
    return rtp_generator(grid, RtpParams(omega=omega, length_L=1.0)).full


# omega = 1 takes the eigen route; omega = 0.01 at 120 interior nodes fails
# the eigen-route validation and takes the Pade route
ROUTES = [(1.0, 40, True), (0.01, 120, False)]


class TestBlockPropagation:
    @pytest.mark.parametrize("omega,n_interior,eigen_route", ROUTES)
    def test_block_equals_columns(self, omega, n_interior, eigen_route):
        op = _rtp_full(omega, n_interior)
        sg = Semigroup(op)
        assert sg._diagonalizable is eigen_route
        rng = np.random.default_rng(3)
        F = rng.normal(size=(op.dim, 5))
        # t > 0: at t = 0 no mode is damped, and the eigen route's rounding
        # is amplified by the condition number of V (~5e3 here)
        ts = np.array([0.7, 0.05, 0.3, 2.0, 0.7])
        block = sg.apply_many(F, ts)
        assert block.shape == (ts.size, op.dim, 5)
        cols = np.stack([sg.apply_many(F[:, j], ts) for j in range(5)], axis=-1)
        assert np.abs(block - cols).max() <= 1e-13 * np.abs(cols).max()

    def test_eigen_route_pinned_where_validation_is_skipped(self):
        # at omega = 50 the zero eigenvalue's rounding noise exceeds the
        # 1e-12 cutoff of the validation, which then runs at times beyond
        # 1e6 / ||L|| and is skipped; pin the route against expm directly
        op = _rtp_full(50.0, 200)
        sg = Semigroup(op)
        assert sg._diagonalizable
        gap = decompose(op).gap
        f = np.random.default_rng(4).normal(size=op.dim)
        for t in (0.1 / gap, 2.0 / gap):
            ref = scipy.linalg.expm(op.entries * t) @ f
            assert np.abs(sg.apply(f, t) - ref).max() <= 1e-9 * np.abs(ref).max()


class TestDirichletForm:
    def test_nonnegative_for_reversible(self):
        op = _ring_generator()
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.normal(size=8)
            assert dirichlet_form(op, f, f) >= -1e-12

    def test_constants_have_zero_energy(self):
        assert dirichlet_form(_ring_generator(), np.ones(8), np.ones(8)) == pytest.approx(0.0)

    def test_matches_eigenvalue_on_eigenvector(self):
        op = _ring_generator()
        sd = decompose(op)
        v = sd.eigenvectors[:, 1].real
        lam = -sd.eigenvalues[1].real
        num = dirichlet_form(op, v, v)
        den = np.sum(v * v * op.reference_measure.weights)
        assert num / den == pytest.approx(lam, rel=1e-10)
