"""Tests for the preconditioned CG and KKT solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import ShiftedOperator, conjugate_gradient, solve_kkt, solve_spd
from repro.observability import Telemetry


def _random_spd(n: int, rng: np.random.Generator) -> sp.csr_matrix:
    """Diagonally dominant sparse SPD matrix."""
    density = 0.1
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(1 << 30))))
    A = (A + A.T) * 0.5
    A = A + sp.identity(n) * (np.abs(A).sum(axis=1).max() + 1.0)
    return A.tocsr()


class TestConjugateGradient:
    def test_identity(self):
        A = sp.identity(5, format="csr")
        b = np.arange(5.0)
        r = conjugate_gradient(A, b)
        assert r.converged
        assert np.allclose(r.x, b)

    def test_matches_direct_solve(self, rng):
        A = _random_spd(60, rng)
        b = rng.normal(size=60)
        r = conjugate_gradient(A, b, tol=1e-10)
        direct = sp.linalg.spsolve(A.tocsc(), b)
        assert r.converged
        assert np.allclose(r.x, direct, atol=1e-7)

    def test_matches_scipy_cg(self, rng):
        A = _random_spd(40, rng)
        b = rng.normal(size=40)
        ours = conjugate_gradient(A, b, tol=1e-10).x
        try:
            scipy_x, info = sp.linalg.cg(A, b, rtol=1e-10)
        except TypeError:  # older scipy uses tol=
            scipy_x, info = sp.linalg.cg(A, b, tol=1e-10)
        assert info == 0
        assert np.allclose(ours, scipy_x, atol=1e-6)

    def test_warm_start_converges_fast(self, rng):
        A = _random_spd(50, rng)
        b = rng.normal(size=50)
        x = conjugate_gradient(A, b, tol=1e-12).x
        r = conjugate_gradient(A, b, x0=x, tol=1e-10)
        assert r.iterations <= 2

    def test_zero_rhs(self):
        A = sp.identity(4, format="csr")
        r = conjugate_gradient(A, np.zeros(4))
        assert r.converged and np.allclose(r.x, 0.0)

    def test_shape_checks(self):
        A = sp.identity(4, format="csr")
        with pytest.raises(ValueError):
            conjugate_gradient(A, np.zeros(5))
        B = sp.random(3, 4, density=0.5).tocsr()
        with pytest.raises(ValueError):
            conjugate_gradient(B, np.zeros(3))

    def test_nonpositive_diagonal_rejected(self):
        A = sp.diags([0.0, 1.0, 1.0]).tocsr()
        with pytest.raises(ValueError):
            conjugate_gradient(A, np.ones(3))


class TestShiftedOperator:
    def test_matches_sparse_add(self, rng):
        A = _random_spd(40, rng)
        op = ShiftedOperator(A)
        assert op.has_full_diagonal
        for shift in (0.0, 0.5, 3.25):
            expected = (A + shift * sp.identity(40, format="csr")).toarray()
            assert np.allclose(op.shifted(shift).toarray(), expected)

    def test_buffer_reuse_overwrites_previous(self, rng):
        A = _random_spd(20, rng)
        op = ShiftedOperator(A)
        first = op.shifted(1.0)
        second = op.shifted(2.0)
        # One shared buffer: the earlier handle now shows the newer shift.
        assert first is second
        assert np.allclose(first.diagonal(), A.diagonal() + 2.0)

    def test_base_matrix_untouched(self, rng):
        A = _random_spd(25, rng)
        before = A.toarray()
        ShiftedOperator(A).shifted(7.0)
        assert np.array_equal(A.toarray(), before)

    def test_explicit_diag_positions(self, rng):
        A = _random_spd(30, rng)
        rows = np.repeat(np.arange(30), np.diff(A.indptr))
        positions = np.flatnonzero(A.indices == rows)
        op = ShiftedOperator(A, diag_positions=positions)
        expected = (A + 0.75 * sp.identity(30, format="csr")).toarray()
        assert np.allclose(op.shifted(0.75).toarray(), expected)

    def test_missing_diagonal_falls_back(self):
        # Row 1 stores no diagonal entry: the fast path cannot apply.
        A = sp.csr_matrix(
            (np.array([2.0, 1.0, 1.0, 2.0]),
             np.array([0, 1, 0, 2]),
             np.array([0, 2, 3, 4])),
            shape=(3, 3),
        )
        op = ShiftedOperator(A)
        assert not op.has_full_diagonal
        expected = (A + 1.5 * sp.identity(3, format="csr")).toarray()
        assert np.allclose(op.shifted(1.5).toarray(), expected)
        assert np.array_equal(op.diagonal(), np.diag(expected))

    def test_diagonal_is_the_shifted_matrix_diagonal(self, rng):
        A = _random_spd(40, rng)
        op = ShiftedOperator(A)
        for shift in (0.0, 0.5, 3.25):
            # Exactly the CSR scan's floats, so a solve handed this
            # diagonal is bit-identical to one that extracts it.
            shifted = op.shifted(shift)
            assert np.array_equal(op.diagonal(), shifted.diagonal())
        b = rng.standard_normal(40)
        given = conjugate_gradient(op.shifted(0.5), b, diag=op.diagonal())
        scanned = conjugate_gradient(op.shifted(0.5), b)
        assert np.array_equal(given.x, scanned.x)


class TestSolveSpd:
    def test_fallback_path(self, rng):
        A = _random_spd(30, rng)
        b = rng.normal(size=30)
        x = solve_spd(A, b, tol=1e-10, max_iter=1)  # force CG to stall
        assert np.allclose(A @ x, b, atol=1e-6)

    def test_telemetry_counters(self, rng):
        A = _random_spd(30, rng)
        b = rng.normal(size=30)
        telemetry = Telemetry()
        with telemetry.span("solve"):
            solve_spd(A, b, tol=1e-10, telemetry=telemetry)
        totals = telemetry.spans.totals()["solve"]
        assert totals["cg_solves"] == 1
        assert totals["cg_iterations"] >= 1
        assert "direct_solves" not in totals

    def test_telemetry_counts_fallback(self, rng):
        A = _random_spd(30, rng)
        b = rng.normal(size=30)
        telemetry = Telemetry()
        with telemetry.span("solve"):
            solve_spd(A, b, tol=1e-12, max_iter=1, telemetry=telemetry)
        assert telemetry.spans.totals()["solve"]["direct_solves"] == 1


class TestSolveKkt:
    def test_equality_constrained_quadratic(self):
        # min 1/2 x^T I x - [1,2,3] x  s.t.  x0 + x1 + x2 = 0
        C = sp.identity(3, format="csr")
        d = -np.array([1.0, 2.0, 3.0])
        A = sp.csr_matrix(np.ones((1, 3)))
        u = np.array([0.0])
        x = solve_kkt(C, d, A, u)
        assert x.sum() == pytest.approx(0.0, abs=1e-9)
        # Analytic solution: x = b - mean(b)
        assert np.allclose(x, np.array([1.0, 2.0, 3.0]) - 2.0)

    def test_constraint_enforced(self, rng):
        C = _random_spd(10, rng)
        d = rng.normal(size=10)
        A = sp.csr_matrix(rng.normal(size=(2, 10)))
        u = rng.normal(size=2)
        x = solve_kkt(C, d, A, u)
        assert np.allclose(A @ x, u, atol=1e-8)
