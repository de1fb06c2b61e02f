"""Package-private helpers: the direct LAPACK solves."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.linalg import cho_solve, solve_triangular

from gpexpect._numerics import chol_solve, forward_solve


class TestLapackSolves:
    """The direct LAPACK solves equal scipy.linalg's wrappers bit for bit."""

    @staticmethod
    def factors(rng):
        for n in (1, 2, 5, 17):
            A = rng.normal(size=(n, n))
            L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
            for chol in (np.ascontiguousarray(L), np.asfortranarray(L)):
                for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(n, 1))):
                    yield chol, rhs

    def test_forward_solve_matches_solve_triangular(self):
        rng = np.random.default_rng(50)
        for chol, rhs in self.factors(rng):
            expected = solve_triangular(chol, rhs, lower=True, check_finite=False)
            got = forward_solve(chol, rhs)
            assert got.shape == rhs.shape
            assert_array_equal(got, expected)

    def test_cho_solve_matches_scipy(self):
        rng = np.random.default_rng(51)
        for chol, rhs in self.factors(rng):
            expected = cho_solve((chol, True), rhs, check_finite=False)
            got = chol_solve(chol, rhs)
            assert got.shape == rhs.shape
            assert_array_equal(got, expected)

    def test_transposed_rhs_view(self):
        # the probe solves kv.T, a Fortran-ordered view of C-ordered rows
        rng = np.random.default_rng(52)
        A = rng.normal(size=(6, 6))
        L = np.linalg.cholesky(A @ A.T + 6 * np.eye(6))
        rows = rng.normal(size=(4, 6))
        assert_array_equal(chol_solve(L, rows.T), cho_solve((L, True), rows.T))
        assert_array_equal(forward_solve(L, rows.T), solve_triangular(L, rows.T, lower=True))

    def test_singular_factor_raises(self):
        L = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            forward_solve(L, np.ones(2))
