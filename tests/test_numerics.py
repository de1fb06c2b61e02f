"""Package-private helpers: the compiled scipy modules, the direct LAPACK solves,
the stacked Cholesky solves and the stacked forward substitution."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve, solve_triangular

import gpexpect
from gpexpect._numerics import (
    chol_solve,
    chol_solves,
    forward_solve,
    forward_substitute,
    load_scipy_extension,
)

# the scipy requirement pyproject.toml declares, quoted in the loader's message
SCIPY_PIN = re.search(
    r'"(scipy[^"]*)"', (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
).group(1)

# after the imports of FIRST (gpexpect, with one search, or scipy's packages)
# and then the other side's, the routines the package calls against scipy's
CONTRACT_SCRIPT = """
import importlib, json, sys
import numpy as np
{first}
import scipy.linalg, scipy.optimize
from gpexpect import _numerics

lapack = scipy.linalg.get_lapack_funcs(("trtrs", "potrs"), dtype=np.float64)
res = scipy.optimize.minimize(lambda x: float((x[0] - 1.5) ** 2), np.array([-3.0]),
                              method="L-BFGS-B", bounds=[(-4.0, 4.0)])
print(json.dumps({{
    "lapack": [_numerics._TRTRS is lapack[0], _numerics._POTRS is lapack[1]],
    "setulb": _numerics.load_scipy_extension("scipy.optimize._lbfgsb").setulb
    is importlib.import_module("scipy.optimize._lbfgsb").setulb,
    "minimize": [bool(res.success), abs(float(res.x[0]) - 1.5) < 1e-6],
}}))
"""
GPEXPECT_FIRST = """
from gpexpect.gp import Dataset, select_hyperparameters
select_hyperparameters(Dataset(X=np.linspace(-1, 1, 5)[:, None], y=np.linspace(-1, 1, 5)))
assert "scipy.linalg" not in sys.modules and "scipy.optimize" not in sys.modules
"""


class TestScipyExtensions:
    """The compiled scipy modules the package loads alone are the ones scipy's
    packages use, whichever side is imported first."""

    @pytest.mark.parametrize("first", [GPEXPECT_FIRST, "import scipy.linalg, scipy.optimize"],
                             ids=["gpexpect-first", "scipy-first"])
    def test_the_package_calls_scipys_own_routines(self, first):
        src = str(Path(gpexpect.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        result = subprocess.run(
            [sys.executable, "-c", CONTRACT_SCRIPT.format(first=first)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "lapack": [True, True], "setulb": True, "minimize": [True, True],
        }

    @pytest.mark.parametrize("name", ["scipy.linalg._no_such_module", "scipy.no_such_package._x",
                                      "scipy.version._x", "no_such_top_package.linalg._x"])
    def test_a_missing_module_is_named_with_the_pin(self, name):
        assert SCIPY_PIN.startswith("scipy>=")
        before = set(sys.modules)
        with pytest.raises(ImportError, match=re.escape(f"pyproject.toml pins {SCIPY_PIN}")) as exc:
            load_scipy_extension(name)
        assert name in str(exc.value)
        assert set(sys.modules) == before

    def test_a_module_that_raises_leaves_no_entry(self, tmp_path, monkeypatch):
        """As in Python's own import, a module whose execution raises is taken
        out of ``sys.modules`` again, so a second call executes it again."""
        package = tmp_path / "raising_top_package"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("raise AssertionError('package imported')\n")
        (package / "sub" / "_boom.py").write_text("raise RuntimeError('boom')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        name = "raising_top_package.sub._boom"
        for _ in range(2):
            with pytest.raises(RuntimeError, match="boom"):
                load_scipy_extension(name)
            assert name not in sys.modules
        assert "raising_top_package" not in sys.modules


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

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (0, 0)])
    def test_empty_factor_gives_the_empty_solution(self, shape):
        got = chol_solve(np.zeros((0, 0)), np.zeros(shape))
        assert got.shape == shape
        assert got.dtype == np.float64

    def test_singular_factor_raises(self):
        L = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            forward_solve(L, np.ones(2))

    def test_a_zero_on_the_diagonal_gives_infinities_not_an_error(self):
        # potrs reports only an illegal argument: the factor must come from a
        # successful Cholesky, and nothing on the hot path checks it
        L = np.array([[1.0, 0.0], [0.5, 0.0]])
        assert_array_equal(chol_solve(L, np.ones(2)), [-np.inf, np.inf])
        assert_array_equal(chol_solves(L[None], np.ones(2)), [[-np.inf, np.inf]])

    def test_stacked_solves_are_chol_solve_per_factor(self):
        rng = np.random.default_rng(53)
        for n in (1, 2, 5, 25):
            A = rng.normal(size=(18, n, n))
            chols = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + n * np.eye(n))
            y = rng.normal(size=n)
            got = chol_solves(chols, y)
            assert got.shape == (18, n)
            assert_array_equal(got, np.array([chol_solve(chol, y) for chol in chols]))


def reference_substitute(chols, rhs):
    """chols[i]^-1 rhs[:, i, j], one row, one factor and one term at a time on Python floats."""
    d, k, m = rhs.shape
    u = np.empty(rhs.shape)
    for j in range(m):
        for i in range(k):
            for r in range(d):
                acc = float(rhs[r, i, j])
                for c in range(r):
                    acc = acc - float(chols[i, r, c]) * float(u[c, i, j])
                u[r, i, j] = acc / float(chols[i, r, r])
    return u


class TestForwardSubstitute:
    @staticmethod
    def factor(rng, n):
        A = rng.normal(size=(n, n))
        return np.linalg.cholesky(A @ A.T + np.diag(rng.uniform(0.1, 5.0, n)))

    def test_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(54)
        for n in (1, 2, 3, 5, 17):
            L = np.stack([self.factor(rng, n) for _ in range(3)])
            rows = rng.normal(size=(n, 3, 40))
            batch = forward_substitute(L, rows)
            assert batch.shape == rows.shape
            for i in range(3):
                assert_allclose(
                    batch[:, i], solve_triangular(L[i], rows[:, i], lower=True), rtol=1e-12
                )
                alone = forward_substitute(L[i:i + 1], rows[:, i:i + 1])
                assert_array_equal(batch[:, i:i + 1], alone)
            for j in range(rows.shape[2]):
                assert_array_equal(batch[..., j:j + 1], forward_substitute(L, rows[..., j:j + 1]))

    def test_small_factors_match_one_column_trtrs(self):
        # what keeps 1-d and 2-d histories unchanged by the row-exact kernel mean
        rng = np.random.default_rng(55)
        for n in (1, 2):
            for _ in range(500):
                L = self.factor(rng, n)
                b = rng.normal(size=n) * rng.uniform(0.1, 10.0)
                u = forward_substitute(L[None], b[:, None, None])[:, 0, 0]
                assert_array_equal(u, forward_solve(L, b))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        k=st.integers(1, 10),
        d=st.integers(1, 5),
    )
    def test_stack_is_the_reference_loop_bit_for_bit(self, seed, m, k, d):
        rng = np.random.default_rng(seed)
        L = np.stack([self.factor(rng, d) for _ in range(k)])
        rhs = rng.normal(size=(d, k, m)) * rng.uniform(0.1, 10.0)
        assert_array_equal(forward_substitute(L, rhs), reference_substitute(L, rhs))
