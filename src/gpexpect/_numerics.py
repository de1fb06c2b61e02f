"""Package-private helpers: point-shape, count and noise checks, row dots and the linear solves.

Two solves make scipy.linalg's exact LAPACK calls for a lower factor, so they
equal ``solve_triangular`` and ``cho_solve`` bit for bit, without the per-call
validation and batching that dominate the cost of a probe's small systems.
They call ``dtrtrs`` and ``dpotrs`` of the compiled ``scipy.linalg._flapack``,
the very objects ``get_lapack_funcs`` returns.  :func:`load_scipy_extension`
loads that module, and ``scipy.optimize._lbfgsb`` for the hyperparameter
search, by file, without running any scipy package ``__init__``, the
top-level ``scipy`` included, which cost most of a cold start.  No call
of the package executes scipy Python code.  :func:`chol_solves` makes
:func:`chol_solve`'s call once per factor of a stack, against one
right-hand side, in one loop with one transposed copy of the stack.
:func:`forward_substitute` is the triangular solve whose right-hand sides
do not depend on each other, for results that must not depend on the
batch: it solves a stack of factors against a stack of rows in one pass,
with the rows innermost, so each of its elementwise passes is contiguous.
Where bits must not depend on the batch, a sum is written as explicit
adds in a fixed order, never as an axis reduction: numpy sums a trailing
axis of 8 or more terms pairwise.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

# the scipy requirement of pyproject.toml, named when a compiled module is missing
_SCIPY_PIN = "scipy>=1.17"


def load_scipy_extension(name: str):
    """The compiled scipy module ``name``, such as ``"scipy.linalg._flapack"``.

    A module already in ``sys.modules`` is returned as it is.  Otherwise
    the file is found by path and no package is imported, not even the
    top-level ``scipy``: the top-level lookup gives scipy's directory and
    the dotted middle of ``name`` the subdirectory.  The module is then
    executed and registered in ``sys.modules``.  So a ``scipy.linalg`` or
    ``scipy.optimize`` imported later takes this very module; but the
    package then has no attribute for it, so reach it through
    ``importlib.import_module(name)``, not ``scipy.optimize._lbfgsb``.
    Raises ``ImportError`` naming ``name`` and the scipy pin if the
    top-level package, the subdirectory or the module is not there.  If
    executing the module raises, ``name`` leaves ``sys.modules`` again,
    as in Python's own import, and the error propagates.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    top, *middle, _ = name.split(".")
    root = importlib.util.find_spec(top)
    spec = None
    if root is not None and root.submodule_search_locations:
        directory = os.path.join(root.submodule_search_locations[0], *middle)
        spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(
            f"no compiled module {name}; gpexpect loads it directly and pyproject.toml "
            f"pins {_SCIPY_PIN}",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


_flapack = load_scipy_extension("scipy.linalg._flapack")
_TRTRS, _POTRS = _flapack.dtrtrs, _flapack.dpotrs


def require_count(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer: a ``numbers.Integral``, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_fixed_noise(value) -> None:
    """Raise ``ValueError`` unless ``value`` is None or a finite noise variance ``>= 0``."""
    if value is not None and not (np.isfinite(value) and value >= 0):
        raise ValueError(f"fixed_noise must be finite and >= 0, got {value}")


def as_point(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float vector of length ``dim``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"{name} has dimension {x.shape}, expected ({dim},)")
    return x


def as_points(X, dim: int, name: str = "X") -> np.ndarray:
    """``X`` as an ``(n, dim)`` float array; a vector is n points in 1-d, else one point."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return X.reshape(0, dim)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"{name} has shape {X.shape}, expected (n, {dim})")
    return X


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ b per last-axis row of A (B: matching rows or one vector), one BLAS dot each.

    On contiguous rows this is the ``dot`` of ``np.dot(a, b)`` and
    ``np.linalg.norm(a) ** 2``, so each row reads the same in any batch.
    """
    return (A[..., None, :] @ B[..., None])[..., 0, 0]


def sum_in_order(terms) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` over the leading axis (or an iterable), added left to right.

    Each entry takes the adds of a loop over its own terms, whatever the
    other entries are; an axis reduction would add 8 or more terms pairwise.
    A vector of scalars is added by ``np.add.accumulate``, which also adds
    left to right, in one pass (of two NaN terms it may keep the other's
    payload); on more dimensions it is slower than the loop.
    """
    if isinstance(terms, np.ndarray) and terms.ndim == 1:
        return np.add.accumulate(terms)[-1]
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def forward_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chol^-1 rhs for a lower-triangular ``chol``, as solve_triangular(lower=True)."""
    if chol.flags.f_contiguous:
        x, info = _TRTRS(chol, rhs, lower=1)
    else:
        # trtrs expects Fortran order: solve the transposed upper system
        x, info = _TRTRS(chol.T, rhs, lower=0, trans=1)
    if info:
        raise LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return x


def forward_substitute(chols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chols[i]^-1 rhs[:, i, j] for lower-triangular factors (k, d, d) and rows (d, k, m).

    The layout is dimension-major with the rows innermost: ``rhs[r]`` is
    coordinate ``r`` of every (factor, row) pair.
    ``u[r] = (rhs[r] - chol[r, 0] u[0] - ... - chol[r, r-1] u[r-1]) / chol[r, r]``,
    subtracting term by term on whole contiguous (k, m) arrays, so each row
    is solved with the same operations whatever the other rows and factors
    are.  A multi-column ``trtrs`` does not promise that.  For a factor of
    size 1 or 2 this equals the single-column :func:`forward_solve` bit for
    bit on OpenBLAS 0.3.31 (x86-64); larger factors may differ in the last bits.
    """
    # entries (r, c) of every factor as (k, 1) columns against the rows
    factor_entries = chols.transpose(1, 2, 0)[..., None]
    u = np.empty_like(rhs)
    for r in range(chols.shape[-1]):
        acc = rhs[r]
        for c in range(r):
            acc = acc - factor_entries[r, c] * u[c]
        np.divide(acc, factor_entries[r, r], out=u[r])
    return u


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 rhs for a lower Cholesky factor ``chol``, as cho_solve((chol, True)).

    ``chol`` must come from a successful Cholesky: ``potrs`` reports only
    an illegal argument, so a zero on the diagonal gives infinities
    without an error.  A 0x0 factor (no data) gives the empty solution of
    the empty system.
    """
    if chol.shape[0] == 0:
        return np.zeros(rhs.shape)
    x, info = _POTRS(chol, rhs, 1)  # lower=1, positional: a keyword costs the wrapper more
    if info:
        raise LinAlgError(f"LAPACK rejected an argument of the Cholesky solve (info {info})")
    return x


def chol_solves(chols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chols[i] chols[i]^T)^-1 rhs per lower factor of the stack ``chols`` (k, n, n).

    Row ``i`` of the (k, n) result is ``chol_solve(chols[i], rhs)`` for a
    vector ``rhs`` (n,), bit for bit, from one ``potrs`` call per factor.
    ``potrs`` reads Fortran order, so one transposed copy of the stack
    makes each factor an F-contiguous view that LAPACK takes without a
    copy per factor.  Each factor must come from a successful Cholesky,
    as for :func:`chol_solve`: a zero on a diagonal gives infinities
    without an error.
    """
    out = np.empty(chols.shape[:2])
    for i, upper in enumerate(chols.transpose(0, 2, 1).copy()):
        out[i], info = _POTRS(upper.T, rhs, 1)  # lower=1
        if info:
            raise LinAlgError(f"LAPACK rejected an argument of the Cholesky solve (info {info})")
    return out
