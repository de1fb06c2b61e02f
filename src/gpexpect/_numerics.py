"""Package-private helpers: point-shape and count checks, row dots and the linear solves.

Two solves of a lower factor give the bits of scipy.linalg's
``solve_triangular`` and ``cho_solve`` (the latter on the BLAS named
below), without the per-call validation and batching
that dominate the cost of a probe's small systems.  They call ``dtrtrs``
and ``dpotrs`` of the compiled ``scipy.linalg._flapack``, the very objects
``get_lapack_funcs`` returns.  :func:`load_scipy_extension` loads that
module, and ``scipy.optimize._lbfgsb`` for the hyperparameter search, by
file, without running any scipy package ``__init__``, the top-level
``scipy`` included, which cost most of a cold start.  No call of the
package executes scipy Python code.  LAPACK reads Fortran order, and a
C-ordered lower factor, as ``np.linalg.cholesky`` returns it, is the
F-ordered upper factor of the same system: each Cholesky solve hands
LAPACK that transposed view, so none copies a C-ordered factor.
``cho_solve`` makes the lower-factor call; the upper view reads its bits
on OpenBLAS 0.3.31 (x86-64), a measured property of that library's
triangular kernels, not a promise of LAPACK.  :func:`chol_solve_in_place`
solves over its right-hand side, and :func:`chol_solves` solves a stack
of factors against one right-hand side in one block filled with it, each
row in place.
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


def require_count(value, name: str, minimum: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool) of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def as_point(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float vector of length ``dim``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"{name} has dimension {x.shape}, expected ({dim},)")
    return x


def as_points(X, dim: int, name: str = "X") -> np.ndarray:
    """``X`` as an ``(n, dim)`` float array; a vector is n points in 1-d, else one point.

    An empty vector is no points; an empty array of another shape must
    already be ``(0, dim)``.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0 and X.ndim == 1:
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


def _potrs_error(info: int) -> LinAlgError:
    return LinAlgError(f"LAPACK rejected an argument of the Cholesky solve (info {info})")


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 rhs for a lower Cholesky factor ``chol``, as cho_solve((chol, True)).

    ``chol`` goes to ``potrs`` as the F-ordered upper factor its
    C-ordered form's transpose is; a factor in another layout is copied
    to C order first.  On OpenBLAS 0.3.31 (x86-64) this reads the bits of
    ``cho_solve``'s lower-factor call, for a vector or a many-column
    ``rhs``.  ``chol`` must come from a successful Cholesky: ``potrs``
    reports only an illegal argument, so a zero on the diagonal gives
    infinities without an error.  A 0x0 factor (no data) gives the empty
    solution of the empty system.
    """
    if chol.shape[0] == 0:
        return np.zeros(rhs.shape)
    # lower=0, positional: a keyword costs the wrapper more.  Not a call of
    # chol_solve_in_place: its copy of rhs costs more than a factor copy
    x, info = _POTRS(np.ascontiguousarray(chol).T, rhs, 0)
    if info:
        raise _potrs_error(info)
    return x


def chol_solve_in_place(chol: np.ndarray, rhs: np.ndarray) -> None:
    """Overwrite ``rhs`` with :func:`chol_solve` ``(chol, rhs)``, bit for bit.

    The factor goes to ``potrs`` as in :func:`chol_solve`.  ``rhs`` must
    be an F-contiguous float array, which ``potrs`` takes as it is and
    solves in place; any other array would be copied and the solution
    lost, so it raises ``ValueError``.
    """
    if not (rhs.flags.f_contiguous and rhs.dtype == np.float64):
        raise ValueError("an in-place Cholesky solve needs an F-contiguous float64 array")
    if chol.shape[0] == 0:
        return
    # lower=0, overwrite_b=1, positional: a keyword costs the wrapper more
    info = _POTRS(np.ascontiguousarray(chol).T, rhs, 0, 1)[1]
    if info:
        raise _potrs_error(info)


def chol_solves(chols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chols[i] chols[i]^T)^-1 rhs per lower factor of the stack ``chols`` (k, n, n).

    Row ``i`` of the (k, n) result is ``chol_solve(chols[i], rhs)`` for a
    vector ``rhs`` (n,), bit for bit, and so, on OpenBLAS 0.3.31 (x86-64),
    ``cho_solve``'s.  The result is one block filled with ``rhs``, and
    each row is solved over itself by one ``potrs`` call, with the factor
    as its F-ordered upper view; a stack that is not C-ordered is copied
    to C order first.  A stack of 0x0 factors gives
    the (k, 0) block.  Each factor must come from a successful Cholesky,
    as for :func:`chol_solve`: a zero on a diagonal gives infinities
    without an error.
    """
    out = np.empty(chols.shape[:2])
    out[...] = rhs
    if chols.shape[1] == 0:
        return out
    for chol, row in zip(np.ascontiguousarray(chols), out):
        info = _POTRS(chol.T, row, 0, 1)[1]  # lower=0, overwrite_b=1
        if info:
            raise _potrs_error(info)
    return out
