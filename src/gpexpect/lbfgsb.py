"""A lockstep driver for scipy's L-BFGS-B routine ``setulb``, over many starts at once.

:func:`lbfgsb_lockstep` minimizes from several starts over one box.  Each
start drives its own state of scipy's reverse-communication routine
``setulb`` (:class:`LbfgsbStart`) and gets the answers
``minimize(method="L-BFGS-B")`` would give it, and each round asks the
caller for every running start's requested point in one call, so the
caller can score them all in one stacked probe.  A start asked again for
one of its own earlier points answers from its record of them and asks
for nothing.  ``setulb`` is read at each call from the compiled
``scipy.optimize._lbfgsb`` alone, loaded by file at the first call; no
call loads the ``scipy.optimize`` package or even the top-level
``scipy``.  The hyperparameter search of :mod:`gpexpect.gp` imports this
module at its first search, so a run with a fixed kernel never compiles it.
"""

from __future__ import annotations

import numpy as np

from gpexpect._numerics import load_scipy_extension

# minimize(method="L-BFGS-B")'s defaults past the two caps: memory, factr
# (ftol / eps), projected-gradient tolerance and line-search steps
_MEMORY = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
# setulb's task codes: a request for f and g at x, and a new iterate
_TASK_FG = 3
_TASK_NEW_X = 1


class LbfgsbStart:
    """One start's ``setulb`` state: iterate, work arrays, counters and evaluations.

    ``setulb`` is the routine itself, handed over by :func:`lbfgsb_lockstep`.
    ``record`` maps the bytes of each point the start has had evaluated to
    its ``(f, g)``; ``evaluated`` is the last of them, with its point as a
    list, which compares as ``np.array_equal`` does.
    """

    def __init__(self, setulb, x: np.ndarray):
        m, p = _MEMORY, x.size
        self.setulb = setulb
        self.x = x
        self.nbd = np.full(p, 2, dtype=np.int32)  # both bounds finite
        self.f = np.array(0.0)
        self.g = np.zeros(p)
        self.wa = np.zeros(2 * m * p + 5 * p + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * p, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.iterations = 0
        self.evaluations = 0
        self.evaluated = None
        self.record = {}

    def answer(self, f: float, g: np.ndarray):
        """Take ``f, g`` evaluated at ``x``, the start point or the point ``setulb`` asked for."""
        self.evaluated = (self.x.tolist(), f, g)
        self.record[self.x.tobytes()] = (f, g)
        self.evaluations += 1
        if self.task[0] == _TASK_FG:
            self.f, self.g = f, g

    def advance(self, lo, hi, max_iterations: int, max_evaluations: int) -> bool:
        """Step ``setulb`` until it asks for ``f, g`` at a new point (True) or stops (False).

        A request for the last evaluated point is answered from that
        evaluation without counting it, as scipy's ``ScalarFunction``
        does.  A request for an earlier point of the start, the same
        bytes, is answered from ``record`` and counted, as scipy would
        evaluate it again; the objective gives a point the same bits
        every time.  At each new iterate the start stops once it has made
        ``max_iterations`` iterations or more than ``max_evaluations``
        evaluations.
        """
        while True:
            # a fresh copy per call, as scipy passes it, so the stored
            # evaluation stays as it was returned
            self.g = self.g.astype(np.float64)
            self.setulb(
                _MEMORY, self.x, lo, hi, self.nbd, self.f, self.g, _FACTR,
                _PGTOL, self.wa, self.iwa, self.task, self.lsave, self.isave,
                self.dsave, _MAXLS, self.ln_task,
            )
            if self.task[0] == _TASK_FG:
                if self.x.tolist() == self.evaluated[0]:
                    self.f, self.g = self.evaluated[1:]
                    continue
                known = self.record.get(self.x.tobytes())
                if known is None:
                    return True
                self.answer(*known)
            elif self.task[0] == _TASK_NEW_X:
                self.iterations += 1
                if self.iterations >= max_iterations:
                    self.task[:] = 5, 504  # STOP: iteration limit
                elif self.evaluations > max_evaluations:
                    self.task[:] = 5, 502  # STOP: evaluation limit
            else:
                return False


def lbfgsb_lockstep(fun_and_grad, x0, lo, hi, max_iterations: int, max_evaluations: int):
    """Minimize from each row of ``x0`` over the box ``[lo, hi]``, all starts in lockstep.

    Each start gets the answers of scipy 1.17's
    ``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...)`` with
    ``maxiter=max_iterations`` and ``maxfun=max_evaluations``: its start
    is clipped into the box and evaluated once, and then it follows
    ``_minimize_lbfgsb``'s loop over ``setulb`` with minimize's defaults.
    Each round advances every running start to its next request for a
    point it has not had evaluated, and answers all of them with one call
    ``fun_and_grad(owners, X)``, which returns the values ``(k,)`` and
    gradients ``(k, p)`` at the rows of ``X``; row ``j`` was requested by
    start ``owners[j]``.  ``fun_and_grad`` must give a point the same bits
    in any round: a start asked again for one of its earlier points answers
    from its own record (:meth:`LbfgsbStart.advance`), so its
    ``setulb`` states, evaluations and iterations are scipy's.

    Returns each start's final ``(x, evaluations, iterations)``.
    """
    # the routine scipy.optimize._lbfgsb_py._minimize_lbfgsb loops over
    # (scipy >= 1.15), read at each call so that a patched setulb is the
    # one driven
    setulb = load_scipy_extension("scipy.optimize._lbfgsb").setulb

    starts = [LbfgsbStart(setulb, x) for x in np.clip(np.asarray(x0, dtype=float), lo, hi)]
    pending = list(range(len(starts)))
    while pending:
        values, grads = fun_and_grad(np.array(pending), np.array([starts[i].x for i in pending]))
        for i, value, grad in zip(pending, values.tolist(), grads):
            starts[i].answer(value, grad)
        pending = [
            i for i in pending if starts[i].advance(lo, hi, max_iterations, max_evaluations)
        ]
    return [(s.x, s.evaluations, s.iterations) for s in starts]
