"""The lockstep L-BFGS-B driver against scipy's ``minimize``, and the ``setulb`` contract."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der

from gpexpect import lbfgsb
from gpexpect.lbfgsb import LbfgsbStart, lbfgsb_lockstep


def _rosen_rows(owners, X, grad=rosen_der):
    """Rosenbrock values and gradients per row, each row computed on its own."""
    return np.array([rosen(x) for x in X]), np.array([grad(x) for x in X])


def _shifted_rosen_der(x):
    """A gradient that disagrees with ``rosen``'s values, so that line searches
    fail and ask again for points they have already had evaluated."""
    return rosen_der(x) + 1.0


class TestLbfgsbLockstep:
    """The lockstep driver gives ``setulb`` the answers of scipy's
    ``minimize(jac=True, method="L-BFGS-B")``, scoring each point of a start once."""

    LO = np.array([-2.0, -1.5, -1.0])
    HI = np.array([2.0, 1.5, 3.0])
    STARTS = np.array([
        [-1.2, 1.0, 0.5],   # interior
        [2.0, -1.5, 0.0],   # on bounds
        [0.3, 0.2, 0.1],
        [-2.0, 1.5, 3.0],   # on the opposite bounds
    ])

    def check(self, grad, max_iterations, max_evaluations):
        """Run the driver and then ``minimize`` from each start, on ``rosen`` and
        ``grad``; returns the messages, scipy's evaluated points and the driver's.

        Every ``f, g`` handed to ``setulb``, the final ``x`` and the counts
        must be scipy's, and the driver must score scipy's points in order,
        less each later repeat of an earlier point of the same start.
        """
        handed = {}  # per setulb state (its wa array), the f and g of each call
        # through sys.modules: if gpexpect loaded the module first, the
        # scipy.optimize package has no _lbfgsb attribute
        scipy_lbfgsb = importlib.import_module("scipy.optimize._lbfgsb")
        setulb = scipy_lbfgsb.setulb

        def logged_setulb(*args):
            f, g, wa = args[5], args[6], args[9]
            handed.setdefault(id(wa), []).append(
                (float(f).hex(), [v.hex() for v in g.tolist()])
            )
            return setulb(*args)

        lockstep = [[] for _ in self.STARTS]

        def logged(owners, X):
            for i, x in zip(owners, X):
                lockstep[i].append([v.hex() for v in x])
            return _rosen_rows(owners, X, grad)

        messages, scipy_points = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy_lbfgsb, "setulb", logged_setulb)
            got = lbfgsb_lockstep(
                logged, self.STARTS, self.LO, self.HI, max_iterations, max_evaluations
            )
            # each start's first setulb call comes in start order
            driver_handed = list(handed.values())
            assert len(driver_handed) == len(self.STARTS)
            for i, x0 in enumerate(self.STARTS):
                points = []

                def fun(x):
                    points.append([v.hex() for v in x])
                    return rosen(x), grad(x)

                handed.clear()
                res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                               bounds=list(zip(self.LO, self.HI)),
                               options={"maxiter": max_iterations, "maxfun": max_evaluations})
                assert list(handed.values()) == [driver_handed[i]]
                first_visits = []
                for point in points:
                    if point not in first_visits:
                        first_visits.append(point)
                x, evaluations, iterations = got[i]
                assert lockstep[i] == first_visits
                assert [v.hex() for v in x] == [v.hex() for v in res.x]
                assert (evaluations, iterations) == (res.nfev, res.nit)
                messages.append(res.message)
                scipy_points.append(points)
        return messages, scipy_points, lockstep

    @pytest.mark.parametrize(
        "max_iterations, max_evaluations, stop",
        [(200, 1000, "CONVERGENCE"), (5, 1000, "ITERATIONS REACHED LIMIT"),
         (200, 7, "EVALUATIONS EXCEEDS LIMIT")],
    )
    def test_matches_minimize(self, max_iterations, max_evaluations, stop):
        messages, _, lockstep = self.check(rosen_der, max_iterations, max_evaluations)
        assert any(stop in m for m in messages)
        if stop == "CONVERGENCE":
            # starts finish in different rounds
            assert len({len(points) for points in lockstep}) > 1

    def test_revisited_points_are_answered_from_the_record(self):
        """Where scipy evaluates an earlier point of a start again, the driver
        answers it from that start's record, counts it, and scores it once."""
        _, scipy_points, lockstep = self.check(_shifted_rosen_der, 200, 1000)
        repeats = [len(points) - len(rows) for points, rows in zip(scipy_points, lockstep)]
        assert all(r > 0 for r in repeats)

    def test_start_outside_the_box_is_clipped(self):
        x0 = np.array([[3.0, -4.0, 0.0]])
        (x, evaluations, iterations), = lbfgsb_lockstep(
            _rosen_rows, x0, self.LO, self.HI, 200, 1000
        )
        res = minimize(lambda z: (rosen(z), rosen_der(z)), x0[0], jac=True,
                       method="L-BFGS-B", bounds=list(zip(self.LO, self.HI)))
        assert [v.hex() for v in x] == [v.hex() for v in res.x]
        assert (evaluations, iterations) == (res.nfev, res.nit)


# the scipy requirement pyproject.toml declares, quoted in the contract message
SCIPY_PIN = re.search(
    r'"(scipy[^"]*)"', (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
).group(1)


def _setulb_on_a_quadratic(setulb):
    """Minimize ``(x - 1.5)^2`` over [-4, 4] from -3 through ``setulb``; None, or what broke.

    ``setulb`` gets the 17 arguments ``LbfgsbStart.advance`` passes, and
    each ``f, g`` request is answered at the requested point.  The run must
    end on a CONVERGENCE task code near 1.5.
    """
    lo, hi = np.array([-4.0]), np.array([4.0])
    start = LbfgsbStart(setulb, np.array([-3.0]))
    codes = []
    try:
        for _ in range(100):
            setulb(
                lbfgsb._MEMORY, start.x, lo, hi, start.nbd, start.f, start.g,
                lbfgsb._FACTR, lbfgsb._PGTOL, start.wa, start.iwa, start.task,
                start.lsave, start.isave, start.dsave, lbfgsb._MAXLS, start.ln_task,
            )
            codes.append(int(start.task[0]))
            if codes[-1] == lbfgsb._TASK_FG:
                start.f, start.g = float((start.x[0] - 1.5) ** 2), 2.0 * (start.x - 1.5)
            elif codes[-1] != lbfgsb._TASK_NEW_X:
                break
    except Exception as exc:  # any failure breaks the contract
        problem = f"raised {type(exc).__name__}: {exc}"
    else:
        converged = codes[-1] == 4 and abs(start.x[0] - 1.5) < 1e-6  # 4: CONVERGENCE
        if converged:
            return None
        problem = f"gave task codes {codes} and x = {start.x.tolist()}, not CONVERGENCE at 1.5"
    return (
        f"scipy.optimize._lbfgsb.setulb {problem}; gpexpect.lbfgsb drives this private "
        f"routine directly, and pyproject.toml pins {SCIPY_PIN}"
    )


class TestSetulbContract:
    """The private L-BFGS-B routine the driver drives keeps the interface it was written for.

    The driver loads ``setulb``'s module at its first call, so a scipy that drops
    or changes it would otherwise fail only inside a learned-theta run.
    """

    def test_setulb_converges_on_a_quadratic(self):
        try:
            from scipy.optimize._lbfgsb import setulb
        except ImportError as exc:
            pytest.fail(f"scipy.optimize._lbfgsb.setulb is gone ({exc}); pyproject.toml "
                        f"pins {SCIPY_PIN}")
        problem = _setulb_on_a_quadratic(setulb)
        assert problem is None, problem

    @pytest.mark.parametrize(
        "broken",
        [lambda *args: None, lambda m, x, lo, hi, nbd, f, g, factr, pgtol, wa, iwa, task: None],
        ids=["never-converges", "fewer-arguments"],
    )
    def test_a_broken_setulb_is_named_with_the_pin(self, broken):
        assert SCIPY_PIN.startswith("scipy>=")
        problem = _setulb_on_a_quadratic(broken)
        assert "scipy.optimize._lbfgsb.setulb" in problem
        assert f"pyproject.toml pins {SCIPY_PIN}" in problem
