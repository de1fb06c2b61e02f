"""Module boundaries: no package module imports another module's private name,
no module imports ``scipy.linalg``, ``scipy.optimize`` or ``scipy.special``,
no module reaches a private numpy module,
importing the package, running it or calling its densities and EM loads no
scipy package, the top-level ``scipy`` included, and importing the CLI loads
neither ``gpexpect.validation`` nor ``gpexpect.oracles``.  A pinned run loads
neither ``numpy.polynomial``, the input module ``gpexpect.inputs`` nor the
L-BFGS-B driver ``gpexpect.lbfgsb``, and a learned run loads the driver alone."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpexpect

PACKAGE = Path(gpexpect.__file__).resolve().parent
# scipy packages no module imports at any depth: _numerics.load_scipy_extension
# loads the compiled modules of the first two alone, without the package __init__
NOT_IMPORTED = ("scipy.linalg", "scipy.optimize", "scipy.special")
# private numpy modules, whose paths differ across the numpy>=1.24 pin
# (numpy 2 renamed numpy.core to numpy._core)
PRIVATE_NUMPY = ("numpy._core", "numpy.core", "numpy.linalg._umath_linalg")


def private_imports(path: Path) -> list:
    """``(line, module, name)`` of each underscore-prefixed name ``path`` imports
    from another gpexpect module."""
    own = "gpexpect." + path.stem
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = ".".join(["gpexpect"] + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        if module != "gpexpect" and not module.startswith("gpexpect."):
            continue
        if module == own:
            continue
        found += [(node.lineno, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    offenders = {p.name: private_imports(p) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_private_names(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "from gpexpect.benchmarks import _mc_reference, benchmark_problem\n"
        "from .optimize import _MAX_SHRINKS\n"
        "from gpexpect.cli import _own_name\n"
        "from gpexpect._numerics import row_dots\n"
        "from scipy.optimize._lbfgsb import setulb\n",
        encoding="utf-8",
    )
    assert private_imports(path) == [
        (1, "gpexpect.benchmarks", "_mc_reference"),
        (2, "gpexpect.optimize", "_MAX_SHRINKS"),
    ]


def imports_of(path: Path, modules) -> list:
    """``(line, module)`` of each import statement, at any depth, that loads one
    of ``modules`` or a submodule of one; ``module`` is the first such module
    the statement names."""
    found = []

    def watched(module):
        return any(module == m or module.startswith(m + ".") for m in modules)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                named = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level and child.module:
                # "from scipy import special" imports scipy.special
                named = [child.module] + [f"{child.module}.{a.name}" for a in child.names]
            else:
                named = []
            named = [m for m in named if watched(m)]
            if named:
                found.append((child.lineno, named[0]))
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_no_module_imports_a_scipy_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    offenders = {p.name: imports_of(p, NOT_IMPORTED) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_scipy_imports_at_any_depth(tmp_path):
    path = tmp_path / "gp.py"
    path.write_text(
        "import scipy.linalg\n"
        "from scipy.optimize._lbfgsb import setulb\n"
        "from scipy import linalg, special\n"
        "import numpy, scipy.special as sp\n"
        "class Holder:\n"
        "    from scipy.optimize import minimize\n"
        "def lazy():\n"
        "    from scipy.special import logsumexp\n"
        "    import scipy.optimize\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert imports_of(path, NOT_IMPORTED) == [
        (1, "scipy.linalg"),
        (2, "scipy.optimize._lbfgsb"),
        (3, "scipy.linalg"),
        (4, "scipy.special"),
        (6, "scipy.optimize"),
        (8, "scipy.special"),
        (9, "scipy.optimize"),
        (11, "scipy.optimize"),
    ]


def private_numpy_uses(path: Path) -> list:
    """``(line, module)`` of each import of a private numpy module, or of a
    submodule of one, and of each attribute chain such as ``np._core`` that
    names one, ``np`` standing for ``numpy``."""
    found = imports_of(path, PRIVATE_NUMPY)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            dotted = ".".join(["numpy", *reversed(parts)])
            if dotted in PRIVATE_NUMPY:
                found.append((node.lineno, dotted))
    return sorted(found)


def test_no_module_uses_a_private_numpy_module():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    offenders = {p.name: private_numpy_uses(p) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_private_numpy_modules(tmp_path):
    path = tmp_path / "optimize.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy._core.umath import clip\n"
        "import numpy.core.multiarray\n"
        "from numpy.linalg import _umath_linalg\n"
        "from numpy import linalg, _core\n"
        "def lazy(x):\n"
        "    return np._core.umath.clip(x, 0.0, 1.0) + np.linalg._umath_linalg.det(x)\n"
        "y = np.clip(np.linalg.norm(np.core_like), 0.0, 1.0)\n",
        encoding="utf-8",
    )
    assert private_numpy_uses(path) == [
        (2, "numpy._core.umath"),
        (3, "numpy.core.multiarray"),
        (4, "numpy.linalg._umath_linalg"),
        (5, "numpy._core"),
        (7, "numpy._core"),
        (7, "numpy.linalg._umath_linalg"),
    ]


# the modules the import-set checks watch, and which of them are loaded
WATCH_PREAMBLE = """
import json, sys

WATCHED = ("scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.optimize",
           "scipy.optimize._lbfgsb", "scipy.special", "numpy.polynomial", "gpexpect.inputs",
           "gpexpect.lbfgsb")

def loaded():
    return [m for m in WATCHED if m in sys.modules]
"""

# one pinned run, one learned run and then density and EM calls, reporting
# which of WATCHED are loaded at each point and the learned run's history in hex
IMPORT_SET_SCRIPT = WATCH_PREAMBLE + """
import gpexpect, gpexpect.benchmarks, gpexpect.design
from gpexpect.benchmarks import benchmark_problem
from gpexpect.design import DesignConfig, run
from gpexpect.gp import HyperparameterSample, NoiseModel, RbfKernel

report = {"imported": loaded()}
branin = benchmark_problem("branin_gmm")
pinned = HyperparameterSample(RbfKernel(2500.0, [4.0, 4.0]), NoiseModel(variance=1e-4))
run(branin.mix, branin.black_box, DesignConfig(n0=5, budget=7, seed=900, pinned_theta=pinned))
report["pinned"] = loaded()
xsq = benchmark_problem("x_squared")
history = run(xsq.mix, xsq.black_box, DesignConfig(n0=5, budget=12, seed=900))
report["learned"] = loaded()
from gpexpect.inputs import fit_em, log_pdf, pdf_many
from gpexpect.mixtures import sample
pdf_many(branin.mix, sample(branin.mix, 5, seed=1))
log_pdf(branin.mix, [0.5, 0.5])
fit_em(sample(branin.mix, 60, seed=2), 2)
report["densities"] = loaded()
report["history"] = [
    [r.iteration] + [float(v).hex() for v in (*r.chosen_x, r.observed_y, r.mu1, r.sigma1,
                                              r.acquisition_at_chosen)]
    for r in history
]
print(json.dumps(report))
"""

# the CLI's import alone, reporting which of WATCHED it loads; it leaves the
# validation matrix unloaded
CLI_IMPORT_SCRIPT = WATCH_PREAMBLE + """
import gpexpect.cli
assert "gpexpect.validation" not in sys.modules and "gpexpect.oracles" not in sys.modules
print(json.dumps(loaded()))
"""


def _fresh_run(preamble: str = "", script: str = IMPORT_SET_SCRIPT):
    """The report of ``script`` from a fresh interpreter on this package."""
    src = str(PACKAGE.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-c", preamble + script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def lazy():
    return _fresh_run()


def test_a_run_loads_only_the_compiled_scipy_modules(lazy):
    """Import loads ``_flapack``, the first search ``_lbfgsb``, and no run,
    density or EM call loads a scipy package: not ``scipy`` itself, nor
    ``scipy.linalg``, ``scipy.optimize`` or ``scipy.special``."""
    scipy_only = {
        point: [m for m in modules if m.startswith("scipy")]
        for point, modules in lazy.items() if point != "history"
    }
    assert scipy_only == {
        "imported": ["scipy.linalg._flapack"],
        "pinned": ["scipy.linalg._flapack"],
        "learned": ["scipy.linalg._flapack", "scipy.optimize._lbfgsb"],
        "densities": ["scipy.linalg._flapack", "scipy.optimize._lbfgsb"],
    }
    eager = _fresh_run("import scipy.linalg, scipy.optimize, scipy.special\n")
    assert [m for m in eager["imported"] if m.startswith("scipy")] == [
        "scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.optimize",
        "scipy.optimize._lbfgsb", "scipy.special",
    ]
    assert len(lazy["history"]) == 12
    assert lazy["history"] == eager["history"]


def test_a_run_loads_only_the_code_it_runs(lazy):
    """A pinned Branin run loads neither ``numpy.polynomial``, the input
    module nor the L-BFGS-B driver, and the first search loads the driver
    alone."""
    own = {
        point: [m for m in modules if not m.startswith("scipy")]
        for point, modules in lazy.items() if point != "history"
    }
    assert own == {
        "imported": [],
        "pinned": [],
        "learned": ["gpexpect.lbfgsb"],
        "densities": ["gpexpect.inputs", "gpexpect.lbfgsb"],
    }


def test_importing_the_cli_loads_the_input_module_and_flapack_alone():
    """``import gpexpect.cli`` loads ``_flapack`` and the input module: no
    scipy package, neither ``_lbfgsb`` nor the L-BFGS-B driver, not
    ``numpy.polynomial`` and not the validation matrix."""
    assert _fresh_run(script=CLI_IMPORT_SCRIPT) == ["scipy.linalg._flapack", "gpexpect.inputs"]
