"""Module boundaries: no package module imports another module's private name,
no module imports ``scipy.linalg`` or ``scipy.optimize``, importing the
package or running it loads no scipy package, the top-level ``scipy``
included, nor ``scipy.special``, and importing the CLI loads neither
``gpexpect.validation`` nor ``gpexpect.oracles``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gpexpect

PACKAGE = Path(gpexpect.__file__).resolve().parent
# scipy packages no module imports: _numerics.load_scipy_extension loads
# their compiled modules alone, without the package __init__
DIRECT_ONLY = ("scipy.linalg", "scipy.optimize")
# scipy modules the package loads on first use only: logsumexp for densities and EM
LAZY_MODULES = ("scipy.special",)


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


def imports_of(path: Path, modules, in_functions: bool) -> list:
    """``(line, module)`` of each import statement that loads one of ``modules``
    or a submodule of one; ``module`` is the first such module the statement
    names.  Statements in function bodies count only if ``in_functions``;
    the others run at import."""
    found = []

    def watched(module):
        return any(module == m or module.startswith(m + ".") for m in modules)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not in_functions and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
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


def test_no_module_imports_scipy_linalg_or_optimize():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    offenders = {p.name: imports_of(p, DIRECT_ONLY, in_functions=True) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_no_module_imports_scipy_special_at_import():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    offenders = {p.name: imports_of(p, LAZY_MODULES, in_functions=False) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_module_level_scipy_imports(tmp_path):
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
    assert imports_of(path, ("scipy.optimize", "scipy.special"), in_functions=False) == [
        (2, "scipy.optimize._lbfgsb"),
        (3, "scipy.special"),
        (4, "scipy.special"),
        (6, "scipy.optimize"),
        (11, "scipy.optimize"),
    ]
    assert imports_of(path, DIRECT_ONLY, in_functions=True) == [
        (1, "scipy.linalg"),
        (2, "scipy.optimize._lbfgsb"),
        (3, "scipy.linalg"),
        (6, "scipy.optimize"),
        (9, "scipy.optimize"),
        (11, "scipy.optimize"),
    ]


# one pinned run and then one learned run, reporting which scipy packages
# and compiled modules are loaded at each point and the learned run's
# history in hex; the CLI's import leaves the validation matrix unloaded
IMPORT_SET_SCRIPT = """
import json, sys
import gpexpect, gpexpect.benchmarks, gpexpect.cli, gpexpect.design
assert "gpexpect.validation" not in sys.modules and "gpexpect.oracles" not in sys.modules
from gpexpect.benchmarks import benchmark_problem
from gpexpect.design import DesignConfig, run
from gpexpect.gp import HyperparameterSample, NoiseModel, RbfKernel

def loaded():
    return [m for m in ("scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.optimize",
                        "scipy.optimize._lbfgsb", "scipy.special") if m in sys.modules]

report = {"imported": loaded()}
branin = benchmark_problem("branin_gmm")
pinned = HyperparameterSample(RbfKernel(2500.0, [4.0, 4.0]), NoiseModel(variance=1e-4))
run(branin.mix, branin.black_box, DesignConfig(n0=5, budget=7, seed=900, pinned_theta=pinned))
report["pinned"] = loaded()
xsq = benchmark_problem("x_squared")
history = run(xsq.mix, xsq.black_box, DesignConfig(n0=5, budget=12, seed=900))
report["learned"] = loaded()
report["history"] = [
    [r.iteration] + [float(v).hex() for v in (*r.chosen_x, r.observed_y, r.mu1, r.sigma1,
                                              r.acquisition_at_chosen)]
    for r in history
]
print(json.dumps(report))
"""


def _fresh_run(preamble: str = "") -> dict:
    """The report of :data:`IMPORT_SET_SCRIPT` from a fresh interpreter on this package."""
    src = str(PACKAGE.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-c", preamble + IMPORT_SET_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_a_run_loads_only_the_compiled_scipy_modules():
    """Import loads ``_flapack``, the first search ``_lbfgsb``, and no run
    loads a scipy package: not ``scipy`` itself, nor ``scipy.linalg``,
    ``scipy.optimize`` or ``scipy.special``."""
    lazy = _fresh_run()
    assert lazy["imported"] == ["scipy.linalg._flapack"]
    assert lazy["pinned"] == ["scipy.linalg._flapack"]
    assert lazy["learned"] == ["scipy.linalg._flapack", "scipy.optimize._lbfgsb"]
    eager = _fresh_run("import scipy.linalg, scipy.optimize, scipy.special\n")
    assert eager["imported"] == [
        "scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.optimize",
        "scipy.optimize._lbfgsb", "scipy.special",
    ]
    assert len(lazy["history"]) == 12
    assert lazy["history"] == eager["history"]
