"""Module boundaries: no package module imports another module's private name."""

import ast
from pathlib import Path

import gpexpect

PACKAGE = Path(gpexpect.__file__).resolve().parent


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
