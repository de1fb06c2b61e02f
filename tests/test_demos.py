"""The narrative demos run to completion against the package in ``src/``.

``self_checks`` and ``benchmark_comparison`` are left out: they take
tens of seconds and repeat what the validation and acceptance tests run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["kernel_integrals", "gp_basics", "mixture_modeling", "acquisition_landscape",
     "sequential_run"],
)
def test_demo_exits_cleanly(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
