"""What a fresh interpreter loads on ``import vmfbs``.

The package and its CLI need only numpy at import time; scipy is
imported by the TV optimality verifier on its first call. Both checks
run in a new interpreter, because this test process has long since
imported scipy through the oracles.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    out = run_fresh(
        "import sys, vmfbs, vmfbs.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.strip() == "[]"


def test_tv_verifier_imports_scipy_on_first_call():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import vmfbs\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "z = np.random.default_rng(7).standard_normal(60)\n"
        "g = vmfbs.Tv1dNorm(0.5)\n"
        "p = g.prox(z, 1.0)\n"
        "assert (np.diff(p) == 0.0).any()  # flat runs reach the least-squares path\n"
        "print(vmfbs.prox_optimality_residual(g, z, 1.0, p))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    residual, loaded = out.split()
    assert float(residual) <= 1e-12
    assert loaded == "True"
