"""What a fresh interpreter loads on ``import vmfbs``, and what it exports.

The package and its CLI need only numpy, at import time and after: a
solve and the TV optimality verifier run in an interpreter that cannot
import scipy. Both checks run in a new interpreter, because this test
process has long since imported scipy through the oracles. Every
exported name is documented in the README.
"""

import os
import re
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


def test_solve_and_tv_verifier_run_without_scipy():
    # a finder ahead of every other one makes scipy unimportable
    out = run_fresh(
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is blocked in this interpreter')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('scipy imported despite the block')\n"
        "import numpy as np\n"
        "import vmfbs, vmfbs.cli\n"
        "rng = np.random.default_rng(7)\n"
        "n = 60\n"
        "a = np.eye(n) + 0.1 * rng.standard_normal((n, n))\n"
        "z = np.repeat([1.0, -0.5, 0.8], 20) + 0.1 * rng.standard_normal(n)\n"
        "g = vmfbs.Tv1dNorm(0.5)\n"
        "problem = vmfbs.CompositeProblem(f=vmfbs.PNormResidual(a, a @ z), g=g, dimension=n)\n"
        "res = vmfbs.solve(problem, np.zeros(n), vmfbs.SolverConfig(\n"
        "    linesearch=vmfbs.LineSearchConfig(rule='ls1'), max_iterations=200))\n"
        "assert np.isfinite(res.F_final)\n"
        "p = g.prox(z, 1.0)\n"
        "assert (np.diff(p) == 0.0).any()  # flat runs reach the per-run solve\n"
        "print(vmfbs.prox_optimality_residual(g, z, 1.0, p))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    residual, loaded = out.split("\n", 1)
    assert float(residual) <= 1e-12
    assert loaded.strip() == "[]"


def test_readme_names_every_public_export():
    # the public API is what the README documents: each name in
    # vmfbs.__all__ appears there as a whole word
    import vmfbs

    readme = (SRC.parent / "README.md").read_text()
    missing = [n for n in vmfbs.__all__ if not re.search(rf"\b{re.escape(n)}\b", readme)]
    assert not missing, f"exported but not in README.md: {missing}"
