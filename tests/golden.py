"""Golden traces of the criterion-02 batch and of the same instances run to tolerance.

Three batches over ``batch_instance(0..199)`` from ``test_acceptance``:

- ``b02``: the criterion-02 configuration (25 iterations, states kept);
- ``tol_cold`` / ``tol_warm``: ``tol_fixed_point=1e-7`` and
  ``max_iterations=2000``, with ``warm_start`` off and on.

Per batch the file holds the trace columns in ``COLUMNS`` concatenated
over the runs, the row count, termination and dimension of each run,
and the concatenated final iterates. The objective column ``F``, which
does not compress, is kept per run as its last value plus a BLAKE2b
digest of the bytes of all the rows before it, one row of 16 ``uint8``
per run (a numpy ``S16`` element would drop a digest's trailing NUL
bytes when read).

The committed ``tests/golden_traces.npz`` was recorded with the one
grid-walk kernel ``linesearch.line_search``, whose lam walks (ls2, ls4,
tseng-yun) evaluate each trial at Ax + lam A dy, and
``tests/test_golden.py`` requires every array to be bitwise equal.
Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (x86-64) by:

    PYTHONPATH=src:tests python tests/golden.py tests/golden_traces.npz

The comparison is bitwise, so a BLAS build that rounds matrix products
differently fails it without any change to this package.
"""

import hashlib
import sys

import numpy as np

import vmfbs
from test_acceptance import batch_instance

COLUMNS = ("gamma", "lam", "backtracks", "f_evals", "grad_evals", "prox_evals")
BATCHES = {
    "b02": dict(max_iterations=25, record_states=True),
    "tol_cold": dict(max_iterations=2000, tol_fixed_point=1e-7),
    "tol_warm": dict(max_iterations=2000, tol_fixed_point=1e-7, warm_start=True),
}


def batch_run(i: int, max_iterations: int, record_states: bool = False,
              tol_fixed_point: float = 0.0, warm_start: bool = False):
    """Solve instance i under the criterion-02 rule settings; returns (problem, result)."""
    prob, x0, rule, _, _ = batch_instance(i)
    kw = {"rule": rule, "warm_start": warm_start}
    if rule == "fixed":
        kw.update(fixed_gamma=1.5 / prob.f.lipschitz_bound, fixed_lam=1.0)
    if rule == "tseng-yun":
        kw.update(sigma=0.5, beta=0.5)
    cfg = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(**kw),
        max_iterations=max_iterations,
        tol_fixed_point=tol_fixed_point,
        record_states=record_states,
    )
    return prob, vmfbs.solve(prob, x0, cfg)


def head_digest(column: np.ndarray) -> bytes:
    """Digest of every entry but the last, exact to the bit."""
    return hashlib.blake2b(np.ascontiguousarray(column[:-1]).tobytes(), digest_size=16).digest()


def head_digests(columns) -> np.ndarray:
    """``head_digest`` of each column, one row of 16 ``uint8`` per column."""
    return np.array([np.frombuffer(head_digest(c), np.uint8) for c in columns]).reshape(-1, 16)


def record(batch: str, count: int = 200) -> dict:
    """One batch as flat arrays, keyed ``<batch>/<name>``."""
    runs = [batch_run(i, **BATCHES[batch]) for i in range(count)]
    results = [r for _, r in runs]
    out = {
        f"{batch}/{name}": np.concatenate([r.trace.column(name) for r in results])
        for name in COLUMNS
    }
    out[f"{batch}/F_head"] = head_digests([r.trace.F for r in results])
    out[f"{batch}/F_last"] = np.array([r.trace.F[-1] for r in results])
    out[f"{batch}/rows"] = np.array([len(r.trace) for r in results])
    out[f"{batch}/termination"] = np.array([r.termination for r in results])
    out[f"{batch}/x_final"] = np.concatenate([r.x_final for r in results])
    out[f"{batch}/dims"] = np.array([r.x_final.size for r in results])
    out[f"{batch}/general"] = np.array([p.domain_regime == "general" for p, _ in runs])
    return out


if __name__ == "__main__":
    arrays = {}
    for name in BATCHES:
        arrays.update(record(name))
    np.savez_compressed(sys.argv[1], **arrays)
