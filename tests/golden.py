"""Golden traces of eight batches of solver runs, for the bit-for-bit test.

Three criterion batches over ``batch_instance(0..199)`` of ``conftest``,
under the identity metric with checks on and the stall rule off:

- ``b02``: the criterion-02 configuration (25 iterations, states kept);
- ``tol_cold`` / ``tol_warm``: ``tol_fixed_point=1e-7`` and
  ``max_iterations=2000``, with ``warm_start`` off and on.

Five path batches pin the rest of the loop:

- ``bb``: the Barzilai-Borwein schedule, on 8x5 KL problems in the
  general domain regime (box, gamma_max 8, states kept) and on 30x20
  lassos;
- ``table``: a 10-row table schedule held past its end, with
  ``tol_objective_stall > 0`` so that every run ends in
  ``objective_stall``, on lassos (all six rules) and on KL problems;
- ``custom``: schedules built directly with ``MetricSchedule``, one
  reading the solver state and one ignoring it;
- ``states``: constant non-identity and uniform metrics with
  ``record_states=True``, on lassos and a TV problem;
- ``failure``: a run that ends in ``search_failure`` at its third step,
  with states kept.

Per batch the file holds the row count, termination and dimension of
each run and the concatenated final iterates. A criterion batch adds
the trace columns in ``COLUMNS`` concatenated over the runs and, per
run, its domain regime and the last value of its F column plus a
BLAKE2b digest of the bytes of all the rows before it, one row of 16
``uint8`` (a numpy ``S16`` element would drop a digest's trailing NUL
bytes when read). A path batch adds all fourteen trace columns and, for
runs that keep states, the concatenated ``xs``, ``ys`` and ``weights``
with their shapes.

``tests/test_golden.py`` requires every array of the committed
``tests/golden_traces.npz`` to be bitwise equal. It was recorded with
the one grid-walk kernel ``linesearch.line_search``, whose lam walks
(ls2, ls4, tseng-yun) evaluate each trial at Ax + lam A dy, by:

    PYTHONPATH=src:tests python tests/golden.py tests/golden_traces.npz

The comparison is bitwise, so a BLAS build that rounds matrix products
differently fails it without any change to this package. The file
names the environment it was recorded in: three strings, ``meta/numpy``,
``meta/openblas`` and ``meta/core``, from ``environment()``, which a
failing comparison prints beside the running ones.
"""

import ctypes
import hashlib
import sys

import numpy as np
from numpy.linalg import _umath_linalg

import vmfbs
from conftest import batch_instance

COLUMNS = ("gamma", "lam", "backtracks", "f_evals", "grad_evals", "prox_evals")
FIELDS = vmfbs.Trace.COLUMNS
BACKTRACKING = ("ls1", "ls2", "ls3", "ls4", "tseng-yun")
CRITERION = {
    "b02": dict(max_iterations=25, record_states=True),
    "tol_cold": dict(max_iterations=2000, tol_fixed_point=1e-7),
    "tol_warm": dict(search={"warm_start": True}, max_iterations=2000, tol_fixed_point=1e-7),
}
BATCHES = (*CRITERION, "bb", "table", "custom", "states", "failure")


def lasso(seed, m=30, n=20, p=2.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    b = rng.standard_normal(m)
    f = vmfbs.PNormResidual(a, b, p=p)
    return vmfbs.CompositeProblem(f=f, g=vmfbs.L1Norm(0.1), dimension=n), np.zeros(n)


def kl(seed, m=8, n=5):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    a[:n] += 3.0 * np.eye(n)
    b = a @ (np.abs(rng.standard_normal(n)) + 0.5)
    problem = vmfbs.CompositeProblem(
        f=vmfbs.KLDivergence(a, b), g=vmfbs.BoxIndicator(0.0, np.inf),
        dimension=n, domain_regime="general",
    )
    return problem, np.ones(n)


def tv(seed, n=40):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + 5, n)) / np.sqrt(n)
    b = a @ np.repeat([0.0, 1.0, -0.5, 0.5], n // 4) + 0.05 * rng.standard_normal(n + 5)
    f = vmfbs.PNormResidual(a, b)
    return vmfbs.CompositeProblem(f=f, g=vmfbs.Tv1dNorm(0.1), dimension=n), np.zeros(n)


def weight_table(seed, n, rows=10):
    rng = np.random.default_rng(seed)
    table = [rng.uniform(0.5, 2.0, n) for _ in range(rows)]
    return vmfbs.table_schedule(table, regime="growth")


def state_schedule(n):
    """Custom schedule reading the snapshot: weights pulled toward 1 + |dgrad| / (1 + |dgrad|)."""
    def gen(k, snap):
        if snap is None:
            return np.ones(n)
        target = 1.0 + np.abs(snap.dgrad) / (1.0 + np.abs(snap.dgrad))
        w = snap.prev_weights + 2.0 ** (-k) * (target - snap.prev_weights)
        return np.clip(w, 1.0, 2.0)
    return vmfbs.MetricSchedule(gen, global_nu=1.0, global_mu=2.0, declared_regime="growth")


def alternating_schedule(n):
    """Custom schedule ignoring the snapshot: two fixed rows in turn."""
    rows = [np.linspace(1.0, 1.5, n), np.linspace(1.5, 1.0, n)]
    return vmfbs.MetricSchedule(
        lambda k, snap: rows[k % 2], global_nu=1.0, global_mu=1.5, declared_regime="growth",
    )


def config(rule, schedule=None, *, problem=None, nu=1.0, search=None, **loop):
    """The fixed step at gamma = 1.5 nu / L, lam = 1; Tseng-Yun at sigma = beta = 0.5."""
    kw = {"rule": rule, **(search or {})}
    if rule == "fixed":
        kw.update(fixed_gamma=1.5 * nu / problem.f.lipschitz_bound, fixed_lam=1.0)
    if rule == "tseng-yun":
        kw.update(sigma=0.5, beta=0.5)
    return vmfbs.SolverConfig(linesearch=vmfbs.LineSearchConfig(**kw), metrics=schedule, **loop)


def runs(batch):
    """(problem, x0, config) of each run of one batch, in a fixed order."""
    if batch in CRITERION:
        for i in range(200):
            problem, x0, rule, _, _ = batch_instance(i)
            yield problem, x0, config(rule, problem=problem, **CRITERION[batch])
    elif batch == "bb":
        for seed in (7, 8):
            problem, x0 = kl(seed)
            for rule in BACKTRACKING:
                yield problem, x0, config(
                    rule, vmfbs.bb_schedule(5, nu=0.25, mu=4.0), search={"gamma_max": 8.0},
                    max_iterations=20000, tol_fixed_point=1e-6, record_states=True,
                )
        problem, x0 = lasso(7)
        for rule in BACKTRACKING:
            yield problem, x0, config(
                rule, vmfbs.bb_schedule(20, nu=0.25, mu=4.0), search={"warm_start": True},
                max_iterations=20000, tol_fixed_point=1e-6,
            )
    elif batch == "table":
        problem, x0 = lasso(7)
        for rule in BACKTRACKING + ("fixed",):
            yield problem, x0, config(
                rule, weight_table(1, 20), problem=problem, nu=0.5, search={"warm_start": True},
                max_iterations=3000, tol_objective_stall=1e-8, stall_window=5,
            )
        problem, x0 = kl(7)
        for rule in ("ls1", "ls4"):
            yield problem, x0, config(
                rule, weight_table(2, 5), search={"gamma_max": 8.0},
                max_iterations=3000, tol_objective_stall=1e-8, stall_window=5,
            )
    elif batch == "custom":
        problem, x0 = lasso(9, m=12, n=8, p=4.0)
        for rule in BACKTRACKING:
            yield problem, x0, config(
                rule, state_schedule(8), max_iterations=150, tol_fixed_point=1e-7,
            )
        problem, x0 = lasso(10, m=12, n=8)
        for rule in ("ls2", "fixed"):
            for schedule in (state_schedule(8), alternating_schedule(8)):
                yield problem, x0, config(
                    rule, schedule, problem=problem, max_iterations=150,
                    tol_fixed_point=1e-7,
                )
    elif batch == "states":
        problem, x0 = lasso(11, m=12, n=8)
        weights = vmfbs.constant_schedule(np.linspace(0.5, 2.0, 8))
        for rule in BACKTRACKING + ("fixed",):
            yield problem, x0, config(
                rule, weights, problem=problem, nu=0.5, max_iterations=80,
                tol_fixed_point=1e-8, record_states=True,
            )
        problem, x0 = tv(12)
        for rule in ("ls1", "ls4"):
            yield problem, x0, config(
                rule, vmfbs.constant_schedule(np.full(40, 2.0)), max_iterations=300,
                tol_fixed_point=1e-6, record_states=True,
            )
    elif batch == "failure":
        f = vmfbs.PNormResidual(np.array([[2.0]]), np.array([0.0]))
        problem = vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1)
        # the weights halve each step, so gamma needs one more backtrack each step
        shrinking = vmfbs.table_schedule([[4.0], [2.0], [1.0]], regime="growth")
        yield problem, np.array([1.0]), config(
            "ls1", shrinking, search={"delta": 0.3, "max_backtracks": 2}, max_iterations=10,
            record_states=True,
        )


def head_digest(column: np.ndarray) -> bytes:
    """Digest of every entry but the last, exact to the bit."""
    return hashlib.blake2b(np.ascontiguousarray(column[:-1]).tobytes(), digest_size=16).digest()


def head_digests(columns) -> np.ndarray:
    """``head_digest`` of each column, one row of 16 ``uint8`` per column."""
    return np.array([np.frombuffer(head_digest(c), np.uint8) for c in columns]).reshape(-1, 16)


def record(batch: str) -> dict:
    """One batch as flat arrays, keyed ``<batch>/<name>``."""
    solved = [(problem, vmfbs.solve(problem, x0, cfg)) for problem, x0, cfg in runs(batch)]
    results = [r for _, r in solved]
    criterion = batch in CRITERION
    out = {
        name: np.concatenate([getattr(r.trace, name) for r in results])
        for name in (COLUMNS if criterion else FIELDS)
    }
    if criterion:
        out["F_head"] = head_digests([r.trace.F for r in results])
        out["F_last"] = np.array([r.trace.F[-1] for r in results])
    out["rows"] = np.array([len(r.trace) for r in results])
    out["termination"] = np.array([r.termination for r in results])
    out["x_final"] = np.concatenate([r.x_final for r in results])
    out["dims"] = np.array([r.x_final.size for r in results])
    if criterion:
        out["general"] = np.array([p.domain_regime == "general" for p, _ in solved])
    else:
        kept = [r.states for r in results if r.states is not None]
        for name in ("xs", "ys", "weights") if kept else ():
            arrays = [getattr(s, name) for s in kept]
            out[f"states_{name}"] = np.concatenate([a.ravel() for a in arrays])
            out[f"states_{name}_shape"] = np.array([a.shape for a in arrays])
    return {f"{batch}/{name}": value for name, value in out.items()}


def environment() -> dict:
    """The numpy version, the OpenBLAS build and the OpenBLAS core in use, keyed ``meta/<name>``.

    The core is the kernel set OpenBLAS picked for this CPU (or was told
    to by ``OPENBLAS_CORETYPE``), as numpy's bundled scipy-openblas
    reports it; "unknown" where that symbol is missing.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        corename = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        core = "unknown"
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return {
        "meta/numpy": np.__version__,
        "meta/openblas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "meta/core": core,
    }


if __name__ == "__main__":
    arrays = environment()
    for name in BATCHES:
        arrays.update(record(name))
    np.savez_compressed(sys.argv[1], **arrays)
