"""Command-line experiment harness.

Subcommands: ``solve`` (run one configuration, write a trace CSV with
every :class:`~vmfbs.solver.Trace` column),
``compare`` (run several stepsize rules on the same problem, tabulate
cost counters), ``validate-metrics`` (finite-horizon partial sums of a
metric schedule), ``rate`` (solve plus k*(F_k - F*) decade tails).

Experiment files are JSON with three blocks (problem, solver, output).
Every command loads the whole spec along one path (``_load``), so each
refuses what ``solve`` refuses. Validation is strict: unknown keys are
rejected and every message names the offending field path. Matrices and
vectors are inline arrays, whitespace-delimited numeric files
({"path": ...}), or generated ({"random": {...}}); generation is
deterministic from the block's seed (a nonnegative integer), and
--seed N (also nonnegative) overrides the i-th random block's seed with
N+i. The output block takes one key, ``trace``, a non-empty string: the
path of ``solve``'s trace when --out is not given. Without either path
``solve`` writes ``<spec stem>_trace.csv``; ``rate`` writes --out, else
``<spec stem>_rate.csv``, and never ``output.trace``.

Exit codes: 0 clean, 2 spec or usage error, 3 search failure. ``solve``
and ``rate`` print a search failure's step to stderr in one format.
CSV floats carry 17 significant digits so re-parsing is lossless.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from .diagnostics import estimate_rate
from .linesearch import RULES, LineSearchConfig
from .metrics import (
    MetricSchedule,
    bb_schedule,
    constant_schedule,
    table_schedule,
    validate_growth,
    validate_spread,
)
from .problems import CompositeProblem, UsageError, as_vector
from .prox import BoxIndicator, L1Norm, SeparableProx, Tv1dNorm, ZeroTerm
from .smooth import KLDivergence, PNormResidual
from .solver import SolverConfig, _fmt, solve, write_trace_csv

__all__ = ["main", "load_spec", "build_problem", "build_solver_config"]

_SMOOTH_TYPES = ("quadratic", "pnorm", "kl")
_REG_TYPES = ("l1", "box", "tv1d", "zero", "separable")
_METRIC_TYPES = ("constant", "table", "bb")


def _check_keys(block: dict, path: str, required=(), optional=()):
    if not isinstance(block, dict):
        raise UsageError(f"{path}: expected an object, got {type(block).__name__}")
    unknown = sorted(set(block) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"{path}: unknown key(s) {unknown}")
    missing = [k for k in required if k not in block]
    if missing:
        raise UsageError(f"{path}: missing required key(s) {missing}")


def _number(block, key, path, kind=float):
    """``block[key]`` as a ``kind``: float, int (a whole number) or bool."""
    if key not in block:
        raise UsageError(f"{path}.{key}: required")
    v = block[key]
    if kind is bool:
        if not isinstance(v, bool):
            raise UsageError(f"{path}.{key}: expected true/false, got {v!r}")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise UsageError(f"{path}.{key}: expected a number, got {v!r}")
    if kind is int and isinstance(v, float) and not v.is_integer():
        raise UsageError(f"{path}.{key}: expected an integer, got {v!r}")
    return kind(v)


def _per_coordinate(block: dict, key: str, path: str, n: int, default: float,
                    null: bool) -> np.ndarray:
    """``block[key]`` as n per-coordinate values: one number for all of
    them or a list of n. A missing key is ``default``, and so is a null
    where ``null`` allows it (JSON has no infinity literal)."""
    path = f"{path}.{key}"

    def value(p, v):
        if v is None and null:
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise UsageError(f"{p}: expected a number{' or null' if null else ''}, got {v!r}")
        return float(v)

    if key not in block:
        return np.full(n, default)
    v = block[key]
    if not isinstance(v, list):
        return np.full(n, value(path, v))
    if len(v) != n:
        raise UsageError(f"{path}: expected {n} values (one per coordinate), got {len(v)}")
    return np.array([value(f"{path}[{i}]", e) for i, e in enumerate(v)])


def _choice(block: dict, key: str, path: str, options):
    """``block[key]``, which must be one of ``options``; None when unset."""
    if key not in block:
        return None
    v = block[key]
    if v not in options:
        raise UsageError(f"{path}.{key}: expected one of {list(options)}, got {v!r}")
    return v


def _type(block, path: str, options) -> str:
    """The ``type`` of a typed block (smooth, regularizer, metrics), one of ``options``."""
    if not isinstance(block, dict) or "type" not in block:
        raise UsageError(f"{path}: needs a 'type' key")
    return _choice(block, "type", path, options)


def _build(path: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with the library's own refusals
    (a bad weight, bound, exponent or matrix) under ``path``."""
    try:
        return factory(*args, **kwargs)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _given(block: dict, keys: dict, path: str) -> dict:
    """The keys of ``keys`` that ``block`` sets, each checked by its kind."""
    return {key: _number(block, key, path, kind=kind) for key, kind in keys.items() if key in block}


# the spec keys of LineSearchConfig and SolverConfig with their kinds; a
# key the spec leaves out keeps the dataclass default
_LINESEARCH_KEYS = {
    "delta": float, "theta": float, "gamma_max": float, "sigma": float,
    "beta": float, "max_backtracks": int, "warm_start": bool,
    "fixed_gamma": float, "fixed_lam": float,
}
_SOLVER_KEYS = {
    "max_iterations": int, "tol_fixed_point": float, "tol_objective_stall": float,
    "stall_window": int, "record_states": bool, "lam_schedule": float,
    "gamma_schedule": float,
}
# the metric block's budgets, read by validate-metrics alone
_BUDGET_KEYS = {"growth_budget": float, "spread_budget": float}


def _inline(node, path, *, ndim: int) -> np.ndarray:
    """An inline (nested) list of numbers -> ndarray of ``ndim`` dimensions."""
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not numeric ({exc})") from None
    if arr.ndim != ndim:
        raise UsageError(f"{path}: expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def _text(v, path: str) -> str:
    """``v`` as a file name: a non-empty string."""
    if not (isinstance(v, str) and v):
        raise UsageError(f"{path}: expected a non-empty string, got {v!r}")
    return v


def _seed(v: int, path: str) -> int:
    """``v`` as a seed of numpy's generator, which refuses a negative one."""
    if v < 0:
        raise UsageError(f"{path}: expected a nonnegative integer, got {v}")
    return v


def _load_numeric(node, path, seeds, *, ndim: int) -> np.ndarray:
    """Inline array, {"path": file}, or {"random": {...}} -> ndarray. A
    random block draws its seed from ``seeds`` (N, N + 1, ... under
    ``--seed N``) or, when ``seeds`` is None, reads its own ``seed`` key."""
    if isinstance(node, list):
        return _inline(node, path, ndim=ndim)
    if isinstance(node, dict) and "path" in node:
        _check_keys(node, path, required=("path",))
        # np.loadtxt would read a list of strings as the lines of a file
        fname = _text(node["path"], f"{path}.path")
        try:
            arr = np.loadtxt(fname, dtype=float, ndmin=ndim)
        except OSError as exc:
            raise UsageError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"{path}: {fname} is not numeric ({exc})") from None
        if arr.ndim != ndim:
            raise UsageError(f"{path}: {fname} has shape {arr.shape}, expected {ndim}-d")
        return arr
    if isinstance(node, dict) and "random" in node:
        _check_keys(node, path, required=("random",))
        spec = node["random"]
        rpath = f"{path}.random"
        if ndim == 2:
            _check_keys(spec, rpath, required=("rows", "cols"), optional=("seed", "kind"))
            rows = _number(spec, "rows", rpath, kind=int)
            cols = _number(spec, "cols", rpath, kind=int)
            shape = (rows, cols)
        else:
            _check_keys(spec, rpath, required=("size",), optional=("seed", "kind"))
            shape = (_number(spec, "size", rpath, kind=int),)
        if any(s < 1 for s in shape):
            raise UsageError(f"{rpath}: dimensions must be positive, got {shape}")
        kind = spec.get("kind", "gaussian")
        if kind not in ("gaussian", "nonnegative", "positive"):
            raise UsageError(f"{rpath}.kind: expected gaussian|nonnegative|positive, got {kind!r}")
        own = (_seed(_number(spec, "seed", rpath, kind=int), f"{rpath}.seed")
               if "seed" in spec else None)
        seed = own if seeds is None else next(seeds)
        if seed is None:
            raise UsageError(f"{rpath}.seed: required (or pass --seed)")
        arr = np.random.default_rng(seed).standard_normal(shape)
        if kind == "nonnegative":
            arr = np.abs(arr)
        elif kind == "positive":
            arr = np.abs(arr) + 0.1
        return arr
    raise UsageError(f"{path}: expected an inline array, {{\"path\": ...}} or {{\"random\": ...}}")


def load_spec(path) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read spec: {exc}") from None
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    _check_keys(spec, "spec", required=("problem",), optional=("solver", "output"))
    spec.setdefault("solver", {})
    spec.setdefault("output", {})
    _check_keys(
        spec["problem"],
        "problem",
        required=("smooth", "regularizer"),
        optional=("x0", "domain_regime"),
    )
    _check_keys(
        spec["solver"],
        "solver",
        optional=("rule", "metrics", *_LINESEARCH_KEYS, *_SOLVER_KEYS),
    )
    output = spec["output"]
    _check_keys(output, "output", optional=("trace",))
    if "trace" in output:
        _text(output["trace"], "output.trace")
    return spec


def build_problem(spec: dict, seed=None):
    """The problem and x0 of a spec; a ``seed`` N seeds its i-th random block with N + i."""
    block = spec["problem"]
    seeds = None if seed is None else itertools.count(_seed(seed, "--seed"))

    smooth = block["smooth"]
    spath = "problem.smooth"
    stype = _type(smooth, spath, _SMOOTH_TYPES)
    extra = ("p",) if stype == "pnorm" else ()
    _check_keys(smooth, spath, required=("type", "matrix", "b"), optional=extra)
    a = _load_numeric(smooth["matrix"], f"{spath}.matrix", seeds, ndim=2)
    b = _load_numeric(smooth["b"], f"{spath}.b", seeds, ndim=1)
    if stype == "quadratic":
        f = _build(spath, PNormResidual, a, b, p=2.0)
    elif stype == "pnorm":
        f = _build(spath, PNormResidual, a, b, p=_number(smooth, "p", spath))
    else:
        f = _build(spath, KLDivergence, a, b)
    n = a.shape[1]

    reg = block["regularizer"]
    rpath = "problem.regularizer"
    rtype = _type(reg, rpath, _REG_TYPES)
    if rtype == "l1":
        _check_keys(reg, rpath, required=("type", "weight"))
        g = _build(rpath, L1Norm, _number(reg, "weight", rpath))
    elif rtype in ("box", "separable"):
        weight = ("weight",) if rtype == "separable" else ()
        _check_keys(reg, rpath, required=("type",), optional=(*weight, "lo", "hi"))
        bounds = (_per_coordinate(reg, "lo", rpath, n, -np.inf, null=True),
                  _per_coordinate(reg, "hi", rpath, n, np.inf, null=True))
        if weight:
            g = _build(rpath, SeparableProx,
                       _per_coordinate(reg, "weight", rpath, n, 0.0, null=False), *bounds)
        else:
            g = _build(rpath, BoxIndicator, *bounds)
    elif rtype == "tv1d":
        _check_keys(reg, rpath, required=("type", "weight"))
        g = _build(rpath, Tv1dNorm, _number(reg, "weight", rpath))
    else:
        _check_keys(reg, rpath, required=("type",))
        g = ZeroTerm()

    regime = block.get("domain_regime", "standard")
    problem = _build("problem", CompositeProblem, f=f, g=g, dimension=n, domain_regime=regime)

    if "x0" in block:
        x0 = _build("problem.x0", as_vector,
                    _load_numeric(block["x0"], "problem.x0", seeds, ndim=1), n)
    else:
        x0 = np.zeros(n)
    return problem, x0


def _build_metrics(solver_block: dict, n: int) -> MetricSchedule | None:
    if "metrics" not in solver_block:
        return None
    m = solver_block["metrics"]
    mpath = "solver.metrics"
    mtype = _type(m, mpath, _METRIC_TYPES)
    budgets = tuple(_BUDGET_KEYS)

    def weights(node, path):
        w = _inline(node, path, ndim=1)
        if w.size != n:
            raise UsageError(f"{path}: expected {n} weights (one per coordinate), got {w.size}")
        return w

    if mtype == "constant":
        _check_keys(m, mpath, required=("type", "weights"), optional=budgets)
        return _build(mpath, constant_schedule, weights(m["weights"], f"{mpath}.weights"))
    if mtype == "table":
        _check_keys(m, mpath, required=("type", "weights", "regime"), optional=budgets)
        rows = m["weights"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise UsageError(f"{mpath}.weights: expected a list of weight rows")
        return _build(
            mpath,
            table_schedule,
            [weights(r, f"{mpath}.weights[{i}]") for i, r in enumerate(rows)],
            regime=_choice(m, "regime", mpath, ("constant", "growth", "spread")),
        )
    _check_keys(m, mpath, required=("type", "nu", "mu"), optional=("eta0",) + budgets)
    return _build(
        mpath,
        bb_schedule,
        n,
        nu=_number(m, "nu", mpath),
        mu=_number(m, "mu", mpath),
        **_given(m, {"eta0": float}, mpath),
    )


def build_solver_config(spec: dict, n: int) -> SolverConfig:
    s = spec["solver"]
    path = "solver"
    rule = _choice(s, "rule", path, RULES)
    ls_kwargs = _given(s, _LINESEARCH_KEYS, path)
    if rule is not None:
        ls_kwargs["rule"] = rule
    ls = _build(path, LineSearchConfig, **ls_kwargs)

    metrics = _build_metrics(s, n)
    kwargs = _given(s, _SOLVER_KEYS, path)
    return _build(path, SolverConfig, linesearch=ls, metrics=metrics, **kwargs)


def _out_path(args, default_suffix: str, configured=None) -> str:
    """--out, else ``configured`` (solve's output.trace), else the spec's
    path less ``.json`` plus ``default_suffix``."""
    return args.out or configured or args.spec.removesuffix(".json") + default_suffix


def _load(args):
    """The spec of --spec, its problem and x0 under --seed, and its solver config."""
    spec = load_spec(args.spec)
    problem, x0 = build_problem(spec, args.seed)
    return spec, problem, x0, build_solver_config(spec, problem.dimension)


def _report_failure(result) -> int:
    """The exit code of a run: 3 after a search failure, whose step it
    prints to stderr, else 0."""
    if result.termination != "search_failure":
        return 0
    # the failing iterate stays in result.failure["x"]; the text names the
    # step that failed, not the point
    f = result.failure
    values = " ".join(
        f"{key}={float(f[key]):.17g}" for key in ("gamma_last", "lam_last", "lhs", "rhs")
    )
    print(
        f"search failure: rule={f['rule']} iteration={f['iteration']} {values} "
        f"({f['message']})",
        file=sys.stderr,
    )
    return 3


def cmd_solve(args) -> int:
    spec, problem, x0, config = _load(args)
    result = solve(problem, x0, config)
    out = _out_path(args, "_trace.csv", spec["output"].get("trace"))
    write_trace_csv(out, result.trace)
    print(
        f"{result.termination} after {len(result.trace)} iterations, "
        f"F = {result.F_final:.17g}; trace -> {out}"
    )
    return _report_failure(result)


_COMPARE_HEADER = (
    "rule,termination,iterations,f_evals,grad_evals,prox_evals,min_gamma,min_lambda,F_final"
)


def cmd_compare(args) -> int:
    _, problem, x0, base = _load(args)
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    else:
        rules = [r for r in RULES if r != "fixed"]
    for r in rules:
        if r not in RULES:
            raise UsageError(f"--rules: expected names from {list(RULES)}, got {r!r}")

    lines = [_COMPARE_HEADER]
    for rule in rules:
        try:
            ls = dataclasses.replace(base.linesearch, rule=rule)
            config = dataclasses.replace(base, linesearch=ls)
            result = solve(problem, x0, config)
            trace = result.trace
            lines.append(",".join([
                rule,
                result.termination,
                str(len(trace)),
                str(result.f_evals),
                str(result.grad_evals),
                str(result.prox_evals),
                _fmt(float(np.min(trace.gamma)) if len(trace) else np.nan),
                _fmt(float(np.min(trace.lam)) if len(trace) else np.nan),
                _fmt(result.F_final),
            ]))
        except UsageError as exc:
            lines.append(",".join([rule, f"error: {exc}".replace(",", ";"),
                                   "0", "0", "0", "0", "nan", "nan", "nan"]))
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    sys.stdout.write(table)
    return 0


def cmd_validate_metrics(args) -> int:
    spec, problem, _, config = _load(args)
    schedule = config.metrics or constant_schedule(np.ones(problem.dimension))
    horizon = args.horizon if args.horizon is not None else 200
    if horizon < 1:
        raise UsageError(f"--horizon must be >= 1, got {horizon}")
    budgets = _given(spec["solver"].get("metrics", {}), _BUDGET_KEYS, "solver.metrics")
    print(validate_growth(schedule, horizon, budgets.get("growth_budget")))
    print(validate_spread(schedule, horizon, budgets.get("spread_budget")))
    return 0


def cmd_rate(args) -> int:
    if not args.fstar:
        raise UsageError("rate needs --fstar PATH (a text file holding the reference value)")
    try:
        with open(args.fstar) as fh:
            f_star = float(fh.read().strip())
    except OSError as exc:
        raise UsageError(f"cannot read --fstar: {exc}") from None
    except ValueError:
        raise UsageError(f"--fstar file does not hold a single number") from None
    if not math.isfinite(f_star):
        raise UsageError(f"--fstar must be finite, got {f_star!r}")
    _, problem, x0, config = _load(args)
    result = solve(problem, x0, config)
    # a first search that fails leaves no row to rate: the table is its header
    r, tails = (), {}
    if len(result.trace):
        est = estimate_rate(result, f_star)
        r, tails = est.r, est.tails
    out = _out_path(args, "_rate.csv")
    with open(out, "w") as fh:
        fh.write("k,F,r\n")
        for k, F, r_k in zip(result.trace.k, result.trace.F, r):
            fh.write(f"{int(k)},{_fmt(F)},{_fmt(r_k)}\n")
    for K in sorted(tails):
        print(f"sup_{{k>={K}}} k*(F_k - F*) = {tails[K]:.17g}")
    print(f"rate table -> {out}")
    return _report_failure(result)


def _add_common(p, *, out=False, rules=False, horizon=False, fstar=False):
    p.add_argument("--spec", required=True, help="experiment JSON path")
    p.add_argument("--seed", type=int, default=None,
                   help="override seeds of generated problem data")
    if out:
        p.add_argument("--out", default=None, help="output CSV path")
    if rules:
        p.add_argument("--rules", default=None, help="comma-separated rule names")
    if horizon:
        p.add_argument("--horizon", type=int, default=None,
                       help="schedule steps to examine (default 200)")
    if fstar:
        p.add_argument("--fstar", default=None,
                       help="text file holding the reference optimal value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmfbs",
        description="forward-backward solver experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one configuration and write its trace")
    _add_common(p, out=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run several stepsize rules, tabulate costs")
    _add_common(p, out=True, rules=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate-metrics", help="partial sums of the metric schedule")
    _add_common(p, horizon=True)
    p.set_defaults(func=cmd_validate_metrics)

    p = sub.add_parser("rate", help="solve and report k*(F_k - F*) decade tails")
    _add_common(p, out=True, fstar=True)
    p.set_defaults(func=cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
