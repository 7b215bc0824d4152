"""The variable-metric forward-backward outer loop.

Per iteration k: emit the metric W_k, take one step, record the trace
row, and evaluate the stopping rules. Execution is fully deterministic.

- backtracking rules (ls1/ls2/ls3/ls4/tseng-yun) need no Lipschitz
  constant. Each step is one call of the grid walk
  :func:`~vmfbs.linesearch.line_search`. The a-priori value (lam_k for
  ls1/ls3, gamma_k for the others) comes from its schedule, except
  in the general domain regime: there a first walk of the same kernel,
  the domain walk, produces gamma_k for the lam-backtracking rules and
  the backtracking start for ls1/ls3, and its accepted prox point is
  the search's first trial.
- fixed-step mode is a lam walk of the same kernel that takes its
  first trial untested; instead it requires a known global L with
  sup_k gamma lam / nu_k strictly below 2/L, validated up front by
  :func:`fixed_step_validate`.

The search tests the last step like any other; a run stops at the
fixed-point tolerance through :func:`stopping_check` on the accepted
step.

The trace is stored by column: each iteration appends its fourteen
values straight to fourteen typed arrays (``array('d')``, ``array('q')``
for the counters, 8 bytes a value), and :class:`Trace` views them as
numpy arrays when the run ends. No per-iteration row object is built;
``stopping_check`` reads the F column and the last scaled residual.
The metric, lam_k and gamma_k each come from a ``MetricSchedule`` (a
constant emits itself), read at one site; the ``StepSnapshot`` they may
read is built once per step, only when one of them depends on the run.

The recorded per-iteration residuals (descent inequality, sufficient
decrease) are signed; nonpositive means the inequality holds. For the
checkers' use, fixed-step runs carry the effective delta
L * sup(gamma lam / nu) / 2 under which the sufficient-decrease chain
holds, and Tseng-Yun runs carry 1 - (1-beta) sigma.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diagnostics import CheckReport
from .linesearch import _GAMMA_WALKS, LineSearchConfig, line_search
from .metrics import MetricSchedule, StepSnapshot, _min_nu, constant_schedule
from .problems import (
    CompositeProblem,
    SearchFailure,
    UsageError,
    as_vector,
    check_count,
)

__all__ = [
    "TERMINATIONS",
    "SolverConfig",
    "Trace",
    "write_trace_csv",
    "read_trace_csv",
    "States",
    "SolveResult",
    "FixedStepReport",
    "fixed_step_validate",
    "stopping_check",
    "solve",
]

TERMINATIONS = ("fixed_point", "max_iter", "objective_stall", "search_failure")

_INT_COLUMNS = {"k", "backtracks", "f_evals", "grad_evals", "prox_evals"}


class Trace:
    """The record of a run: one array per column, read as an attribute.

    ``Trace.COLUMNS`` names the columns in order, and ``columns`` must
    map each of them, and no other name, to its values; ``len(trace)``
    is the row count. ``trace.F`` is F(x_k) before the update.
    ``mapping_norm`` is ||y_k - x_k||_k / gamma_k (the prox-gradient
    mapping norm) and ``fp_scaled`` is ||y_k - x_k||_k / (1 + ||x_k||),
    the quantity the fixed-point stopping rule thresholds. The two check
    residuals are signed (<= 0 means the inequality holds).
    ``domain_gamma`` is the gamma accepted by the domain search, NaN in
    the standard regime. The counter columns are integers, the others
    floats.
    """

    COLUMNS = (
        "k", "F", "gamma", "lam", "backtracks", "step_norm", "mapping_norm", "fp_scaled",
        "descent_residual", "decrease_residual", "domain_gamma",
        "f_evals", "grad_evals", "prox_evals",
    )
    __slots__ = COLUMNS

    def __init__(self, columns: dict):
        missing = [name for name in self.COLUMNS if name not in columns]
        unknown = sorted(set(columns) - set(self.COLUMNS))
        if missing or unknown:
            raise UsageError(f"trace columns: missing {missing}, unknown {unknown}")
        for name in self.COLUMNS:
            dtype = int if name in _INT_COLUMNS else float
            setattr(self, name, np.asarray(columns[name], dtype=dtype))
        if len({len(getattr(self, name)) for name in self.COLUMNS}) > 1:
            raise UsageError("trace columns have inconsistent lengths")

    def __len__(self) -> int:
        return len(self.k)


# the trace file: every trace column in order under a header that spells
# lam as "lambda", floats with 17 significant digits so that re-parsing
# is lossless
_CSV_HEADER = ",".join("lambda" if name == "lam" else name for name in Trace.COLUMNS)


def _fmt(v) -> str:
    """One CSV number: an integer as itself, a float with 17 significant digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_trace_csv(path, trace: Trace) -> None:
    """Write every column of ``trace`` to a CSV file, one line per iteration."""
    cols = [getattr(trace, name) for name in Trace.COLUMNS]
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in zip(*cols):
            fh.write(",".join(map(_fmt, row)) + "\n")


def read_trace_csv(path) -> Trace:
    """Read a trace CSV written by :func:`write_trace_csv` back into a :class:`Trace`.

    The header must be the one :func:`write_trace_csv` writes, every
    trace column in order with lam spelled 'lambda' (a Python keyword).
    A different header, a short, long or non-numeric row, or a counter
    that is not a whole number is refused with its line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lines = [(reader.line_num, row) for row in reader if row]
    if not lines:
        raise UsageError(f"{path}: empty trace file")
    line, header = lines[0]
    if ",".join(h.strip() for h in header) != _CSV_HEADER:
        raise UsageError(f"{path}, line {line}: expected the trace header {_CSV_HEADER}")
    names = Trace.COLUMNS
    rows = []
    for line, row in lines[1:]:
        try:
            if len(row) != len(names):
                raise ValueError(f"{len(row)} field(s) under a header of {len(names)}")
            rows.append([float(v) for v in row])
            for name, v in zip(names, rows[-1]):
                if name in _INT_COLUMNS and not v.is_integer():
                    raise ValueError(f"{name} = {v!r} is not an integer")
        except ValueError as exc:
            raise UsageError(f"{path}, line {line}: {exc}") from None
    return Trace({name: [row[j] for row in rows] for j, name in enumerate(names)})


@dataclass
class States:
    """Full iterate history for diagnostic-grade runs.

    xs is (T+1) x n (x_0 through x_T), ys is T x n (the unrelaxed prox
    points), weights is (T+1) x n (the metric of each iteration plus the
    one that would have been emitted next, so transition k uses rows k
    and k+1).
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray


@dataclass
class SolverConfig:
    """Loop configuration around a LineSearchConfig.

    ``lam_schedule`` feeds ls1/ls3 (values in (0,1]); ``gamma_schedule``
    feeds ls2/ls4/tseng-yun (positive values), defaulting to the
    constant gamma_max. Each is a constant or a ``MetricSchedule``
    emitting one value per step (``global_mu`` <= 1 for lam).
    ``tol_fixed_point`` = 0 stops only at exact fixed points;
    ``tol_objective_stall`` = 0 disables the stall rule.
    ``record_states`` keeps full iterate history (memory: three arrays
    of (max_iterations+1) x n floats).
    """

    linesearch: LineSearchConfig = field(default_factory=LineSearchConfig)
    metrics: MetricSchedule | None = None
    lam_schedule: float | MetricSchedule = 1.0
    gamma_schedule: float | MetricSchedule | None = None
    max_iterations: int = 1000
    tol_fixed_point: float = 0.0
    tol_objective_stall: float = 0.0
    stall_window: int = 50
    record_states: bool = False

    def __post_init__(self):
        check_count("max_iterations", self.max_iterations)
        check_count("stall_window", self.stall_window)
        for name in ("tol_fixed_point", "tol_objective_stall"):
            # a NaN tolerance would switch its stopping rule off unseen
            if not (getattr(self, name) >= 0):
                raise UsageError(f"{name} must be nonnegative, got {getattr(self, name)}")
        lam, gamma = self.lam_schedule, self.gamma_schedule
        for name, value in (("lam_schedule", lam), ("gamma_schedule", gamma)):
            if callable(value):
                raise UsageError(f"{name} takes a constant or a MetricSchedule, not a callable; "
                                 "use table_schedule or MetricSchedule(generator, ...)")
        # a schedule has 0 < nu <= mu < inf and checks its values where it emits them
        if isinstance(lam, MetricSchedule) and lam.global_mu > 1:
            raise UsageError(f"lam_schedule must lie in (0,1], got global_mu={lam.global_mu}")
        if not (isinstance(lam, MetricSchedule) or 0 < lam <= 1):
            raise UsageError(f"lam_schedule must lie in (0,1], got {lam}")
        if not (gamma is None or isinstance(gamma, MetricSchedule) or 0 < gamma < math.inf):
            raise UsageError(f"gamma_schedule must be positive and finite, got {gamma}")


@dataclass
class SolveResult:
    """What :func:`solve` returns; its oracle counters sum the trace's
    columns, and ``f_evals`` adds the call at x0. ``config`` is the
    configuration the run used."""

    x_final: np.ndarray
    F_final: float
    termination: str
    trace: Trace
    verification: dict
    states: States | None = None
    failure: dict | None = None
    delta_effective: float = np.nan
    config: SolverConfig | None = None

    @property
    def f_evals(self) -> int:
        return 1 + int(self.trace.f_evals.sum())

    @property
    def grad_evals(self) -> int:
        return int(self.trace.grad_evals.sum())

    @property
    def prox_evals(self) -> int:
        return int(self.trace.prox_evals.sum())


@dataclass
class FixedStepReport:
    passed: bool
    margin: float
    sup_ratio: float
    bound: float
    lipschitz: float


def _snapshot(x, grad, x_prev, grad_prev, w_prev) -> StepSnapshot:
    """The state of step k that a schedule reading the run is handed."""
    return StepSnapshot(x=x, dx=x - x_prev, dgrad=grad - grad_prev, prev_weights=w_prev)


def fixed_step_validate(problem: CompositeProblem, config: SolverConfig) -> FixedStepReport:
    """Check sup_k gamma lam / nu_k < 2/L strictly over the horizon."""
    ls = config.linesearch
    if ls.rule != "fixed":
        raise UsageError("fixed_step_validate applies to fixed-step configurations")
    L = problem.f.lipschitz_bound
    if L is None:
        raise UsageError(
            "fixed-step mode needs a smooth term with a known global gradient "
            "Lipschitz constant; use a backtracking rule instead"
        )
    L = float(L)
    nu = _min_nu(config.metrics, config.max_iterations)
    sup_ratio = ls.fixed_gamma * ls.fixed_lam / nu
    bound = np.inf if L == 0.0 else 2.0 / L
    margin = bound - sup_ratio
    return FixedStepReport(
        passed=bool(margin > 0),
        margin=float(margin),
        sup_ratio=float(sup_ratio),
        bound=float(bound),
        lipschitz=L,
    )


def stopping_check(F: Sequence[float], fp_scaled: float, config: SolverConfig) -> str | None:
    """Termination reason after the last recorded row, or None to continue.

    ``F`` is the trace's F column so far (one value per recorded row) and
    ``fp_scaled`` the last row's scaled residual. Fixed point when
    fp_scaled is within tol_fixed_point; objective stall when the F
    decrease across the trailing stall window is below
    tol_objective_stall.
    """
    if len(F) < 1:
        raise UsageError("stopping_check needs at least one recorded iterate")
    if fp_scaled <= config.tol_fixed_point:
        return "fixed_point"
    w = config.stall_window
    if config.tol_objective_stall > 0 and len(F) > w:
        if F[-(w + 1)] - F[-1] < config.tol_objective_stall:
            return "objective_stall"
    return None


def _delta_effective(ls: LineSearchConfig, fixed_report: FixedStepReport | None) -> float:
    if ls.rule == "fixed":
        return fixed_report.lipschitz * fixed_report.sup_ratio / 2.0
    if ls.rule == "tseng-yun":
        return 1.0 - (1.0 - ls.beta) * ls.sigma
    return ls.delta


def solve(problem: CompositeProblem, x0, config: SolverConfig | None = None) -> SolveResult:
    """Run VM-FBS from x0 under the given configuration.

    Raises :class:`UsageError` for an infeasible start or an unusable
    configuration; an exhausted backtracking budget does not raise but
    terminates with ``termination="search_failure"`` and the offending
    iteration in ``result.failure``.
    """
    if config is None:
        config = SolverConfig()
    ls = config.linesearch
    rule = ls.rule
    x = as_vector(x0, problem.dimension)
    n = x.size
    metrics = config.metrics if config.metrics is not None else constant_schedule(np.ones(n))
    general = problem.domain_regime == "general"

    if not problem.g.in_domain(x):
        raise UsageError("x0 lies outside dom g")
    if general:
        if not problem.f.in_domain(x):
            raise UsageError("x0 must lie in the interior of dom f in the general regime")
        if problem.f.lower_bound is None or problem.g.lower_bound is None:
            raise UsageError(
                "the general regime needs declared lower bounds on both f and g"
            )
        if rule == "fixed":
            raise UsageError(
                "fixed-step mode requires the standard domain regime; the step bound "
                "has no meaning without a global L on dom g"
            )

    fx = problem.f.value(x)
    if not np.isfinite(fx):
        raise UsageError(
            "f(x0) is not finite although x0 is in dom g; "
            "the problem's domain regime looks misdeclared"
        )
    gx = problem.g.value(x)
    if not np.isfinite(gx):
        raise UsageError("g(x0) is not finite")

    fixed_report = None
    if rule == "fixed":
        fixed_report = fixed_step_validate(problem, config)
        if not fixed_report.passed:
            raise UsageError(
                f"fixed-step parameters violate the strict step bound: "
                f"sup gamma*lam/nu = {fixed_report.sup_ratio:.17g} >= "
                f"{fixed_report.bound:.17g} = 2/L"
            )
    delta_eff = _delta_effective(ls, fixed_report)

    # a constant is the schedule that emits it every step
    lam_schedule, gamma_schedule = (
        s if isinstance(s, MetricSchedule) else constant_schedule(s)
        for s in (config.lam_schedule, config.gamma_schedule or ls.gamma_max)
    )
    reads_state = metrics.reads_state or lam_schedule.reads_state or gamma_schedule.reads_state

    cols = {name: array("q" if name in _INT_COLUMNS else "d") for name in Trace.COLUMNS}
    F_col = cols["F"]
    (
        add_k, add_F, add_gamma, add_lam, add_backtracks, add_step_norm, add_mapping_norm,
        add_fp_scaled, add_descent, add_decrease, add_domain_gamma,
        add_f_evals, add_grad_evals, add_prox_evals,
    ) = (cols[name].append for name in Trace.COLUMNS)
    record_states = config.record_states
    xs = [x.copy()] if record_states else None
    ys = [] if record_states else None
    w_rows = [] if record_states else None

    f = problem.f

    def emit(name, schedule, size, k, snapshot):
        try:
            w = schedule.metric_at(k, snapshot)
        except UsageError as exc:
            raise UsageError(f"{name} at k={k}: {exc}") from None
        if w.size != size:
            raise UsageError(f"{name} emitted {w.size} weights at k={k}, not {size} (n={n})")
        return w

    walks_gamma = rule in _GAMMA_WALKS
    # a one-row table emits its row at every step: the lam of a gamma walk
    # is then read once, not once per step
    lam_rows = lam_schedule.rows
    lam_once = (emit("lam_schedule", lam_schedule, 1, 0, None).item()
                if walks_gamma and lam_rows is not None and len(lam_rows) == 1 else None)
    x_prev = grad_prev = w_prev = None
    # the last accepted gamma (gamma walks) or lam (lam walks); the fixed
    # step and the general regime's gamma walks keep their grid top
    warm_start = ls.warm_start and rule != "fixed" and not (general and walks_gamma)
    warm = None
    termination = "max_iter"
    failure = None

    for k in range(config.max_iterations):
        grad = f.gradient(x)
        snapshot = _snapshot(x, grad, x_prev, grad_prev, w_prev) if reads_state and k > 0 else None
        w = emit("metrics", metrics, n, k, snapshot)
        if record_states:
            w_rows.append(w)

        dom_gamma = math.nan
        dom_prox = 0
        try:
            y_start = None
            if general:
                dom = line_search(
                    problem, w, x, "domain", ls,
                    fx=fx, gx=gx, grad=grad, start=ls.gamma_max, other=1.0,
                )
                dom_gamma, y_start, dom_prox = dom.gamma, dom.y, dom.prox_evals
            if rule == "fixed":
                top, other = ls.fixed_lam, float(ls.fixed_gamma)
            elif walks_gamma:
                top = dom_gamma if general else ls.gamma_max
                other = (lam_once if lam_once is not None
                         else emit("lam_schedule", lam_schedule, 1, k, snapshot).item())
            elif general:
                top, other = 1.0, dom_gamma
            else:
                top, other = 1.0, emit("gamma_schedule", gamma_schedule, 1, k, snapshot).item()
            start = top if warm is None else min(top, warm / ls.theta)
            outcome = line_search(
                problem, w, x, rule, ls,
                fx=fx, gx=gx, grad=grad, start=start, other=other, y=y_start,
            )
        except SearchFailure as exc:
            termination = "search_failure"
            failure = {"iteration": k, "message": str(exc)}
            failure.update(exc.diagnostics)
            break

        x_next = outcome.x_next
        F_here = fx + gx
        F_next = outcome.f_next + outcome.g_next

        gamma, lam, ns = outcome.gamma, outcome.lam, outcome.norm_sq_yx
        root_ns = math.sqrt(ns)
        step = x_next - x
        step_norm = math.sqrt(step.dot(step))
        fp_scaled = root_ns / (1.0 + math.sqrt(x.dot(x)))

        add_k(k)
        add_F(F_here)
        add_gamma(gamma)
        add_lam(lam)
        add_backtracks(outcome.backtracks)
        add_step_norm(step_norm)
        add_mapping_norm(root_ns / gamma)
        add_fp_scaled(fp_scaled)
        add_descent(outcome.ell + ns / gamma)
        add_decrease((1.0 - delta_eff) * lam**2 * ns - gamma * (F_here - F_next))
        add_domain_gamma(dom_gamma)
        add_f_evals(outcome.f_evals)
        add_grad_evals(1 + outcome.grad_evals)
        add_prox_evals(dom_prox + outcome.prox_evals)
        if record_states:
            xs.append(x_next.copy())
            ys.append(outcome.y.copy())

        x_prev = x
        grad_prev = grad
        w_prev = w
        x = x_next
        fx = outcome.f_next
        gx = outcome.g_next
        if warm_start:
            warm = gamma if walks_gamma else lam

        reason = stopping_check(F_col, fp_scaled, config)
        if reason is not None:
            termination = reason
            break

    states = None
    if record_states:
        if len(w_rows) == len(xs) - 1:
            # align: emit the metric of the next (never-run) iteration so
            # transition k can use weight rows k and k+1
            snapshot = None
            if metrics.reads_state:
                # a step has run, so x_prev is set; the gradient is verification-only
                snapshot = _snapshot(x, f.gradient(x), x_prev, grad_prev, w_prev)
            w_rows.append(emit("metrics", metrics, n, len(w_rows), snapshot))
        states = States(
            xs=np.array(xs), ys=np.array(ys).reshape(len(ys), n), weights=np.array(w_rows)
        )

    trace = Trace(cols)
    verification = {}
    if len(trace) > 0:
        scales = 1.0 + np.abs(trace.F)
        for name, residuals in (("descent", trace.descent_residual),
                                ("sufficient_decrease", trace.decrease_residual)):
            verification[name] = CheckReport(
                name=name, residuals=residuals, scales=scales, tolerance=1e-10
            )

    return SolveResult(
        x_final=x,
        F_final=fx + gx,
        termination=termination,
        trace=trace,
        verification=verification,
        states=states,
        failure=failure,
        delta_effective=delta_eff,
        config=config,
    )
