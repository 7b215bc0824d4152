"""Diagonal variable metrics.

A metric is a positive diagonal matrix W = diag(w), represented by its
weight vector w alone. It induces

    <u, v>_W = sum_i w_i u_i v_i,      ||v||_W^2 = w @ (v * v),

and the prox of g in it is ``g.prox(z, gamma, w)``.

The solver consumes a :class:`MetricSchedule`, which emits one weight
vector per iteration, has global eigenvalue bounds
0 < nu <= nu_k <= mu_k <= mu (a table's are the extremes of its rows, a
generator declares them and every emitted vector is held to them) and
declares the summability regime its weights are supposed to satisfy
(the same type, emitting one value per step, gives the solver its lam_k
and gamma_k):

- ``"constant"``: the same metric every iteration.
- ``"growth"``: per-step relative growth is summable. With
  eta_k = max(0, max_i w_{k+1,i} / w_{k,i} - 1), the schedule promises
  sum_k eta_k < inf. This bounds ||v||_{k+1}^2 <= (1 + eta_k) ||v||_k^2.
- ``"spread"``: the per-step eigenvalue spread mu_k - nu_k is summable,
  so the metrics collapse to multiples of the identity.

Validation over a finite horizon is necessarily heuristic (a finite
window cannot certify an infinite sum); the validators report partial
sums and a verdict against a caller-supplied budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import UsageError, check_count

__all__ = [
    "StepSnapshot",
    "MetricSchedule",
    "constant_schedule",
    "table_schedule",
    "bb_schedule",
    "SummabilityReport",
    "validate_growth",
    "validate_spread",
]


def _checked(weights) -> tuple[np.ndarray, float, float]:
    """A read-only float64 copy of a weight vector, with its extreme entries.

    The checks of a vector (1-D and nonempty, a scalar becoming length
    1, finite) and of positivity are read off one min and one max: a NaN
    propagates through both.
    """
    w = np.array(weights, dtype=float)
    if w.ndim == 0:
        w = w.reshape(1)
    if w.ndim != 1:
        raise UsageError(f"expected a vector, got array with shape {w.shape}")
    if w.size == 0:
        raise UsageError("weight vector is empty")
    lo = float(np.minimum.reduce(w))
    hi = float(np.maximum.reduce(w))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("vector has non-finite entries")
    if not lo > 0:
        raise UsageError("weights must be strictly positive")
    w.flags.writeable = False
    return w, lo, hi


@dataclass(frozen=True)
class StepSnapshot:
    """State handed to a schedule when it emits the values of step k >= 1.

    x = x_k, dx = x_k - x_{k-1}, dgrad = grad f(x_k) - grad f(x_{k-1}),
    prev_weights = the weights the metric schedule emitted at step k-1.
    The solver owns these arrays (x_k is not a copy); schedules only read.
    """

    x: np.ndarray
    dx: np.ndarray
    dgrad: np.ndarray
    prev_weights: np.ndarray


class MetricSchedule:
    """Emits the weight vector of the diagonal metric of each iteration.

    A schedule has exactly one of two sources:

    - ``rows``, for weights that do not depend on the run: the weights
      emitted at k = 0, 1, ..., len(rows) - 1, after which the last row
      holds. Every row is checked once, here (1-D, finite, positive); an
      empty table and rows of different lengths are refused. The bounds
      are the rows' own: ``global_nu`` is the smallest entry of the
      table and ``global_mu`` the largest, so none are given. Emitting a
      row is a lookup that returns the same read-only array each time.
    - ``generator(k, snapshot)``, which returns the weights of step k as
      any array-like and must be a pure function of its arguments;
      state-dependent strategies (BB) get their state through the
      snapshot. Such a schedule declares its bounds
      0 < ``global_nu`` <= ``global_mu`` < inf, and :meth:`metric_at`
      checks each vector as above where it is emitted, refusing any
      entry outside [global_nu, global_mu]: the bounds hold exactly. It
      counts as reading its :class:`StepSnapshot`: the solver builds
      snapshots only if one of its schedules does, and the validators
      cannot judge it without a run.
    """

    def __init__(
        self,
        generator: Callable[[int, StepSnapshot | None], np.ndarray] | None = None,
        *,
        rows=None,
        global_nu: float | None = None,
        global_mu: float | None = None,
        declared_regime: str,
    ):
        if (generator is None) == (rows is None):
            raise UsageError("a metric schedule needs exactly one of a generator and rows")
        if rows is not None:
            if global_nu is not None or global_mu is not None:
                raise UsageError("a schedule built from rows takes its bounds from the rows; "
                                 "give no global_nu or global_mu")
            checked = [_checked(w) for w in rows]
            if not checked:
                raise UsageError("a schedule table needs at least one row")
            lengths = sorted({w.size for w, _, _ in checked})
            if len(lengths) > 1:
                raise UsageError(f"schedule rows have different lengths {lengths}")
            rows = tuple(w for w, _, _ in checked)
            global_nu = min(lo for _, lo, _ in checked)
            global_mu = max(hi for _, _, hi in checked)
        elif global_nu is None or global_mu is None or not (0 < global_nu <= global_mu < np.inf):
            raise UsageError(f"need 0 < nu <= mu < inf, got nu={global_nu}, mu={global_mu}")
        if declared_regime not in ("constant", "growth", "spread"):
            raise UsageError(
                f"declared_regime must be 'constant', 'growth' or 'spread', got {declared_regime!r}"
            )
        self._generator = generator
        self.global_nu = float(global_nu)
        self.global_mu = float(global_mu)
        self.declared_regime = declared_regime
        self.rows: tuple[np.ndarray, ...] | None = rows

    @property
    def reads_state(self) -> bool:
        """Whether the weights depend on the solver state (a generator, no ``rows``)."""
        return self.rows is None

    def metric_at(self, k: int, snapshot: StepSnapshot | None = None) -> np.ndarray:
        """The weights w_k of step k: a checked, read-only float64 vector."""
        if k < 0:
            raise UsageError(f"iteration index must be nonnegative, got {k}")
        rows = self.rows
        if rows is not None:
            return rows[k] if k < len(rows) else rows[-1]
        w, lo, hi = _checked(self._generator(k, snapshot))
        if lo < self.global_nu or hi > self.global_mu:
            emitted = f"emitted {lo}" if w.size == 1 else f"emitted weights in [{lo}, {hi}]"
            raise UsageError(
                f"{emitted}, outside declared bounds [{self.global_nu}, {self.global_mu}]"
            )
        return w


def constant_schedule(weights) -> MetricSchedule:
    """The same diagonal metric every iteration (identity when w = ones)."""
    return MetricSchedule(rows=(weights,), declared_regime="constant")


def table_schedule(rows, *, regime: str) -> MetricSchedule:
    """Weights read from an explicit per-iteration table.

    Row k is the weight vector of step k, and the last row holds past the
    end of the table. The schedule's bounds are the smallest and the
    largest entry of its rows.
    """
    return MetricSchedule(rows=rows, declared_regime=regime)


def bb_schedule(n: int, *, nu: float, mu: float, eta0: float = 1.0) -> MetricSchedule:
    """Safeguarded diagonal Barzilai-Borwein weights.

    Raw weights are per-coordinate secant ratios dgrad_i / dx_i (a
    diagonal Hessian estimate). Coordinates with a tiny displacement or
    a nonpositive ratio keep their previous weight. The result is
    clipped into [nu, mu] and then capped by the growth corridor

        w_{k,i} <= (1 + eta0 * 2^{-(k-1)}) * w_{k-1,i},

    which makes the relative growth summable by construction (partial
    sums bounded by 2 * eta0), hence the declared regime "growth".
    """
    check_count("n", n)
    if not (0 <= eta0 < math.inf):
        raise UsageError(f"eta0 must be nonnegative and finite, got {eta0}")
    if not (0 < nu <= mu):
        raise UsageError(f"bb_schedule needs 0 < nu <= mu, got nu={nu}, mu={mu}")
    start = np.clip(np.ones(n), nu, mu)
    # 0-d operands: a ufunc converts a Python float anew at each call
    lo, hi, zero, inf = (np.asarray(v, dtype=float) for v in (nu, mu, 0.0, np.inf))

    def gen(k, snap):
        if k == 0 or snap is None:
            return start
        prev = np.asarray(snap.prev_weights, dtype=float)
        adx = np.abs(snap.dx)
        scale = float(np.maximum.reduce(adx)) if adx.size else 0.0
        ok = adx > 1e-12 * (1.0 + scale)
        # the ratio is 0.0 at a short step, which the ratio test refuses
        ratio = np.divide(snap.dgrad, snap.dx, out=np.zeros(n), where=ok)
        w = np.where((ratio > zero) & (ratio < inf), ratio, prev)
        # clip into [nu, mu], then cap by the growth corridor
        np.maximum(w, lo, out=w)
        np.minimum(w, hi, out=w)
        return np.minimum(w, (1.0 + eta0 * 2.0 ** (-(k - 1))) * prev, out=w)

    return MetricSchedule(gen, global_nu=nu, global_mu=mu, declared_regime="growth")


def _min_nu(schedule: MetricSchedule | None, horizon: int) -> float:
    """Smallest nu_k over the first ``horizon`` steps (1 for no schedule).

    A schedule with state-free ``rows`` answers from the rows the horizon
    reaches. One whose weights depend on the run answers its declared
    global bound, which every emitted vector respects exactly: nu_k >= nu.
    """
    if schedule is None:
        return 1.0
    if schedule.reads_state:
        return schedule.global_nu
    return min(float(w.min()) for w in schedule.rows[:horizon])


_NEEDS_RUN = "n/a: needs a run, the weights depend on the solver state"


@dataclass
class SummabilityReport:
    """Partial sum of one per-step sequence of a schedule over a finite
    horizon: the relative growth eta_k (``name`` "growth") or the
    eigenvalue spread mu_k - nu_k ("spread"), one entry per step in
    ``terms``.

    For a schedule that reads the solver state ``needs_run`` is set,
    ``terms`` is empty, ``partial_sum`` NaN and ``passed`` None.
    """

    name: str
    terms: np.ndarray
    partial_sum: float
    budget: float | None
    passed: bool | None
    needs_run: bool = False

    def __str__(self):
        if self.needs_run:
            return f"{self.name}: {_NEEDS_RUN}"
        verdict = "n/a" if self.passed is None else ("pass" if self.passed else "FAIL")
        term = "eta" if self.name == "growth" else "(mu_k - nu_k)"
        return (
            f"{self.name}: sum {term} over {self.terms.size} steps = {self.partial_sum:.6g}"
            f" (budget {self.budget}, {verdict})"
        )


def growth_from_weights(weight_rows) -> np.ndarray:
    """eta_k = max(0, max_i w_{k+1,i} / w_{k,i} - 1) from explicit rows.

    This is the tightest per-step constant with
    ||v||_{k+1}^2 <= (1 + eta_k) ||v||_k^2 for all v.
    """
    rows = np.asarray(weight_rows, dtype=float)
    if len(rows) < 2:
        return np.zeros(0)
    return np.maximum(0.0, np.max(rows[1:] / rows[:-1], axis=1) - 1.0)


def _summability(name, terms_of, schedule, horizon, budget) -> SummabilityReport:
    """The report on ``terms_of(rows, horizon)`` over the first ``horizon`` steps.

    ``rows`` are the table rows the horizon reaches; every step past
    them emits the last row again, and ``terms_of`` fills in the terms
    of those steps without building their weights.
    """
    check_count("horizon", horizon)
    if schedule.reads_state:
        return SummabilityReport(name, np.zeros(0), np.nan, budget, None, needs_run=True)
    terms = terms_of(np.array(schedule.rows[:horizon]), horizon)
    total = float(terms.sum())
    passed = None if budget is None else bool(total <= budget)
    return SummabilityReport(name, terms, total, budget, passed)


def validate_growth(schedule: MetricSchedule, horizon: int, budget: float | None = None) -> SummabilityReport:
    """Partial sums of the relative-growth sequence, checked against a budget.

    Heuristic by nature: passing over a finite horizon does not prove the
    infinite sum converges. With ``budget=None`` only the partial sum is
    reported. A schedule that reads the solver state has no weights
    before a run, so its report says so and passes nothing.
    """
    def terms_of(rows, horizon):
        # a repeated row does not grow
        return np.pad(growth_from_weights(rows), (0, horizon - len(rows)))

    return _summability("growth", terms_of, schedule, horizon, budget)


def validate_spread(schedule: MetricSchedule, horizon: int, budget: float | None = None) -> SummabilityReport:
    """Partial sums of the eigenvalue spread, checked against a budget.

    As :func:`validate_growth`, a schedule that reads the solver state
    gets a report that needs a run.
    """
    def terms_of(rows, horizon):
        return np.pad(np.ptp(rows, axis=1), (0, horizon - len(rows)), mode="edge")

    return _summability("spread", terms_of, schedule, horizon, budget)
