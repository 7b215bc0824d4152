"""Diagonal variable metrics.

A metric is a positive diagonal matrix W = diag(w), represented by its
weight vector w alone. It induces

    <u, v>_W = sum_i w_i u_i v_i,      ||v||_W^2 = w @ (v * v),

and the prox of g in it is ``g.prox(z, gamma, w)``.

The solver consumes a :class:`MetricSchedule`, which emits one weight
vector per iteration and declares global eigenvalue bounds
0 < nu <= nu_k <= mu_k <= mu plus the summability regime its weights
are supposed to satisfy:

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

from .problems import UsageError

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
    lo = float(w.min())
    hi = float(w.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("vector has non-finite entries")
    if not lo > 0:
        raise UsageError("metric weights must be strictly positive")
    w.flags.writeable = False
    return w, lo, hi


@dataclass(frozen=True)
class StepSnapshot:
    """State handed to a schedule when it builds the metric for step k.

    dx = x_k - x_{k-1}, dgrad = grad f(x_k) - grad f(x_{k-1}),
    prev_weights = the weights the schedule emitted at step k-1.
    The solver owns the mutation; schedules only read.
    """

    dx: np.ndarray
    dgrad: np.ndarray
    prev_weights: np.ndarray


class MetricSchedule:
    """Emits the weight vector of the diagonal metric of each iteration.

    A schedule has exactly one of two sources:

    - ``rows``, for weights that do not depend on the run: the weights
      emitted at k = 0, 1, ..., len(rows) - 1, after which the last row
      holds. Every row is checked once, here: 1-D, finite, positive and
      inside the declared global bounds with a small relative slack for
      float round-off; an empty table and rows of different lengths are
      refused. Emitting a row is a lookup that returns the same
      read-only array each time.
    - ``generator(k, snapshot)``, which returns the weights of step k as
      any array-like and must be a pure function of its arguments;
      state-dependent strategies (BB) get their state through the
      snapshot. :meth:`metric_at` checks each vector as above, where it
      is emitted. Such a schedule counts as reading its
      :class:`StepSnapshot`: the solver builds a snapshot only for
      these, and the validators cannot judge them without a run.
    """

    def __init__(
        self,
        generator: Callable[[int, StepSnapshot | None], np.ndarray] | None = None,
        *,
        rows=None,
        global_nu: float,
        global_mu: float,
        declared_regime: str,
    ):
        if (generator is None) == (rows is None):
            raise UsageError("a metric schedule needs exactly one of a generator and rows")
        if not (0 < global_nu <= global_mu < np.inf):
            raise UsageError(f"need 0 < nu <= mu < inf, got nu={global_nu}, mu={global_mu}")
        if declared_regime not in ("constant", "growth", "spread"):
            raise UsageError(
                f"declared_regime must be 'constant', 'growth' or 'spread', got {declared_regime!r}"
            )
        self._generator = generator
        self.global_nu = float(global_nu)
        self.global_mu = float(global_mu)
        self.declared_regime = declared_regime
        slack = 1e-12
        self._nu_floor = self.global_nu * (1 - slack)
        self._mu_ceiling = self.global_mu * (1 + slack)
        if rows is not None:
            rows = tuple(self._bounded(w, k) for k, w in enumerate(rows))
            if not rows:
                raise UsageError("a schedule table needs at least one row")
            lengths = sorted({w.size for w in rows})
            if len(lengths) > 1:
                raise UsageError(f"schedule rows have different lengths {lengths}")
        self.rows: tuple[np.ndarray, ...] | None = rows

    @property
    def reads_state(self) -> bool:
        """Whether the weights depend on the solver state (a generator, no ``rows``)."""
        return self.rows is None

    def _bounded(self, weights, k: int) -> np.ndarray:
        """The checked weights of step k, refused outside the declared bounds."""
        w, lo, hi = _checked(weights)
        if lo < self._nu_floor or hi > self._mu_ceiling:
            raise UsageError(
                f"schedule emitted weights in [{lo}, {hi}] at k={k}, outside "
                f"declared bounds [{self.global_nu}, {self.global_mu}]"
            )
        return w

    def metric_at(self, k: int, snapshot: StepSnapshot | None = None) -> np.ndarray:
        """The weights w_k of step k: a checked, read-only float64 vector."""
        if k < 0:
            raise UsageError(f"iteration index must be nonnegative, got {k}")
        rows = self.rows
        if rows is not None:
            return rows[k] if k < len(rows) else rows[-1]
        return self._bounded(self._generator(k, snapshot), k)


def constant_schedule(weights) -> MetricSchedule:
    """The same diagonal metric every iteration (identity when w = ones)."""
    w, lo, hi = _checked(weights)
    return MetricSchedule(rows=(w,), global_nu=lo, global_mu=hi, declared_regime="constant")


def table_schedule(tables, *, nu: float, mu: float, regime: str) -> MetricSchedule:
    """Weights read from an explicit per-iteration table.

    Row k is the weight vector of step k, and the last row holds past the
    end of the table; every row is checked against the bounds [nu, mu]
    when the table is built.
    """
    return MetricSchedule(rows=tables, global_nu=nu, global_mu=mu, declared_regime=regime)


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
    if eta0 < 0:
        raise UsageError(f"eta0 must be nonnegative, got {eta0}")
    if not (0 < nu <= mu):
        raise UsageError(f"bb_schedule needs 0 < nu <= mu, got nu={nu}, mu={mu}")
    start = np.clip(np.ones(n), nu, mu)

    def gen(k, snap):
        if k == 0 or snap is None:
            return start
        prev = np.asarray(snap.prev_weights, dtype=float)
        adx = np.abs(snap.dx)
        scale = float(adx.max()) if adx.size else 0.0
        ok = adx > 1e-12 * (1.0 + scale)
        ratio = np.divide(snap.dgrad, snap.dx, out=np.zeros(n), where=ok)
        good = ok & (ratio > 0) & np.isfinite(ratio)
        w = np.where(good, ratio, prev).clip(nu, mu)
        return np.minimum(w, (1.0 + eta0 * 2.0 ** (-(k - 1))) * prev)

    return MetricSchedule(gen, global_nu=nu, global_mu=mu, declared_regime="growth")


def _emit_weights(schedule: MetricSchedule, horizon: int) -> list[np.ndarray] | None:
    """The weights of steps 0..horizon-1, or None when they depend on the run."""
    if horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {horizon}")
    if schedule.reads_state:
        return None
    return [schedule.metric_at(k) for k in range(horizon)]


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
    ws = _emit_weights(schedule, horizon)
    if ws is None:
        return SummabilityReport(name, np.zeros(0), np.nan, budget, None, needs_run=True)
    terms = terms_of(ws)
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
    return _summability("growth", growth_from_weights, schedule, horizon, budget)


def validate_spread(schedule: MetricSchedule, horizon: int, budget: float | None = None) -> SummabilityReport:
    """Partial sums of the eigenvalue spread, checked against a budget.

    As :func:`validate_growth`, a schedule that reads the solver state
    gets a report that needs a run.
    """
    return _summability("spread", lambda ws: np.ptp(ws, axis=1), schedule, horizon, budget)
