"""Diagonal variable metrics.

A metric is a positive diagonal matrix W = diag(w) inducing

    <u, v>_W = sum_i w_i u_i v_i,      ||v||_W^2 = sum_i w_i v_i^2.

The solver consumes a :class:`MetricSchedule`, which emits one
:class:`DiagonalMetric` per iteration and declares global eigenvalue
bounds 0 < nu <= nu_k <= mu_k <= mu plus the summability regime its
weights are supposed to satisfy:

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

from .problems import ConfigurationError, ProxTerm, UsageError

__all__ = [
    "DiagonalMetric",
    "identity_metric",
    "metric_norm_sq",
    "metric_prox",
    "StepSnapshot",
    "MetricSchedule",
    "constant_schedule",
    "table_schedule",
    "bb_schedule",
    "GrowthReport",
    "SpreadReport",
    "validate_growth",
    "validate_spread",
]


@dataclass(frozen=True)
class DiagonalMetric:
    """Positive diagonal metric with cached extreme eigenvalues."""

    weights: np.ndarray
    nu_k: float
    mu_k: float

    @classmethod
    def from_weights(cls, weights) -> "DiagonalMetric":
        # the checks of as_vector and positivity, read off one min and max
        # (a NaN propagates through both)
        w = np.array(weights, dtype=float)
        if w.ndim == 0:
            w = w.reshape(1)
        if w.ndim != 1:
            raise UsageError(f"expected a vector, got array with shape {w.shape}")
        lo = float(w.min())
        hi = float(w.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError("vector has non-finite entries")
        if not lo > 0:
            raise ConfigurationError("metric weights must be strictly positive")
        w.flags.writeable = False
        return cls(weights=w, nu_k=lo, mu_k=hi)

    @property
    def dimension(self) -> int:
        return self.weights.size

    @property
    def is_uniform(self) -> bool:
        return self.nu_k == self.mu_k


def identity_metric(n: int) -> DiagonalMetric:
    return DiagonalMetric.from_weights(np.ones(n))


def _dim_error(metric: DiagonalMetric, v: np.ndarray) -> UsageError:
    return UsageError(
        f"vector of length {v.size} does not match metric of dimension {metric.weights.size}"
    )


def metric_norm_sq(metric: DiagonalMetric, v: np.ndarray) -> float:
    """||v||_W^2 = sum_i w_i v_i^2."""
    v = np.asarray(v, dtype=float)
    w = metric.weights
    if v.size != w.size:
        raise _dim_error(metric, v)
    return float(w @ (v * v))


def metric_prox(g: ProxTerm, metric: DiagonalMetric, z: np.ndarray, gamma: float) -> np.ndarray:
    """prox in the metric: argmin_y g(y) + (1/(2 gamma)) ||y - z||_W^2.

    For separable g this is the scalar prox of g_i at z_i with stepsize
    gamma / w_i, coordinate by coordinate. A non-separable g is only
    combinable with a uniform metric (w = c * ones), where the metric
    prox reduces to the Euclidean prox at stepsize gamma / c; the term
    itself raises :class:`ConfigurationError` otherwise.
    """
    if gamma <= 0 or not math.isfinite(gamma):
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    z = np.asarray(z, dtype=float)
    w = metric.weights
    if z.size != w.size:
        raise _dim_error(metric, z)
    return g.prox(z, float(gamma), w)


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
    """Emits the diagonal metric for each iteration.

    ``generator(k, snapshot)`` must be a pure function of its arguments;
    state-dependent strategies (BB) get their state through the snapshot.
    Emitted weights are checked against the declared global bounds, with
    a small relative slack for float round-off.

    ``rows`` is set by the factories of schedules whose weights do not
    depend on the run (constant, table): the metrics emitted at
    k = 0, 1, ..., len(rows) - 1, after which the schedule holds the last
    one (or refuses, for a table with ``extend="error"``). It stays None
    for BB and for any schedule built directly, which then counts as
    reading its :class:`StepSnapshot`: the solver builds a snapshot only
    for those, and the validators cannot judge them without a run.
    """

    rows: tuple[DiagonalMetric, ...] | None = None

    def __init__(
        self,
        generator: Callable[[int, StepSnapshot | None], DiagonalMetric],
        *,
        global_nu: float,
        global_mu: float,
        declared_regime: str,
    ):
        if not (0 < global_nu <= global_mu < np.inf):
            raise ConfigurationError(
                f"need 0 < nu <= mu < inf, got nu={global_nu}, mu={global_mu}"
            )
        if declared_regime not in ("constant", "growth", "spread"):
            raise ConfigurationError(
                f"declared_regime must be 'constant', 'growth' or 'spread', got {declared_regime!r}"
            )
        self._generator = generator
        self.global_nu = float(global_nu)
        self.global_mu = float(global_mu)
        self.declared_regime = declared_regime
        slack = 1e-12
        self._nu_floor = self.global_nu * (1 - slack)
        self._mu_ceiling = self.global_mu * (1 + slack)

    @property
    def reads_state(self) -> bool:
        """Whether the weights depend on the solver state (no state-free ``rows``)."""
        return self.rows is None

    def metric_at(self, k: int, snapshot: StepSnapshot | None = None) -> DiagonalMetric:
        if k < 0:
            raise UsageError(f"iteration index must be nonnegative, got {k}")
        m = self._generator(k, snapshot)
        if m.nu_k < self._nu_floor or m.mu_k > self._mu_ceiling:
            raise ConfigurationError(
                f"schedule emitted weights in [{m.nu_k}, {m.mu_k}] at k={k}, outside "
                f"declared bounds [{self.global_nu}, {self.global_mu}]"
            )
        return m


def constant_schedule(weights) -> MetricSchedule:
    """The same diagonal metric every iteration (identity when w = ones)."""
    m = DiagonalMetric.from_weights(weights)
    sched = MetricSchedule(
        lambda k, snap: m,
        global_nu=m.nu_k,
        global_mu=m.mu_k,
        declared_regime="constant",
    )
    sched.rows = (m,)
    return sched


def table_schedule(
    tables, *, nu: float, mu: float, regime: str, extend: str = "hold"
) -> MetricSchedule:
    """Weights read from an explicit per-iteration table.

    ``extend="hold"`` repeats the last row past the end of the table;
    ``extend="error"`` makes that a usage error instead.
    """
    if extend not in ("hold", "error"):
        raise ConfigurationError(f"extend must be 'hold' or 'error', got {extend!r}")
    rows = tuple(DiagonalMetric.from_weights(w) for w in tables)
    if not rows:
        raise ConfigurationError("table_schedule needs at least one row")

    def gen(k, snap):
        if k < len(rows):
            return rows[k]
        if extend == "hold":
            return rows[-1]
        raise UsageError(f"schedule table has {len(rows)} rows, asked for k={k}")

    sched = MetricSchedule(gen, global_nu=nu, global_mu=mu, declared_regime=regime)
    sched.rows = rows
    return sched


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
        raise ConfigurationError(f"eta0 must be nonnegative, got {eta0}")
    if not (0 < nu <= mu):
        raise ConfigurationError(f"bb_schedule needs 0 < nu <= mu, got nu={nu}, mu={mu}")
    start = np.clip(np.ones(n), nu, mu)

    def gen(k, snap):
        if k == 0 or snap is None:
            return DiagonalMetric.from_weights(start)
        prev = np.asarray(snap.prev_weights, dtype=float)
        adx = np.abs(snap.dx)
        scale = float(adx.max()) if adx.size else 0.0
        ok = adx > 1e-12 * (1.0 + scale)
        ratio = np.divide(snap.dgrad, snap.dx, out=np.zeros(n), where=ok)
        good = ok & (ratio > 0) & np.isfinite(ratio)
        w = np.where(good, ratio, prev).clip(nu, mu)
        w = np.minimum(w, (1.0 + eta0 * 2.0 ** (-(k - 1))) * prev)
        return DiagonalMetric.from_weights(w)

    return MetricSchedule(gen, global_nu=nu, global_mu=mu, declared_regime="growth")


def _emit_weights(schedule: MetricSchedule, horizon: int) -> list[np.ndarray] | None:
    """The weights of steps 0..horizon-1, or None when they depend on the run."""
    if horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {horizon}")
    if schedule.reads_state:
        return None
    return [schedule.metric_at(k, None).weights for k in range(horizon)]


_NEEDS_RUN = "n/a: needs a run, the weights depend on the solver state"


@dataclass
class GrowthReport:
    """Per-step relative growth of the weights over a finite horizon.

    For a schedule that reads the solver state ``needs_run`` is set,
    ``eta`` is empty, ``partial_sum`` NaN and ``passed`` None.
    """

    eta: np.ndarray
    partial_sum: float
    budget: float | None
    passed: bool | None
    needs_run: bool = False

    def __str__(self):
        if self.needs_run:
            return f"growth: {_NEEDS_RUN}"
        verdict = "n/a" if self.passed is None else ("pass" if self.passed else "FAIL")
        return (
            f"growth: sum eta over {self.eta.size} steps = {self.partial_sum:.6g}"
            f" (budget {self.budget}, {verdict})"
        )


@dataclass
class SpreadReport:
    """Per-step eigenvalue spread mu_k - nu_k over a finite horizon.

    For a schedule that reads the solver state ``needs_run`` is set,
    ``gaps`` is empty, ``partial_sum`` NaN and ``passed`` None.
    """

    gaps: np.ndarray
    partial_sum: float
    budget: float | None
    passed: bool | None
    needs_run: bool = False

    def __str__(self):
        if self.needs_run:
            return f"spread: {_NEEDS_RUN}"
        verdict = "n/a" if self.passed is None else ("pass" if self.passed else "FAIL")
        return (
            f"spread: sum (mu_k - nu_k) over {self.gaps.size} steps = {self.partial_sum:.6g}"
            f" (budget {self.budget}, {verdict})"
        )


def growth_from_weights(weight_rows) -> np.ndarray:
    """eta_k = max(0, max_i w_{k+1,i} / w_{k,i} - 1) from explicit rows.

    This is the tightest per-step constant with
    ||v||_{k+1}^2 <= (1 + eta_k) ||v||_k^2 for all v.
    """
    rows = [np.asarray(w, dtype=float) for w in weight_rows]
    if len(rows) < 2:
        return np.zeros(0)
    return np.array(
        [max(0.0, float(np.max(rows[k + 1] / rows[k])) - 1.0) for k in range(len(rows) - 1)]
    )


def validate_growth(schedule: MetricSchedule, horizon: int, budget: float | None = None) -> GrowthReport:
    """Partial sums of the relative-growth sequence, checked against a budget.

    Heuristic by nature: passing over a finite horizon does not prove the
    infinite sum converges. With ``budget=None`` only the partial sum is
    reported. A schedule that reads the solver state has no weights
    before a run, so its report says so and passes nothing.
    """
    ws = _emit_weights(schedule, horizon)
    if ws is None:
        return GrowthReport(eta=np.zeros(0), partial_sum=np.nan, budget=budget,
                            passed=None, needs_run=True)
    eta = growth_from_weights(ws)
    total = float(eta.sum())
    passed = None if budget is None else bool(total <= budget)
    return GrowthReport(eta=eta, partial_sum=total, budget=budget, passed=passed)


def validate_spread(schedule: MetricSchedule, horizon: int, budget: float | None = None) -> SpreadReport:
    """Partial sums of the eigenvalue spread, checked against a budget.

    As :func:`validate_growth`, a schedule that reads the solver state
    gets a report that needs a run.
    """
    ws = _emit_weights(schedule, horizon)
    if ws is None:
        return SpreadReport(gaps=np.zeros(0), partial_sum=np.nan, budget=budget,
                            passed=None, needs_run=True)
    gaps = np.array([float(w.max() - w.min()) for w in ws])
    total = float(gaps.sum())
    passed = None if budget is None else bool(total <= budget)
    return SpreadReport(gaps=gaps, partial_sum=total, budget=budget, passed=passed)
