"""Post-hoc verification of the inequalities the iteration is built on.

Every checker here recomputes its inequality from recorded states and
problem callbacks rather than trusting residuals the solver logged, so
a corrupted record flips the verdict. Residual sign convention across
the module: residual <= 0 means the inequality holds at that iteration.

Reference values (a minimizer x_star, an optimal value F_star) are
never computed implicitly; callers supply them from long runs or closed
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import _min_nu, growth_from_weights
from .problems import UsageError, as_vector

__all__ = [
    "CheckReport",
    "RateEstimate",
    "check_descent_inequality",
    "check_quasi_fejer",
    "check_stepsize_floor",
    "estimate_rate",
]


@dataclass
class CheckReport:
    """Signed per-iteration residuals plus a pass verdict.

    ``residuals[i] <= tolerance * scales[i]`` must hold for a pass;
    exact satisfaction is residual <= 0. ``details`` carries the
    check-specific constants (floors, sup values, branch) for reporting.
    """

    name: str
    residuals: np.ndarray
    scales: np.ndarray
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def scaled_residuals(self) -> np.ndarray:
        return self.residuals / self.scales

    @property
    def worst(self) -> float:
        if self.residuals.size == 0:
            return -np.inf
        return float(np.max(self.scaled_residuals))

    @property
    def passed(self) -> bool:
        return bool(self.worst <= self.tolerance)

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {verdict} over {self.residuals.size} iterations "
            f"(worst scaled residual {self.worst:.3e}, tolerance {self.tolerance:.1e})"
        )


def _trace_of(record):
    return record.trace if hasattr(record, "trace") else record


def _states_of(record, who: str):
    states = getattr(record, "states", None)
    if states is None:
        raise UsageError(
            f"{who} recomputes from full iterate history; "
            "run the solver with record_states=True"
        )
    return states


def check_descent_inequality(record, problem) -> CheckReport:
    """Recompute g(y)-g(x)+<y-x|grad f(x)> + ||y-x||_k^2/gamma <= 0 per step."""
    trace = _trace_of(record)
    states = _states_of(record, "check_descent_inequality")
    T = len(trace)
    gammas = trace.gamma
    F = trace.F
    residuals = np.empty(T)
    for k in range(T):
        x = states.xs[k]
        y = states.ys[k]
        w = states.weights[k]
        dy = y - x
        grad = problem.f.gradient(x)
        ell = problem.g.value(y) - problem.g.value(x) + float(dy @ grad)
        residuals[k] = ell + float(np.dot(w, dy * dy)) / gammas[k]
    return CheckReport(
        name="descent",
        residuals=residuals,
        scales=1.0 + np.abs(F),
        tolerance=1e-10,
    )


def check_quasi_fejer(
    record,
    x_star,
    problem=None,
    *,
    branch: str = "growth",
    f_star: float | None = None,
) -> CheckReport:
    """Per-transition quasi-Fejer inequality toward a supplied minimizer.

    Transition k compares ||x_{k+1}-x*|| against ||x_k-x*|| with the
    explicit constants of the two metric regimes:

    - branch="growth": metric norms; eta_k is the largest relative
      weight growth max(0, max_i w_{k+1,i}/w_{k,i} - 1),
      alpha_k = gamma_k lam_k (1+eta_k),
      eps_k = 2 sup(gamma) (1+sup(eta)) / (1-delta) * (F_k - F_{k+1}).
    - branch="spread": Euclidean norms; eta_k = (mu_k - nu_k)/nu with
      nu = inf_k nu_k, alpha_k = gamma_k lam_k / nu_k,
      eps_k = 2 sup(gamma) / (nu (1-delta)) * (F_k - F_{k+1}).

    x_star should be a (near-)minimizer; F(x_star) comes from `problem`
    or, if evaluation is unwanted, from ``f_star`` directly. delta is
    the record's ``delta_effective``.
    """
    if branch not in ("growth", "spread"):
        raise UsageError(f"branch must be 'growth' or 'spread', got {branch!r}")
    trace = _trace_of(record)
    states = _states_of(record, "check_quasi_fejer")
    T = len(trace)
    if T == 0:
        return CheckReport("quasi_fejer", np.empty(0), np.empty(0), 1e-10)
    delta = float(getattr(record, "delta_effective", np.nan))
    if not (0 < delta < 1):
        raise UsageError(f"the checker constants need 0 < delta_effective < 1, got {delta}")
    x_star = as_vector(x_star, states.xs.shape[1])
    if f_star is None:
        if problem is None:
            raise UsageError("supply the problem (to evaluate F(x_star)) or f_star")
        f_star = problem.f.value(x_star) + problem.g.value(x_star)
    f_star = float(f_star)

    F = trace.F
    F_next = np.empty(T)
    F_next[:-1] = F[1:]
    final = getattr(record, "F_final", None)
    if final is None:
        raise UsageError("the record must carry F_final for the last transition")
    F_next[-1] = final
    gammas = trace.gamma
    lams = trace.lam
    W = states.weights
    diffs = states.xs - x_star  # (T+1, n)

    gamma_sup = float(np.max(gammas))
    if branch == "growth":
        etas = growth_from_weights(W)  # (T,)
        eta_sup = float(np.max(etas))
        d_sq = np.einsum("ij,ij->i", W, diffs * diffs)  # ||x_k - x*||^2 in metric k
        coeff = 2.0 * gamma_sup * (1.0 + eta_sup) / (1.0 - delta)
        alpha = gammas * lams * (1.0 + etas)
        details = {"branch": branch, "eta_sup": eta_sup, "gamma_sup": gamma_sup}
    else:
        nus = np.min(W, axis=1)  # (T+1,): the last metric enters only nu
        mus = np.max(W, axis=1)
        nu = float(np.min(nus))
        etas = (mus[:-1] - nus[:-1]) / nu
        d_sq = np.sum(diffs * diffs, axis=1)
        coeff = 2.0 * gamma_sup / (nu * (1.0 - delta))
        alpha = gammas * lams / nus[:-1]
        details = {"branch": branch, "nu": nu, "gamma_sup": gamma_sup}
    # elementwise, in the order of the per-transition formula
    eps = coeff * (F - F_next)
    residuals = d_sq[1:] - (1.0 + etas) * d_sq[:-1] - 2.0 * alpha * (f_star - F_next) - eps
    return CheckReport(
        name="quasi_fejer",
        residuals=residuals,
        scales=1.0 + np.abs(F),
        tolerance=1e-10,
        details=details,
    )


_FLOOR_RULES = ("ls1", "ls2", "ls3", "ls4")


def check_stepsize_floor(record, problem) -> CheckReport:
    """Accepted stepsizes stay above the L-dependent floor of the run.

    Every constant comes from the run: the rule, delta, theta and
    gamma_max from ``record.config.linesearch``, nu as the smallest
    metric weight over the recorded steps, and L from
    ``problem.f.lipschitz_bound``. For the gamma-backtracking rules the
    floor on gamma_k is
    min(gamma_max, c * delta * theta * nu / (L * sup_k lam_k)) with
    c = 2 for ls1 and c = 1 for ls3 (whose acceptance condition is not
    squared); for the lam-backtracking rules the floor on lam_k is
    min(1, 2 * delta * theta * nu / (L * sup_k gamma_k)), 1 being the
    top of every lam walk. The sup is taken over the recorded run. Grid
    values are exact powers, so the tolerance is zero.
    """
    config = getattr(record, "config", None)
    if config is None:
        raise UsageError("the stepsize floor reads its constants from a SolveResult of solve")
    ls = config.linesearch
    rule = ls.rule
    if rule not in _FLOOR_RULES:
        raise UsageError(f"no stepsize floor is available for rule {rule!r}")
    L = problem.f.lipschitz_bound
    if L is None:
        raise UsageError("the stepsize floor needs a global gradient Lipschitz constant")
    L = float(L)
    if L <= 0:
        raise UsageError(f"the smooth term's lipschitz_bound must be positive, got {L}")
    trace = record.trace
    if len(trace) == 0:
        raise UsageError("empty trace")
    nu = _min_nu(config.metrics, len(trace))
    gammas = trace.gamma
    lams = trace.lam
    if rule in ("ls1", "ls3"):
        c = 2.0 if rule == "ls1" else 1.0
        floor = min(ls.gamma_max, c * ls.delta * ls.theta * nu / (L * float(np.max(lams))))
        observed = gammas
        which = "gamma"
    else:
        floor = min(1.0, 2.0 * ls.delta * ls.theta * nu / (L * float(np.max(gammas))))
        observed = lams
        which = "lambda"
    residuals = floor - observed
    return CheckReport(
        name=f"stepsize_floor[{rule}]",
        residuals=np.asarray(residuals, dtype=float),
        scales=np.full(len(trace), 1.0),
        tolerance=0.0,
        details={"floor": float(floor), "observed_min": float(np.min(observed)), "on": which},
    )


@dataclass
class RateEstimate:
    """r_k = k (F(x_k) - F_star) plus decade tail suprema.

    ``tails[K] = sup_{k >= K} r_k``; a strictly decreasing sequence of
    tails across decades is the observable signature of o(1/k) decay.
    """

    r: np.ndarray
    tails: dict


def estimate_rate(record, f_star: float) -> RateEstimate:
    trace = _trace_of(record)
    if len(trace) == 0:
        raise UsageError("empty trace")
    f_star = float(f_star)
    if not np.isfinite(f_star):
        raise UsageError(f"F_star must be finite, got {f_star!r}")
    F = trace.F
    if f_star > float(np.min(F)):
        raise UsageError(
            f"F_star = {f_star!r} exceeds the best trace value {float(np.min(F))!r}; "
            "the reference must come from a run at least as accurate"
        )
    ks = np.asarray(trace.k, dtype=float)
    r = ks * (F - f_star)
    last_k = int(np.max(trace.k))
    tails = {}
    K = 1
    while K <= last_k:
        mask = np.asarray(trace.k) >= K
        tails[K] = float(np.max(r[mask]))
        K *= 10
    return RateEstimate(r=r, tails=tails)
