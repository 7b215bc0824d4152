"""Stepsize selection: one grid walk serving every backtracking rule.

The trial map in the metric W = diag(w) is

    J(x, gamma, lam) = x + lam * (y - x),  y = prox_{gamma g}^W(x - gamma W^{-1} grad f(x))

and every rule accepts the largest point t = start * theta^i,
i = 0..max_backtracks, of one geometric grid that passes its test.
:func:`line_search` walks that grid. ls1, ls3 and the general-regime
domain walk search gamma at a fixed lam; ls2, ls4 and Tseng-Yun search
lam at a fixed gamma, so y is computed once. Only the test differs:

- ``ls1``/``ls2``: the descent condition
  f(J) - f(x) - <J - x, grad f(x)> <= (delta/(gamma lam)) ||J - x||_W^2.
- ``ls3``: the gradient condition
  ||W^{-1}(grad f(J) - grad f(x))||_W <= (delta/gamma) ||y - x||_W (norms
  not squared); a trial J outside the interior of dom f fails.
- ``ls4``: the Armijo condition (f+g)(J) - (f+g)(x) <= (1 - delta) lam ell,
  with ell = g(y) - g(x) + <y - x, grad f(x)>.
- ``tseng-yun``: (f+g)(J) - (f+g)(x) <= sigma lam (ell + (beta/gamma) ||y - x||_W^2),
  needing 0 < (1 - beta) sigma < 1; beta = 0, sigma = 1 - delta
  reproduces the Armijo rule exactly.
- ``domain``: y lies in dom f. In the general domain regime its gamma
  replaces the backtracking start of ls1/ls3 and *is* gamma for the lam
  rules, and its y is their first prox point.
- ``fixed``: none. The fixed step is a lam walk at gamma = ``fixed_gamma``
  from ``fixed_lam`` that takes its first trial; the solver validated
  the step bound before the run.

A trial whose value comes back +inf (outside dom f) is an ordinary failed
comparison. Acceptance uses "<= plus absolute slack 1e-14 * (1 + |f(x)|)"
so that exact-tie cases (fixed points) cannot flip under round-off. Every
step is tested, the last one of a run included: at an exact fixed point
y = x and every test passes at the first grid point. A grid point that
underflows to 0.0 is no step at all: it ends the walk as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import CompositeProblem, SearchFailure, UsageError

__all__ = ["RULES", "LineSearchConfig", "StepOutcome", "line_search"]

RULES = ("ls1", "ls2", "ls3", "ls4", "tseng-yun", "fixed")
_GAMMA_WALKS = ("ls1", "ls3", "domain")


@dataclass(frozen=True)
class LineSearchConfig:
    """Constants shared by all rules.

    ``gamma_max`` and ``lam_max`` are the grid tops; ``sigma``/``beta``
    only matter for the Tseng-Yun rule; ``fixed_gamma``/``fixed_lam``
    only for fixed-step mode. ``warm_start`` starts each backtracking at
    the previously accepted value divided by theta (capped at the grid
    top) instead of the grid top itself; off by default because the
    rules' "largest grid point" semantics assume a restart.
    """

    rule: str = "ls1"
    delta: float = 0.5
    theta: float = 0.5
    gamma_max: float = 1.0
    lam_max: float = 1.0
    sigma: float = 1.0
    beta: float = 0.5
    max_backtracks: int = 60
    fixed_gamma: float | None = None
    fixed_lam: float | None = None
    warm_start: bool = False

    def __post_init__(self):
        if self.rule not in RULES:
            raise UsageError(f"rule must be one of {RULES}, got {self.rule!r}")
        if not (0 < self.delta < 1):
            raise UsageError(f"delta must lie in (0,1), got {self.delta}")
        if not (0 < self.theta < 1):
            raise UsageError(f"theta must lie in (0,1), got {self.theta}")
        if not (self.gamma_max > 0) or not np.isfinite(self.gamma_max):
            raise UsageError(f"gamma_max must be positive and finite, got {self.gamma_max}")
        if not (0 < self.lam_max <= 1):
            raise UsageError(f"lam_max must lie in (0,1], got {self.lam_max}")
        if self.max_backtracks < 1:
            raise UsageError(f"max_backtracks must be >= 1, got {self.max_backtracks}")
        if self.rule == "tseng-yun":
            sigma, beta = self.sigma, self.beta
            if not (0 < sigma <= 1):
                raise UsageError(f"sigma must lie in (0,1], got {sigma}")
            if not (0 <= beta <= 1):
                raise UsageError(f"beta must lie in [0,1], got {beta}")
            if not (0 < (1 - beta) * sigma < 1):
                raise UsageError(
                    f"need 0 < (1-beta)*sigma < 1, got (1-{beta})*{sigma} = {(1 - beta) * sigma}"
                )
        if self.rule == "fixed":
            if self.fixed_gamma is None or self.fixed_lam is None:
                raise UsageError("fixed-step mode needs fixed_gamma and fixed_lam")
            if not (self.fixed_gamma > 0):
                raise UsageError(f"fixed_gamma must be positive, got {self.fixed_gamma}")
            if not (0 < self.fixed_lam <= 1):
                raise UsageError(f"fixed_lam must lie in (0,1], got {self.fixed_lam}")


@dataclass
class StepOutcome:
    """One accepted forward-backward step.

    ``y`` is the unrelaxed prox point at the accepted gamma and
    ``x_next = x + lam * (y - x)``. ``norm_sq_yx`` is ||y - x||_W^2 and
    ``gdot`` is <y - x, grad f(x)>. The domain walk fills only
    ``gamma``, ``lam``, ``y``, ``backtracks`` and ``prox_evals``: its
    ``x_next`` is None and its ``norm_sq_yx`` and ``gdot`` are NaN.
    ``f_next``/``g_next``/``ell`` are filled when the rule evaluated
    them, so the solver can reuse instead of re-evaluating. The counters
    are the oracle calls the step made.
    """

    gamma: float
    lam: float
    y: np.ndarray
    x_next: np.ndarray | None
    backtracks: int
    norm_sq_yx: float
    gdot: float
    f_next: float | None = None
    g_next: float | None = None
    ell: float | None = None
    f_evals: int = 0
    grad_evals: int = 0
    prox_evals: int = 0


def line_search(
    problem: CompositeProblem,
    w: np.ndarray,
    x: np.ndarray,
    rule: str,
    config: LineSearchConfig,
    *,
    fx: float,
    gx: float,
    grad: np.ndarray,
    start: float,
    other: float,
    y: np.ndarray | None = None,
) -> StepOutcome:
    """Largest grid point start * theta^i passing ``rule``'s test at x.

    ``w`` is the weight vector of the metric, of x's length.
    ``rule`` is a rule of :data:`RULES` or ``"domain"``.
    The gamma walks (ls1, ls3, domain) search gamma at lam = ``other``;
    the lam walks (ls2, ls4, tseng-yun, fixed) search lam at
    gamma = ``other``.
    ``fx``, ``gx`` and ``grad`` are f(x), g(x) and grad f(x). ``y``, when
    given, is the prox point at the first grid gamma (gamma walks) or at
    ``other`` (lam walks) and is not recomputed. Raises
    :class:`SearchFailure` when no grid point within ``max_backtracks``
    passes, or when the grid underflows to 0.0 before one does.
    """
    f, g = problem.f, problem.g
    walks_gamma = rule in _GAMMA_WALKS
    if walks_gamma or y is None:
        # W^{-1} grad f(x): the forward step of every prox point is x - gamma * scaled_grad
        scaled_grad = grad / w
    nf = ngrad = nprox = 0
    ell = g_next = None
    lhs = rhs = np.nan
    if not walks_gamma:
        gamma = other
        if y is None:
            y = g.prox(x - gamma * scaled_grad, gamma, w)
            nprox += 1
        dy = y - x
        ns = float(w @ (dy * dy))
        gdot = float(dy @ grad)
        if rule in ("ls4", "tseng-yun"):
            ell = g.value(y) - gx + gdot
            if rule == "ls4":
                slope = (1.0 - config.delta) * ell
            else:
                slope = config.sigma * (ell + (config.beta / gamma) * ns)
    fgx = fx + gx
    slack = 1e-14 * (1.0 + abs(fx))
    trials = config.max_backtracks + 1
    for i in range(trials):
        t = start * config.theta**i
        if t == 0.0:
            trials = i
            break
        if walks_gamma:
            gamma, lam = t, other
            if i > 0 or y is None:
                y = g.prox(x - gamma * scaled_grad, gamma, w)
                nprox += 1
            if rule == "domain":
                if f.in_domain(y):
                    return StepOutcome(
                        gamma=gamma, lam=lam, y=y, x_next=None, backtracks=i,
                        norm_sq_yx=math.nan, gdot=math.nan, prox_evals=nprox,
                    )
                continue
            dy = y - x
            ns = float(w @ (dy * dy))
            gdot = float(dy @ grad)
        else:
            lam = t
        x_next = x + lam * dy
        f_next = None
        if rule == "ls3":
            if not f.in_interior_domain(x_next):
                continue
            grad_next = f.gradient(x_next)
            ngrad += 1
            dg = (grad_next - grad) / w
            lhs = math.sqrt(float(w @ (dg * dg)))
            rhs = (config.delta / gamma) * math.sqrt(ns)
        elif rule != "fixed":
            f_next = f.value(x_next)
            nf += 1
            if rule in ("ls1", "ls2"):
                lhs = f_next - fx - lam * gdot
                rhs = (config.delta * lam / gamma) * ns
            else:
                g_next = g.value(x_next)
                lhs = (f_next + g_next) - fgx
                rhs = lam * slope
        # +inf or nan on the left is a failed trial, never an acceptance
        if rule == "fixed" or (math.isfinite(lhs) and lhs <= rhs + slack):
            return StepOutcome(
                gamma=gamma,
                lam=lam,
                y=y,
                x_next=x_next,
                backtracks=i,
                norm_sq_yx=ns,
                gdot=gdot,
                f_next=f_next,
                g_next=g_next,
                ell=ell,
                f_evals=nf,
                grad_evals=ngrad,
                prox_evals=nprox,
            )
    budget = config.max_backtracks
    raise SearchFailure(
        f"{rule}: no grid point accepted within {budget} backtracks" if trials > budget
        else f"{rule}: grid point {trials} underflows to 0.0, none accepted before it",
        diagnostics={
            "rule": rule, "trials": trials, "x": x,
            "gamma_last": gamma, "lam_last": lam, "lhs": lhs, "rhs": rhs,
        },
    )
