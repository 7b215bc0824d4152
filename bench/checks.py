"""Correctness checks on every solve, written in plain numpy.

Nothing here calls vmfbs: objectives, gradients and proxes are
recomputed from the raw arrays a case was built from. Each function
returns a list of problems; an empty list means the solve passed.

KKT residual. For g = L1 or the box, x is optimal iff the natural
residual r(x) = ||x - prox_g(x - grad f(x))|| is 0. The bounds below
follow from the solver's stopping rule ||y_k - x_k||_{W_k} <= tol (1 + ||x_k||)
and standard facts about prox-gradient residuals:

- lasso, identity metric: r(x_k) <= max(1, 1/gamma) ||y_k - x_k||, r is
  (2 + L)-Lipschitz and ||x_final - x_k|| = lam ||y_k - x_k||, hence
  r(x_final) <= (max(1, 1/gamma) + (2 + L) lam) tol (1 + ||x_k||), with L an
  upper bound on ||A||^2 and gamma, lam the last accepted step.
- box, diagonal metric W_k with extremes nu_k, mu_k (checked at the
  recorded x_k, so no Lipschitz constant of the KL gradient is needed):
  r(x_k) <= max(1, mu_k / gamma) / sqrt(nu_k) tol (1 + ||x_k||).

F agreement. All rules solving one case must reach objective values
within tol (1 + |F_min|) of the lowest of them.
"""

from __future__ import annotations

import numpy as np

# relative room for rounding in the recomputed quantities
_ROUND = 1e-9


def soft_threshold(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def lipschitz_upper(a) -> float:
    """Upper bound on ||A||_2^2 = lambda_max(G), G the smaller Gram matrix.

    lambda_max(G)^16 <= ||G^16||_F, computed by four squarings with the
    scale kept in a logarithm; the bound is within a few tens of percent
    of the truth for the matrices used here.
    """
    g = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    scale = np.linalg.norm(g)
    h = g / scale
    log_norm = 0.0
    for _ in range(4):
        h = h @ h
        log_norm *= 2.0
        nrm = np.linalg.norm(h)
        h /= nrm
        log_norm += np.log(nrm)
    return float(scale * np.exp(log_norm / 16.0))


def objective(data: dict, x) -> float:
    """F(x) for the case's data, +inf outside dom F."""
    a, b = data["a"], data["b"]
    kind = data["kind"]
    if kind == "kl":
        ax = a @ x
        if np.any(x < 0) or np.any(ax <= 0):
            return np.inf
        return float(np.sum(b * np.log(b / ax) + ax - b))
    r = a @ x - b
    smooth = 0.5 * float(r @ r)
    if kind == "l1":
        return smooth + data["weight"] * float(np.sum(np.abs(x)))
    return smooth + data["weight"] * float(np.sum(np.abs(np.diff(x))))


def check_solve(data: dict, res, tol: float) -> list[str]:
    """Termination, objective consistency and the KKT residual of one solve."""
    problems = []
    if res.termination != "fixed_point":
        problems.append(f"terminated by {res.termination} after {len(res.trace)} iterations")
        return problems
    x = res.x_final
    F = objective(data, x)
    if not abs(F - res.F_final) <= _ROUND * (1.0 + abs(F)):
        problems.append(f"F_final {res.F_final!r} but F(x_final) = {F!r}")
    kind = data["kind"]
    if kind == "l1":
        a, b = data["a"], data["b"]
        grad = a.T @ (a @ x - b)
        r = float(np.linalg.norm(x - soft_threshold(x - grad, data["weight"])))
        gamma, lam = float(res.trace.gamma[-1]), float(res.trace.lam[-1])
        xk_norm = float(np.linalg.norm(x)) + float(res.trace.step_norm[-1])
        bound = (max(1.0, 1.0 / gamma) + (2.0 + data["lipschitz"]) * lam) * tol * (1.0 + xk_norm)
        if not r <= bound * (1.0 + _ROUND):
            problems.append(f"KKT residual {r:.3e} above its bound {bound:.3e}")
    elif kind == "kl":
        if np.any(x < 0) or np.any(data["a"] @ x <= 0):
            problems.append("x_final outside the domain")
        xk = res.states.xs[-2]
        w = res.states.weights[-2]
        a, b = data["a"], data["b"]
        grad = a.T @ (1.0 - b / (a @ xk))
        r = float(np.linalg.norm(xk - np.maximum(xk - grad, 0.0)))
        gamma = float(res.trace.gamma[-1])
        bound = max(1.0, w.max() / gamma) / np.sqrt(w.min()) * tol * (1.0 + np.linalg.norm(xk))
        if not r <= bound * (1.0 + _ROUND):
            problems.append(f"KKT residual {r:.3e} at x_k above its bound {bound:.3e}")
    return problems


def check_agreement(values: dict, tol: float) -> dict:
    """Rules whose F_final is more than tol (1 + |F_min|) above the lowest."""
    finite = [v for v in values.values() if np.isfinite(v)]
    if not finite:
        return {rule: "no finite objective" for rule in values}
    low = min(finite)
    limit = tol * (1.0 + abs(low))
    return {
        rule: f"F_final {v!r} exceeds the lowest {low!r} by more than {limit:.3e}"
        for rule, v in values.items()
        if not v - low <= limit
    }
