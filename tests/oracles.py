"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own algorithms:
prox values come from golden-section search or a box-constrained
least-squares dual, gradients from central differences, operator norms
from a dense SVD, lasso optima from L-BFGS-B and a duality gap.
Agreement between these and the library is the evidence the tests rest
on.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import lsq_linear, minimize

_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, lo: float, hi: float, iters: int = 200) -> float:
    """Minimizer of a unimodal fun on [lo, hi] to ~1e-13 bracket width."""
    a, b = float(lo), float(hi)
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = fun(d)
        if b - a < 1e-15 * (1.0 + abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def scalar_prox_oracle(g_scalar, z: float, tau: float, lo=None, hi=None) -> float:
    """argmin_p g(p) + (p-z)^2 / (2 tau) by golden section.

    Positional accuracy is ~sqrt(eps) (value-comparison limit), so
    compare against it at 1e-6, not machine precision. For pieces with
    a restricted domain pass the bounds; golden section needs a bracket
    on which the objective is finite.
    """
    span = 10.0 * (1.0 + abs(z))
    a = z - span if lo is None else max(z - span, lo)
    b = z + span if hi is None else min(z + span, hi)
    if a > b:
        raise ValueError("empty bracket")
    return golden_section(lambda p: g_scalar(p) + (p - z) ** 2 / (2.0 * tau), a, b)


def grid_prox_oracle(g_scalar, z: float, tau: float, lo=None, hi=None, points: int = 20001) -> float:
    """Brute-force grid argmin refined by golden section between the
    neighbors of the best grid point."""
    span = 10.0 * (1.0 + abs(z))
    a = z - span if lo is None else max(z - span, lo)
    b = z + span if hi is None else min(z + span, hi)
    grid = np.linspace(a, b, points)
    vals = np.array([g_scalar(p) + (p - z) ** 2 / (2.0 * tau) for p in grid])
    i = int(np.argmin(vals))
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, points - 1)]
    return golden_section(lambda p: g_scalar(p) + (p - z) ** 2 / (2.0 * tau), left, right)


def prox_l1_oracle(z, tau):
    """Coordinatewise golden-section prox of tau * |.|."""
    z = np.asarray(z, dtype=float)
    return np.array([scalar_prox_oracle(lambda p: tau * abs(p), zi, 1.0) for zi in z])


def prox_tv1d_oracle(z, gamma: float) -> np.ndarray:
    """TV prox via its dual: y = z - D^T u with u box-constrained.

    min_u 0.5 || D^T u - z ||^2 over ||u||_inf <= gamma is exactly what
    lsq_linear solves; the primal solution is the residual z - D^T u*.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 2 or gamma == 0.0:
        return z.copy()
    dt = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    dt[idx, idx] = -1.0
    dt[idx + 1, idx] = 1.0
    res = lsq_linear(dt, z, bounds=(-gamma, gamma), method="bvls", tol=1e-15)
    return z - dt @ res.x


def prox_tv1d_reference(z, gamma: float) -> np.ndarray:
    """The taut-string sweep exactly as ``vmfbs.prox_tv1d`` ran it on
    numpy float64 scalars before it moved to Python floats.

    Kept frozen as the reference for the bitwise differential test: the
    library must reproduce every bit of it, tie-breaking among collinear
    tube points included. Do not tidy it.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n == 1 or gamma == 0.0:
        return z.copy()
    r = np.cumsum(z)
    hi = r + gamma
    lo = r - gamma
    hi[-1] = lo[-1] = r[-1]  # pinned right endpoint
    y = np.empty(n)
    anchor = -1  # index into the path grid {-1, 0, ..., n-1}
    aval = 0.0  # pinned left endpoint value
    while anchor < n - 1:
        sl_hi = np.inf  # tightest upper slope and the point attaining it
        j_hi = anchor
        sl_lo = -np.inf
        j_lo = anchor
        k = anchor + 1
        while True:
            run = k - anchor
            su = (hi[k] - aval) / run
            sl = (lo[k] - aval) / run
            if sl > sl_hi:
                y[anchor + 1 : j_hi + 1] = sl_hi
                aval = hi[j_hi]
                anchor = j_hi
                break
            if su < sl_lo:
                y[anchor + 1 : j_lo + 1] = sl_lo
                aval = lo[j_lo]
                anchor = j_lo
                break
            if su < sl_hi:
                sl_hi = su
                j_hi = k
            if sl > sl_lo:
                sl_lo = sl
                j_lo = k
            if k == n - 1:
                y[anchor + 1 :] = (r[-1] - aval) / run
                anchor = n - 1
                break
            k += 1
    return y


def taut_string_corners(z, gamma: float, last_ties: bool = False) -> np.ndarray:
    """The corners of the reference sweep's path, coded as the library
    codes them: j for a corner on the upper tube bound, ~j on the lower.

    With ``last_ties=True`` the running extremes update on ties as well
    (<= and >=), so a corner lands on the last of several tube points
    that tie for it instead of the first: the corner set of a sweep with
    the opposite tie rule, a hint that differs from the true one exactly
    where a tie decides.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    r = np.cumsum(z)
    hi = r + gamma
    lo = r - gamma
    hi[-1] = lo[-1] = r[-1]
    codes = []
    anchor = -1
    aval = 0.0
    while anchor < n - 1:
        sl_hi, j_hi, sl_lo, j_lo = np.inf, anchor, -np.inf, anchor
        for k in range(anchor + 1, n):
            su = (hi[k] - aval) / (k - anchor)
            sl = (lo[k] - aval) / (k - anchor)
            if sl > sl_hi:
                codes.append(j_hi)
                anchor, aval = j_hi, hi[j_hi]
                break
            if su < sl_lo:
                codes.append(~j_lo)
                anchor, aval = j_lo, lo[j_lo]
                break
            if su < sl_hi or (last_ties and su == sl_hi):
                sl_hi, j_hi = su, k
            if sl > sl_lo or (last_ties and sl == sl_lo):
                sl_lo, j_lo = sl, k
        else:
            anchor = n - 1
    return np.array(codes, dtype=np.int64)


def tv_subdiff_distance_dense(p, u, t: float) -> float:
    """dist(u, d(t * TV)(p)) with one dense BVLS over all flat edges.

    The verifier as ``Tv1dNorm.subdiff_distance`` computed it before it
    split the dual by flat runs: an n x (n-1) matrix, so small n only.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    n = p.size
    if n == 1:
        return float(np.abs(u[0]))
    d = np.diff(p)
    dt = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    dt[idx, idx] = -1.0
    dt[idx + 1, idx] = 1.0
    flat = d == 0.0
    s_fixed = np.where(flat, 0.0, t * np.sign(d))
    target = u - dt @ s_fixed
    if not flat.any():
        return float(np.linalg.norm(target))
    a = dt[:, flat]
    res = lsq_linear(a, target, bounds=(-t, t), method="bvls", tol=1e-15)
    return float(np.linalg.norm(a @ res.x - target))


def prox_tv1d_two_point(z, gamma: float) -> np.ndarray:
    """Closed form for n = 2: the two values move toward each other by
    min(gamma, half the gap)."""
    a, b = float(z[0]), float(z[1])
    s = np.sign(a - b) * min(gamma, abs(a - b) / 2.0)
    return np.array([a - s, b + s])


def lasso_oracle(a, b, lam: float):
    """Certified minimizer of F(x) = 0.5 ||Ax - b||^2 + lam ||x||_1.

    L-BFGS-B on the split x = u - v with u, v >= 0 identifies the support
    and its signs; the normal equations on that support then give x*
    to round-off. The certificate is the duality gap at the
    dual-feasible point u = r min(1, lam / ||A^T r||_inf), r = b - A x*.
    Returns (x*, F*, gap). Raises if the solved signs disagree with the
    identified ones or the gap exceeds 1e-12; there is no fallback.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]

    def split_objective(w):
        r = a @ (w[:n] - w[n:]) - b
        g = a.T @ r
        return 0.5 * (r @ r) + lam * w.sum(), np.concatenate((g + lam, lam - g))

    res = minimize(
        split_objective, np.zeros(2 * n), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * n),
        options={"maxiter": 10**5, "maxfun": 10**5, "ftol": 0.0, "gtol": 1e-14, "maxcor": 30},
    )
    x_approx = res.x[:n] - res.x[n:]
    support = np.flatnonzero(np.abs(x_approx) > 1e-8 * (1.0 + np.abs(x_approx).max()))
    signs = np.sign(x_approx[support])
    a_s = a[:, support]
    x_s = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - lam * signs)
    if not np.array_equal(np.sign(x_s), signs):
        raise ValueError("lasso oracle: the solved signs disagree with the identified support")
    x = np.zeros(n)
    x[support] = x_s
    r = b - a @ x
    f_star = 0.5 * (r @ r) + lam * np.abs(x).sum()
    u = r * min(1.0, lam / np.abs(a.T @ r).max())
    gap = f_star - (u @ b - 0.5 * (u @ u))
    if not gap <= 1e-12:
        raise ValueError(f"lasso oracle: duality gap {gap:.3e} exceeds 1e-12")
    return x, float(f_star), float(gap)


def fd_gradient(fun, x, h_scale: float = 1.0) -> np.ndarray:
    """Central differences with per-coordinate h = eps^(1/3) (1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    h0 = np.finfo(float).eps ** (1.0 / 3.0)
    g = np.empty_like(x)
    for i in range(x.size):
        h = h_scale * h0 * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def opnorm_oracle(a) -> float:
    """Largest singular value from the dense SVD."""
    return float(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)[0])


def tv_value(y, weight: float = 1.0) -> float:
    y = np.asarray(y, dtype=float)
    return float(weight * np.sum(np.abs(np.diff(y))))


def operator_norm_reference(a) -> float:
    """``LinearMap.operator_norm`` as it ran before each sweep reused the
    certificate product A v of the sweep before: two products with A per
    sweep and every norm by ``np.linalg.norm``.

    Kept frozen as the reference for the bitwise differential test. Do
    not tidy it.
    """
    a = np.asarray(a, dtype=float)
    if not a.any():
        return 0.0
    n = a.shape[1]
    v = np.ones(n) + np.linspace(0.0, 0.1, n)
    v /= np.linalg.norm(v)
    if np.linalg.norm(a.T @ (a @ v)) == 0.0:
        i = int(np.argmax(np.einsum("ij,ij->i", a, a)))
        v = a[i] / np.linalg.norm(a[i])
    est = 0.0
    stall = 0
    for it in range(20000):
        w = a.T @ (a @ v)
        v = w / np.linalg.norm(w)
        new = float(np.linalg.norm(a @ v))
        if new <= est * (1.0 + 1e-15):
            stall += 1
            if it >= 100 and stall >= 3:
                break
        else:
            stall = 0
        if new > est:
            est = new
    return est


def quasi_fejer_residuals_reference(record, x_star, f_star: float, delta: float, branch: str):
    """The residuals of ``check_quasi_fejer`` as its two loops over the
    transitions k computed them, one scalar at a time.

    Kept frozen as the reference for the bitwise differential test of
    the vectorized checker. Do not tidy it.
    """
    trace = record.trace
    states = record.states
    T = len(trace)
    F = trace.F
    F_next = np.empty(T)
    F_next[:-1] = F[1:]
    F_next[-1] = record.F_final
    gammas = trace.gamma
    lams = trace.lam
    W = states.weights
    diffs = states.xs - x_star
    gamma_sup = float(np.max(gammas))
    residuals = np.empty(T)
    if branch == "growth":
        ratios = W[1:] / W[:-1]
        etas = np.maximum(0.0, np.max(ratios, axis=1) - 1.0)
        eta_sup = float(np.max(etas))
        d_sq = np.einsum("ij,ij->i", W, diffs * diffs)
        coeff = 2.0 * gamma_sup * (1.0 + eta_sup) / (1.0 - delta)
        for k in range(T):
            alpha = gammas[k] * lams[k] * (1.0 + etas[k])
            eps = coeff * (F[k] - F_next[k])
            residuals[k] = (
                d_sq[k + 1]
                - (1.0 + etas[k]) * d_sq[k]
                - 2.0 * alpha * (f_star - F_next[k])
                - eps
            )
    else:
        nus = np.min(W, axis=1)
        mus = np.max(W, axis=1)
        nu = float(np.min(nus))
        etas = (mus - nus) / nu
        d_sq = np.sum(diffs * diffs, axis=1)
        coeff = 2.0 * gamma_sup / (nu * (1.0 - delta))
        for k in range(T):
            alpha = gammas[k] * lams[k] / nus[k]
            eps = coeff * (F[k] - F_next[k])
            residuals[k] = (
                d_sq[k + 1]
                - (1.0 + etas[k]) * d_sq[k]
                - 2.0 * alpha * (f_star - F_next[k])
                - eps
            )
    return residuals


class ScalarPieceReference(NamedTuple):
    value: Callable[[float], float]
    prox: Callable[[float, float], float]
    subdiff: Callable[[float], tuple]


def _soft_threshold_scalar(z: float, tau: float) -> float:
    z = np.asarray(z, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return float(np.sign(z) * np.maximum(np.abs(z) - tau, 0.0))


def abs_piece_reference(weight: float) -> ScalarPieceReference:
    w = float(weight)
    return ScalarPieceReference(
        value=lambda x: w * abs(x),
        prox=lambda z, tau: float(_soft_threshold_scalar(z, w * tau)),
        subdiff=lambda p: (-w, w) if p == 0.0 else (w * np.sign(p), w * np.sign(p)),
    )


def interval_piece_reference(lo: float, hi: float) -> ScalarPieceReference:
    lo, hi = float(lo), float(hi)

    def subdiff(p):
        a = -np.inf if p <= lo else 0.0
        b = np.inf if p >= hi else 0.0
        return (a, b)

    return ScalarPieceReference(
        value=lambda x: 0.0 if lo <= x <= hi else np.inf,
        prox=lambda z, tau: float(min(max(z, lo), hi)),
        subdiff=subdiff,
    )


def zero_piece_reference() -> ScalarPieceReference:
    return ScalarPieceReference(
        value=lambda x: 0.0, prox=lambda z, tau: float(z), subdiff=lambda p: (0.0, 0.0)
    )


class SeparableProxReference:
    """``SeparableProx`` as it ran when a scalar piece was three Python
    callables: one call per coordinate for the value, the prox and the
    subdifferential interval, and ``in_domain`` from the value.

    Kept frozen (with the scalar soft threshold and the interval
    distance inlined) as the reference for the bitwise differential
    test of the vectorised term. Do not tidy it.
    """

    def __init__(self, pieces):
        self.pieces = tuple(pieces)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for piece, xi in zip(self.pieces, x):
            v = piece.value(float(xi))
            if not v < np.inf:
                return np.inf
            total += v
        return float(total)

    def in_domain(self, x) -> bool:
        return bool(np.isfinite(self.value(x)))

    def prox(self, z, gamma, weights=None):
        z = np.asarray(z, dtype=float)
        if weights is None:
            taus = np.full(z.size, float(gamma))
        else:
            taus = gamma / np.asarray(weights, dtype=float)
        return np.array(
            [piece.prox(float(zi), float(ti)) for piece, zi, ti in zip(self.pieces, z, taus)]
        )

    def subdiff_distance(self, p, u) -> float:
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        lo = np.empty(p.size)
        hi = np.empty(p.size)
        for i, piece in enumerate(self.pieces):
            lo[i], hi[i] = piece.subdiff(float(p[i]))
        below = np.where(np.isfinite(lo), lo - u, -np.inf)
        above = np.where(np.isfinite(hi), u - hi, -np.inf)
        return float(np.linalg.norm(np.maximum(np.maximum(below, above), 0.0)))
