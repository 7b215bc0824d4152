"""Catalog of prox-friendly terms.

Every term here has an exact proximity operator (no inner iterative
solves) and, where a formula exists, an exact subdifferential so the
prox optimality residual

    dist((z - p) / gamma, dg(p)) = 0  iff  p = prox_{gamma g}(z)

can be evaluated. Separable terms accept per-coordinate diagonal
weights, which turns the Euclidean prox into the variable-metric one
with per-coordinate stepsize gamma / w_i.

This module needs only numpy, verifiers included: the TV residual
reuses the taut-string prox it checks (see ``Tv1dNorm.subdiff_distance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import ConfigurationError, ProxTerm, Unsupported, UsageError, as_vector

__all__ = [
    "soft_threshold",
    "project_box",
    "prox_tv1d",
    "prox_optimality_residual",
    "L1Norm",
    "BoxIndicator",
    "ScalarPiece",
    "abs_piece",
    "interval_piece",
    "zero_piece",
    "SeparableProx",
    "Tv1dNorm",
    "ZeroTerm",
]


def soft_threshold(z, tau):
    """sign(z) * max(|z| - tau, 0), elementwise.

    Ties at |z| = tau resolve to exactly 0 (the closed-form limit).
    """
    z = np.asarray(z, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise UsageError("soft threshold needs tau >= 0")
    out = np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)
    return float(out) if out.ndim == 0 else out


def project_box(z, lo, hi):
    """Componentwise clamp of z into [lo, hi]; bounds may be +-inf."""
    z = np.asarray(z, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if (lo > hi).any():
        raise ConfigurationError("empty box: lo > hi somewhere")
    out = np.minimum(np.maximum(z, lo), hi)
    return float(out) if out.ndim == 0 else out


def prox_tv1d(z, gamma: float) -> np.ndarray:
    """Exact prox of gamma * TV, TV(y) = sum_i |y_{i+1} - y_i|.

    Taut-string construction: with cumulative sums r_k of z, the partial
    sums R_k of the solution trace the shortest path through the tube
    [r_k - gamma, r_k + gamma] with both endpoints pinned; the solution
    values are the path's slopes. The sweep keeps a window of feasible
    straight-line slopes from the current anchor; when the window
    empties, the path bends at whichever tube bound is binding and the
    sweep restarts from that corner. Exact (no inner iterations).

    The sweep runs on Python floats (the tube read once with
    ``tolist``): they are the same IEEE doubles as numpy's float64, and
    subtraction, division by a small int and comparison round alike, so
    the output is bitwise that of the same sweep in numpy scalars. Each
    segment is recorded as (slope, length) and filled in one
    ``np.repeat``, so flat runs are exactly constant.
    """
    z = as_vector(z)
    if not (gamma >= 0) or not math.isfinite(gamma):
        raise UsageError(f"gamma must be nonnegative and finite, got {gamma}")
    n = z.size
    if n == 1 or gamma == 0.0:
        return z.copy()
    r = np.cumsum(z)
    hi = (r + gamma).tolist()
    lo = (r - gamma).tolist()
    end = hi[-1] = lo[-1] = float(r[-1])  # pinned right endpoint
    slopes = []
    lengths = []
    last = n - 1
    anchor = -1  # index into the path grid {-1, 0, ..., n-1}
    aval = 0.0  # pinned left endpoint value
    while anchor < last:
        sl_hi = math.inf  # tightest upper slope and the point attaining it
        j_hi = anchor
        sl_lo = -math.inf
        j_lo = anchor
        k = anchor + 1
        while True:
            run = k - anchor
            su = (hi[k] - aval) / run
            sl = (lo[k] - aval) / run
            if sl > sl_hi:
                # lower tube bound unreachable under the binding upper corner:
                # bend there and restart
                slopes.append(sl_hi)
                lengths.append(j_hi - anchor)
                aval = hi[j_hi]
                anchor = j_hi
                break
            if su < sl_lo:
                slopes.append(sl_lo)
                lengths.append(j_lo - anchor)
                aval = lo[j_lo]
                anchor = j_lo
                break
            if su < sl_hi:
                sl_hi = su
                j_hi = k
            if sl > sl_lo:
                sl_lo = sl
                j_lo = k
            if k == last:
                # straight segment to the pinned endpoint is feasible
                slopes.append((end - aval) / run)
                lengths.append(run)
                anchor = last
                break
            k += 1
    return np.repeat(slopes, lengths)


def prox_optimality_residual(g: ProxTerm, z, gamma: float, p, weights=None) -> float:
    """Euclidean distance from (z - p) * w / gamma to dg(p).

    Zero exactly when p is the (metric) prox of z at stepsize gamma;
    ``weights=None`` is the Euclidean case. Requires p in dom g and a
    term with a known subdifferential formula.
    """
    z = as_vector(z)
    p = as_vector(p, z.size)
    if not (gamma > 0) or not np.isfinite(gamma):
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    if not g.in_domain(p):
        raise UsageError("p is outside dom g; the residual is undefined there")
    w = np.ones(z.size) if weights is None else as_vector(weights, z.size)
    u = (z - p) * w / gamma
    return float(g.subdiff_distance(p, u))


def _interval_distances(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # distance from u_i to the interval [lo_i, hi_i], inf bounds allowed
    below = np.where(np.isfinite(lo), lo - u, -np.inf)
    above = np.where(np.isfinite(hi), u - hi, -np.inf)
    return np.maximum(np.maximum(below, above), 0.0)


class L1Norm(ProxTerm):
    """g(x) = weight * ||x||_1."""

    separable = True
    lower_bound = 0.0

    def __init__(self, weight: float = 1.0):
        if not (weight > 0) or not np.isfinite(weight):
            raise ConfigurationError(f"l1 weight must be positive and finite, got {weight}")
        self.weight = float(weight)

    def value(self, x) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, z, gamma, weights=None):
        tau = self.weight * gamma if weights is None else self.weight * gamma / weights
        return soft_threshold(z, tau)

    def subdiff_distance(self, p, u) -> float:
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        t = self.weight
        lo = np.where(p == 0.0, -t, t * np.sign(p))
        hi = np.where(p == 0.0, t, t * np.sign(p))
        return float(np.linalg.norm(_interval_distances(u, lo, hi)))


class BoxIndicator(ProxTerm):
    """Indicator of the box [lo, hi]; bounds broadcast, +-inf allowed.

    The projection is a plain clamp regardless of gamma and of diagonal
    weights (separable indicator: each coordinate projects onto its own
    interval).
    """

    separable = True
    lower_bound = 0.0

    def __init__(self, lo=-np.inf, hi=np.inf):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise ConfigurationError("empty box: lo > hi somewhere")
        self.lo = lo
        self.hi = hi

    def value(self, x) -> float:
        return 0.0 if self.in_domain(x) else np.inf

    def in_domain(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo).all() and (x <= self.hi).all())

    def prox(self, z, gamma, weights=None):
        # the constructor rejected lo > hi, so no per-call check
        return np.minimum(np.maximum(z, self.lo), self.hi)

    def subdiff_distance(self, p, u) -> float:
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        lo = np.broadcast_to(self.lo, p.shape)
        hi = np.broadcast_to(self.hi, p.shape)
        # normal cone of the interval at p
        a = np.where(p == lo, -np.inf, 0.0)
        b = np.where(p == hi, np.inf, 0.0)
        return float(np.linalg.norm(_interval_distances(u, a, b)))


@dataclass(frozen=True)
class ScalarPiece:
    """One coordinate of a separable term.

    ``prox(z, tau)`` solves argmin_y value(y) + (y - z)^2 / (2 tau).
    ``subdiff`` maps p to the interval [a, b] = d(value)(p), or None if
    no formula is available (the optimality residual then raises).
    """

    value: Callable[[float], float]
    prox: Callable[[float, float], float]
    subdiff: Callable[[float], tuple[float, float]] | None = None


def abs_piece(weight: float = 1.0) -> ScalarPiece:
    w = float(weight)
    if not (w > 0) or not np.isfinite(w):
        raise ConfigurationError(f"abs piece weight must be positive, got {weight}")
    return ScalarPiece(
        value=lambda x: w * abs(x),
        prox=lambda z, tau: float(soft_threshold(z, w * tau)),
        subdiff=lambda p: (-w, w) if p == 0.0 else (w * np.sign(p), w * np.sign(p)),
    )


def interval_piece(lo: float, hi: float) -> ScalarPiece:
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ConfigurationError("empty interval: lo > hi")

    def subdiff(p):
        a = -np.inf if p <= lo else 0.0
        b = np.inf if p >= hi else 0.0
        return (a, b)

    return ScalarPiece(
        value=lambda x: 0.0 if lo <= x <= hi else np.inf,
        prox=lambda z, tau: float(min(max(z, lo), hi)),
        subdiff=subdiff,
    )


def zero_piece() -> ScalarPiece:
    return ScalarPiece(value=lambda x: 0.0, prox=lambda z, tau: float(z), subdiff=lambda p: (0.0, 0.0))


class SeparableProx(ProxTerm):
    """g(x) = sum_i g_i(x_i) from explicit scalar pieces.

    With ``check_zero_min=True`` the constructor asserts g_i(0) = 0 for
    every piece (the normalization g_i >= g_i(0) = 0 itself is a promise
    of the caller; only the value at 0 is machine-checked).
    """

    separable = True
    lower_bound = 0.0

    def __init__(self, pieces, check_zero_min: bool = False):
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ConfigurationError("SeparableProx needs at least one piece")
        if check_zero_min:
            for i, piece in enumerate(self.pieces):
                if piece.value(0.0) != 0.0:
                    raise ConfigurationError(f"piece {i} has g_i(0) = {piece.value(0.0)}, not 0")

    def _check_dim(self, x):
        if x.size != len(self.pieces):
            raise UsageError(f"expected {len(self.pieces)} coordinates, got {x.size}")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        total = 0.0
        for piece, xi in zip(self.pieces, x):
            v = piece.value(float(xi))
            if not v < np.inf:
                return np.inf
            total += v
        return float(total)

    def prox(self, z, gamma, weights=None):
        z = np.asarray(z, dtype=float)
        self._check_dim(z)
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
        self._check_dim(p)
        lo = np.empty(p.size)
        hi = np.empty(p.size)
        for i, piece in enumerate(self.pieces):
            if piece.subdiff is None:
                raise Unsupported(f"piece {i} has no subdifferential formula")
            lo[i], hi[i] = piece.subdiff(float(p[i]))
        return float(np.linalg.norm(_interval_distances(u, lo, hi)))


class Tv1dNorm(ProxTerm):
    """g(x) = weight * sum_i |x_{i+1} - x_i| (anisotropic 1-D total variation).

    Not separable: combinable only with uniform (multiple-of-identity)
    diagonal weights, where the metric prox is the Euclidean prox at a
    rescaled stepsize.
    """

    separable = False
    lower_bound = 0.0

    def __init__(self, weight: float = 1.0):
        if not (weight > 0) or not np.isfinite(weight):
            raise ConfigurationError(f"tv weight must be positive and finite, got {weight}")
        self.weight = float(weight)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.weight * float(np.abs(np.diff(x)).sum())

    def prox(self, z, gamma, weights=None):
        z = np.asarray(z, dtype=float)
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.max() != w.min():
                raise ConfigurationError(
                    "TV term admits only uniform diagonal metrics (w = c * ones)"
                )
            gamma = gamma / float(w[0])
        return prox_tv1d(z, gamma * self.weight)

    def subdiff_distance(self, p, u) -> float:
        """dist(u, d(weight * TV)(p)), one taut string per flat run.

        dTV(p) = {D^T s} with s_j free in [-t, t] where p is flat and
        pinned at t * sign(p_{j+1} - p_j) across jumps. Flat detection is
        exact (d == 0): the taut-string prox emits exact flats, and the
        subdifferential genuinely is discontinuous across any nonzero
        jump.

        Edge j touches nodes j and j+1, so a maximal run of flat edges
        a..b-1 touches nodes a..b and no other run touches them: the free
        duals decouple into one problem per run, min over |s| <= t of
        ||D^T s - c|| for the run's block c of u - D^T s_fixed. The set
        {D^T s : |s| <= t} is the subdifferential of t * TV at 0, whose
        support function is t * TV itself, so by Moreau's identity the
        minimizer leaves the residual -prox_{t TV}(c). The cost is that
        of the prox sweep over every run: linear in n.
        """
        p = as_vector(p)
        u = as_vector(u, p.size)
        t = self.weight
        if p.size == 1:
            return float(np.abs(u[0]))
        d = np.diff(p)
        flat = d == 0.0
        s_fixed = np.where(flat, 0.0, t * np.sign(d))
        # u - D^T s_fixed, with (D^T s)_i = s_{i-1} - s_i
        resid = u.copy()
        resid[:-1] += s_fixed
        resid[1:] -= s_fixed
        edges = np.flatnonzero(flat)
        if edges.size:
            cuts = np.flatnonzero(np.diff(edges) > 1)
            starts = np.concatenate(([edges[0]], edges[cuts + 1]))
            stops = np.concatenate((edges[cuts], [edges[-1]])) + 1
            for a, b in zip(starts.tolist(), stops.tolist()):
                resid[a : b + 1] = -prox_tv1d(resid[a : b + 1], t)
        return float(math.sqrt(resid @ resid))


class ZeroTerm(ProxTerm):
    """g identically 0; prox is the identity."""

    separable = True
    lower_bound = 0.0

    def value(self, x) -> float:
        return 0.0

    def prox(self, z, gamma, weights=None):
        return np.asarray(z, dtype=float).copy()

    def subdiff_distance(self, p, u) -> float:
        return float(np.linalg.norm(np.asarray(u, dtype=float)))
