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

import numpy as np

from .problems import ProxTerm, UsageError, as_vector

__all__ = [
    "soft_threshold",
    "prox_tv1d",
    "prox_optimality_residual",
    "L1Norm",
    "BoxIndicator",
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
    if not (tau >= 0).all():  # a NaN tau fails the comparison too
        raise UsageError("soft threshold needs tau >= 0")
    out = np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)
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
    segment is recorded as (slope, end) and filled in one ``np.repeat``,
    so flat runs are exactly constant.

    Raises :class:`UsageError` when a partial sum of z, or a tube bound
    r_k +- gamma, overflows: the tube would hold infinities, so the output
    would too.
    """
    z, tube = _tube(z, gamma)
    if tube is None:
        return z.copy()
    slopes = []
    ends = []
    _taut_string(tube[0].tolist(), tube[1].tolist(), -1, 0.0, slopes, ends, {})
    return _fill(slopes, ends)[0]


def _tube(z, gamma: float):
    """z as a checked vector, and the tube (hi, lo) of its taut string,
    pinned at both ends; the tube is None when the prox is the identity
    (n = 1 or gamma = 0)."""
    z = as_vector(z)
    if not (gamma >= 0) or not math.isfinite(gamma):
        raise UsageError(f"gamma must be nonnegative and finite, got {gamma}")
    if z.size == 1 or gamma == 0.0:
        return z, None
    with np.errstate(over="ignore"):  # an overflow is reported below, as itself
        r = np.cumsum(z)
    if not (math.isfinite(float(r.max()) + gamma) and math.isfinite(float(r.min()) - gamma)):
        raise UsageError("TV prox: the partial sums of z, plus or minus gamma, overflow")
    hi = r + gamma
    lo = r - gamma
    hi[-1] = lo[-1] = r[-1]  # pinned right endpoint
    return z, (hi, lo)


def _taut_string(hi, lo, anchor, aval, slopes, ends, stops):
    """The taut-string sweep from the path point (anchor, aval).

    ``hi`` and ``lo`` are the tube as sequences of Python floats: lists,
    or memoryviews of float64 arrays, which read the same doubles without
    converting the whole tube. The path grid is {-1, 0, ..., n - 1}; the
    sweep can start at any corner of the path as well as at the pinned
    left end (anchor -1, aval 0.0), since it carries nothing across a
    corner but the corner itself. It appends one slope and one end code
    per segment: a corner j on the upper bound is coded j, one on the
    lower bound ~j (-j - 1), and the final segment n - 1.

    ``stops`` maps end codes to tokens. The sweep returns the token of
    the first corner it bends at whose code (index and side) is a key,
    and None when it reaches the pinned right end.
    """
    last = len(hi) - 1
    end = hi[last]
    while True:
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
                ends.append(j_hi)
                aval = hi[j_hi]
                anchor = j_hi
                if j_hi in stops:
                    return stops[j_hi]
                break
            if su < sl_lo:
                slopes.append(sl_lo)
                ends.append(~j_lo)
                aval = lo[j_lo]
                anchor = j_lo
                if ~j_lo in stops:
                    return stops[~j_lo]
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
                ends.append(last)
                return None
            k += 1


def _fill(slopes, ends):
    """The output of per-segment slopes and end codes, and the corner
    codes (every end code but the final segment's) as an array."""
    ends = np.array(ends)
    stop = np.maximum(ends, ~ends)  # the index each segment ends at
    lengths = stop - np.concatenate(([-1], stop[:-1]))
    return np.repeat(slopes, lengths), ends[:-1]


class _Corners:
    """The corners of one taut string over n points, with the index
    arrays that certifying them against a new tube needs.

    ``codes`` are the corner codes c_0 < ... < c_{m-1} of
    ``_taut_string``. They cut the path grid into segments s = 0..m:
    segment s covers (a_s, c_s] from the anchor a_s = c_{s-1} (-1 for
    s = 0), and the final segment m ends at n - 1. The per-segment
    tables carry two virtual segments in front (anchor -1), so that the
    certificate can read each point k of segment s from the anchors of
    segments s, s - 1 and s - 2: rows 0, 1 and 2 of ``src``, ``run``
    and ``flip``, which index the tables at s + 2, s + 1 and s. With
    no corners (m = 0) the one segment runs from the pinned left end.
    The sweep state of ``_taut_string`` is built with them, since most
    hints need it: the end codes and anchors as lists, and ``stops``,
    each end code's next segment. On a seed-1 bench tv-deblur run every
    hint was swept, and 6,261 of the 7,489 warm calls swept a segment.
    Everything here depends on the corners and n alone.
    """

    __slots__ = ("n", "value_at", "ends", "lengths", "starts", "src", "run", "flip",
                 "pos2", "end_list", "stops", "anchors")

    def __init__(self, codes, n):
        self.n = n
        corner = np.maximum(codes, ~codes)
        upper = codes >= 0
        m = corner.size
        # the tube value at each corner, read from concat(hi, lo)
        self.value_at = corner + np.where(upper, 0, n)
        anchor = np.concatenate(([-1, -1, -1], corner))
        self.ends = np.concatenate((corner, [n - 1]))
        self.lengths = self.ends - anchor[2:]
        self.starts = anchor[2:] + 1
        # row d reads a point of segment s at table index s + 2 - d
        self.src = np.repeat(np.arange(2, m + 3), self.lengths) - np.arange(3)[:, None]
        pos = np.arange(n)
        self.run = pos - anchor.astype(float)[self.src]
        self.flip = np.concatenate(([False, False], ~upper, [False]))[self.src]
        self.pos2 = 2 * pos
        self.end_list = codes.tolist() + [n - 1]
        self.stops = dict(zip(self.end_list, range(1, m + 1)))
        self.anchors = [-1] + corner.tolist()


def _warm_taut_string(hi, lo, hint):
    """The taut string through the tube (hi, lo), reusing the corners
    ``hint`` (a ``_Corners`` over the same n) of an earlier one.

    Every segment gets one verdict, certified or not, from vectorised
    replays of the sweep's own float decisions. Certified segments are
    emitted as they are. Every other one is swept by ``_taut_string``
    from its anchor until the sweep bends exactly at a corner of the
    hint (same index and side), where the hint's anchor holds again. The
    output is therefore bitwise the cold sweep's. Returns it with its
    corners: ``hint`` itself when they did not change. A hint with no
    corners certifies the single segment from the pinned left end, and
    sweeping it is the cold sweep.

    The certificate. From (a, v) the sweep forms, at each k > a,
    U_k = (hi[k] - v) / (k - a) and L_k = (lo[k] - v) / (k - a). It keeps
    the running minimum of U over (a, k) with its first argmin (it
    updates on a strict <) and the running maximum of L with its first
    argmax, and at step k it bends at the upper corner if L_k > min U,
    else at the lower corner if U_k < max L. U_k >= L_k at every k,
    because hi >= lo and rounding is monotone. For an upper corner c:

    (A) max L over (a, c] <= U_c,
    (B) U_c < U_i for every i in (a, c),
    (C) some first K > c has L_K > U_c, and U_i >= U_c on (c, K).

    By (B) the running minimum before c exceeds U_c and by (A) L_k <= U_c,
    so no upper bend happens up to c; nor a lower one, as U_k >= U_c >=
    max L. At step c the minimum moves to U_c at c. On (c, K) it stays
    there (U_i >= U_c, and a tie does not update), L_k <= U_c is no upper
    bend and U_k >= U_c >= max L no lower one. At K, L_K > U_c bends at
    c on the upper side: the upper test runs first, and the lower one
    could not fire at K anyway (both at one step need min U < max L one
    step earlier, which already bends). So the sweep emits slope U_c on
    (a, c] and restarts from (c, hi[c]). A lower corner is the mirror
    image: with P = -L and O = -U in place of P = U and O = L the three
    tests read the same, and negation is exact, so one orientation flip
    per segment serves both sides. The final segment passes when every
    O <= P_{n-1} and P_k > P_{n-1} before n - 1, which gives
    max L <= min U: no bend through n - 1, slope U_{n-1}.

    Row 0 (a point read from its own segment's anchor) checks (A) and
    (B): any point with O > P_c, or with P <= P_c before c, fails its
    segment. Rows 1 and 2 evaluate (C) on the next two segments: there a
    point with O > P_c is a hit and one with P < P_c a miss (never both,
    as P >= O), and (C) holds when the first hit precedes the first
    miss. With neither in the window, (C) fails if the window reaches
    n - 1 (K does not exist) and is unknown otherwise; either way the
    segment is swept. One segmented minimum over event codes (2k for a
    hit at k, 2k + 1 for a miss, 2n + 1 for none; any event in row 0
    fails) yields all verdicts. The slopes are computed unflipped,
    (value at c - v) / (c - a) as the sweep computes them, so signed
    zeros match too.
    """
    n = hi.size
    none = 2 * n + 1
    at = np.concatenate((hi, lo))[hint.value_at]
    value = np.concatenate(([0.0, 0.0, 0.0], at))
    v = value[hint.src]
    u = (hi - v) / hint.run
    l = (lo - v) / hint.run
    flip = hint.flip
    p = np.where(flip, -l, u)
    o = np.where(flip, -u, l)
    pc = p[0, hint.ends]
    p[0, hint.ends] = np.inf
    thr = np.concatenate(([0.0, 0.0], pc))[hint.src]
    hit = o > thr
    miss = p < thr
    code = np.where(hit | miss, hint.pos2 + miss, none)
    code[0, p[0] == thr[0]] = 1
    first = np.minimum.reduceat(code, hint.starts, axis=1)
    ok = first[0] == none
    # the first event past corner s: in segment s + 1 (row 1), else s + 2 (row 2)
    past = first[1, 1:]
    past[:-1] = np.minimum(past[:-1], first[2, 2:])
    ok[:-1] &= past % 2 == 0
    slopes = (np.concatenate((at, hi[-1:])) - value[2:]) / hint.lengths
    if ok.all():
        return np.repeat(slopes, hint.lengths), hint
    # sweep each uncertified segment back to a corner of the hint
    end_list, stops, anchors = hint.end_list, hint.stops, hint.anchors
    hi_view = memoryview(hi)
    lo_view = memoryview(lo)
    avals = [0.0] + at.tolist()
    slope_list = slopes.tolist()
    out_slopes = []
    out_ends = []
    s = 0
    for b in np.flatnonzero(~ok).tolist():
        if b < s:
            continue
        out_slopes += slope_list[s:b]
        out_ends += end_list[s:b]
        s = _taut_string(hi_view, lo_view, anchors[b], avals[b], out_slopes, out_ends, stops)
        if s is None:
            break
    else:
        out_slopes += slope_list[s:]
        out_ends += end_list[s:]
    if out_ends == end_list:
        return np.repeat(slopes, hint.lengths), hint
    out, codes = _fill(out_slopes, out_ends)
    return out, _Corners(codes, n)


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


def _separable_distance(p, u, weight, lo, hi) -> float:
    """dist(u, dg(p)) for g(x) = sum_i weight_i * |x_i| on the box [lo, hi].

    dg(p)_i is the interval weight_i * d|.|(p_i) ([-w, w] at 0, w * sign
    elsewhere) plus the normal cone of [lo_i, hi_i] at p_i (unbounded on
    the side of a bound that p_i sits on). ``L1Norm`` is its weight on
    (-inf, inf), ``BoxIndicator`` weight 0 on its box.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    s = weight * np.sign(p)
    left = np.where(p == 0.0, -weight, s) + np.where(p == lo, -np.inf, 0.0)
    right = np.where(p == 0.0, weight, s) + np.where(p == hi, np.inf, 0.0)
    below = np.where(np.isfinite(left), left - u, -np.inf)
    above = np.where(np.isfinite(right), u - right, -np.inf)
    return float(np.linalg.norm(np.maximum(np.maximum(below, above), 0.0)))


class L1Norm(ProxTerm):
    """g(x) = weight * ||x||_1."""

    separable = True
    lower_bound = 0.0

    def __init__(self, weight: float = 1.0):
        if not (weight > 0) or not np.isfinite(weight):
            raise UsageError(f"l1 weight must be positive and finite, got {weight}")
        self.weight = float(weight)

    def value(self, x) -> float:
        return self.weight * float(np.add.reduce(np.abs(x), axis=None))

    def prox(self, z, gamma, weights=None):
        tau = self.weight * gamma if weights is None else self.weight * gamma / weights
        return soft_threshold(z, tau)

    def subdiff_distance(self, p, u) -> float:
        return _separable_distance(p, u, self.weight, -np.inf, np.inf)


class BoxIndicator(ProxTerm):
    """Indicator of the box [lo, hi]; +-inf allowed.

    Each bound is a scalar, the same for every coordinate, or a vector
    of one entry per coordinate; vector bounds must have one length, and
    a point of another length is refused. The projection is a plain
    clamp regardless of gamma and of diagonal weights (separable
    indicator: each coordinate projects onto its own interval).

    Membership compares a point with the sides that bound it. Vector
    bounds compare both sides. A scalar side of -inf (lo) or +inf (hi)
    holds for every number and is not compared, and the clamp skips it
    too; with both scalar sides infinite, lo is compared alone. A NaN
    entry fails every comparison, so it lies outside every box.
    """

    separable = True
    lower_bound = 0.0

    def __init__(self, lo=-np.inf, hi=np.inf):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        sizes = {b.size for b in (lo, hi) if b.ndim == 1}
        if lo.ndim > 1 or hi.ndim > 1 or len(sizes) > 1:
            raise UsageError(
                f"box bounds must be scalars or vectors of one length, got shapes "
                f"{lo.shape} and {hi.shape}"
            )
        if not np.all(lo <= hi):  # NaN bounds too
            raise UsageError("empty box: lo > hi or a NaN bound somewhere")
        self.lo = lo
        self.hi = hi
        # the length every point must have, None for scalar bounds
        self._size = sizes.pop() if sizes else None
        # the sides that membership and the clamp compare, None for a scalar
        # side that bounds nothing; lo stays when neither bounds, so NaN fails
        lo_free = self._size is None and lo == -np.inf
        hi_free = self._size is None and hi == np.inf
        self._lo = None if lo_free and not hi_free else lo
        self._hi = None if hi_free else hi

    def _check_dim(self, x):
        if x.size != self._size:
            raise UsageError(f"expected {self._size} coordinates, got {x.size}")

    def value(self, x) -> float:
        return 0.0 if self.in_domain(x) else np.inf

    def in_domain(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if self._size is not None:
            self._check_dim(x)
        lo, hi, size = self._lo, self._hi, x.size
        return bool((lo is None or np.count_nonzero(x >= lo) == size)
                    and (hi is None or np.count_nonzero(x <= hi) == size))

    def prox(self, z, gamma, weights=None):
        # the constructor rejected lo > hi and NaN bounds; a point's length
        # is all a call checks, and only against vector bounds
        if self._size is not None:
            self._check_dim(np.asarray(z))
        if self._lo is not None:
            z = np.maximum(z, self._lo)
        return z if self._hi is None else np.minimum(z, self._hi)

    def subdiff_distance(self, p, u) -> float:
        return _separable_distance(p, u, 0.0, self.lo, self.hi)


class SeparableProx(ProxTerm):
    """g(x) = sum_i weight_i * |x_i| on the box [lo, hi].

    ``weight``, ``lo`` and ``hi`` are scalars or vectors that broadcast
    to one vector of length n >= 1 (at least one of them a vector):
    weight >= 0 and finite, lo <= hi, bounds may be infinite. Weight w
    with no bounds is w * |x_i|, weight 0 on [lo, hi] the interval's
    indicator, weight 0 with no bounds the zero function; in one
    dimension the prox of weight * |x| plus an interval is the clamp of
    its soft threshold, so any mix is valid.

    The prox soft-thresholds the coordinates with weight > 0 (as
    ``L1Norm``) and clamps into the bounds (as ``BoxIndicator``), the
    domain is the box, and the subdifferential is the sum of the two
    terms' intervals.
    """

    separable = True
    lower_bound = 0.0

    def __init__(self, weight=0.0, lo=-np.inf, hi=np.inf):
        arrays = [np.asarray(v, dtype=float) for v in (weight, lo, hi)]
        try:
            weight, lo, hi = (a.copy() for a in np.broadcast_arrays(*arrays))
            ok = weight.ndim == 1 and weight.size > 0
        except ValueError:
            ok = False
        if not ok:
            raise UsageError(
                "weight, lo and hi must broadcast to one vector of length n >= 1, "
                f"got shapes {[a.shape for a in arrays]}"
            )
        bad = ~((weight >= 0) & np.isfinite(weight))
        if bad.any():
            i = int(bad.argmax())
            raise UsageError(
                f"weight must be nonnegative and finite, got {weight[i]} at coordinate {i}"
            )
        bad = ~(lo <= hi)  # NaN bounds too
        if bad.any():
            i = int(bad.argmax())
            raise UsageError(f"empty interval [{lo[i]}, {hi[i]}] at coordinate {i}")
        self.weight = weight
        self.box = BoxIndicator(lo, hi)
        self._abs = weight > 0

    def in_domain(self, x) -> bool:
        return self.box.in_domain(x)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            return np.inf
        # left to right, as a loop over the coordinates would add
        return float(sum((self.weight[self._abs] * np.abs(x[self._abs])).tolist()))

    def prox(self, z, gamma, weights=None):
        z = np.asarray(z, dtype=float)
        self.box._check_dim(z)
        tau = gamma if weights is None else gamma / np.asarray(weights, dtype=float)
        # the threshold only where weight > 0: at weight 0 it would turn -0.0 into +0.0
        shrunk = np.where(self._abs, soft_threshold(z, self.weight * tau), z)
        # the clamp with the point second: on a tie (a zero against a zero
        # bound of the other sign) numpy returns the second operand, so the
        # point keeps its sign, as under Python's min and max
        return np.minimum(self.box.hi, np.maximum(self.box.lo, shrunk))

    def subdiff_distance(self, p, u) -> float:
        self.box._check_dim(np.asarray(p))
        return _separable_distance(p, u, self.weight, self.box.lo, self.box.hi)


class Tv1dNorm(ProxTerm):
    """g(x) = weight * sum_i |x_{i+1} - x_i| (anisotropic 1-D total variation).

    Not separable: combinable only with uniform (multiple-of-identity)
    diagonal weights, where the metric prox is the Euclidean prox at a
    rescaled stepsize.

    ``prox`` is warm-started. Forward-backward iterates settle on their
    jump set after finitely many steps, so the taut string of one call
    is usually that of the last one. The instance keeps the corners
    (index and side) of its last output and certifies them segment by
    segment against the new input, sweeping only the segments that
    fail; outputs are bitwise those of ``prox_tv1d`` (see
    ``_warm_taut_string``, the one path of every call). A fresh
    instance, or one whose n changed, starts from no corners: the one
    segment from the pinned left end, whose sweep is the cold one. That
    call costs about 1.6 times ``prox_tv1d``'s at n = 1000, once per
    instance and size. The corners are plain instance state: one term
    instance must not be shared by solves running in concurrent threads.
    """

    separable = False
    lower_bound = 0.0

    def __init__(self, weight: float = 1.0):
        if not (weight > 0) or not np.isfinite(weight):
            raise UsageError(f"tv weight must be positive and finite, got {weight}")
        self.weight = float(weight)
        self._corners = None  # _Corners of the last output

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.weight * float(np.abs(np.diff(x)).sum())

    def prox(self, z, gamma, weights=None):
        z = np.asarray(z, dtype=float)
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != z.shape:
                raise UsageError(f"expected weights of shape {z.shape}, got {w.shape}")
            if w.max() != w.min():
                raise UsageError(
                    "TV term admits only uniform diagonal metrics (w = c * ones)"
                )
            gamma = gamma / float(w[0])
        z, tube = _tube(z, gamma * self.weight)
        if tube is None:
            return z.copy()
        hint = self._corners
        if hint is None or hint.n != z.size:
            hint = _Corners(np.zeros(0, dtype=int), z.size)
        out, self._corners = _warm_taut_string(*tube, hint)
        return out

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
