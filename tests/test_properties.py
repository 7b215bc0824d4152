"""Property-based checks of the algebraic invariants the solver leans on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vmfbs
from vmfbs.linesearch import line_search
from vmfbs.prox import soft_threshold

from oracles import (
    SeparableProxReference,
    abs_piece_reference,
    interval_piece_reference,
    prox_tv1d_reference,
    scalar_prox_oracle,
    taut_string_corners,
    zero_piece_reference,
)

SETTLE = settings(deadline=None, max_examples=40, derandomize=True)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
small_pos = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


def vec(draw, n, lo=-10.0, hi=10.0):
    return np.array(draw(st.lists(
        st.floats(min_value=lo, max_value=hi), min_size=n, max_size=n)))


def kernel(prob, m, x, rule, config, *, start, other, y=None):
    return line_search(
        prob, m, x, rule, config,
        fx=prob.f.value(x), gx=prob.g.value(x), grad=prob.f.gradient(x),
        start=start, other=other, y=y,
    )


def trial(prob, m, x, gamma):
    """y at gamma: the domain walk on a finite f takes its first point."""
    return kernel(prob, m, x, "domain", vmfbs.LineSearchConfig(), start=gamma, other=1.0).y


@st.composite
def instance(draw, n=4, m=6):
    # no subnormal entries: a matrix row holding only subnormal ones is
    # refused when the smooth term is built (LinearMap flushes them)
    a = np.array(draw(st.lists(
        st.lists(st.floats(min_value=-3, max_value=3, allow_subnormal=False),
                 min_size=n, max_size=n),
        min_size=m, max_size=m)))
    b = vec(draw, m, -3, 3)
    x = vec(draw, n, -5, 5)
    return a, b, x


@SETTLE
@given(z1=finite, z2=finite, tau=small_pos)
def test_soft_threshold_nonexpansive(z1, z2, tau):
    p1 = soft_threshold(np.array([z1]), tau)[0]
    p2 = soft_threshold(np.array([z2]), tau)[0]
    assert abs(p1 - p2) <= abs(z1 - z2) + 1e-12


@SETTLE
@given(z=finite, tau=small_pos)
def test_soft_threshold_matches_scalar_oracle(z, tau):
    got = soft_threshold(np.array([z]), tau)[0]
    want = scalar_prox_oracle(lambda t: abs(t), z, tau)
    assert got == pytest.approx(want, abs=1e-6)


@SETTLE
@given(data=st.data(), tau=small_pos)
def test_prox_terms_nonexpansive(data, tau):
    n = 5
    z1 = vec(data.draw, n)
    z2 = vec(data.draw, n)
    for g in (vmfbs.L1Norm(0.7), vmfbs.BoxIndicator(-1.0, 2.0), vmfbs.Tv1dNorm(0.4)):
        d = np.linalg.norm(g.prox(z1, tau) - g.prox(z2, tau))
        assert d <= np.linalg.norm(z1 - z2) + 1e-10


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@st.composite
def separable_case(draw):
    """A random mix of abs, interval and zero pieces as (weight, lo, hi)
    triples with the frozen callables of each, and a strategy for points:
    Gaussian values, some of them replaced by signed zeros, the finite
    bounds or points one unit outside them."""
    n = draw(st.integers(min_value=1, max_value=40))
    triples = []
    refs = []
    pool = [0.0, -0.0, 3.0, -3.0]
    for _ in range(n):
        kind = draw(st.sampled_from(["abs", "interval", "zero"]))
        if kind == "abs":
            w = draw(st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(0.01, 10.0)))
            triples.append((w, -np.inf, np.inf))
            refs.append(abs_piece_reference(w))
        elif kind == "interval":
            ends = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-5.0, 5.0))
            lo, hi = sorted([draw(ends), draw(ends)])
            lo = draw(st.sampled_from([lo, -np.inf]))
            hi = draw(st.sampled_from([hi, np.inf]))
            triples.append((0.0, lo, hi))
            refs.append(interval_piece_reference(lo, hi))
            pool += [b + d for b in (lo, hi) if np.isfinite(b) for d in (-1.0, 0.0, 1.0)]
        else:
            triples.append((0.0, -np.inf, np.inf))
            refs.append(zero_piece_reference())

    @st.composite
    def points(draw):
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n) * 4.0
        special = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        use = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return np.where(use, special, x)

    return triples, refs, points()


# The frozen per-coordinate callables are the reference; -0.0 on an
# interval or zero piece is what a threshold applied to every coordinate
# would turn into +0.0.
@settings(deadline=None, max_examples=300, derandomize=True)
@given(data=st.data())
def test_separable_prox_matches_frozen_callables_bitwise(data):
    triples, refs, points = data.draw(separable_case())
    g = vmfbs.SeparableProx(*np.array(triples).T)
    ref = SeparableProxReference(refs)
    z = data.draw(points)
    x = data.draw(points)
    u = data.draw(points)
    gamma = data.draw(st.one_of(st.sampled_from([1.0, 0.5]), small_pos))
    w = data.draw(st.lists(st.floats(0.2, 5.0), min_size=z.size, max_size=z.size).map(np.array))
    for weights in (None, w):
        assert g.prox(z, gamma, weights).tobytes() == ref.prox(z, gamma, weights).tobytes()
    assert _bits(g.value(x)) == _bits(ref.value(x))
    assert g.in_domain(x) is ref.in_domain(x)
    # the subdifferential exists on the box only: at prox outputs, and at
    # points clamped onto the bounds
    for p in (g.prox(z, gamma, w), g.box.prox(x, gamma)):
        assert ref.in_domain(p)
        assert _bits(g.subdiff_distance(p, u)) == _bits(ref.subdiff_distance(p, u))


@st.composite
def tv_case(draw):
    """(z, gamma) for the TV prox: Gaussian z at three scales, half of them
    quantized to 0.1 or 0.5 of the scale so that collinear tube points and
    exact ties occur; gamma 0, 1e-12, dyadic or uniform on [0, 3] times
    the scale."""
    n = draw(st.integers(min_value=1, max_value=200))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    z = np.random.default_rng(seed).standard_normal(n) * scale
    if draw(st.booleans()):
        quantum = draw(st.sampled_from([0.1, 0.5])) * scale
        z = np.round(z / quantum) * quantum
    gamma = draw(st.one_of(
        st.sampled_from([0.0, 1e-12]),
        st.integers(min_value=-12, max_value=4).map(lambda e: scale * 2.0**e),
        st.floats(min_value=0.0, max_value=3.0).map(lambda v: scale * v),
    ))
    return z, gamma


# Ties that the sweep's strict comparisons resolve change the output bits
# in about one case in 150, so the test needs many cheap cases to see a
# flipped comparison.
@settings(deadline=None, max_examples=1500, derandomize=True)
@given(case=tv_case())
def test_prox_tv1d_bitwise_equals_reference_sweep(case):
    z, gamma = case
    assert vmfbs.prox_tv1d(z, gamma).tobytes() == prox_tv1d_reference(z, gamma).tobytes()


@st.composite
def tv_tie_case(draw):
    """(z, gamma) with many exact and rounded ties: z on a grid of 0.1,
    0.3 or 1/3 (times the scale) and gamma a multiple of that grid, so
    that tube points fall on common lines."""
    n = draw(st.integers(min_value=2, max_value=200))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    quantum = draw(st.sampled_from([0.1, 0.3, 1 / 3])) * scale
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    z = np.round(np.random.default_rng(seed).standard_normal(n) * scale / quantum) * quantum
    return z, quantum * draw(st.integers(min_value=1, max_value=5))


@st.composite
def tv_hinted_case(draw):
    """(z, gamma, hint, n_hint, z_next) for the warm-started TV prox.

    z and gamma come from ``tv_case`` or ``tv_tie_case``. The hint is the
    corner set the instance is given before the call, valid for a path
    grid of n_hint points: the corners of the previous output (the prox
    of a perturbed z, or of z itself) found with the sweep's tie rule or
    the opposite one; those shifted by one, with one side flipped, with
    corners dropped or added; no corner at all; every index with random
    sides; or any of these for a grid of the wrong length. z_next is a
    second input, for the corners the call leaves behind."""
    z, gamma = draw(st.one_of(tv_case(), tv_tie_case()))
    n = z.size
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = float(np.abs(z).max()) or 1.0
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.3]))
    z_prev = z + rng.standard_normal(n) * scale * noise
    prev = taut_string_corners(z_prev, gamma if gamma > 0 else scale, draw(st.booleans()))
    corners = np.maximum(prev, ~prev)
    upper = prev >= 0
    kind = draw(st.sampled_from(
        ["previous", "shift", "flip", "drop", "add", "empty", "every", "wrong_n"]
    ))
    n_hint = n
    if kind == "wrong_n":
        n_hint = n + int(rng.choice([-1, 1]))
        kind = str(rng.choice(["previous", "every"]))
    last = n_hint - 1
    if kind == "shift" and corners.size:
        corners = corners + rng.choice([-1, 1], corners.size) * (rng.random(corners.size) < 0.5)
    elif kind == "flip" and corners.size:
        upper = upper.copy()
        upper[rng.integers(corners.size)] ^= True
    elif kind == "drop" and corners.size:
        keep = rng.random(corners.size) < 0.7
        corners, upper = corners[keep], upper[keep]
    elif kind == "add":
        extra = rng.integers(0, max(last, 1), int(rng.integers(1, 4)))
        corners = np.concatenate((corners, extra))
        upper = np.concatenate((upper, rng.random(extra.size) < 0.5))
    elif kind == "empty":
        corners = corners[:0]
        upper = upper[:0]
    elif kind == "every":
        corners = np.arange(max(last, 0))
        upper = rng.random(corners.size) < 0.5
    # a hint is a strictly increasing set of corners in [0, n_hint - 2]
    corners, first = np.unique(corners, return_index=True)
    upper = upper[first]
    valid = (corners >= 0) & (corners < last)
    corners = corners[valid].astype(np.int64)
    hint = np.where(upper[valid], corners, ~corners)  # codes: j upper, ~j lower
    z_next = z + rng.standard_normal(n) * scale * 1e-3
    return z, gamma, hint, n_hint, z_next


def _hinted_prox(z, gamma, hint, n_hint):
    g = vmfbs.Tv1dNorm(1.0)
    if n_hint >= 2:
        g._corners = vmfbs.prox._Corners(hint, n_hint)
    return g, g.prox(z, gamma)


# A wrong certificate shows only on a wrong corner set, and often only
# where a tie decides the corner: every case also tries the corners that
# the opposite tie rule finds on z itself.
@settings(deadline=None, max_examples=1500, derandomize=True)
@given(case=tv_hinted_case())
def test_hinted_tv_prox_bitwise_equals_reference_sweep(case):
    z, gamma, hint, n_hint, z_next = case
    want = prox_tv1d_reference(z, gamma).tobytes()
    g, out = _hinted_prox(z, gamma, hint, n_hint)
    assert out.tobytes() == want
    # the corners the call left behind serve the next input as well
    assert g.prox(z_next, gamma).tobytes() == prox_tv1d_reference(z_next, gamma).tobytes()
    if z.size > 1 and gamma > 0:
        ties = taut_string_corners(z, gamma, last_ties=True)
        assert _hinted_prox(z, gamma, ties, z.size)[1].tobytes() == want


@SETTLE
@given(data=st.data())
def test_metric_norm_corridor(data):
    n = 6
    w = np.array(data.draw(st.lists(
        st.floats(min_value=0.2, max_value=5.0), min_size=n, max_size=n)))
    v = vec(data.draw, n)
    sched = vmfbs.constant_schedule(w)
    ns = float(sched.metric_at(0) @ (v * v))
    e = float(v @ v)
    assert sched.global_nu * e - 1e-10 <= ns <= sched.global_mu * e + 1e-10


@SETTLE
@given(data=st.data(), tau=small_pos)
def test_metric_prox_identity_weights_is_plain_prox(data, tau):
    n = 4
    z = vec(data.draw, n)
    g = vmfbs.L1Norm(0.9)
    assert np.allclose(g.prox(z, tau, np.ones(n)), g.prox(z, tau), atol=1e-14)


@SETTLE
@given(inst=instance(), g1=small_pos, g2=small_pos, lam=st.floats(min_value=0.05, max_value=1.0))
def test_forward_backward_map_scalings(inst, g1, g2, lam):
    a, b, x = inst
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.3), dimension=a.shape[1]
    )
    m = np.ones(a.shape[1])
    lo, hi = sorted((g1, g2))
    y_lo = trial(prob, m, x, lo)
    y_hi = trial(prob, m, x, hi)
    n_lo = np.linalg.norm(y_lo - x)
    n_hi = np.linalg.norm(y_hi - x)
    # step length grows with gamma, but no faster than linearly
    assert n_lo <= n_hi + 1e-9 * (1 + n_hi)
    assert n_hi <= (hi / lo) * n_lo + 1e-9 * (1 + n_lo)
    # the relaxed point of a lam walk at gamma = lo interpolates x and y exactly
    out = kernel(prob, m, x, "ls2", vmfbs.LineSearchConfig(theta=0.5), start=lam, other=lo)
    assert np.array_equal(out.y, y_lo)
    assert np.allclose(out.x_next, x + out.lam * (y_lo - x), atol=1e-12)


@SETTLE
@given(inst=instance(), delta=st.floats(min_value=0.05, max_value=0.95),
       gamma_k=st.floats(min_value=0.1, max_value=2.0))
def test_tseng_yun_ls4_equivalence(inst, delta, gamma_k):
    a, b, x = inst
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.3), dimension=a.shape[1]
    )
    m = np.ones(a.shape[1])
    ls4 = kernel(prob, m, x, "ls4", vmfbs.LineSearchConfig(delta=delta, theta=0.5),
                 start=1.0, other=gamma_k)
    ty = kernel(
        prob, m, x, "tseng-yun",
        vmfbs.LineSearchConfig(rule="tseng-yun", sigma=1.0 - delta, beta=0.0, theta=0.5),
        start=1.0, other=gamma_k)
    assert ty.lam == ls4.lam
    assert ty.backtracks == ls4.backtracks


@SETTLE
@given(inst=instance(), delta=st.floats(min_value=0.1, max_value=0.9))
def test_condition_chain_ls3_implies_ls1_and_ls4(inst, delta):
    a, b, x = inst
    n = a.shape[1]
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.3), dimension=n
    )
    m = np.ones(n)
    cfg = vmfbs.LineSearchConfig(rule="ls3", delta=delta, theta=0.5, gamma_max=2.0)
    out = kernel(prob, m, x, "ls3", cfg, start=cfg.gamma_max, other=1.0)
    y, gamma, lam = out.y, out.gamma, out.lam
    gx = prob.f.gradient(x)
    fx = prob.f.value(x)
    dy = y - x
    ns = float(dy @ dy)
    slack = 1e-12 * (1.0 + abs(fx))
    # ls1's descent condition at the same gamma, lam
    lhs1 = prob.f.value(x + lam * dy) - fx - lam * float(dy @ gx)
    assert lhs1 <= delta * lam / gamma * ns + slack
    # ls4's sufficient-decrease condition at the same pair
    ell = float(dy @ gx) + prob.g.value(y) - prob.g.value(x)
    x1 = x + lam * dy
    lhs4 = (prob.f.value(x1) + prob.g.value(x1)) - (fx + prob.g.value(x))
    assert lhs4 <= (1 - delta) * lam * ell + slack


@SETTLE
@given(inst=instance(), delta=st.floats(min_value=0.1, max_value=0.9))
def test_accepted_step_always_descends(inst, delta):
    a, b, x = inst
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.3), dimension=a.shape[1]
    )
    m = np.ones(a.shape[1])
    out = kernel(prob, m, x, "ls1", vmfbs.LineSearchConfig(delta=delta, theta=0.5),
                 start=1.0, other=1.0)
    F = lambda v: prob.f.value(v) + prob.g.value(v)
    assert F(out.x_next) <= F(x) + 1e-10 * (1 + abs(F(x)))


def rule_holds(rule, prob, m, x, gamma, lam, cfg):
    """The rule's acceptance inequality at (gamma, lam), recomputed from scratch."""
    f, g, w = prob.f, prob.g, m
    fx, gx, grad = f.value(x), g.value(x), f.gradient(x)
    y = g.prox(x - gamma * (grad / w), gamma, w)
    if rule == "domain":
        return f.in_domain(y)
    dy = y - x
    ns = float(np.dot(w, dy * dy))
    x1 = x + lam * dy
    if rule == "ls3":
        if not f.in_domain(x1):
            return False
        dg = (f.gradient(x1) - grad) / w
        lhs = float(np.sqrt(np.dot(w, dg * dg)))
        rhs = (cfg.delta / gamma) * float(np.sqrt(ns))
    elif rule in ("ls1", "ls2"):
        lhs = f.value(x1) - fx - lam * float(dy @ grad)
        rhs = (cfg.delta * lam / gamma) * ns
    else:
        ell = g.value(y) - gx + float(dy @ grad)
        lhs = (f.value(x1) + g.value(x1)) - (fx + gx)
        if rule == "ls4":
            rhs = lam * ((1.0 - cfg.delta) * ell)
        else:
            rhs = lam * (cfg.sigma * (ell + (cfg.beta / gamma) * ns))
    return bool(np.isfinite(lhs) and lhs <= rhs + 1e-14 * (1.0 + abs(fx)))


@st.composite
def search_case(draw, n=4, m=6):
    """A lasso, p=4 or KL instance with a point, a diagonal metric and a grid."""
    kind = draw(st.sampled_from(["lasso", "p4", "kl"]))
    if kind == "kl":
        a = np.array(draw(st.lists(
            st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=n, max_size=n),
            min_size=m, max_size=m)))
        b = vec(draw, m, 0.1, 5.0)
        x = vec(draw, n, 0.05, 5.0)
        prob = vmfbs.CompositeProblem(
            f=vmfbs.KLDivergence(a, b), g=vmfbs.BoxIndicator(0.0, np.inf),
            dimension=n, domain_regime="general",
        )
    else:
        a, b, x = draw(instance(n=n, m=m))
        prob = vmfbs.CompositeProblem(
            f=vmfbs.PNormResidual(a, b, p=2.0 if kind == "lasso" else 4.0),
            g=vmfbs.L1Norm(0.3), dimension=n,
        )
    w = vec(draw, n, 0.25, 4.0)
    cfg = vmfbs.LineSearchConfig(
        delta=draw(st.floats(min_value=0.05, max_value=0.95)),
        theta=draw(st.sampled_from([0.5, 0.7])),
        gamma_max=draw(st.sampled_from([0.5, 2.0, 8.0, 64.0])),
        sigma=0.5,
        beta=0.5,
    )
    return prob, w, x, cfg


def assert_largest(walk, out, start, prob, m, x, cfg):
    """out sits on the grid, passes its test, and the next larger grid point fails it."""
    gamma_walk = walk in ("ls1", "ls3", "domain")
    assert (out.gamma if gamma_walk else out.lam) == start * cfg.theta**out.backtracks
    assert rule_holds(walk, prob, m, x, out.gamma, out.lam, cfg)
    if out.backtracks > 0:
        larger = start * cfg.theta**(out.backtracks - 1)
        gamma, lam = (larger, out.lam) if gamma_walk else (out.gamma, larger)
        assert not rule_holds(walk, prob, m, x, gamma, lam, cfg)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(case=search_case(), rule=st.sampled_from(["ls1", "ls2", "ls3", "ls4", "tseng-yun"]))
def test_accepted_point_is_the_largest_passing_grid_point(case, rule):
    # as solve() runs it: in the general regime the domain walk comes first
    # and hands over its gamma and prox point
    prob, m, x, cfg = case
    gamma_k, y0 = cfg.gamma_max, None
    if prob.domain_regime == "general":
        dom = kernel(prob, m, x, "domain", cfg, start=cfg.gamma_max, other=1.0)
        assert_largest("domain", dom, cfg.gamma_max, prob, m, x, cfg)
        gamma_k, y0 = dom.gamma, dom.y
    if rule in ("ls1", "ls3"):
        start, other = gamma_k, 1.0
    else:
        start, other = 1.0, gamma_k
    out = kernel(prob, m, x, rule, cfg, start=start, other=other, y=y0)
    assert_largest(rule, out, start, prob, m, x, cfg)
