import time
import tracemalloc

import numpy as np
import pytest

import vmfbs
from oracles import (
    golden_section,
    prox_tv1d_oracle,
    prox_tv1d_reference,
    prox_tv1d_two_point,
    scalar_prox_oracle,
    tv_subdiff_distance_dense,
    tv_value,
)


# --- soft thresholding -------------------------------------------------

def test_soft_threshold_basic():
    assert vmfbs.soft_threshold(3.0, 1.0) == 2.0
    assert vmfbs.soft_threshold(-3.0, 1.0) == -2.0
    assert vmfbs.soft_threshold(0.5, 1.0) == 0.0
    # tie lands exactly on zero
    assert vmfbs.soft_threshold(1.0, 1.0) == 0.0
    assert vmfbs.soft_threshold(-1.0, 1.0) == 0.0


def test_soft_threshold_vectorized():
    z = np.array([3.0, -0.5, 1.0])
    assert np.array_equal(vmfbs.soft_threshold(z, 1.0), [2.0, 0.0, 0.0])


def test_soft_threshold_zero_tau_is_identity():
    z = np.array([1.0, -2.0])
    assert np.array_equal(vmfbs.soft_threshold(z, 0.0), z)


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(vmfbs.UsageError):
        vmfbs.soft_threshold(1.0, -0.5)


def test_soft_threshold_rejects_a_nan_tau():
    with pytest.raises(vmfbs.UsageError, match="tau >= 0"):
        vmfbs.soft_threshold(1.0, np.nan)
    with pytest.raises(vmfbs.UsageError, match="tau >= 0"):
        vmfbs.soft_threshold([1.0, 2.0], [0.5, np.nan])
    # and so do the proxes that threshold, at a NaN gamma
    with pytest.raises(vmfbs.UsageError, match="tau >= 0"):
        vmfbs.L1Norm(1.0).prox(np.ones(2), np.nan)
    with pytest.raises(vmfbs.UsageError, match="tau >= 0"):
        vmfbs.SeparableProx([1.0, 0.0], -np.inf, np.inf).prox(np.ones(2), np.nan)


def test_soft_threshold_matches_golden_section(rng):
    for _ in range(50):
        z = float(rng.uniform(-5, 5))
        tau = float(rng.uniform(0.01, 3))
        ref = scalar_prox_oracle(lambda p: abs(p), z, tau)
        assert vmfbs.soft_threshold(z, tau) == pytest.approx(ref, abs=1e-6)


# --- box projection ----------------------------------------------------

def test_box_prox_clamps():
    z = np.array([-1.0, 0.5, 2.0])
    assert np.array_equal(vmfbs.BoxIndicator(0.0, 1.0).prox(z, 1.0), [0.0, 0.5, 1.0])


def test_box_prox_vector_bounds():
    z = np.array([5.0, -5.0])
    lo = np.array([-1.0, -2.0])
    hi = np.array([1.0, 2.0])
    assert np.array_equal(vmfbs.BoxIndicator(lo, hi).prox(z, 1.0), [1.0, -2.0])


def test_box_empty_box_rejected():
    with pytest.raises(vmfbs.UsageError):
        vmfbs.BoxIndicator(1.0, -1.0)


@pytest.mark.parametrize("lo, hi", [
    (np.nan, 2.0),
    (0.0, np.nan),
    (np.array([0.0, np.nan]), 1.0),
    (np.array([0.0, 1.0]), np.array([1.0, np.nan])),
])
def test_box_nan_bound_rejected(lo, hi):
    # a NaN bound compares false both ways: it would project onto NaN
    with pytest.raises(vmfbs.UsageError, match="NaN bound"):
        vmfbs.BoxIndicator(lo, hi)


def test_box_refuses_bounds_of_another_shape():
    # a (5, 1) bound would make the clamp a 5x5 array
    with pytest.raises(vmfbs.UsageError, match=r"scalars or vectors of one length.*\(5, 1\)"):
        vmfbs.BoxIndicator(np.zeros((5, 1)), 1.0)
    with pytest.raises(vmfbs.UsageError, match=r"scalars or vectors of one length.*\(3,\) and \(5,\)"):
        vmfbs.BoxIndicator(np.zeros(3), np.ones(5))
    # a length-3 bound against a 5-dimensional point, refused as UsageError
    box = vmfbs.BoxIndicator(np.zeros(3), 1.0)
    for call in (box.in_domain, box.value, lambda z: box.prox(z, 1.0)):
        with pytest.raises(vmfbs.UsageError, match="expected 3 coordinates, got 5"):
            call(np.zeros(5))
    problem = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(np.eye(5), np.ones(5)), g=box, dimension=5
    )
    with pytest.raises(vmfbs.UsageError, match="expected 3 coordinates, got 5"):
        vmfbs.solve(problem, np.zeros(5))
    assert box.in_domain(np.full(3, 0.5)) and not box.in_domain(np.full(3, 2.0))


_SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, -0.5, 2.0)


def _two_sided(lo, hi, x):
    """Box membership as both comparisons at every coordinate."""
    return bool((x >= lo).all() and (x <= hi).all())


def test_box_membership_at_nan_inf_and_signed_zero():
    box = vmfbs.BoxIndicator(0.0, np.inf)
    for v, inside in ((np.nan, False), (np.inf, True), (-np.inf, False), (-0.0, True)):
        for x in (np.array([v]), np.array([1.0, v, 2.0])):
            assert box.in_domain(x) is inside, x
            assert box.value(x) == (0.0 if inside else np.inf)


@pytest.mark.parametrize("lo, hi", [
    (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (0.0, 1.0), (np.inf, np.inf),
    (-np.inf, -np.inf),
    (np.array([0.0, -np.inf, -np.inf, 1.0]), np.array([np.inf, 0.0, np.inf, np.inf])),
    (np.array([-np.inf, 0.0, -1.0, -np.inf]), 2.0),
])
def test_box_membership_and_clamp_are_the_two_sided_forms(lo, hi):
    # scalar bounds compare only the sides that bound, vector bounds both;
    # every point below, NaN, infinities and signed zeros included, gets
    # the verdict and the clamp bits of both comparisons
    box = vmfbs.BoxIndicator(lo, hi)
    n = 4
    points = [np.full(n, v) for v in _SPECIAL]
    points += [np.array([0.5, v, -0.0, 1.0]) for v in _SPECIAL]
    for x in points:
        inside = _two_sided(box.lo, box.hi, x)
        assert box.in_domain(x) is inside, x
        assert box.value(x) == (0.0 if inside else np.inf)
        clamp = np.minimum(np.maximum(x, box.lo), box.hi)
        assert box.prox(x, 1.0).tobytes() == clamp.tobytes(), x
    assert box.in_domain(np.full(n, np.nan)) is False


# --- TV prox (taut string) ---------------------------------------------

def test_prox_tv1d_pinned_pair():
    # half the gap is 0.5, so gamma=0.25 shrinks, gamma=1 merges
    assert np.allclose(vmfbs.prox_tv1d(np.array([1.0, 0.0]), 0.25), [0.75, 0.25])
    assert np.allclose(vmfbs.prox_tv1d(np.array([1.0, 0.0]), 1.0), [0.5, 0.5])


def test_prox_tv1d_pinned_five_vector():
    # worked out from the optimality conditions: the last two coordinates
    # merge with an interior dual value, the rest stay separate
    z = np.array([1.0, -0.5, 0.25, 2.0, 1.5])
    expected = np.array([0.7, 0.1, 0.25, 1.6, 1.6])
    assert np.allclose(vmfbs.prox_tv1d(z, 0.3), expected, atol=1e-12)
    # large gamma flattens to the mean
    assert np.allclose(vmfbs.prox_tv1d(z, 2.0), np.full(5, 0.85), atol=1e-12)


def test_prox_tv1d_preserves_mean():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.standard_normal(int(rng.integers(2, 40)))
        out = vmfbs.prox_tv1d(z, float(rng.uniform(0.01, 4)))
        assert np.mean(out) == pytest.approx(np.mean(z), abs=1e-12)


def test_prox_tv1d_single_point_and_zero_gamma():
    assert np.array_equal(vmfbs.prox_tv1d(np.array([4.0]), 1.0), [4.0])
    z = np.array([1.0, -1.0, 2.0])
    assert np.array_equal(vmfbs.prox_tv1d(z, 0.0), z)


def test_prox_tv1d_two_point_closed_form(rng):
    for _ in range(100):
        z = rng.uniform(-4, 4, size=2)
        gamma = float(rng.uniform(0.01, 5))
        assert np.allclose(
            vmfbs.prox_tv1d(z, gamma), prox_tv1d_two_point(z, gamma), atol=1e-14
        )


def test_prox_tv1d_against_dual_oracle(rng):
    for _ in range(150):
        n = int(rng.integers(1, 35))
        z = rng.standard_normal(n) * float(rng.uniform(0.5, 3))
        gamma = float(rng.uniform(0.01, 5))
        ref = prox_tv1d_oracle(z, gamma)
        assert np.allclose(vmfbs.prox_tv1d(z, gamma), ref, atol=1e-9)


def test_prox_tv1d_objective_no_worse_than_candidates(rng):
    # prox objective value at the output beats z itself and the mean
    for _ in range(30):
        n = int(rng.integers(2, 20))
        z = rng.standard_normal(n)
        gamma = float(rng.uniform(0.05, 2))
        p = vmfbs.prox_tv1d(z, gamma)
        obj = lambda y: 0.5 * np.sum((y - z) ** 2) + gamma * tv_value(y)
        assert obj(p) <= obj(z) + 1e-12
        assert obj(p) <= obj(np.full(n, z.mean())) + 1e-12


def tv_deblur_problem(seed, n=1000, jumps=19):
    """A blurred piecewise-constant signal with TV weight 0.05: Gaussian
    blur of width 3, jumps about 50 apart alternating in sign, levels in
    [0.5, 1], noise 0.1."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    k = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 3.0) ** 2)
    k /= k.sum(axis=1, keepdims=True)
    signs = np.where(np.arange(jumps + 1) % 2 == 1, 1.0, -1.0)
    cuts = np.arange(1, jumps + 1) * (n // (jumps + 1)) + rng.integers(-15, 16, jumps)
    levels = rng.uniform(0.5, 1.0, jumps + 1) * signs
    signal = np.repeat(levels, np.diff(np.r_[0, cuts, n]))
    b = k @ signal + 0.1 * rng.standard_normal(n)
    return vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(k, b), g=vmfbs.Tv1dNorm(0.05), dimension=n
    )


def test_prox_tv1d_replays_a_deblur_solve_bitwise(monkeypatch):
    # the first 30 prox calls of an n = 1000 deblur solve, warm-started or
    # swept, against the frozen numpy-scalar sweep
    calls = []
    prox = vmfbs.Tv1dNorm.prox

    def recording(self, z, gamma, weights=None):
        out = prox(self, z, gamma, weights)
        calls.append((np.array(z, dtype=float), gamma * self.weight, weights, out))
        return out

    monkeypatch.setattr(vmfbs.Tv1dNorm, "prox", recording)
    problem = tv_deblur_problem(1)
    vmfbs.solve(problem, np.zeros(1000), vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule="ls1", warm_start=True),
        max_iterations=30,
    ))
    assert len(calls) >= 30
    for z, gamma, weights, out in calls[:30]:
        assert weights is None or not np.ptp(weights)
        if weights is not None:
            gamma = gamma / float(weights[0])
        assert out.tobytes() == prox_tv1d_reference(z, gamma).tobytes()


@pytest.mark.filterwarnings("error")
def test_prox_tv1d_reports_overflow():
    # partial sums that overflow, and finite partial sums whose tube
    # bound r_0 + gamma does; the UsageError is all that is reported, no
    # numpy warning comes before it
    g = vmfbs.Tv1dNorm(1.0)
    for z, gamma in (
        (np.array([1.5e308, 1.5e308, -1.5e308, -1.5e308]), 1.0),
        (np.array([1e308, 1e308, 1.0]), 0.1),
        (np.array([1.5e308, 0.0, -1.5e308]), 0.5e308),
    ):
        with pytest.raises(vmfbs.UsageError, match="overflow"):
            vmfbs.prox_tv1d(z, gamma)
        with pytest.raises(vmfbs.UsageError, match="overflow"):
            g.prox(z, gamma)
    # inputs close to the bound still come out finite
    out = vmfbs.prox_tv1d(np.array([4e307, 4e307, -4e307, -4e307]), 1e307)
    assert np.isfinite(out).all()


# --- TV subdifferential distance ----------------------------------------

def test_tv_subdiff_distance_matches_dense_verifier(rng):
    # per-run BVLS against the single dense BVLS, at the prox point and
    # at arbitrary dual vectors, on plain and quantized z
    for i in range(200):
        n = int(rng.integers(1, 40))
        z = rng.standard_normal(n) * 2
        if i % 2:
            z = np.round(z * 2) / 2
        t = float(rng.uniform(0.2, 2))
        g = vmfbs.Tv1dNorm(t)
        gamma = float(rng.uniform(0.05, 3))
        p = g.prox(z, gamma)
        for u in ((z - p) / gamma, rng.standard_normal(n)):
            assert g.subdiff_distance(p, u) == pytest.approx(
                tv_subdiff_distance_dense(p, u, t), abs=1e-12
            )


def test_tv_subdiff_distance_scales_to_n_20000():
    # one jump every 50 points: the per-run problems stay small, and no
    # n x n matrix (3.2 GB here) is ever allocated
    rng = np.random.default_rng(7)
    n = 20000
    levels = rng.uniform(0.5, 1.0, n // 50) * np.where(np.arange(n // 50) % 2, 1.0, -1.0)
    z = np.repeat(levels, 50) + 0.1 * rng.standard_normal(n)
    g = vmfbs.Tv1dNorm(1.0)
    p = g.prox(z, 0.5)
    tracemalloc.start()
    try:
        good = vmfbs.prox_optimality_residual(g, z, 0.5, p)
        bad = vmfbs.prox_optimality_residual(g, z, 0.5, p + 1e-3 * np.sin(np.arange(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert good <= 1e-10 < 1e-3 < bad
    assert peak < 64 * 2**20



def test_tv_subdiff_distance_sees_a_shifted_flat_run(rng):
    # moving one flat run of a true prox output by 1e-3 must show, here
    # and in the dense verifier
    shifted = 0
    for _ in range(40):
        n = int(rng.integers(8, 60))
        z = rng.standard_normal(n) * 2
        t = float(rng.uniform(0.2, 2))
        gamma = float(rng.uniform(0.05, 3))
        g = vmfbs.Tv1dNorm(t)
        p = g.prox(z, gamma)
        assert vmfbs.prox_optimality_residual(g, z, gamma, p) <= 1e-12
        edges = np.flatnonzero(np.diff(p) == 0.0)
        if not edges.size:
            continue
        a = b = int(edges[rng.integers(edges.size)])
        while a > 0 and p[a - 1] == p[a]:
            a -= 1
        while b + 1 < n and p[b + 1] == p[b]:
            b += 1
        bad = p.copy()
        bad[a : b + 1] += 1e-3
        got = vmfbs.prox_optimality_residual(g, z, gamma, bad)
        assert got > 1e-6
        assert got == pytest.approx(
            tv_subdiff_distance_dense(bad, (z - bad) / gamma, t), abs=1e-12
        )
        shifted += 1
    assert shifted >= 20


def test_tv_subdiff_distance_all_flat_is_fast():
    # one flat run over all 3000 nodes: the per-run solve is a taut string
    z = np.random.default_rng(5).standard_normal(3000)
    g = vmfbs.Tv1dNorm(1.0)
    p = g.prox(z, 1e4)
    assert not np.diff(p).any()
    start = time.perf_counter()
    residual = vmfbs.prox_optimality_residual(g, z, 1e4, p)
    assert time.perf_counter() - start < 0.1
    assert residual <= 1e-12


# --- piece catalog and separable sums ----------------------------------

def test_l1norm_prox_and_value():
    g = vmfbs.L1Norm(2.0)
    z = np.array([3.0, -1.0])
    assert g.value(z) == pytest.approx(8.0)
    assert np.allclose(g.prox(z, 0.5), [2.0, 0.0])


def test_l1norm_metric_prox_uses_per_coordinate_threshold():
    g = vmfbs.L1Norm(1.0)
    out = g.prox(np.array([3.0, 3.0]), 1.0, weights=np.array([1.0, 2.0]))
    assert np.allclose(out, [2.0, 2.5])


def test_box_indicator_value_and_prox():
    g = vmfbs.BoxIndicator(0.0, 1.0)
    assert g.value(np.array([0.5, 0.0])) == 0.0
    assert g.value(np.array([1.5, 0.0])) == np.inf
    assert np.array_equal(g.prox(np.array([-3.0, 0.4]), 7.0), [0.0, 0.4])


def test_separable_prox_mixed_pieces():
    # |x| with no bounds, the interval [0, 1], the zero function
    g = vmfbs.SeparableProx(weight=[1.0, 0.0, 0.0], lo=[-np.inf, 0.0, -np.inf],
                            hi=[np.inf, 1.0, np.inf])
    z = np.array([3.0, 1.7, -2.5])
    out = g.prox(z, 1.0)
    assert np.allclose(out, [2.0, 1.0, -2.5])
    assert g.value(np.array([1.0, 0.5, 9.0])) == pytest.approx(1.0)
    assert g.value(np.array([1.0, 1.5, 0.0])) == np.inf


def test_separable_arrays_broadcast_and_are_validated():
    g = vmfbs.SeparableProx(weight=[2.0, 0.0, 0.0], lo=-1.0)
    assert np.array_equal(g.weight, [2.0, 0.0, 0.0])
    assert np.array_equal(g.box.lo, [-1.0] * 3) and np.array_equal(g.box.hi, [np.inf] * 3)
    # each refusal names the first bad coordinate
    for kwargs, needle in [
        (dict(weight=[1.0, -1.0, -2.0]), "nonnegative and finite, got -1.0 at coordinate 1"),
        (dict(weight=[0.0, 1.0, np.inf]), "nonnegative and finite, got inf at coordinate 2"),
        (dict(weight=[np.nan, -1.0]), "nonnegative and finite, got nan at coordinate 0"),
        (dict(lo=[0.0, 1.0, 2.0], hi=[0.0, 0.0, 1.0]), "empty interval [1.0, 0.0] at coordinate 1"),
        (dict(lo=[0.0, np.nan], hi=1.0), "empty interval [nan, 1.0] at coordinate 1"),
        (dict(weight=[0.0], hi=[np.nan]), "empty interval [-inf, nan] at coordinate 0"),
        (dict(weight=[]), "one vector of length n >= 1, got shapes [(0,), (), ()]"),
        (dict(weight=[1.0, 2.0], lo=[0.0, 0.0, 0.0]), "got shapes [(2,), (3,), ()]"),
        (dict(), "one vector of length n >= 1, got shapes [(), (), ()]"),
        (dict(weight=np.ones((2, 2))), "got shapes [(2, 2), (), ()]"),
    ]:
        with pytest.raises(vmfbs.UsageError) as err:
            vmfbs.SeparableProx(**kwargs)
        assert needle in str(err.value)


def test_separable_prox_residual_zero_at_prox_point(rng):
    # abs, interval and zero pieces, and pieces with both a weight and
    # bounds, under Euclidean and diagonal metrics
    for _ in range(50):
        n = int(rng.integers(1, 10))
        triples = []
        for _ in range(n):
            lo, hi = np.sort(rng.uniform(-2, 2, size=2))
            lo = lo if rng.random() < 0.7 else -np.inf
            hi = hi if rng.random() < 0.7 else np.inf
            weight = float(rng.choice([0.0, rng.uniform(0.1, 2)]))
            triples.append((weight, lo, hi))
        g = vmfbs.SeparableProx(*np.array(triples).T)
        z = rng.uniform(-4, 4, size=n)
        gamma = float(rng.uniform(0.05, 3))
        w = rng.uniform(0.2, 5, size=n)
        for weights in (None, w):
            p = g.prox(z, gamma, weights)
            assert vmfbs.prox_optimality_residual(g, z, gamma, p, weights=weights) <= 1e-12


def test_separable_prox_dimension_mismatch():
    g = vmfbs.SeparableProx(weight=[0.0])
    with pytest.raises(vmfbs.UsageError):
        g.prox(np.array([1.0, 2.0]), 1.0)


def test_zero_term_prox_is_identity():
    g = vmfbs.ZeroTerm()
    z = np.array([1.0, -2.0])
    assert np.array_equal(g.prox(z, 3.0), z)
    assert g.value(z) == 0.0


def test_tv1d_norm_scales_weight_and_rejects_nonuniform_metric():
    g = vmfbs.Tv1dNorm(2.0)
    z = np.array([1.0, 0.0])
    # effective threshold is weight * gamma = 0.5: merge
    assert np.allclose(g.prox(z, 0.25), [0.5, 0.5])
    with pytest.raises(vmfbs.UsageError):
        g.prox(z, 0.25, weights=np.array([1.0, 2.0]))
    # uniform non-identity weights rescale gamma by 1/w
    out = g.prox(z, 0.25, weights=np.array([4.0, 4.0]))
    assert np.allclose(out, g.prox(z, 0.0625))


def test_tv1d_norm_refuses_weights_of_another_shape():
    # a uniformity test on the weights alone would pass these and read w[0]
    g = vmfbs.Tv1dNorm(0.5)
    for w in (np.full(3, 2.0), np.full(6, 2.0), np.full((5, 1), 2.0)):
        with pytest.raises(vmfbs.UsageError, match="weights of shape"):
            g.prox(np.ones(5), 1.0, w)


# --- optimality residual (the subdifferential distance) ----------------

def test_prox_residual_zero_at_prox_point_l1(rng):
    g = vmfbs.L1Norm(1.5)
    for _ in range(100):
        z = rng.uniform(-4, 4, size=int(rng.integers(1, 8)))
        gamma = float(rng.uniform(0.05, 3))
        p = g.prox(z, gamma)
        assert vmfbs.prox_optimality_residual(g, z, gamma, p) <= 1e-12


def test_prox_residual_positive_off_prox_point():
    g = vmfbs.L1Norm(1.0)
    z = np.array([3.0])
    p = g.prox(z, 1.0)
    r_good = vmfbs.prox_optimality_residual(g, z, 1.0, p)
    r_bad = vmfbs.prox_optimality_residual(g, z, 1.0, p + 0.1)
    assert r_good <= 1e-12 < r_bad


def test_prox_residual_requires_domain_point():
    g = vmfbs.BoxIndicator(0.0, 1.0)
    with pytest.raises(vmfbs.UsageError):
        vmfbs.prox_optimality_residual(g, np.array([0.5]), 1.0, np.array([2.0]))


def test_prox_residual_respects_metric_weights():
    g = vmfbs.L1Norm(1.0)
    z = np.array([3.0, 3.0])
    w = np.array([1.0, 2.0])
    p = g.prox(z, 1.0, weights=w)
    assert vmfbs.prox_optimality_residual(g, z, 1.0, p, weights=w) <= 1e-12
    # the identity-metric prox point is wrong under these weights
    p_plain = g.prox(z, 1.0)
    assert vmfbs.prox_optimality_residual(g, z, 1.0, p_plain, weights=w) > 1e-3


def test_l1_and_box_distances_are_the_separable_ones(rng):
    # L1Norm(w) is SeparableProx(w, -inf, inf) and BoxIndicator(lo, hi) is
    # SeparableProx(0, lo, hi), subdifferential distances bit for bit, at
    # points with zeros of both signs and entries on the bounds
    for _ in range(200):
        n = int(rng.integers(1, 12))
        lo = np.where(rng.random(n) < 0.7, rng.uniform(-2, -1, n), -np.inf)
        hi = np.where(rng.random(n) < 0.7, rng.uniform(1, 2, n), np.inf)
        p = rng.uniform(-1, 1, n)  # inside the box
        pick = rng.integers(0, 4, n)
        p = np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, p))
        p = np.where((pick == 2) & np.isfinite(lo), lo, np.where((pick == 3) & np.isfinite(hi), hi, p))
        u = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-3, 3, n))
        w = float(rng.uniform(0.1, 2))
        l1 = vmfbs.L1Norm(w).subdiff_distance(p, u)
        assert l1 == vmfbs.SeparableProx(np.full(n, w), -np.inf, np.inf).subdiff_distance(p, u)
        box = vmfbs.BoxIndicator(lo, hi).subdiff_distance(p, u)
        assert box == vmfbs.SeparableProx(np.zeros(n), lo, hi).subdiff_distance(p, u)


def test_prox_residual_tv(rng):
    g = vmfbs.Tv1dNorm(1.0)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        z = rng.standard_normal(n) * 2
        gamma = float(rng.uniform(0.05, 3))
        p = g.prox(z, gamma)
        assert vmfbs.prox_optimality_residual(g, z, gamma, p) <= 1e-10


def test_scalar_pieces_match_grid_oracle(rng):
    # oracles.grid_prox_oracle with its coarse grid in one numpy
    # expression: on [lo, hi] the piece is weight |p|, then golden section
    # on g.value between the best grid point's neighbours
    cases = [(2.0, -np.inf, np.inf), (0.0, -1.0, 2.0), (0.0, -np.inf, np.inf), (1.5, -1.0, 0.5)]
    points = 20001
    for weight, lo, hi in cases:
        g = vmfbs.SeparableProx([weight], lo, hi)
        for _ in range(20):
            z = float(rng.uniform(-4, 4))
            tau = float(rng.uniform(0.05, 2))
            span = 10.0 * (1.0 + abs(z))
            grid = np.linspace(max(z - span, lo), min(z + span, hi), points)
            i = int(np.argmin(weight * np.abs(grid) + (grid - z) ** 2 / (2.0 * tau)))
            ref = golden_section(
                lambda p: g.value(np.array([p])) + (p - z) ** 2 / (2.0 * tau),
                grid[max(i - 1, 0)], grid[min(i + 1, points - 1)],
            )
            assert g.prox(np.array([z]), tau)[0] == pytest.approx(ref, abs=1e-6)
