"""Exact metamorphic relations: scalings that leave the method's arithmetic unchanged.

Multiplying by a power of two c = 2^j is exact in binary floating point
(away from overflow and the subnormal range), so two relations of the
method hold bit for bit, with no recorded trace to compare against:

- **Constant metric.** With W -> cW and every gamma -> c gamma
  (``gamma_max``, ``fixed_gamma``), the forward step
  x - c gamma (cW)^{-1} grad f(x) and the prox in the metric cW at
  c gamma are those at (W, gamma), and every test compares the same
  numbers or both sides times c. Iterates, lam, backtracks, F, step
  norms, oracle counts and the descent residual are unchanged; gamma,
  ``domain_gamma``, the decrease residual and the weights scale by c.
- **Barzilai-Borwein.** With f -> cf (A and b times c in the library's
  own terms, so the image is c(Ax) and D(cb, cAx) = c D(b, Ax) exactly),
  g -> cg and the BB bounds (nu, mu) -> (c nu, c mu), the BB weights
  scale by c and gamma does not move. F and both check residuals scale
  by c. BB starts at clip(1, nu, mu), which scales only when nu = 1
  becomes c, so c >= 1 here.

In both, ||y - x||_W^2 scales by c, so ``mapping_norm`` and
``fp_scaled`` scale by powers of sqrt(c): exact when c is a power of
four, else asserted at round-off.

The BB relation has one inexact part: the acceptance slack
1e-14 (1 + |f(x)|) does not scale with f, so near a solution, where a
comparison is decided by the slack alone, the two sides can part. On
seeds 7 to 16, with the box or the L1 term, the first such step came
at k = 30 or later (seed 8, box); the BB runs stop after
``BB_ITERATIONS`` = 25 steps, the constant-metric runs (whose f and
slack do not move) after ``ITERATIONS``. Both run at tolerance 0, so
both sides of a relation take the same number of steps.

Coordinate permutation is left out: it reorders the BLAS sums, so it
holds only at round-off.
"""

import math

import numpy as np
import pytest

import vmfbs

BACKTRACKING = ("ls1", "ls2", "ls3", "ls4", "tseng-yun")
ITERATIONS = 40
BB_ITERATIONS = 25
ROUNDOFF = 4 * np.finfo(float).eps
# the trace columns both relations leave unchanged, bit for bit
UNSCALED = ("k", "lam", "backtracks", "step_norm", "f_evals", "grad_evals", "prox_evals")


def least_squares(seed, m=30, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) / np.sqrt(n), rng.standard_normal(m)


def kl_data(seed, m=8, n=5):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    a[:n] += 3.0 * np.eye(n)
    return a, a @ (np.abs(rng.standard_normal(n)) + 0.5)


def regularizer(kind, n, scale=1.0):
    """The term g of ``kind``; ``scale`` multiplies the l1 term."""
    if kind == "l1":
        return vmfbs.L1Norm(scale * 0.1)
    if kind == "box":
        return vmfbs.BoxIndicator(-0.3, 0.5)
    if kind == "separable":
        i = np.arange(n)
        return vmfbs.SeparableProx(
            weight=np.where(i % 3 == 0, 0.0, 0.2),
            lo=np.where(i % 2 == 0, -0.4, -np.inf), hi=np.where(i % 4 == 1, 0.3, np.inf))
    if kind == "tv":
        return vmfbs.Tv1dNorm(0.1)
    raise AssertionError(kind)


def constant_case(kind, seed):
    """(problem, x0, base weights, gamma_max); weights are powers of two."""
    if kind == "kl":
        a, b = kl_data(seed)
        n = a.shape[1]
        problem = vmfbs.CompositeProblem(
            f=vmfbs.KLDivergence(a, b), g=vmfbs.BoxIndicator(0.0, np.inf),
            dimension=n, domain_regime="general")
        x0, gamma_max = np.ones(n), 8.0
    else:
        a, b = least_squares(seed)
        n = a.shape[1]
        problem = vmfbs.CompositeProblem(
            f=vmfbs.PNormResidual(a, b), g=regularizer(kind, n), dimension=n)
        x0, gamma_max = np.zeros(n), 4.0
    if kind == "tv":
        w0 = np.ones(n)  # the TV prox takes uniform metrics only
    else:
        w0 = 2.0 ** np.random.default_rng(seed).integers(-1, 2, n)
    return problem, x0, w0, gamma_max


def search(rule, *, gamma_max, warm, fixed_gamma=None):
    kw = {"rule": rule, "gamma_max": gamma_max, "warm_start": warm}
    if rule == "fixed":
        kw.update(fixed_gamma=fixed_gamma, fixed_lam=1.0)
    if rule == "tseng-yun":
        kw.update(sigma=0.5, beta=0.5)
    return vmfbs.LineSearchConfig(**kw)


def run(problem, x0, linesearch, schedule, iterations=ITERATIONS):
    config = vmfbs.SolverConfig(
        linesearch=linesearch, metrics=schedule, max_iterations=iterations,
        record_states=True)
    return vmfbs.solve(problem, x0, config)


def assert_related(res, ref, *, gamma, value, metric):
    """``res`` is ``ref`` with gamma, f and g, and W scaled by the given factors."""
    assert res.termination == ref.termination
    assert len(res.trace) == len(ref.trace) > 0
    factors = {
        "F": value,
        "gamma": gamma,
        "domain_gamma": gamma,
        "descent_residual": value,  # ell + ||y - x||_W^2 / gamma
        "decrease_residual": metric,  # lam^2 ||y - x||_W^2 and gamma (F - F_next)
        "mapping_norm": math.sqrt(metric) / gamma,
        "fp_scaled": math.sqrt(metric),
    }
    assert value == metric / gamma  # the two residuals' terms scale alike
    assert {*UNSCALED, *factors} == set(vmfbs.Trace.COLUMNS)
    for name in UNSCALED:
        assert getattr(res.trace, name).tobytes() == getattr(ref.trace, name).tobytes(), name
    for name, factor in factors.items():
        want = getattr(ref.trace, name) * factor
        got = getattr(res.trace, name)
        if math.log2(factor).is_integer():  # a power of two: the product is exact
            assert np.array_equal(got, want, equal_nan=True), name
        else:
            np.testing.assert_allclose(got, want, rtol=ROUNDOFF, err_msg=name)
    assert res.x_final.tobytes() == ref.x_final.tobytes()
    assert res.F_final == value * ref.F_final
    for name in ("xs", "ys"):
        assert getattr(res.states, name).tobytes() == getattr(ref.states, name).tobytes()
    assert np.array_equal(res.states.weights, metric * ref.states.weights)


# --- constant metric: W -> cW, gamma -> c gamma --------------------------------------

CONSTANT_CASES = [
    (kind, rule) for kind in ("l1", "box", "separable", "tv") for rule in vmfbs.RULES
] + [("kl", rule) for rule in BACKTRACKING]  # the fixed step needs the standard regime


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind,rule", CONSTANT_CASES)
def test_constant_metric_scaling(kind, rule, warm):
    problem, x0, w0, gamma_max = constant_case(kind, seed=3)
    fixed_gamma = None
    if rule == "fixed":
        fixed_gamma = 1.5 * w0.min() / problem.f.lipschitz_bound
    runs = {}
    for c in (1.0, 2.0, 0.25):
        linesearch = search(
            rule, gamma_max=c * gamma_max, warm=warm,
            fixed_gamma=None if fixed_gamma is None else c * fixed_gamma)
        runs[c] = run(problem, x0, linesearch, vmfbs.constant_schedule(c * w0))
    ref = runs[1.0]
    assert len(ref.trace) == ITERATIONS
    for c in (2.0, 0.25):
        assert_related(runs[c], ref, gamma=c, value=1.0, metric=c)


# --- Barzilai-Borwein: (f, g, nu, mu) -> c (f, g, nu, mu) -------------------------------

@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind", ["box", "l1"])
@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("rule", BACKTRACKING)
def test_bb_scaling_of_f_g_and_bounds(rule, seed, kind, warm):
    a, b = kl_data(seed)
    n = a.shape[1]
    runs = {}
    for c in (1.0, 2.0, 4.0):
        # c times the box indicator is the box indicator
        g = vmfbs.BoxIndicator(0.0, np.inf) if kind == "box" else regularizer("l1", n, c)
        problem = vmfbs.CompositeProblem(
            f=vmfbs.KLDivergence(c * a, c * b), g=g, dimension=n, domain_regime="general")
        runs[c] = run(
            problem, np.ones(n), search(rule, gamma_max=8.0, warm=warm),
            vmfbs.bb_schedule(n, nu=c, mu=4.0 * c), iterations=BB_ITERATIONS)
    ref = runs[1.0]
    assert len(ref.trace) == BB_ITERATIONS
    # the weights moved off their start, so the relation reached the BB rows
    assert (ref.states.weights != 1.0).any()
    for c in (2.0, 4.0):
        assert_related(runs[c], ref, gamma=1.0, value=c, metric=c)
