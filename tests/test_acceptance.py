"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits a PASS/FAIL line into
the terminal summary (see conftest.ACCEPTANCE_LINES). Reference optima
come from independent oracles (criterion 06: L-BFGS-B certified by a
duality gap) or from longer runs of the same deterministic
configurations, never from values the solver under test produced for
the same trace.
"""

import time

import numpy as np
import pytest

import vmfbs
from vmfbs.diagnostics import (
    check_quasi_fejer,
    check_descent_inequality,
    check_stepsize_floor,
    estimate_rate,
)
from vmfbs.solver import Trace, fixed_step_validate, solve

from conftest import ACCEPTANCE_LINES, batch_instance, lasso_1d, steep_quadratic_1d
from oracles import (
    fd_gradient,
    grid_prox_oracle,
    lasso_oracle,
    prox_tv1d_oracle,
    scalar_prox_oracle,
)


def record(n: int, ok: bool, detail: str) -> bool:
    ACCEPTANCE_LINES.append(
        f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    )
    print(ACCEPTANCE_LINES[-1])
    return ok


def monotone(F):
    F = np.asarray(F)
    return bool(np.all(np.diff(F) <= 1e-12 * (1.0 + np.abs(F[:-1]))))


# --- shared runs -------------------------------------------------------------

@pytest.fixture(scope="module")
def c1_run():
    prob = lasso_1d()
    cfg = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule="ls1"),
        max_iterations=2,
        record_states=True,
    )
    return prob, solve(prob, np.zeros(1), cfg)


@pytest.fixture(scope="module")
def batch200():
    runs = []
    t0 = time.time()
    for i in range(200):
        prob, x0, rule, smooth_kind, reg_kind = batch_instance(i)
        kw = {"rule": rule}
        if rule == "fixed":
            kw.update(fixed_gamma=1.5 / prob.f.lipschitz_bound, fixed_lam=1.0)
        if rule == "tseng-yun":
            kw.update(sigma=0.5, beta=0.5)
        cfg = vmfbs.SolverConfig(
            linesearch=vmfbs.LineSearchConfig(**kw),
            max_iterations=25,
            record_states=True,
        )
        runs.append({
            "i": i, "rule": rule, "smooth": smooth_kind, "reg": reg_kind,
            "problem": prob, "result": solve(prob, x0, cfg),
        })
    return {"runs": runs, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def c6_bundle():
    rng = np.random.default_rng(461)
    n, m = 20, 30
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    b = rng.standard_normal(m)
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.1), dimension=n
    )
    L = prob.f.lipschitz_bound
    x_star, f_star, gap = lasso_oracle(a, b, 0.1)
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=1.9 / L, fixed_lam=1.0)
    fixed_cfg = vmfbs.SolverConfig(
        linesearch=search, max_iterations=10**5, record_states=True
    )
    fixed_res = solve(prob, np.zeros(n), fixed_cfg)
    return {
        "problem": prob,
        "L": L,
        "x_star": x_star,
        "f_star": f_star,
        "oracle_gap": gap,
        "fixed": fixed_res,
        "fixed_cfg": fixed_cfg,
    }


@pytest.fixture(scope="module")
def c7_bundle():
    rng = np.random.default_rng(750)
    n, m = 50, 60
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    x_sparse = np.zeros(n)
    idx = rng.choice(n, size=10, replace=False)
    x_sparse[idx] = rng.uniform(0.5, 2.0, size=10) * rng.choice([-1.0, 1.0], size=10)
    b = a @ x_sparse
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(a, b, p=4.0), g=vmfbs.L1Norm(1e-6), dimension=n
    )
    t0 = time.time()
    ref = solve(prob, np.zeros(n), vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule="ls1", warm_start=True, gamma_max=10.0),
        max_iterations=10**6,
    ))
    elapsed = time.time() - t0
    f_star = float(np.min(ref.trace.F))
    # the experiment trace is the (deterministic) 1e5-cap prefix of the
    # same configuration
    cap = min(len(ref.trace), 10**5)
    prefix = Trace({name: getattr(ref.trace, name)[:cap] for name in Trace.COLUMNS})
    est = estimate_rate(prefix, f_star)
    return {"ref": ref, "est": est, "elapsed": elapsed, "prefix_len": cap}


@pytest.fixture(scope="module")
def c8_run():
    rng = np.random.default_rng(83)
    m, n = 8, 5
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    x_true = np.abs(rng.standard_normal(n)) + 0.5
    prob = vmfbs.CompositeProblem(
        f=vmfbs.KLDivergence(a, a @ x_true),
        g=vmfbs.BoxIndicator(0.0, np.inf),
        dimension=n,
        domain_regime="general",
    )
    res = solve(prob, np.ones(n), vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule="ls1", gamma_max=8.0),
        max_iterations=10**4,
        record_states=True,
    ))
    return prob, a, res


# --- criteria -----------------------------------------------------------------

def test_criterion_01_closed_form_lasso(c1_run):
    prob, res = c1_run
    ok = (
        len(res.trace) <= 2
        and abs(res.x_final[0] - 2.0) <= 1e-12
        and abs(res.F_final - 2.5) <= 1e-12
    )
    assert record(
        1, ok,
        f"x={res.x_final[0]:.17g}, F={res.F_final:.17g} in {len(res.trace)} iterations",
    )


def test_criterion_02_monotone_objective(batch200):
    bad = [r["i"] for r in batch200["runs"] if not monotone(r["result"].trace.F)]
    elapsed = batch200["elapsed"]
    ok = not bad and elapsed < 60.0
    assert record(
        2, ok,
        f"200 instances, {len(bad)} with objective increase, {elapsed:.1f}s",
    )


def test_criterion_03_descent_inequality(batch200):
    worst = -np.inf
    bad = 0
    for r in batch200["runs"]:
        inline = r["result"].verification["descent"]
        recheck = check_descent_inequality(r["result"], r["problem"])
        worst = max(worst, inline.worst, recheck.worst)
        bad += (not inline.passed) or (not recheck.passed)
    ok = bad == 0 and worst <= 1e-10
    assert record(3, ok, f"worst scaled residual {worst:.2e} over 200 runs")


def test_criterion_04_stepsize_floors():
    prob = steep_quadratic_1d()
    detail = []
    ok = True
    for rule, floor, expected in (("ls1", 0.225, 0.25), ("ls3", 0.1125, 0.125)):
        cfg = vmfbs.SolverConfig(
            linesearch=vmfbs.LineSearchConfig(rule=rule, delta=0.9, theta=0.5,
                                              gamma_max=1.0),
            max_iterations=10,
        )
        res = solve(prob, np.array([1.0]), cfg)
        # row 0 is the searched step; once x hits the minimizer exactly,
        # later rows accept gamma_max with y == x
        g0 = float(res.trace.gamma[0])
        g_min = float(np.min(res.trace.gamma))
        rep = check_stepsize_floor(res, prob)
        ok = (ok and g0 == expected and g_min == expected
              and rep.passed and rep.tolerance == 0.0)
        detail.append(f"{rule} gamma={g0} >= floor {rep.details['floor']}")
    assert record(4, ok, "; ".join(detail))


def test_criterion_05_condition_chain(batch200):
    checked = 0
    violations = 0
    for r in batch200["runs"]:
        if r["rule"] != "ls3":
            continue
        prob, res = r["problem"], r["result"]
        delta = 0.5  # the batch runs ls3 at its default delta
        xs, ys = res.states.xs, res.states.ys
        W = res.states.weights
        for k, (lam, gamma) in enumerate(zip(res.trace.lam.tolist(), res.trace.gamma.tolist())):
            x, y, w = xs[k], ys[k], W[k]
            gx = prob.f.gradient(x)
            dy = y - x
            ns = float(np.sum(w * dy * dy))
            fx = prob.f.value(x)
            slack = 1e-12 * (1.0 + abs(fx))
            lhs1 = prob.f.value(x + lam * dy) - fx - lam * float(dy @ gx)
            if lhs1 > delta * lam / gamma * ns + slack:
                violations += 1
            ell = float(dy @ gx) + prob.g.value(y) - prob.g.value(x)
            x1 = x + lam * dy
            lhs4 = (prob.f.value(x1) + prob.g.value(x1)) - (fx + prob.g.value(x))
            if lhs4 > (1 - delta) * lam * ell + slack:
                violations += 1
            checked += 1
        assert res.trace is not None
    ok = checked > 0 and violations == 0
    assert record(5, ok, f"{checked} ls3-accepted steps rechecked, {violations} violations")


def test_criterion_06_fixed_step_regime(c6_bundle):
    b = c6_bundle
    gap = abs(b["fixed"].F_final - b["f_star"])
    accepted = fixed_step_validate(b["problem"], b["fixed_cfg"])
    at_bound = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=2.0 / b["L"],
                                          fixed_lam=1.0),
        max_iterations=10,
    )
    rejected = fixed_step_validate(b["problem"], at_bound)
    ok = (
        gap <= 1e-8
        and len(b["fixed"].trace) <= 10**5
        and accepted.passed
        and not rejected.passed
    )
    assert record(
        6, ok,
        f"|F-F*|={gap:.2e} in {len(b['fixed'].trace)} iterations "
        f"(F* duality gap {b['oracle_gap']:.1e}); "
        f"1.9/L accepted, 2/L rejected",
    )


def test_criterion_07_rate_tails(c7_bundle):
    est = c7_bundle["est"]
    t100, t1k, t10k = est.tails[100], est.tails[1000], est.tails[10000]
    ok = t100 > t1k > t10k and c7_bundle["elapsed"] < 300.0
    assert record(
        7, ok,
        f"sup tails K=100:{t100:.3e} K=1000:{t1k:.3e} K=10000:{t10k:.3e}, "
        f"reference {c7_bundle['elapsed']:.0f}s",
    )


def test_criterion_08_domain_safety(c8_run):
    prob, a, res = c8_run
    ax = res.states.xs @ a.T
    min_ax = float(ax.min())
    min_dg = float(np.min(res.trace.domain_gamma))
    ok = min_ax > 0.0 and min_dg > 0.0 and len(res.trace) == 10**4
    assert record(
        8, ok,
        f"min (Ax)_i = {min_ax:.3e} over {len(res.trace)} iterates, "
        f"min domain gamma = {min_dg}",
    )


def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(9)
    worst = 0.0
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    for p in (1.5, 2.0, 4.0):
        f = vmfbs.PNormResidual(a, b, p=p)
        for _ in range(100):
            x = rng.standard_normal(4)
            g = f.gradient(x)
            err = np.linalg.norm(fd_gradient(f.value, x) - g) / (1.0 + np.linalg.norm(g))
            worst = max(worst, err)
    ak = np.abs(rng.standard_normal((6, 4))) + 0.1
    xk = np.abs(rng.standard_normal(4)) + 0.5
    kl = vmfbs.KLDivergence(ak, ak @ xk)
    for _ in range(100):
        x = np.abs(rng.standard_normal(4)) + 0.3
        g = kl.gradient(x)
        err = np.linalg.norm(fd_gradient(kl.value, x) - g) / (1.0 + np.linalg.norm(g))
        worst = max(worst, err)
    ok = worst < 1e-6
    assert record(9, ok, f"worst relative FD disagreement {worst:.2e} over 400 points")


def test_criterion_10_prox_correctness():
    rng = np.random.default_rng(10)
    worst_res = 0.0
    worst_oracle = 0.0
    cases = 0

    def note(residual, oracle_gap):
        nonlocal worst_res, worst_oracle, cases
        worst_res = max(worst_res, residual)
        worst_oracle = max(worst_oracle, oracle_gap)
        cases += 1

    for _ in range(150):  # l1
        w = float(rng.uniform(0.05, 2.0))
        tau = float(rng.uniform(0.05, 3.0))
        z = rng.standard_normal(3)
        g = vmfbs.L1Norm(w)
        p = g.prox(z, tau)
        gap = max(
            abs(p[j] - scalar_prox_oracle(lambda t: w * abs(t), z[j], tau))
            for j in range(3)
        )
        note(vmfbs.prox_optimality_residual(g, z, tau, p), gap)

    for _ in range(150):  # box
        lo = float(rng.uniform(-2.0, 0.0))
        hi = float(rng.uniform(0.1, 2.0))
        tau = float(rng.uniform(0.05, 3.0))
        z = 3.0 * rng.standard_normal(3)
        g = vmfbs.BoxIndicator(lo, hi)
        p = g.prox(z, tau)
        gap = max(
            abs(p[j] - scalar_prox_oracle(lambda t: 0.0, z[j], tau, lo=lo, hi=hi))
            for j in range(3)
        )
        note(vmfbs.prox_optimality_residual(g, z, tau, p), gap)

    for _ in range(100):  # separable mix
        w = float(rng.uniform(0.1, 1.5))
        # w |x|, the interval [-1, 1], the zero function
        g = vmfbs.SeparableProx([w, 0.0, 0.0], [-np.inf, -1.0, -np.inf], [np.inf, 1.0, np.inf])
        tau = float(rng.uniform(0.05, 3.0))
        z = 2.0 * rng.standard_normal(3)
        p = g.prox(z, tau)
        gaps = [
            abs(p[0] - grid_prox_oracle(lambda t: w * abs(t), z[0], tau, -6.0, 6.0)),
            abs(p[1] - scalar_prox_oracle(lambda t: 0.0, z[1], tau, lo=-1.0, hi=1.0)),
            abs(p[2] - z[2]),
        ]
        note(vmfbs.prox_optimality_residual(g, z, tau, p), max(gaps))

    for i in range(100):  # total variation, two-point and longer
        n = 2 if i % 2 == 0 else int(rng.integers(3, 9))
        w = float(rng.uniform(0.1, 1.0))
        tau = float(rng.uniform(0.05, 2.0))
        z = rng.standard_normal(n)
        g = vmfbs.Tv1dNorm(w)
        p = g.prox(z, tau)
        gap = float(np.max(np.abs(p - prox_tv1d_oracle(z, w * tau))))
        note(vmfbs.prox_optimality_residual(g, z, tau, p), gap)

    ok = cases >= 500 and worst_res < 1e-10 and worst_oracle < 1e-6
    assert record(
        10, ok,
        f"{cases} cases, worst residual {worst_res:.2e}, "
        f"worst oracle gap {worst_oracle:.2e}",
    )


def test_criterion_11_quasi_fejer(c1_run, c6_bundle):
    prob1, res1 = c1_run
    rep1 = check_quasi_fejer(res1, np.array([2.0]), prob1, branch="growth")
    b = c6_bundle
    x_star = b["x_star"]
    rep6g = check_quasi_fejer(b["fixed"], x_star, b["problem"], branch="growth")
    rep6s = check_quasi_fejer(b["fixed"], x_star, b["problem"], branch="spread")
    ok = rep1.passed and rep6g.passed and rep6s.passed
    assert record(
        11, ok,
        f"worst scaled residuals: lasso {rep1.worst:.2e}, "
        f"fixed-step growth {rep6g.worst:.2e}, spread {rep6s.worst:.2e}",
    )


def test_criterion_12_metric_validators():
    monotone_rows = [np.full(2, 1.0 + 2.0 ** (-k)) for k in range(64)]
    mono = vmfbs.validate_growth(
        vmfbs.table_schedule(monotone_rows, regime="growth"),
        horizon=64, budget=1.0,
    )
    alternating_rows = [np.full(2, 1.0 if k % 2 == 0 else 2.0) for k in range(20)]
    alt = vmfbs.validate_growth(
        vmfbs.table_schedule(alternating_rows, regime="growth"),
        horizon=20, budget=1.0,
    )
    gap = vmfbs.validate_spread(vmfbs.constant_schedule([1.0, 2.0]), horizon=7)
    summable_rows = [np.array([1.0, 1.0 + 2.0 ** (-k)]) for k in range(60)]
    summ = vmfbs.validate_spread(
        vmfbs.table_schedule(summable_rows, regime="spread"),
        horizon=60, budget=2.0,
    )
    ok = (
        mono.passed and mono.partial_sum == 0.0
        and not alt.passed and alt.partial_sum == pytest.approx(10.0)
        and gap.passed is None and gap.partial_sum == pytest.approx(7.0)
        and summ.passed and summ.partial_sum == pytest.approx(2.0, abs=1e-12)
    )
    assert record(
        12, ok,
        f"monotone sum {mono.partial_sum}, alternating sum {alt.partial_sum}, "
        f"constant-gap sum {gap.partial_sum}, summable-gap sum {summ.partial_sum}",
    )
