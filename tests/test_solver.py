import re

import numpy as np
import pytest

import vmfbs
from vmfbs.diagnostics import check_descent_inequality
from vmfbs.solver import fixed_step_validate, solve, stopping_check

from conftest import Delegating, assert_same_run, lasso_1d, random_lasso, steep_quadratic_1d


def base_config(**kw):
    search = kw.pop("search", None) or vmfbs.LineSearchConfig(**kw.pop("search_kw", {}))
    return vmfbs.SolverConfig(linesearch=search, **kw)


def scalar_schedule(generator, lo, hi):
    """A lam or gamma schedule: generator(k, snapshot) emits one value in [lo, hi]."""
    # one value has no eigenvalue spread, mu_k - nu_k = 0
    return vmfbs.MetricSchedule(generator, global_nu=lo, global_mu=hi, declared_regime="spread")


# --- the pinned one-dimensional lasso ---------------------------------------

def test_lasso_two_iteration_exact():
    prob = lasso_1d()
    res = solve(prob, np.zeros(1), base_config(max_iterations=5, tol_fixed_point=0.0))
    assert res.termination == "fixed_point"
    assert res.x_final[0] == pytest.approx(2.0, abs=1e-12)
    assert res.F_final == pytest.approx(2.5, abs=1e-12)
    # the F column records the objective at x_k: row 0 is the start,
    # row 1 the minimizer the first step lands on
    assert len(res.trace) == 2
    assert res.trace.F[0] == pytest.approx(4.5, abs=1e-12)
    assert res.trace.F[1] == pytest.approx(2.5, abs=1e-12)


def test_lasso_trace_layout():
    prob = lasso_1d()
    res = solve(prob, np.zeros(1), base_config(max_iterations=5))
    trace = res.trace
    assert trace.k[0] == 0 and trace.k.dtype.kind == "i"
    assert trace.gamma[0] == 1.0 and trace.lam[0] == 1.0
    assert trace.backtracks[0] == 0
    assert trace.step_norm[0] == pytest.approx(2.0)
    assert res.trace.k.tolist() == [0, 1]
    with pytest.raises(AttributeError):
        res.trace.not_a_column


# --- monotonicity and inline checks ------------------------------------------

@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls3", "ls4", "tseng-yun"])
def test_objective_monotone_every_rule(rng, rule):
    prob = random_lasso(rng)
    kw = {"rule": rule}
    if rule == "tseng-yun":
        kw.update(sigma=0.5, beta=0.5)
    res = solve(prob, np.zeros(prob.dimension),
                base_config(search=vmfbs.LineSearchConfig(**kw), max_iterations=60))
    F = np.asarray(res.trace.F)
    scale = 1.0 + np.abs(F[:-1])
    assert np.all(np.diff(F) <= 1e-12 * scale)
    assert res.verification["descent"].passed
    assert res.verification["sufficient_decrease"].passed


def test_checks_recorded_per_iteration(rng):
    prob = random_lasso(rng)
    res = solve(prob, np.zeros(prob.dimension), base_config(max_iterations=30))
    trace = res.trace
    worst = np.maximum(trace.descent_residual, trace.decrease_residual) / (1.0 + np.abs(trace.F))
    assert np.isfinite(worst).all()
    assert worst.max() <= 1e-10


# --- termination modes --------------------------------------------------------

def test_max_iterations_termination(rng):
    prob = random_lasso(rng)
    res = solve(prob, np.zeros(prob.dimension), base_config(max_iterations=3))
    assert res.termination == "max_iter"
    assert len(res.trace) == 3


def test_stall_termination(rng):
    prob = random_lasso(rng)
    res = solve(prob, np.zeros(prob.dimension),
                base_config(max_iterations=500, tol_objective_stall=1e-9,
                            stall_window=5))
    assert res.termination == "objective_stall"


def test_fixed_point_tolerance_scaled():
    prob = lasso_1d()
    res = solve(prob, np.zeros(1), base_config(max_iterations=50, tol_fixed_point=1e-8))
    assert res.termination == "fixed_point"


def test_stopping_check_window_semantics():
    cfg = base_config(max_iterations=10, tol_objective_stall=0.5, stall_window=2)
    F = [10.0, 9.9, 9.8]
    # window not yet exceeded: need more than stall_window rows
    assert stopping_check(F[:2], 1.0, cfg) is None
    assert stopping_check(F, 1.0, cfg) == "objective_stall"
    assert stopping_check(F[:1], 0.0, cfg) == "fixed_point"
    with pytest.raises(vmfbs.UsageError):
        stopping_check([], 0.0, cfg)


def test_search_failure_surfaces_in_result():
    prob = steep_quadratic_1d()
    res = solve(prob, np.array([1.0]),
                base_config(search=vmfbs.LineSearchConfig(delta=0.01, max_backtracks=1),
                            max_iterations=10))
    assert res.termination == "search_failure"
    assert res.failure["rule"] == "ls1"
    assert res.failure["iteration"] == 0


# --- fixed-step mode ------------------------------------------------------------

def quad_problem(n, rng, lip_target=None):
    a = rng.standard_normal((n + 2, n))
    f = vmfbs.PNormResidual(a, rng.standard_normal(n + 2))
    return vmfbs.CompositeProblem(f=f, g=vmfbs.L1Norm(0.05), dimension=n)


def test_fixed_step_accepts_below_bound(rng):
    prob = quad_problem(6, rng)
    L = prob.f.lipschitz_bound
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=1.9 / L, fixed_lam=1.0)
    report = fixed_step_validate(prob, base_config(search=search, max_iterations=10))
    assert report.passed and report.margin > 0
    assert report.lipschitz == pytest.approx(L)
    res = solve(prob, np.zeros(6), base_config(search=search, max_iterations=2000,
                                               tol_fixed_point=1e-12))
    F = np.asarray(res.trace.F)
    assert np.all(np.diff(F) <= 1e-12 * (1 + np.abs(F[:-1])))


def test_fixed_step_rejects_at_bound(rng):
    prob = quad_problem(5, rng)
    L = prob.f.lipschitz_bound
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=2.0 / L, fixed_lam=1.0)
    report = fixed_step_validate(prob, base_config(search=search))
    assert not report.passed and report.margin <= 0
    with pytest.raises(vmfbs.UsageError):
        solve(prob, np.zeros(5), base_config(search=search, max_iterations=10))


def test_fixed_step_metric_floor_relaxes_bound(rng):
    # weights >= 2 double the admissible gamma range
    prob = quad_problem(5, rng)
    L = prob.f.lipschitz_bound
    metrics = vmfbs.constant_schedule(np.full(5, 2.0))
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=3.0 / L, fixed_lam=1.0)
    report = fixed_step_validate(
        prob, base_config(search=search, metrics=metrics, max_iterations=10)
    )
    assert report.passed
    assert report.sup_ratio == pytest.approx((3.0 / L) / 2.0)


@pytest.mark.parametrize("case", ["constant", "table-short", "table-long", "bb"])
def test_fixed_step_validate_min_nu_per_schedule(rng, case):
    # each schedule answers its smallest nu_k over the horizon (max_iterations = 3)
    prob = quad_problem(3, rng)
    L = prob.f.lipschitz_bound
    if case == "constant":
        metrics, nu = vmfbs.constant_schedule([0.75, 2.0, 1.5]), 0.75
    elif case == "table-short":  # held past its end: every row counts
        rows = [np.full(3, 1.0), np.full(3, 0.6), np.full(3, 0.8)]
        metrics, nu = vmfbs.table_schedule(rows[:2], regime="growth"), 0.6
    elif case == "table-long":  # rows past the horizon do not count
        rows = [np.full(3, w) for w in (1.0, 0.9, 0.8, 0.5)]
        metrics, nu = vmfbs.table_schedule(rows, regime="growth"), 0.8
    else:  # weights depend on the run: the declared global bound
        metrics, nu = vmfbs.bb_schedule(3, nu=0.25, mu=4.0), 0.25
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=0.3 / L, fixed_lam=0.9)
    report = fixed_step_validate(
        prob, base_config(search=search, metrics=metrics, max_iterations=3)
    )
    sup_ratio = (0.3 / L) * 0.9 / nu
    assert report.sup_ratio == sup_ratio
    assert report.margin == 2.0 / L - sup_ratio
    assert report.passed


def test_fixed_step_validate_usage_guard(rng):
    prob = quad_problem(4, rng)
    with pytest.raises(vmfbs.UsageError):
        fixed_step_validate(prob, base_config())


def test_fixed_step_needs_lipschitz_bound():
    f = vmfbs.PNormResidual(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), p=4)
    prob = vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=2)
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=0.1, fixed_lam=1.0)
    with pytest.raises(vmfbs.UsageError):
        fixed_step_validate(prob, base_config(search=search))


# --- schedules and metrics plumbing ----------------------------------------------

def test_lam_schedule_callable(rng):
    prob = random_lasso(rng)
    seen = []

    def lam_of_k(k, snapshot):
        seen.append(k)
        return 0.5 + 0.4 * (k % 2)

    res = solve(prob, np.zeros(prob.dimension),
                base_config(search=vmfbs.LineSearchConfig(rule="ls1"),
                            lam_schedule=scalar_schedule(lam_of_k, 0.5, 0.9), max_iterations=6))
    assert res.trace.lam.tolist() == [0.9 if k % 2 else 0.5 for k in range(6)]
    assert seen[: 6] == list(range(6))


def test_gamma_schedule_seeds_search(rng):
    # ls4 walks lam at the emitted gamma; without a schedule the gamma is gamma_max
    prob = random_lasso(rng)
    search = vmfbs.LineSearchConfig(rule="ls4", gamma_max=2.0)
    seeded = solve(prob, np.zeros(prob.dimension),
                   base_config(search=search, gamma_schedule=vmfbs.constant_schedule(0.125),
                               max_iterations=4))
    plain = solve(prob, np.zeros(prob.dimension), base_config(search=search, max_iterations=4))
    assert len(seeded.trace) == len(plain.trace) == 4
    assert seeded.trace.gamma.tolist() == [0.125] * 4
    assert plain.trace.gamma.tolist() == [2.0] * 4


def test_lam_generator_is_held_to_its_declared_bound_exactly(rng):
    # a relative 5e-13 above the declared mu = 1 is outside (0, 1]
    prob = random_lasso(rng)
    lam = scalar_schedule(lambda k, s: 1.0 + 5e-13, 0.5, 1.0)
    with pytest.raises(vmfbs.UsageError) as err:
        solve(prob, np.zeros(prob.dimension), base_config(lam_schedule=lam, max_iterations=3))
    # one value is named once, and so is k
    assert str(err.value) == (
        "lam_schedule at k=0: emitted 1.0000000000005, outside declared bounds [0.5, 1.0]"
    )


def test_metric_generator_refusal_names_the_range_of_its_weights(rng):
    prob = random_lasso(rng)
    w = np.ones(prob.dimension)
    w[3] = 4.5
    metrics = vmfbs.MetricSchedule(
        lambda k, s: w, global_nu=0.5, global_mu=4.0, declared_regime="growth")
    with pytest.raises(vmfbs.UsageError) as err:
        solve(prob, np.zeros(prob.dimension), base_config(metrics=metrics, max_iterations=3))
    assert str(err.value) == (
        "metrics at k=0: emitted weights in [1.0, 4.5], outside declared bounds [0.5, 4.0]"
    )


def test_lam_schedule_out_of_range_rejected(rng):
    prob = random_lasso(rng)
    # declared inside (0, 1], so the config takes it; its 1.5 is refused where it is emitted
    res_cfg = base_config(lam_schedule=scalar_schedule(lambda k, s: 1.5, 0.5, 1.0),
                          max_iterations=4)
    with pytest.raises(vmfbs.UsageError):
        solve(prob, np.zeros(prob.dimension), res_cfg)


@pytest.mark.parametrize("name", ["lam_schedule", "gamma_schedule"])
def test_config_refuses_a_bare_callable(name):
    needle = (f"{name} takes a constant or a MetricSchedule, not a callable; "
              "use table_schedule or MetricSchedule(generator, ...)")
    with pytest.raises(vmfbs.UsageError, match=re.escape(needle)):
        base_config(**{name: lambda k: 0.5})


def test_config_refuses_a_lam_schedule_declared_above_one():
    lam = vmfbs.table_schedule([0.5, 1.5], regime="spread")
    with pytest.raises(vmfbs.UsageError,
                       match=re.escape("lam_schedule must lie in (0,1], got global_mu=1.5")):
        base_config(lam_schedule=lam)
    # mu = 1 is the top of (0, 1]
    base_config(lam_schedule=vmfbs.table_schedule([0.5, 1.0], regime="spread"))


def test_constant_gamma_schedule_is_the_constant(rng):
    prob = random_lasso(rng)
    runs = [solve(prob, np.zeros(prob.dimension),
                  base_config(search=vmfbs.LineSearchConfig(rule="ls4"),
                              gamma_schedule=gamma, max_iterations=20))
            for gamma in (vmfbs.constant_schedule(0.125), 0.125)]
    assert_same_run(*runs)
    assert set(runs[0].trace.gamma) == {0.125}


def test_gamma_schedule_reads_the_iterate(rng):
    prob = random_lasso(rng)
    seen = {}

    def gamma_of(k, snapshot):
        seen[k] = snapshot
        return 0.25

    res = solve(prob, np.zeros(prob.dimension),
                base_config(search=vmfbs.LineSearchConfig(rule="ls4"), record_states=True,
                            gamma_schedule=scalar_schedule(gamma_of, 0.25, 0.25),
                            max_iterations=8))
    xs = res.states.xs
    assert seen[0] is None and sorted(seen) == list(range(len(res.trace)))
    for k in range(1, len(res.trace)):
        assert np.array_equal(seen[k].x, xs[k])
        assert np.array_equal(seen[k].dx, xs[k] - xs[k - 1])


def test_constant_schedules_build_no_snapshot(rng, monkeypatch):
    def refuse(**kw):
        raise AssertionError("a StepSnapshot was built")

    monkeypatch.setattr(vmfbs.solver, "StepSnapshot", refuse)
    prob = random_lasso(rng)
    table = vmfbs.table_schedule([np.full(8, 1.0), np.full(8, 1.5)], regime="growth")
    for rule in ("ls1", "ls4"):
        for metrics in (None, table):
            config = base_config(search=vmfbs.LineSearchConfig(rule=rule), metrics=metrics,
                                 lam_schedule=0.5, gamma_schedule=0.25, record_states=True,
                                 max_iterations=6)
            assert len(solve(prob, np.zeros(8), config).trace) == 6
    # the stub is the one solve calls: a BB metric reads the run
    bb = base_config(metrics=vmfbs.bb_schedule(8, nu=0.5, mu=4.0), max_iterations=6)
    with pytest.raises(AssertionError, match="a StepSnapshot was built"):
        solve(prob, np.zeros(8), bb)


def test_bb_metric_runs_and_stays_in_corridor(rng):
    prob = random_lasso(rng)
    metrics = vmfbs.bb_schedule(prob.dimension, nu=0.5, mu=4.0)
    res = solve(prob, np.zeros(prob.dimension),
                base_config(metrics=metrics, max_iterations=40,
                            record_states=True))
    W = res.states.weights
    assert np.all(W >= 0.5 - 1e-15) and np.all(W <= 4.0 + 1e-15)
    F = np.asarray(res.trace.F)
    assert np.all(np.diff(F) <= 1e-12 * (1 + np.abs(F[:-1])))


def test_table_metric_consumed_in_order(rng):
    prob = random_lasso(rng)
    n = prob.dimension
    tab = vmfbs.table_schedule([np.full(n, w) for w in (1.0, 1.25, 1.5)],
                               regime="growth")
    res = solve(prob, np.zeros(n),
                base_config(metrics=tab, max_iterations=5, record_states=True))
    W = res.states.weights
    assert W[0, 0] == 1.0 and W[1, 0] == 1.25 and W[2, 0] == 1.5
    assert W[3, 0] == 1.5  # held


def wrong_length_schedule(kind, n):
    """A schedule whose weights at k = 1 have n + 1 entries."""
    if kind == "constant":
        return vmfbs.constant_schedule(np.ones(n + 1)), 0
    if kind == "bb":
        return vmfbs.bb_schedule(n + 1, nu=0.5, mu=4.0), 0
    custom = vmfbs.MetricSchedule(
        lambda k, snap: np.ones(n if k == 0 else n + 1),
        global_nu=1.0, global_mu=1.0, declared_regime="constant",
    )
    return custom, 1


@pytest.mark.parametrize("kind", ["constant", "bb", "custom"])
def test_wrong_length_metric_is_a_configuration_error(rng, kind):
    prob = random_lasso(rng)
    n = prob.dimension
    schedule, k = wrong_length_schedule(kind, n)
    want = rf"emitted {n + 1} weights at k={k}\b.*n={n}\b"
    with pytest.raises(vmfbs.UsageError, match=want):
        solve(prob, np.zeros(n), base_config(metrics=schedule, max_iterations=5))


class PointDomain(vmfbs.SmoothTerm):
    """f(x) = sum(x), finite only at x = 0: every step leaves dom f."""

    def value(self, x):
        return 0.0 if not np.any(x) else np.inf

    def gradient(self, x):
        return np.ones(x.size)


@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls4", "tseng-yun"])
def test_grid_underflow_ends_in_search_failure(rule):
    # theta^i underflows to 0.0 at i = 108, inside the budget of 200: the
    # walk must fail there, neither accepting a zero step nor raising
    prob = vmfbs.CompositeProblem(f=PointDomain(), g=vmfbs.ZeroTerm(), dimension=2)
    search = vmfbs.LineSearchConfig(rule=rule, theta=1e-3, max_backtracks=200)
    res = solve(prob, np.zeros(2), base_config(search=search, max_iterations=5))
    assert res.termination == "search_failure"
    assert "underflows to 0.0" in res.failure["message"]
    assert res.failure["trials"] == 108
    assert res.failure["gamma_last"] > 0 and res.failure["lam_last"] > 0
    assert np.all(res.trace.gamma > 0) and np.all(res.trace.lam > 0)


# --- states, counters, and regime validation --------------------------------------

def test_states_alignment(rng):
    prob = random_lasso(rng)
    n = prob.dimension
    res = solve(prob, np.zeros(n), base_config(max_iterations=7, record_states=True))
    T = len(res.trace)
    assert res.states.xs.shape == (T + 1, n)
    assert res.states.ys.shape == (T, n)
    assert res.states.weights.shape == (T + 1, n)
    assert np.array_equal(res.states.xs[-1], res.x_final)


def test_states_none_by_default(rng):
    prob = random_lasso(rng)
    res = solve(prob, np.zeros(prob.dimension), base_config(max_iterations=3))
    assert res.states is None


@pytest.mark.parametrize("case", ["plain-ls1", "search-failure", "general-ls3", "fixed"])
def test_counters_are_trace_column_sums(rng, case):
    # SolveResult counts nothing of its own: each counter sums its trace
    # column, and f_evals adds the call at x0; a failing iteration records
    # no row, so its calls are in neither
    if case == "plain-ls1":
        prob, x0 = random_lasso(rng), np.zeros(8)
        config = base_config(max_iterations=12)
    elif case == "search-failure":
        # gamma jumps to 1e3 at k = 5, where two lam cuts cannot pass ls2
        prob, x0 = random_lasso(rng), np.zeros(8)
        config = base_config(search=vmfbs.LineSearchConfig(rule="ls2", max_backtracks=2),
                             gamma_schedule=vmfbs.table_schedule(
                                 [0.01] * 5 + [1e3], regime="spread"),
                             max_iterations=40)
    elif case == "general-ls3":
        prob, x0 = kl_8x5(), np.ones(5)
        config = base_config(search=vmfbs.LineSearchConfig(rule="ls3", gamma_max=8.0),
                             max_iterations=30)
    else:
        prob, x0 = random_lasso(rng), np.zeros(8)
        search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=0.01, fixed_lam=1.0,
                                        warm_start=True)
        config = base_config(search=search, max_iterations=15)
    res = solve(prob, x0, config)
    t = res.trace
    assert (res.f_evals, res.grad_evals, res.prox_evals) == (
        1 + t.f_evals.sum(), t.grad_evals.sum(), t.prox_evals.sum())
    assert len(t) > 0 and (res.termination == "search_failure") == (case == "search-failure")
    assert res.f_evals > 0 and res.grad_evals > 0 and res.prox_evals > 0
    if case == "search-failure":
        assert res.failure["iteration"] == len(t) == 5


def test_grad_eval_cost_signature(rng):
    # ls3 pays a gradient per trial, ls1 only one per iteration
    prob = random_lasso(rng)
    r1 = solve(prob, np.zeros(prob.dimension),
               base_config(search=vmfbs.LineSearchConfig(rule="ls1"), max_iterations=20))
    r3 = solve(prob, np.zeros(prob.dimension),
               base_config(search=vmfbs.LineSearchConfig(rule="ls3"), max_iterations=20))
    assert r3.grad_evals > r1.grad_evals


def test_general_regime_rejects_fixed_rule():
    f = vmfbs.KLDivergence(np.array([[1.0]]), np.array([1.0]))
    prob = vmfbs.CompositeProblem(f=f, g=vmfbs.BoxIndicator(0.0, np.inf),
                                  dimension=1, domain_regime="general")
    search = vmfbs.LineSearchConfig(rule="fixed", fixed_gamma=0.1, fixed_lam=1.0)
    with pytest.raises(vmfbs.UsageError):
        solve(prob, np.array([2.0]), base_config(search=search, max_iterations=5))


def test_infeasible_start_rejected():
    prob = lasso_1d()
    boxed = vmfbs.CompositeProblem(f=prob.f, g=vmfbs.BoxIndicator(0.0, 1.0), dimension=1)
    with pytest.raises(vmfbs.UsageError):
        solve(boxed, np.array([5.0]), base_config(max_iterations=5))


def test_general_regime_infeasible_interior_start():
    f = vmfbs.KLDivergence(np.array([[1.0]]), np.array([1.0]))
    prob = vmfbs.CompositeProblem(f=f, g=vmfbs.BoxIndicator(0.0, np.inf),
                                  dimension=1, domain_regime="general")
    with pytest.raises(vmfbs.UsageError):
        solve(prob, np.array([0.0]), base_config(max_iterations=5))


class Unbounded(vmfbs.SmoothTerm):
    """f = 0.5 |x|^2 with no declared lower bound."""

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return x.copy()


class NaNValued(vmfbs.ProxTerm):
    """A g that claims every point for its domain but has no value at any."""

    def value(self, x):
        return np.nan

    def in_domain(self, x):
        return True


def _refused(case):
    """The problem, x0 and config of a solve that ``case`` makes ``solve`` refuse."""
    config = base_config(max_iterations=4)
    if case == "gamma_schedule":
        # iteration 0 runs at gamma = 1; the schedule's 0 at k = 1 is refused
        config = base_config(search=vmfbs.LineSearchConfig(rule="ls2"), max_iterations=4,
                             gamma_schedule=scalar_schedule(
                                 lambda k, s: 0.0 if k == 1 else 1.0, 1.0, 1.0))
        return steep_quadratic_1d(), [1.0], config
    if case == "lower_bound":
        prob = vmfbs.CompositeProblem(f=Unbounded(), g=vmfbs.BoxIndicator(0.0, np.inf),
                                      dimension=1, domain_regime="general")
        return prob, [1.0], config
    if case == "f_x0":
        f = vmfbs.KLDivergence(np.array([[1.0]]), np.array([1.0]))
        return vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1), [-1.0], config
    prob = vmfbs.CompositeProblem(f=lasso_1d().f, g=NaNValued(), dimension=1)
    return prob, [1.0], config


@pytest.mark.parametrize(
    "case, message",
    [
        ("gamma_schedule", "gamma_schedule at k=1: weights must be strictly positive"),
        ("lower_bound", "the general regime needs declared lower bounds on both f and g"),
        ("f_x0", "f(x0) is not finite although x0 is in dom g; "),
        ("g_x0", "g(x0) is not finite"),
    ],
)
def test_solve_refuses(case, message):
    prob, x0, config = _refused(case)
    with pytest.raises(vmfbs.UsageError, match=re.escape(message)):
        solve(prob, np.array(x0), config)


def test_general_regime_solves_kl(rng):
    from conftest import random_kl

    prob = random_kl(rng)
    x0 = np.ones(prob.dimension)
    res = solve(prob, x0, base_config(max_iterations=60))
    assert res.termination in ("max_iter", "fixed_point", "objective_stall")
    F = np.asarray(res.trace.F)
    assert np.all(np.diff(F) <= 1e-12 * (1 + np.abs(F[:-1])))
    assert min(res.trace.domain_gamma) > 0


def test_delta_effective_by_rule(rng):
    prob = random_lasso(rng)
    x0 = np.zeros(prob.dimension)
    r = solve(prob, x0, base_config(search=vmfbs.LineSearchConfig(delta=0.7),
                                    max_iterations=3))
    assert r.delta_effective == 0.7
    ty = solve(prob, x0,
               base_config(search=vmfbs.LineSearchConfig(rule="tseng-yun", sigma=0.8,
                                                         beta=0.25),
                           max_iterations=3))
    assert ty.delta_effective == pytest.approx(1 - (1 - 0.25) * 0.8)


def test_warm_start_reuses_last_gamma(rng):
    prob = random_lasso(rng)
    cold = solve(prob, np.zeros(prob.dimension),
                 base_config(search=vmfbs.LineSearchConfig(rule="ls1"),
                             max_iterations=25))
    warm = solve(prob, np.zeros(prob.dimension),
                 base_config(search=vmfbs.LineSearchConfig(rule="ls1", warm_start=True),
                             max_iterations=25))
    assert sum(warm.trace.backtracks) <= sum(cold.trace.backtracks)
    Fw = np.asarray(warm.trace.F)
    assert np.all(np.diff(Fw) <= 1e-12 * (1 + np.abs(Fw[:-1])))


def test_config_validation():
    with pytest.raises(vmfbs.UsageError):
        base_config(max_iterations=0)
    with pytest.raises(vmfbs.UsageError):
        base_config(tol_fixed_point=-1.0)
    with pytest.raises(vmfbs.UsageError):
        base_config(stall_window=0)


@pytest.mark.parametrize(
    "kw, needle",
    [
        # a NaN tolerance would switch its stopping rule off and run to max_iter
        (dict(tol_fixed_point=np.nan), "tol_fixed_point must be nonnegative, got nan"),
        (dict(tol_objective_stall=np.nan), "tol_objective_stall must be nonnegative, got nan"),
        # a non-integer count used to end the solve in a TypeError
        (dict(max_iterations=5.5), "max_iterations must be an integer, got 5.5"),
        (dict(max_iterations=True), "max_iterations must be an integer, got True"),
        (dict(stall_window=2.5, tol_objective_stall=1e-3), "stall_window must be an integer, got 2.5"),
        (dict(search_kw=dict(max_backtracks=2.5)), "max_backtracks must be an integer, got 2.5"),
        (dict(search_kw=dict(max_backtracks=4.0)), "max_backtracks must be an integer, got 4.0"),
    ],
)
def test_config_refuses_nan_tolerances_and_non_integer_counts(kw, needle):
    with pytest.raises(vmfbs.UsageError, match=re.escape(needle)):
        base_config(**kw)


@pytest.mark.parametrize(
    "kw, needle",
    [
        (dict(lam_schedule=np.nan), "lam_schedule must lie in (0,1], got nan"),
        (dict(lam_schedule=0.0), "lam_schedule must lie in (0,1], got 0.0"),
        (dict(lam_schedule=1.5), "lam_schedule must lie in (0,1], got 1.5"),
        (dict(gamma_schedule=np.nan), "gamma_schedule must be positive and finite, got nan"),
        (dict(gamma_schedule=0), "gamma_schedule must be positive and finite, got 0"),
        (dict(gamma_schedule=np.inf), "gamma_schedule must be positive and finite, got inf"),
    ],
)
def test_config_refuses_a_constant_schedule_out_of_range(kw, needle):
    # refused when the config is built, not when iteration 0 reads it
    with pytest.raises(vmfbs.UsageError, match=re.escape(needle)):
        base_config(**kw)


def test_config_takes_numpy_integer_counts():
    config = base_config(max_iterations=np.int64(3), stall_window=np.int32(2),
                         tol_objective_stall=1e-3, search_kw=dict(max_backtracks=np.int64(4)))
    res = solve(lasso_1d(), np.zeros(1), config)
    assert res.termination == "fixed_point" and len(res.trace) == 2


def test_x0_shape_checked(rng):
    prob = random_lasso(rng)
    with pytest.raises(vmfbs.UsageError):
        solve(prob, np.zeros(prob.dimension + 1), base_config(max_iterations=3))


# --- general domain regime ----------------------------------------------------

def kl_8x5(g=None):
    """The kl-bb-verify benchmark instance at seed 1: A = |N| + 0.1 with 3 I on
    its top block, g the box [0, inf) unless given."""
    rng = np.random.default_rng(1)
    a = np.abs(rng.standard_normal((8, 5))) + 0.1
    a[:5] += 3.0 * np.eye(5)
    b = a @ (np.abs(rng.standard_normal(5)) + 0.5)
    return vmfbs.CompositeProblem(f=vmfbs.KLDivergence(a, b),
                                  g=g or vmfbs.BoxIndicator(0.0, np.inf),
                                  dimension=5, domain_regime="general")


def test_in_domain_alone_serves_ls3_in_the_general_regime():
    # the x0 check, the domain walk and the ls3 trial all ask in_domain;
    # without the box the domain walk backtracks
    ref = kl_8x5(vmfbs.ZeroTerm())
    prob = vmfbs.CompositeProblem(f=Delegating(ref.f), g=ref.g, dimension=5,
                                  domain_regime="general")
    config = base_config(search=vmfbs.LineSearchConfig(rule="ls3", gamma_max=8.0),
                         max_iterations=200, tol_fixed_point=1e-8)
    res, want = solve(prob, np.ones(5), config), solve(ref, np.ones(5), config)
    assert res.termination == "fixed_point" and res.trace.domain_gamma.min() < 8.0
    assert_same_run(res, want)
    with pytest.raises(vmfbs.UsageError, match="interior of dom f"):
        solve(prob, np.zeros(5), config)


def test_last_step_is_tested_like_every_other():
    # the terminal step used to be accepted untested once ||y - x||_W fell
    # within the tolerance; here it failed sufficient decrease (2.6e-10)
    prob = kl_8x5()
    res = solve(prob, np.ones(5), base_config(
        search=vmfbs.LineSearchConfig(rule="ls4", gamma_max=8.0),
        metrics=vmfbs.bb_schedule(5, nu=0.25, mu=4.0),
        max_iterations=20000, tol_fixed_point=1e-6, record_states=True,
    ))
    assert res.termination == "fixed_point" and len(res.trace) == 59
    assert all(report.passed for report in res.verification.values())
    assert check_descent_inequality(res, prob).passed


@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls3", "ls4", "tseng-yun"])
@pytest.mark.parametrize("g", [None, vmfbs.ZeroTerm()], ids=["box", "zero"])
def test_general_regime_prox_count(rule, g):
    # the domain walk's accepted prox point is the search's first one;
    # without the box, large gammas leave dom f and the domain walk backtracks
    kw = {"sigma": 0.5, "beta": 0.5} if rule == "tseng-yun" else {}
    search = vmfbs.LineSearchConfig(rule=rule, gamma_max=8.0, **kw)
    res = solve(kl_8x5(g), np.ones(5), base_config(
        search=search, metrics=vmfbs.bb_schedule(5, nu=0.25, mu=4.0), max_iterations=30,
    ))
    t = res.trace
    domain_backtracks = np.round(np.log(8.0 / t.domain_gamma) / np.log(1 / search.theta))
    searched = t.backtracks if rule in ("ls1", "ls3") else 0
    assert np.array_equal(t.prox_evals, domain_backtracks + 1 + searched)
    assert (domain_backtracks.max() > 0) == (g is not None)
