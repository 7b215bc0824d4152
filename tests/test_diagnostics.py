from types import SimpleNamespace

import numpy as np
import pytest

import vmfbs
from vmfbs.diagnostics import (
    CheckReport,
    check_descent_inequality,
    check_quasi_fejer,
    check_stepsize_floor,
    estimate_rate,
)
from vmfbs.solver import read_trace_csv, solve

from conftest import lasso_1d, random_lasso, steep_quadratic_1d
from oracles import quasi_fejer_residuals_reference


def run(prob, x0, *, iters=40, rule="ls1", record_states=True, **search_kw):
    cfg = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, **search_kw),
        max_iterations=iters,
        record_states=record_states,
    )
    return solve(prob, x0, cfg)


# --- CheckReport mechanics ----------------------------------------------------

def test_report_pass_fail_and_worst():
    r = CheckReport("demo", np.array([-1.0, 2e-11]), np.array([1.0, 1.0]), 1e-10, {})
    assert r.passed and r.worst == pytest.approx(2e-11)
    bad = CheckReport("demo", np.array([1e-3]), np.array([1.0]), 1e-10, {})
    assert not bad.passed
    assert "demo" in str(bad) and "fail" in str(bad).lower()


def test_report_empty_is_vacuously_true():
    r = CheckReport("none", np.array([]), np.array([]), 1e-10, {})
    assert r.passed and r.worst == -np.inf


def test_report_scales_divide():
    r = CheckReport("s", np.array([2.0]), np.array([100.0]), 1e-1, {})
    assert r.scaled_residuals[0] == pytest.approx(0.02)
    assert r.passed


# --- descent re-check ----------------------------------------------------------

def test_descent_recheck_passes_on_honest_run(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension))
    rep = check_descent_inequality(res, prob)
    assert rep.passed
    assert len(rep.residuals) == len(res.trace)


def test_descent_recheck_flags_tampered_y(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension))
    res.states.ys[3] += 0.37  # no longer the prox point
    rep = check_descent_inequality(res, prob)
    assert not rep.passed


def test_descent_recheck_needs_states(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), record_states=False)
    with pytest.raises(vmfbs.UsageError):
        check_descent_inequality(res, prob)


# --- quasi-Fejer ----------------------------------------------------------------

def test_quasi_fejer_growth_on_lasso():
    prob = lasso_1d()
    res = run(prob, np.zeros(1), iters=30)
    rep = check_quasi_fejer(res, np.array([2.0]), prob, branch="growth")
    assert rep.passed
    rep2 = check_quasi_fejer(res, np.array([2.0]), prob, branch="spread")
    assert rep2.passed


def test_quasi_fejer_flags_inconsistent_reference(rng):
    # the inequality holds for any honest reference point, so the
    # detector cases are a lied-about objective value and tampered
    # iterates
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=80)
    x_star = res.x_final
    assert check_quasi_fejer(res, x_star, prob).passed
    lied = check_quasi_fejer(res, x_star, f_star=res.F_final - 10.0)
    assert not lied.passed


def test_quasi_fejer_flags_tampered_iterates(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=80)
    x_star = res.x_final.copy()
    res.states.xs[5] = x_star  # teleported iterate breaks the recursion
    assert not check_quasi_fejer(res, x_star, prob).passed


def test_quasi_fejer_delta_validation(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=10)
    with pytest.raises(vmfbs.UsageError):
        check_quasi_fejer(res, res.x_final, prob, delta=1.0)
    with pytest.raises(vmfbs.UsageError):
        check_quasi_fejer(res, res.x_final, prob, branch="sideways")


def test_quasi_fejer_spread_with_alternating_metric(rng):
    prob = random_lasso(rng)
    n = prob.dimension
    rows = [np.full(n, 1.0 if k % 2 == 0 else 1.3) for k in range(60)]
    cfg = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(),
        metrics=vmfbs.table_schedule(rows, nu=1.0, mu=1.3, regime="spread"),
        max_iterations=50,
        record_states=True,
    )
    res = solve(prob, np.zeros(n), cfg)
    long_ref = solve(prob, np.zeros(n),
                     vmfbs.SolverConfig(linesearch=vmfbs.LineSearchConfig(),
                                        max_iterations=4000,
                                        tol_fixed_point=1e-14))
    rep = check_quasi_fejer(res, long_ref.x_final, prob, branch="spread")
    assert rep.passed


class _Trace:
    def __init__(self, F, gamma, lam):
        self.F, self.gamma, self.lam = F, gamma, lam

    def __len__(self):
        return self.F.size


class _Record:
    """A record with random columns, enough for check_quasi_fejer."""

    def __init__(self, rng, T, n):
        self.trace = _Trace(
            F=rng.standard_normal(T),
            gamma=rng.uniform(0.1, 2.0, T),
            lam=rng.uniform(0.0, 1.0, T),
        )
        self.states = SimpleNamespace(
            xs=rng.standard_normal((T + 1, n)),
            weights=rng.uniform(0.5, 3.0, (T + 1, n)),
        )
        self.F_final = float(rng.standard_normal())


@pytest.mark.parametrize("branch", ["growth", "spread"])
def test_quasi_fejer_matches_frozen_loop_bitwise(rng, branch):
    cases = [_Record(rng, int(rng.integers(1, 40)), int(rng.integers(1, 9))) for _ in range(100)]
    for record in cases:
        x_star = rng.standard_normal(record.states.xs.shape[1])
        f_star = float(rng.standard_normal())
        delta = float(rng.uniform(0.05, 0.95))
        rep = check_quasi_fejer(record, x_star, f_star=f_star, delta=delta, branch=branch)
        ref = quasi_fejer_residuals_reference(record, x_star, f_star, delta, branch)
        assert rep.residuals.tobytes() == ref.tobytes()
    # and on solver records with a run-dependent (BB) metric
    for _ in range(5):
        prob = random_lasso(rng)
        n = prob.dimension
        cfg = vmfbs.SolverConfig(
            linesearch=vmfbs.LineSearchConfig(),
            metrics=vmfbs.bb_schedule(n, nu=0.5, mu=4.0),
            max_iterations=60,
            record_states=True,
        )
        res = solve(prob, np.zeros(n), cfg)
        x_star = res.x_final
        f_star = prob.f.value(x_star) + prob.g.value(x_star)
        rep = check_quasi_fejer(res, x_star, prob, branch=branch)
        ref = quasi_fejer_residuals_reference(res, x_star, f_star, res.delta_effective, branch)
        assert rep.residuals.tobytes() == ref.tobytes()


# --- stepsize floor ---------------------------------------------------------------

def floor_run(rule):
    prob = steep_quadratic_1d()  # L = 4 exactly
    return run(prob, np.array([1.0]), iters=12, rule=rule,
               delta=0.9, theta=0.5, gamma_max=1.0)


def test_floor_ls1_pinned():
    res = floor_run("ls1")
    rep = check_stepsize_floor(res, "ls1", 0.9, 0.5, 1.0, 1.0, 1.0, 4.0)
    assert rep.passed and rep.tolerance == 0.0
    assert rep.details["floor"] == pytest.approx(0.225)
    assert min(res.trace.gamma) >= 0.225


def test_floor_ls3_pinned():
    res = floor_run("ls3")
    rep = check_stepsize_floor(res, "ls3", 0.9, 0.5, 1.0, 1.0, 1.0, 4.0)
    assert rep.passed
    assert rep.details["floor"] == pytest.approx(0.1125)
    assert min(res.trace.gamma) >= 0.1125


def test_floor_lam_rules():
    for rule in ("ls2", "ls4"):
        res = floor_run(rule)
        rep = check_stepsize_floor(res, rule, 0.9, 0.5, 1.0, 1.0, 1.0, 4.0)
        assert rep.passed
        assert rep.details["on"] == "lambda"


def test_floor_flags_understated_lipschitz():
    # halving L doubles the floor past the observed gamma
    res = floor_run("ls1")
    rep = check_stepsize_floor(res, "ls1", 0.9, 0.5, 1.0, 1.0, 1.0, 2.0)
    assert not rep.passed


def test_floor_unsupported_cases():
    res = floor_run("ls1")
    with pytest.raises(vmfbs.UsageError, match="no stepsize floor is available"):
        check_stepsize_floor(res, "tseng-yun", 0.9, 0.5, 1.0, 1.0, 1.0, 4.0)
    with pytest.raises(vmfbs.UsageError, match="needs a global gradient Lipschitz"):
        check_stepsize_floor(res, "ls1", 0.9, 0.5, 1.0, 1.0, 1.0, None)


# --- condition chain across rules ---------------------------------------------------

def test_ls3_accepted_steps_satisfy_ls1_and_ls4(rng):
    # the gradient condition is the strongest of the three
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=30, rule="ls3",
              delta=0.8, theta=0.5)
    xs, ys, W = res.states.xs, res.states.ys, res.states.weights
    for k in range(len(res.trace)):
        row = res.trace[k]
        x, y, w = xs[k], ys[k], W[k]
        gx = prob.f.gradient(x)
        dy = y - x
        ns = float(np.sum(w * dy * dy))
        fx, fy = prob.f.value(x), prob.f.value(y)
        scale = 1e-12 * (1.0 + abs(fx))
        # descent condition at lam = 1 (the ls1 acceptance test)
        assert fy - fx - float(dy @ gx) <= 0.8 / row.gamma * ns + scale
        # armijo condition at the accepted pair
        x1 = x + row.lam * dy
        ell = float(dy @ gx) + prob.g.value(y) - prob.g.value(x)
        lhs = prob.f.value(x1) + prob.g.value(x1) - (fx + prob.g.value(x))
        assert lhs <= (1 - 0.8) * row.lam * ell + scale


# --- rate estimation ------------------------------------------------------------------

def test_estimate_rate_decade_tails(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=250, record_states=False)
    ref = solve(prob, np.zeros(prob.dimension),
                vmfbs.SolverConfig(linesearch=vmfbs.LineSearchConfig(),
                                   max_iterations=20000, tol_fixed_point=1e-15))
    # the reference run's final F can sit an ulp above its own best row;
    # use the trace minimum
    est = estimate_rate(res, float(np.min(ref.trace.F)))
    assert list(est.tails) == [1, 10, 100]
    assert est.tails[1] >= est.tails[10] >= est.tails[100] >= 0
    assert len(est.r) == len(res.trace)
    assert est.r[0] == 0.0


def test_estimate_rate_rejects_bad_reference(rng):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=20, record_states=False)
    with pytest.raises(vmfbs.UsageError):
        estimate_rate(res, float(np.min(res.trace.F)) + 1.0)


@pytest.mark.parametrize("f_star", [np.nan, -np.inf, np.inf])
def test_estimate_rate_refuses_a_non_finite_reference(rng, f_star):
    prob = random_lasso(rng)
    res = run(prob, np.zeros(prob.dimension), iters=20, record_states=False)
    with pytest.raises(vmfbs.UsageError, match="F_star must be finite"):
        estimate_rate(res, f_star)


# --- trace csv round-trip ---------------------------------------------------------------

# the one header read_trace_csv accepts, as write_trace_csv writes it
HEADER = (
    "k,F,gamma,lambda,backtracks,step_norm,mapping_norm,fp_scaled,descent_residual,"
    "decrease_residual,check_max_residual,domain_gamma,f_evals,grad_evals,prox_evals\n"
)
ROW0 = "0,4.5,1,1,0,2,3,0.5,-1,-2,-0.25,1,2,1,1\n"
ROW1 = "1,2.5,0.5,1,1,0,0,0,0,0,0,1,2,1,2\n"


def test_read_trace_csv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(HEADER + ROW0 + ROW1)
    frame = read_trace_csv(p)
    assert isinstance(frame, vmfbs.Trace)
    assert len(frame) == 2
    assert frame.k.tolist() == [0, 1]
    assert frame.backtracks.dtype.kind == "i"
    assert frame.lam.tolist() == [1.0, 1.0]
    assert frame.F.tolist() == [4.5, 2.5]
    assert frame.step_norm[0] == 2.0
    # every row reads back whole
    assert list(frame) == [frame[0], frame[-1]]
    assert frame[0].mapping_norm == 3.0 and frame[1].prox_evals == 2


@pytest.mark.parametrize(
    "body, needle",
    [
        pytest.param(HEADER + ROW0 + "1\n", "line 3: 1 field(s) under a header of 15",
                     id="short-row"),
        pytest.param(HEADER + ROW0 + ROW1.replace("\n", ",9\n"),
                     "line 3: 16 field(s) under a header of 15", id="long-row"),
        # a blank line is skipped but still counted
        pytest.param(HEADER + "\n" + ROW0 + ROW1.replace("2.5", "abc"),
                     "line 4: could not convert string to float: 'abc'",
                     id="blank-line-then-non-numeric"),
        # the counter columns hold whole numbers, never truncated
        pytest.param(HEADER + ROW0.replace(",1,0,2,", ",1,2.7,2,"),
                     "line 2: backtracks = 2.7 is not an integer", id="non-integer-counter"),
        pytest.param(HEADER + ROW0 + ROW1.replace("1,", "nan,", 1),
                     "line 3: k = nan is not an integer", id="nan-k"),
        # a file holds every trace column or is no trace file
        pytest.param("k,F\n0,4.5\n", f"line 1: expected the trace header {HEADER.strip()}",
                     id="partial-header"),
    ],
)
def test_read_trace_csv_names_the_malformed_line(tmp_path, body, needle):
    p = tmp_path / "t.csv"
    p.write_text(body)
    with pytest.raises(vmfbs.UsageError) as err:
        read_trace_csv(p)
    assert str(err.value) == f"{p}, {needle}"


def test_trace_holds_exactly_the_iterate_columns():
    full = {name: [0] for name in vmfbs.IterateTrace._fields}
    partial = {"k": [0], "F": [4.5]}
    with pytest.raises(vmfbs.UsageError, match="missing .'gamma', 'lam'"):
        vmfbs.Trace(partial)
    with pytest.raises(vmfbs.UsageError, match=r"unknown \['extra'\]"):
        vmfbs.Trace({**full, "extra": [0]})
    assert len(vmfbs.Trace(full)) == 1


def test_read_trace_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_trace_csv(tmp_path / "absent.csv")
