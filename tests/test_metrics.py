import numpy as np
import pytest

import vmfbs
from vmfbs.linesearch import line_search
from vmfbs.metrics import StepSnapshot, growth_from_weights


def emitted(weights, nu=0.5, mu=4.0):
    """Step 0 of a schedule whose generator returns ``weights`` as given."""
    sched = vmfbs.MetricSchedule(
        lambda k, snap: weights, global_nu=nu, global_mu=mu, declared_regime="growth"
    )
    return sched.metric_at(0)


def test_diagonal_metric_bounds():
    # a constant schedule declares the extreme weights as its bounds
    sched = vmfbs.constant_schedule([1.0, 3.0, 2.0])
    assert sched.global_nu == 1.0 and sched.global_mu == 3.0
    assert sched.metric_at(0).tolist() == [1.0, 3.0, 2.0]


def test_emission_rejects_nonpositive():
    for bad in ([1.0, 0.0], [1.0, -2.0], 0.0):
        with pytest.raises(vmfbs.UsageError, match="strictly positive"):
            emitted(bad)
        with pytest.raises(vmfbs.UsageError, match="strictly positive"):
            vmfbs.constant_schedule(bad)


def test_emission_validates_like_as_vector():
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [-1.0, np.nan]):
        with pytest.raises(vmfbs.UsageError, match="non-finite"):
            emitted(bad)
    with pytest.raises(vmfbs.UsageError, match="expected a vector"):
        emitted(np.ones((2, 2)))
    with pytest.raises(vmfbs.UsageError, match="expected a vector"):
        vmfbs.table_schedule([np.ones((1, 2))], nu=1.0, mu=1.0, regime="constant")
    # 0-d becomes length 1, at emission and in a factory's rows
    assert emitted(2.5).tolist() == [2.5]
    assert vmfbs.constant_schedule(2.5).metric_at(3).tolist() == [2.5]


def test_emission_checks_the_declared_bounds_with_slack():
    # nu = 1, mu = 2 and a relative slack of 1e-12 for round-off
    for inside in ([1.0 - 1e-13, 2.0], [1.5, 2.0 + 1e-12]):
        assert emitted(inside, nu=1.0, mu=2.0).tolist() == inside
    for outside in ([1.0 - 1e-11, 2.0], [1.5, 2.0 + 1e-11]):
        with pytest.raises(vmfbs.UsageError, match=r"at k=0, outside declared bounds"):
            emitted(outside, nu=1.0, mu=2.0)


def test_emission_owns_a_frozen_copy():
    w = np.array([1, 2])
    out = emitted(w)
    w[0] = 3
    assert out.tolist() == [1.0, 2.0] and out.dtype == np.float64
    assert not out.flags.writeable
    assert not np.shares_memory(out, w)
    # a factory's rows are frozen copies too
    src = np.array([1.0, 2.0])
    sched = vmfbs.table_schedule([src], nu=1.0, mu=2.0, regime="constant")
    src[0] = 1.5
    assert sched.metric_at(0).tolist() == [1.0, 2.0]
    assert not sched.metric_at(0).flags.writeable


def test_table_bounds_are_checked_when_the_table_is_built():
    rows = [np.ones(2), np.ones(2), np.array([1.0, 3.0])]
    with pytest.raises(vmfbs.UsageError, match=r"in \[1.0, 3.0\] at k=2"):
        vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="growth")


def test_empty_weight_vector_is_a_usage_error():
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        vmfbs.constant_schedule([])
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        vmfbs.table_schedule([np.ones(2), []], nu=1.0, mu=1.0, regime="growth")
    # a schedule built directly is checked where it emits
    sched = vmfbs.MetricSchedule(
        lambda k, snap: np.zeros(0), global_nu=1.0, global_mu=1.0, declared_regime="constant"
    )
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        sched.metric_at(0)


def test_ragged_table_is_refused_when_built():
    with pytest.raises(vmfbs.UsageError, match=r"different lengths \[2, 3\]"):
        vmfbs.table_schedule([np.ones(2), np.ones(3)], nu=1, mu=1, regime="growth")
    same = vmfbs.table_schedule([np.ones(3), np.ones(3)], nu=1, mu=1, regime="growth")
    assert vmfbs.validate_growth(same, 5).partial_sum == 0.0
    assert vmfbs.validate_spread(same, 5).partial_sum == 0.0


def test_schedule_needs_exactly_one_source():
    bounds = dict(global_nu=1.0, global_mu=1.0, declared_regime="constant")
    with pytest.raises(vmfbs.UsageError, match="exactly one of a generator and rows"):
        vmfbs.MetricSchedule(lambda k, snap: np.ones(2), rows=[np.ones(2)], **bounds)
    with pytest.raises(vmfbs.UsageError, match="exactly one of a generator and rows"):
        vmfbs.MetricSchedule(**bounds)
    with pytest.raises(vmfbs.UsageError, match="at least one row"):
        vmfbs.MetricSchedule(rows=[], **bounds)
    sched = vmfbs.MetricSchedule(rows=[[1.0, 1.0]], **bounds)
    assert not sched.reads_state and sched.metric_at(3).tolist() == [1.0, 1.0]


def test_metric_norm_against_direct_sum():
    # the kernel's ||y - x||_W^2 is sum_i w_i (y_i - x_i)^2
    w = np.array([1.0, 2.0, 4.0])
    x = np.array([1.0, -1.0, 0.5])
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(np.eye(3), np.zeros(3)), g=vmfbs.ZeroTerm(), dimension=3
    )
    out = line_search(
        prob, w, x, "ls2", vmfbs.LineSearchConfig(),
        fx=prob.f.value(x), gx=0.0, grad=prob.f.gradient(x), start=1.0, other=0.5,
    )
    dy = out.y - x
    assert out.norm_sq_yx == pytest.approx(float(np.sum(w * dy * dy)), rel=1e-15)


def test_metric_prox_identity_weights_is_plain_prox():
    g = vmfbs.L1Norm(1.0)
    z = np.array([3.0, -0.5, 2.0])
    out = g.prox(z, 1.0, np.ones(3))
    assert np.allclose(out, vmfbs.soft_threshold(z, 1.0))


def test_metric_prox_separable_rescales_per_coordinate():
    # weight w_i turns the threshold into gamma/w_i per coordinate
    g = vmfbs.L1Norm(1.0)
    z = np.array([3.0, -2.0, 0.4])
    out = g.prox(z, 1.0, np.array([1.0, 2.0, 4.0]))
    expected = np.array([2.0, -1.5, 0.15])  # soft(z_i, 1/w_i)
    assert np.allclose(out, expected, atol=1e-15)


def test_constant_schedule_emits_same_metric():
    sched = vmfbs.constant_schedule([1.0, 2.0])
    m0 = sched.metric_at(0)
    m9 = sched.metric_at(9)
    assert np.array_equal(m0, m9)
    assert sched.declared_regime == "constant"


def test_table_schedule_holds_its_last_row():
    rows = [np.array([1.0, 1.0]), np.array([1.5, 1.0])]
    sched = vmfbs.table_schedule(rows, nu=1.0, mu=1.5, regime="growth")
    assert np.array_equal(sched.metric_at(0), rows[0])
    assert np.array_equal(sched.metric_at(5), rows[1])


def test_metric_at_returns_the_same_last_row_past_the_table():
    sched = vmfbs.table_schedule([np.ones(2), np.full(2, 1.5)], nu=1.0, mu=1.5, regime="growth")
    last = sched.metric_at(1)
    assert last is sched.rows[-1] and not last.flags.writeable
    assert all(sched.metric_at(k) is last for k in (2, 3, 10, 10**9))
    assert sched.metric_at(0) is sched.metric_at(0)


def test_schedule_rejects_out_of_corridor_emission():
    rows = [np.array([3.0])]
    with pytest.raises(vmfbs.UsageError):
        vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="growth").metric_at(0)


def test_bb_schedule_secant_and_corridor():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    assert np.allclose(m0, [1.0, 1.0])
    # a clean quadratic secant: dgrad = H dx with H = diag(2, 3)
    snap = StepSnapshot(
        dx=np.array([1.0, 1.0]),
        dgrad=np.array([2.0, 3.0]),
        prev_weights=m0,
    )
    m1 = sched.metric_at(1, snap)
    # corridor at k=1 allows growth up to factor 1 + eta0 = 2
    assert np.allclose(m1, [2.0, 2.0])
    assert sched.declared_regime == "growth"


def test_bb_schedule_keeps_previous_on_tiny_displacement():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    snap = StepSnapshot(
        dx=np.array([0.0, 0.0]),
        dgrad=np.array([1.0, 1.0]),
        prev_weights=m0,
    )
    m1 = sched.metric_at(1, snap)
    assert np.array_equal(m1, m0)


def test_bb_growth_partial_sum_bounded_by_corridor():
    # eta_k <= eta0 * 2^{-(k-1)} by construction, so the sum stays <= 2*eta0
    sched = vmfbs.bb_schedule(3, nu=0.1, mu=10.0, eta0=1.0)
    rng = np.random.default_rng(5)
    w_prev = sched.metric_at(0)
    rows = [w_prev]
    for k in range(1, 40):
        snap = StepSnapshot(
            dx=rng.standard_normal(3),
            dgrad=rng.standard_normal(3) * 3,
            prev_weights=w_prev,
        )
        w_prev = sched.metric_at(k, snap)
        rows.append(w_prev)
    eta = growth_from_weights(rows)
    assert float(eta.sum()) <= 2.0 + 1e-12


def test_growth_from_weights_monotone_decreasing_is_zero():
    rows = [np.array([1.0 + 2.0 ** (-k)]) for k in range(10)]
    eta = growth_from_weights(rows)
    assert np.all(eta == 0.0)


def test_validate_growth_monotone_schedule_passes():
    rows = [np.full(2, 1.0 + 2.0 ** (-k)) for k in range(64)]
    sched = vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="growth")
    report = vmfbs.validate_growth(sched, horizon=64, budget=1.0)
    assert report.partial_sum == 0.0
    assert report.passed


def test_validate_growth_alternating_schedule_fails_budget():
    rows = [np.full(2, 1.0 if k % 2 == 0 else 2.0) for k in range(20)]
    sched = vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="growth")
    report = vmfbs.validate_growth(sched, horizon=20, budget=1.0)
    # every up-step contributes eta = 1
    assert report.partial_sum == pytest.approx(10.0)
    assert not report.passed


def test_validate_spread_constant_gap_grows_linearly():
    sched = vmfbs.constant_schedule([1.0, 2.0])
    report = vmfbs.validate_spread(sched, horizon=7)
    assert report.partial_sum == pytest.approx(7.0)
    assert report.passed is None  # no budget supplied


def test_validate_spread_summable_gap_converges_to_two():
    rows = [np.array([1.0, 1.0 + 2.0 ** (-k)]) for k in range(60)]
    sched = vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="spread")
    report = vmfbs.validate_spread(sched, horizon=60, budget=2.0)
    assert report.partial_sum == pytest.approx(2.0, abs=1e-12)
    assert report.passed


def test_reports_render():
    sched = vmfbs.constant_schedule([1.0, 2.0])
    text = str(vmfbs.validate_spread(sched, horizon=3, budget=100.0))
    assert "spread" in text and "pass" in text


def test_growth_from_weights_matches_the_per_step_formula(rng):
    rows = rng.uniform(0.5, 2.0, size=(30, 4))
    want = [max(0.0, float(np.max(rows[k + 1] / rows[k])) - 1.0) for k in range(29)]
    assert growth_from_weights(rows).tolist() == want
    assert growth_from_weights(list(rows)).tolist() == want
    assert growth_from_weights(rows[:1]).size == 0


def test_reports_share_one_type_and_render_exactly(rng):
    rows = rng.uniform(0.5, 2.0, size=(12, 3))
    report = vmfbs.validate_spread(
        vmfbs.table_schedule(rows, nu=0.5, mu=2.0, regime="spread"), horizon=12
    )
    assert report.terms.tolist() == [float(r.max() - r.min()) for r in rows]
    sched = vmfbs.table_schedule([[1.0, 1.0], [1.5, 1.0]], nu=1.0, mu=1.5, regime="growth")
    growth = vmfbs.validate_growth(sched, horizon=3, budget=1.0)
    spread = vmfbs.validate_spread(sched, horizon=3)
    assert type(growth) is type(spread) is vmfbs.SummabilityReport
    assert growth.terms.tolist() == [0.5, 0.0]
    assert spread.terms.tolist() == [0.0, 0.5, 0.5]
    assert str(growth) == "growth: sum eta over 2 steps = 0.5 (budget 1.0, pass)"
    assert str(spread) == "spread: sum (mu_k - nu_k) over 3 steps = 1 (budget None, n/a)"


def test_validators_need_a_run_for_state_reading_schedules():
    # BB weights come from the solver state; the state-free start weights
    # would report sum 0 and pass
    bb = vmfbs.bb_schedule(5, nu=0.25, mu=4.0)
    growth = vmfbs.validate_growth(bb, horizon=50, budget=1.0)
    spread = vmfbs.validate_spread(bb, horizon=50, budget=1.0)
    for report in (growth, spread):
        assert report.passed is None and report.needs_run
        assert np.isnan(report.partial_sum)
        assert "n/a: needs a run" in str(report)
    custom = vmfbs.MetricSchedule(
        lambda k, snap: np.ones(2),
        global_nu=1.0, global_mu=1.0, declared_regime="constant",
    )
    assert custom.reads_state and bb.reads_state
    assert vmfbs.validate_growth(custom, horizon=5, budget=1.0).passed is None
    state_free = vmfbs.table_schedule([np.ones(2)], nu=1.0, mu=1.0, regime="constant")
    assert not state_free.reads_state
    assert not vmfbs.constant_schedule(np.ones(2)).reads_state
    assert vmfbs.validate_growth(state_free, horizon=5, budget=1.0).passed
