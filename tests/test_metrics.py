import numpy as np
import pytest

import vmfbs
from vmfbs.metrics import StepSnapshot, growth_from_weights, identity_metric, metric_norm_sq


def test_diagonal_metric_bounds():
    m = vmfbs.DiagonalMetric.from_weights([1.0, 3.0, 2.0])
    assert m.nu_k == 1.0 and m.mu_k == 3.0
    assert m.dimension == 3
    assert not m.is_uniform
    assert identity_metric(2).is_uniform


def test_from_weights_rejects_nonpositive():
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.DiagonalMetric.from_weights([1.0, 0.0])
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.DiagonalMetric.from_weights([1.0, -2.0])


def test_from_weights_validates_like_as_vector():
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [-1.0, np.nan]):
        with pytest.raises(vmfbs.UsageError, match="non-finite"):
            vmfbs.DiagonalMetric.from_weights(bad)
    with pytest.raises(vmfbs.UsageError, match="expected a vector"):
        vmfbs.DiagonalMetric.from_weights(np.ones((2, 2)))
    m = vmfbs.DiagonalMetric.from_weights(2.5)  # 0-d becomes length 1
    assert m.weights.shape == (1,) and m.nu_k == m.mu_k == 2.5
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.DiagonalMetric.from_weights(0.0)


def test_from_weights_owns_a_frozen_copy():
    w = np.array([1.0, 2.0])
    m = vmfbs.DiagonalMetric.from_weights(w)
    w[0] = 5.0
    assert m.weights[0] == 1.0
    assert not m.weights.flags.writeable
    assert type(m.nu_k) is float and type(m.mu_k) is float


def test_metric_norm_against_direct_sum():
    w = np.array([1.0, 2.0, 4.0])
    v = np.array([1.0, -1.0, 0.5])
    m = vmfbs.DiagonalMetric.from_weights(w)
    direct = float(np.sum(w * v * v))
    assert metric_norm_sq(m, v) == pytest.approx(direct, rel=1e-15)


def test_metric_prox_identity_weights_is_plain_prox():
    g = vmfbs.L1Norm(1.0)
    m = identity_metric(3)
    z = np.array([3.0, -0.5, 2.0])
    out = vmfbs.metric_prox(g, m, z, 1.0)
    assert np.allclose(out, vmfbs.soft_threshold(z, 1.0))


def test_metric_prox_separable_rescales_per_coordinate():
    # weight w_i turns the threshold into gamma/w_i per coordinate
    g = vmfbs.L1Norm(1.0)
    m = vmfbs.DiagonalMetric.from_weights([1.0, 2.0, 4.0])
    z = np.array([3.0, -2.0, 0.4])
    out = vmfbs.metric_prox(g, m, z, 1.0)
    expected = np.array([2.0, -1.5, 0.15])  # soft(z_i, 1/w_i)
    assert np.allclose(out, expected, atol=1e-15)


def test_constant_schedule_emits_same_metric():
    sched = vmfbs.constant_schedule([1.0, 2.0])
    m0 = sched.metric_at(0)
    m9 = sched.metric_at(9)
    assert np.array_equal(m0.weights, m9.weights)
    assert sched.declared_regime == "constant"


def test_table_schedule_hold_and_error():
    rows = [np.array([1.0, 1.0]), np.array([1.5, 1.0])]
    sched = vmfbs.table_schedule(rows, nu=1.0, mu=1.5, regime="growth")
    assert np.array_equal(sched.metric_at(5).weights, rows[1])
    strict = vmfbs.table_schedule(rows, nu=1.0, mu=1.5, regime="growth", extend="error")
    with pytest.raises(vmfbs.UsageError):
        strict.metric_at(2)


def test_schedule_rejects_out_of_corridor_emission():
    rows = [np.array([3.0])]
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.table_schedule(rows, nu=1.0, mu=2.0, regime="growth").metric_at(0)


def test_bb_schedule_secant_and_corridor():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    assert np.allclose(m0.weights, [1.0, 1.0])
    # a clean quadratic secant: dgrad = H dx with H = diag(2, 3)
    snap = StepSnapshot(
        dx=np.array([1.0, 1.0]),
        dgrad=np.array([2.0, 3.0]),
        prev_weights=m0.weights,
    )
    m1 = sched.metric_at(1, snap)
    # corridor at k=1 allows growth up to factor 1 + eta0 = 2
    assert np.allclose(m1.weights, [2.0, 2.0])
    assert sched.declared_regime == "growth"


def test_bb_schedule_keeps_previous_on_tiny_displacement():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    snap = StepSnapshot(
        dx=np.array([0.0, 0.0]),
        dgrad=np.array([1.0, 1.0]),
        prev_weights=m0.weights,
    )
    m1 = sched.metric_at(1, snap)
    assert np.array_equal(m1.weights, m0.weights)


def test_bb_growth_partial_sum_bounded_by_corridor():
    # eta_k <= eta0 * 2^{-(k-1)} by construction, so the sum stays <= 2*eta0
    sched = vmfbs.bb_schedule(3, nu=0.1, mu=10.0, eta0=1.0)
    rng = np.random.default_rng(5)
    w_prev = sched.metric_at(0).weights
    rows = [w_prev]
    for k in range(1, 40):
        snap = StepSnapshot(
            dx=rng.standard_normal(3),
            dgrad=rng.standard_normal(3) * 3,
            prev_weights=w_prev,
        )
        w_prev = sched.metric_at(k, snap).weights
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
        lambda k, snap: identity_metric(2),
        global_nu=1.0, global_mu=1.0, declared_regime="constant",
    )
    assert custom.reads_state and bb.reads_state
    assert vmfbs.validate_growth(custom, horizon=5, budget=1.0).passed is None
    state_free = vmfbs.table_schedule([np.ones(2)], nu=1.0, mu=1.0, regime="constant")
    assert not state_free.reads_state
    assert not vmfbs.constant_schedule(np.ones(2)).reads_state
    assert vmfbs.validate_growth(state_free, horizon=5, budget=1.0).passed
