import re
import tracemalloc

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
        vmfbs.table_schedule([np.ones((1, 2))], regime="constant")
    # 0-d becomes length 1, at emission and in a factory's rows
    assert emitted(2.5).tolist() == [2.5]
    assert vmfbs.constant_schedule(2.5).metric_at(3).tolist() == [2.5]


def test_generator_bounds_hold_exactly():
    # nu = 1 and mu = 2 themselves are inside; the next float outward is not
    nu, mu = 1.0, 2.0
    for inside in ([nu, mu], [nu], [mu]):
        assert emitted(inside, nu=nu, mu=mu).tolist() == inside
    for outside in ([np.nextafter(nu, 0), mu], [nu, np.nextafter(mu, np.inf)]):
        with pytest.raises(vmfbs.UsageError,
                           match=r"^emitted weights in \[.*\], outside declared bounds \[1.0, 2.0\]$"):
            emitted(outside, nu=nu, mu=mu)
    # a one-entry emission names its value once; a vector, its extremes
    with pytest.raises(vmfbs.UsageError) as err:
        emitted(np.nextafter(mu, np.inf), nu=nu, mu=mu)
    assert str(err.value) == "emitted 2.0000000000000004, outside declared bounds [1.0, 2.0]"
    with pytest.raises(vmfbs.UsageError) as err:
        emitted([1.5, np.nextafter(nu, 0), 1.25], nu=nu, mu=mu)
    assert str(err.value) == (
        "emitted weights in [0.9999999999999999, 1.5], outside declared bounds [1.0, 2.0]"
    )


def test_emission_owns_a_frozen_copy():
    w = np.array([1, 2])
    out = emitted(w)
    w[0] = 3
    assert out.tolist() == [1.0, 2.0] and out.dtype == np.float64
    assert not out.flags.writeable
    assert not np.shares_memory(out, w)
    # a factory's rows are frozen copies too
    src = np.array([1.0, 2.0])
    sched = vmfbs.table_schedule([src], regime="constant")
    src[0] = 1.5
    assert sched.metric_at(0).tolist() == [1.0, 2.0]
    assert not sched.metric_at(0).flags.writeable


def test_table_bounds_are_the_extremes_of_its_rows():
    rows = [np.array([1.5, 2.0]), np.array([0.75, 1.0]), np.array([1.0, 3.0])]
    sched = vmfbs.table_schedule(rows, regime="growth")
    assert (sched.global_nu, sched.global_mu) == (0.75, 3.0)
    lam = vmfbs.table_schedule([0.5, 1.0, 0.25], regime="spread")
    assert (lam.global_nu, lam.global_mu) == (0.25, 1.0)
    # a table states no bounds of its own
    with pytest.raises(TypeError):
        vmfbs.table_schedule(rows, nu=0.5, mu=3.0, regime="growth")
    for bounds in (dict(global_nu=0.5), dict(global_mu=3.0), dict(global_nu=0.75, global_mu=3.0)):
        with pytest.raises(vmfbs.UsageError, match="takes its bounds from the rows"):
            vmfbs.MetricSchedule(rows=rows, declared_regime="growth", **bounds)


def test_empty_weight_vector_is_a_usage_error():
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        vmfbs.constant_schedule([])
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        vmfbs.table_schedule([np.ones(2), []], regime="growth")
    # a schedule built directly is checked where it emits
    sched = vmfbs.MetricSchedule(
        lambda k, snap: np.zeros(0), global_nu=1.0, global_mu=1.0, declared_regime="constant"
    )
    with pytest.raises(vmfbs.UsageError, match="weight vector is empty"):
        sched.metric_at(0)


def test_ragged_table_is_refused_when_built():
    with pytest.raises(vmfbs.UsageError, match=r"different lengths \[2, 3\]"):
        vmfbs.table_schedule([np.ones(2), np.ones(3)], regime="growth")
    same = vmfbs.table_schedule([np.ones(3), np.ones(3)], regime="growth")
    assert vmfbs.validate_growth(same, 5).partial_sum == 0.0
    assert vmfbs.validate_spread(same, 5).partial_sum == 0.0


def test_schedule_needs_exactly_one_source():
    bounds = dict(global_nu=1.0, global_mu=1.0, declared_regime="constant")
    with pytest.raises(vmfbs.UsageError, match="exactly one of a generator and rows"):
        vmfbs.MetricSchedule(lambda k, snap: np.ones(2), rows=[np.ones(2)], **bounds)
    with pytest.raises(vmfbs.UsageError, match="exactly one of a generator and rows"):
        vmfbs.MetricSchedule(**bounds)
    with pytest.raises(vmfbs.UsageError, match="at least one row"):
        vmfbs.MetricSchedule(rows=[], declared_regime="constant")
    sched = vmfbs.MetricSchedule(rows=[[1.0, 1.0]], declared_regime="constant")
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
    sched = vmfbs.table_schedule(rows, regime="growth")
    assert np.array_equal(sched.metric_at(0), rows[0])
    assert np.array_equal(sched.metric_at(5), rows[1])


def test_metric_at_returns_the_same_last_row_past_the_table():
    sched = vmfbs.table_schedule([np.ones(2), np.full(2, 1.5)], regime="growth")
    last = sched.metric_at(1)
    assert last is sched.rows[-1] and not last.flags.writeable
    assert all(sched.metric_at(k) is last for k in (2, 3, 10, 10**9))
    assert sched.metric_at(0) is sched.metric_at(0)


def test_bb_schedule_secant_and_corridor():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    assert np.allclose(m0, [1.0, 1.0])
    # a clean quadratic secant: dgrad = H dx with H = diag(2, 3)
    snap = StepSnapshot(
        x=np.zeros(2),
        dx=np.array([1.0, 1.0]),
        dgrad=np.array([2.0, 3.0]),
        prev_weights=m0,
    )
    m1 = sched.metric_at(1, snap)
    # corridor at k=1 allows growth up to factor 1 + eta0 = 2
    assert np.allclose(m1, [2.0, 2.0])
    assert sched.declared_regime == "growth"


@pytest.mark.parametrize("kw, needle", [
    (dict(eta0=np.nan), "eta0 must be nonnegative and finite, got nan"),
    # an infinite eta0 would switch the growth corridor off
    (dict(eta0=np.inf), "eta0 must be nonnegative and finite, got inf"),
    (dict(eta0=-1.0), "eta0 must be nonnegative and finite, got -1.0"),
    (dict(n=0), "n must be >= 1, got 0"),
    (dict(n=-1), "n must be >= 1, got -1"),
    (dict(n=2.0), "n must be an integer, got 2.0"),
])
def test_bb_schedule_refuses_bad_arguments_when_built(kw, needle):
    kw = {"n": 2, "nu": 0.5, "mu": 4.0, **kw}
    with pytest.raises(vmfbs.UsageError, match=re.escape(needle)):
        vmfbs.bb_schedule(kw.pop("n"), **kw)


def test_schedule_bounds_need_0_lt_nu_le_mu_lt_inf():
    # a generator declares both bounds
    for nu, mu in ((0.0, 1.0), (1.0, np.inf), (2.0, 1.0), (None, 1.0), (1.0, None)):
        with pytest.raises(vmfbs.UsageError,
                           match=re.escape(f"need 0 < nu <= mu < inf, got nu={nu}, mu={mu}")):
            vmfbs.MetricSchedule(lambda k, snap: 1.0, global_nu=nu, global_mu=mu,
                                 declared_regime="constant")
    # nu = mu is the constant bound
    sched = vmfbs.MetricSchedule(lambda k, snap: 1.5, global_nu=1.5, global_mu=1.5,
                                 declared_regime="constant")
    assert sched.metric_at(0).tolist() == [1.5]


def bb_step(sched, dx, dgrad):
    """The weights a BB schedule emits at k = 1 after its start at k = 0."""
    m0 = sched.metric_at(0)
    snap = StepSnapshot(x=np.zeros(len(dx)), dx=np.array(dx), dgrad=np.array(dgrad),
                        prev_weights=m0)
    return sched.metric_at(1, snap)


def test_bb_schedule_bounds_at_their_edges():
    with pytest.raises(vmfbs.UsageError,
                       match=re.escape("bb_schedule needs 0 < nu <= mu, got nu=0.0, mu=4.0")):
        vmfbs.bb_schedule(2, nu=0.0, mu=4.0)
    # nu = mu pins every weight
    assert bb_step(vmfbs.bb_schedule(2, nu=2.0, mu=2.0), [1.0, 1.0], [3.0, 0.5]).tolist() == [
        2.0, 2.0]
    # eta0 = 0 closes the growth corridor: weights may shrink, never grow
    frozen = vmfbs.bb_schedule(2, nu=0.5, mu=4.0, eta0=0.0)
    assert bb_step(frozen, [1.0, 1.0], [3.0, 0.75]).tolist() == [1.0, 0.75]


def test_bb_schedule_guards_are_scaled_to_the_largest_step():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    # 5e-10 is tiny beside 1e3 (the guard is 1e-12 * (1 + max |dx|)), so the
    # second weight stays 1; a guard scaled from min |dx| would take its ratio 2
    assert bb_step(sched, [1e3, 5e-10], [2e3, 1e-9]).tolist() == [2.0, 1.0]
    # a displacement exactly on the guard (1e-12 * 2.0 is exact) is tiny too:
    # its ratio 1.5 would move the weight, and it keeps the previous one
    assert 1e-12 * (1.0 + 1.0) == 2e-12
    assert bb_step(sched, [1.0, 2e-12], [2.0, 3e-12]).tolist() == [2.0, 1.0]
    # a zero secant ratio keeps the previous weight, where clipping would give nu
    assert bb_step(sched, [1.0, 1.0], [2.0, 0.0]).tolist() == [2.0, 1.0]


def test_bb_schedule_keeps_previous_on_tiny_displacement():
    sched = vmfbs.bb_schedule(2, nu=0.5, mu=4.0)
    m0 = sched.metric_at(0)
    snap = StepSnapshot(
        x=np.zeros(2),
        dx=np.array([0.0, 0.0]),
        dgrad=np.array([1.0, 1.0]),
        prev_weights=m0,
    )
    m1 = sched.metric_at(1, snap)
    assert np.array_equal(m1, m0)


def _bb_reference(k, snap, nu, mu, eta0=1.0):
    """bb_schedule's weights of step k >= 1, as its docstring states them."""
    prev = np.asarray(snap.prev_weights, dtype=float)
    adx = np.abs(snap.dx)
    tiny = adx <= 1e-12 * (1.0 + adx.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = snap.dgrad / snap.dx
    keep = tiny | ~(ratio > 0) | ~np.isfinite(ratio)
    w = np.clip(np.where(keep, prev, ratio), nu, mu)
    return np.minimum(w, (1.0 + eta0 * 2.0 ** -(k - 1)) * prev)


def test_bb_schedule_is_its_docstring_bit_for_bit(rng):
    nu, mu = 0.25, 4.0
    guard = 1e-12 * (1.0 + 1.0)  # exact; the largest |dx| below is 1.0
    cases = {  # name: (dx, dgrad, prev)
        "largest step": (1.0, 2.5, 1.0),
        "zero step": (0.0, 1.0, 1.5),
        "just under the guard": (np.nextafter(guard, 0.0), 3.0 * guard, 1.5),
        "just over the guard": (np.nextafter(guard, 1.0), 3.0 * guard, 2.0),
        "negative ratio": (0.5, -1.0, 1.5),
        "zero ratio": (0.5, 0.0, 1.5),
        "negative zero ratio": (0.5, -0.0, 1.5),
        "infinite ratio": (0.5, np.inf, 1.5),
        "NaN ratio": (0.5, np.nan, 1.5),
        "clipped at nu": (0.5, 1e-3, 0.5),
        "clipped at mu": (-0.5, -100.0, mu),
        "corridor": (-0.25, -0.875, 1.0),  # ratio 3.5 in [nu, mu]
    }
    names = list(cases)
    dx, dgrad, prev = (np.array(v) for v in zip(*cases.values()))
    sched = vmfbs.bb_schedule(len(names), nu=nu, mu=mu)
    for k in (1, 2, 3, 10):
        snap = StepSnapshot(x=np.zeros(len(names)), dx=dx, dgrad=dgrad, prev_weights=prev)
        got = sched.metric_at(k, snap)
        assert got.tobytes() == _bb_reference(k, snap, nu, mu).tobytes(), k
    # each case takes the branch its name says (k = 3: the corridor is 1.25 prev)
    got = dict(zip(names, sched.metric_at(3, snap).tolist()))
    kept = ("zero step", "just under the guard", "negative ratio", "zero ratio",
            "negative zero ratio", "infinite ratio", "NaN ratio")
    assert all(got[name] == cases[name][2] for name in kept)
    assert got["largest step"] == 1.25 and got["corridor"] == 1.25
    assert got["just over the guard"] == 2.5  # ratio 3.0 - ulp, capped at 1.25 * 2.0
    assert got["clipped at nu"] == nu and got["clipped at mu"] == mu
    # random steps, some of them tiny, with the previous weights anywhere in [nu, mu]
    for _ in range(200):
        n = int(rng.integers(1, 12))
        dx = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 2, n)
        dx[rng.random(n) < 0.1] = 0.0
        snap = StepSnapshot(x=np.zeros(n), dx=dx, dgrad=rng.standard_normal(n) * 3,
                            prev_weights=rng.uniform(nu, mu, n))
        k = int(rng.integers(1, 30))
        got = vmfbs.bb_schedule(n, nu=nu, mu=mu).metric_at(k, snap)
        assert got.tobytes() == _bb_reference(k, snap, nu, mu).tobytes()


def test_bb_growth_partial_sum_bounded_by_corridor():
    # eta_k <= eta0 * 2^{-(k-1)} by construction, so the sum stays <= 2*eta0
    sched = vmfbs.bb_schedule(3, nu=0.1, mu=10.0, eta0=1.0)
    rng = np.random.default_rng(5)
    w_prev = sched.metric_at(0)
    rows = [w_prev]
    for k in range(1, 40):
        snap = StepSnapshot(
            x=np.zeros(3),
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
    sched = vmfbs.table_schedule(rows, regime="growth")
    report = vmfbs.validate_growth(sched, horizon=64, budget=1.0)
    assert report.partial_sum == 0.0
    assert report.passed


def test_summability_passes_a_sum_exactly_at_its_budget():
    # one step of eta = 1.5 / 1 - 1 = 0.5, exact in binary
    sched = vmfbs.table_schedule([[1.0, 1.0], [1.5, 1.5]], regime="growth")
    report = vmfbs.validate_growth(sched, horizon=2, budget=0.5)
    assert report.partial_sum == 0.5 and report.passed


def test_validate_growth_alternating_schedule_fails_budget():
    rows = [np.full(2, 1.0 if k % 2 == 0 else 2.0) for k in range(20)]
    sched = vmfbs.table_schedule(rows, regime="growth")
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
    sched = vmfbs.table_schedule(rows, regime="spread")
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
        vmfbs.table_schedule(rows, regime="spread"), horizon=12
    )
    assert report.terms.tolist() == [float(r.max() - r.min()) for r in rows]
    sched = vmfbs.table_schedule([[1.0, 1.0], [1.5, 1.0]], regime="growth")
    growth = vmfbs.validate_growth(sched, horizon=3, budget=1.0)
    spread = vmfbs.validate_spread(sched, horizon=3)
    assert type(growth) is type(spread) is vmfbs.SummabilityReport
    assert growth.terms.tolist() == [0.5, 0.0]
    assert spread.terms.tolist() == [0.0, 0.5, 0.5]
    assert str(growth) == "growth: sum eta over 2 steps = 0.5 (budget 1.0, pass)"
    assert str(spread) == "spread: sum (mu_k - nu_k) over 3 steps = 1 (budget None, n/a)"


def test_validators_hold_the_last_row_without_building_it(rng):
    sched = vmfbs.table_schedule(rng.uniform(0.5, 2.0, size=(4, 3)), regime="growth")
    for horizon in (1, 2, 4, 9):  # below, at and past the table's four rows
        ws = np.array([sched.metric_at(k) for k in range(horizon)])
        for report, want in ((vmfbs.validate_growth(sched, horizon), growth_from_weights(ws)),
                             (vmfbs.validate_spread(sched, horizon), np.ptp(ws, axis=1))):
            assert report.terms.tobytes() == want.tobytes()
            assert report.partial_sum == float(want.sum())
    for validate in (vmfbs.validate_growth, vmfbs.validate_spread):
        with pytest.raises(vmfbs.UsageError, match="horizon must be >= 1, got 0"):
            validate(sched, 0)
        for bad in (2.5, True):
            with pytest.raises(vmfbs.UsageError, match=f"horizon must be an integer, got {bad}"):
                validate(sched, bad)
        assert validate(sched, np.int64(2)).terms.tobytes() == validate(sched, 2).terms.tobytes()
    # a weight vector per step would take 8 GB here
    wide = vmfbs.table_schedule(rng.uniform(0.5, 2.0, size=(2, 1000)), regime="spread")
    tracemalloc.start()
    try:
        growth = vmfbs.validate_growth(wide, 10**6)
        spread = vmfbs.validate_spread(wide, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert growth.terms.size == 10**6 - 1 and spread.terms.size == 10**6
    assert not growth.terms[1:].any() and (spread.terms[1:] == spread.terms[1]).all()


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
    state_free = vmfbs.table_schedule([np.ones(2)], regime="constant")
    assert not state_free.reads_state
    assert not vmfbs.constant_schedule(np.ones(2)).reads_state
    assert vmfbs.validate_growth(state_free, horizon=5, budget=1.0).passed
