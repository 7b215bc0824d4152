import numpy as np
import pytest

import vmfbs
from vmfbs import problems
from vmfbs.linesearch import line_search

from conftest import lasso_1d, steep_quadratic_1d


def cfg(**kw):
    return vmfbs.LineSearchConfig(**kw)


def identity(n=1):
    return np.ones(n)


def search(prob, x, rule, config, *, other=1.0, start=None):
    """One kernel call at x, with f(x), g(x) and grad f(x) taken fresh.

    ``start`` defaults to the grid top of the walked variable.
    """
    x = np.asarray(x, dtype=float)
    if start is None:
        start = config.gamma_max if rule in ("ls1", "ls3", "domain") else 1.0
    return line_search(
        prob, identity(x.size), x, rule, config,
        fx=prob.f.value(x), gx=prob.g.value(x), grad=prob.f.gradient(x),
        start=start, other=other,
    )


def trial(prob, metric, x, gamma, lam):
    """(y, x_next) at (gamma, lam): the domain walk accepts its first grid
    point on a problem whose f is finite everywhere. It returns no
    relaxed point, so x_next is formed here."""
    out = line_search(
        prob, metric, x, "domain", cfg(),
        fx=prob.f.value(x), gx=prob.g.value(x), grad=prob.f.gradient(x),
        start=gamma, other=lam,
    )
    assert out.backtracks == 0 and out.gamma == gamma and out.x_next is None
    return out.y, x + lam * (out.y - x)


# --- config validation ---------------------------------------------------

def test_config_validates_ranges():
    with pytest.raises(vmfbs.UsageError):
        cfg(delta=0.0)
    with pytest.raises(vmfbs.UsageError):
        cfg(delta=1.0)
    with pytest.raises(vmfbs.UsageError):
        cfg(theta=1.0)
    with pytest.raises(vmfbs.UsageError):
        cfg(gamma_max=0.0)
    with pytest.raises(vmfbs.UsageError):
        cfg(max_backtracks=0)


def test_config_tseng_yun_constraint():
    # 0 < (1-beta) sigma < 1 must hold
    cfg(rule="tseng-yun", sigma=1.0, beta=0.5)
    with pytest.raises(vmfbs.UsageError):
        cfg(rule="tseng-yun", sigma=1.0, beta=0.0)  # (1-0)*1 = 1, not < 1
    with pytest.raises(vmfbs.UsageError):
        cfg(rule="tseng-yun", sigma=1.0, beta=1.0)  # product 0


def test_config_fixed_needs_both_steps():
    with pytest.raises(vmfbs.UsageError):
        cfg(rule="fixed", fixed_gamma=0.1)
    c = cfg(rule="fixed", fixed_gamma=0.1, fixed_lam=1.0)
    assert c.fixed_gamma == 0.1


# --- fb step ---------------------------------------------------------

def test_fb_step_gradient_step_when_g_zero():
    prob = steep_quadratic_1d()
    x = np.array([1.0])
    y, x_next = trial(prob, identity(), x, 0.1, 0.5)
    assert np.allclose(y, x - 0.1 * 4.0)  # grad = 4x
    assert np.allclose(x_next, x + 0.5 * (y - x))


def test_fb_step_lasso_pinned():
    prob = lasso_1d()
    y, x_next = trial(prob, identity(), np.array([3.0]), 1.0, 1.0)
    assert np.allclose(y, 2.0) and np.allclose(x_next, 2.0)


def test_fb_step_fixed_point_at_minimizer():
    prob = lasso_1d()
    y, x_next = trial(prob, identity(), np.array([2.0]), 1.0, 1.0)
    assert np.array_equal(y, [2.0]) and np.array_equal(x_next, [2.0])


@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls3", "ls4", "tseng-yun", "domain"])
def test_minimizer_accepts_first_grid_point(rule):
    # at the exact minimizer y == x and every test holds at the grid top:
    # the step is tested, not waved through
    prob = lasso_1d()
    config = cfg(rule="tseng-yun", sigma=0.5, beta=0.5) if rule == "tseng-yun" else cfg()
    out = search(prob, [2.0], rule, config)
    assert np.array_equal(out.y, [2.0])
    assert out.backtracks == 0
    assert out.gamma == 1.0 and out.lam == 1.0
    if rule == "domain":
        # the domain walk only picks gamma and y; it forms no step
        assert out.x_next is None
        assert np.isnan(out.norm_sq_yx) and np.isnan(out.ell)
    else:
        assert np.array_equal(out.x_next, [2.0])
        assert out.norm_sq_yx == 0.0


# --- ls1: gamma backtracking on the descent condition ---------------------

def test_ls1_steep_quadratic_pinned():
    # condition is gamma <= 0.45, grid hits 0.25 after two cuts
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls1", cfg(delta=0.9, theta=0.5, gamma_max=1.0))
    assert out.gamma == 0.25
    assert out.backtracks == 2
    assert np.allclose(out.x_next, 0.0)
    # one f and one prox per trial; f(x) and grad f(x) come from the caller
    assert (out.f_evals, out.grad_evals, out.prox_evals) == (3, 0, 3)
    assert out.gamma == 1.0 * 0.5**out.backtracks


def test_ls1_gentle_quadratic_accepts_immediately():
    # L = 1: condition is gamma <= 1.8, so gamma_max passes at once
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([0.0]))
    prob = vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1)
    out = search(prob, [1.0], "ls1", cfg(delta=0.9, theta=0.5, gamma_max=1.0))
    assert out.gamma == 1.0 and out.backtracks == 0


def test_ls1_search_failure_carries_diagnostics():
    prob = steep_quadratic_1d()
    with pytest.raises(vmfbs.SearchFailure) as err:
        search(prob, [1.0], "ls1",
               cfg(delta=0.01, theta=0.5, gamma_max=1.0, max_backtracks=1))
    d = err.value.diagnostics
    assert d["rule"] == "ls1" and d["trials"] == 2
    assert d["gamma_last"] == 0.5 and d["lhs"] > d["rhs"]


@pytest.mark.parametrize("rule", vmfbs.RULES + ("domain",))
def test_grid_starting_at_zero_is_a_search_failure(rule):
    # the first grid point is 0.0, no step at all: the walk fails before
    # any trial, and its diagnostics carry the step sizes it was given
    with pytest.raises(vmfbs.SearchFailure,
                       match="grid point 0 underflows to 0.0, none accepted before it") as err:
        search(steep_quadratic_1d(), [1.0], rule, cfg(delta=0.9, theta=0.5),
               start=0.0, other=0.5)
    d = err.value.diagnostics
    assert d["rule"] == rule and d["trials"] == 0
    walks_gamma = rule in ("ls1", "ls3", "domain")
    assert (d["gamma_last"], d["lam_last"]) == ((0.0, 0.5) if walks_gamma else (0.5, 0.0))
    assert problems._CURRENT_WALK.get() is None


def test_ls1_reuses_fx_and_reports_f_next():
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls1", cfg(delta=0.9, theta=0.5, gamma_max=1.0))
    # f(x) is the caller's: one f evaluation per trial, none for x itself
    assert out.f_evals == out.backtracks + 1
    assert out.f_next == pytest.approx(prob.f.value(out.x_next))


# --- ls2: lambda backtracking, y fixed -------------------------------------

def test_ls2_steep_quadratic_pinned():
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls2", cfg(delta=0.9, theta=0.5), other=1.0)
    assert out.lam == 0.25 and out.backtracks == 2
    assert out.gamma == 1.0
    # y computed once: a single prox evaluation
    assert out.prox_evals == 1


def test_ls2_small_gamma_accepts_the_first_lam():
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls2", cfg(delta=0.9, theta=0.5), other=0.25)
    assert out.lam == 1.0 and out.backtracks == 0


def test_lam_walk_reuses_given_prox_point():
    prob = steep_quadratic_1d()
    x = np.array([1.0])
    y = np.array([-3.0])  # the prox point at gamma = 1
    out = line_search(prob, identity(), x, "ls2", cfg(delta=0.9, theta=0.5),
                      fx=prob.f.value(x), gx=0.0, grad=prob.f.gradient(x),
                      start=1.0, other=1.0, y=y)
    assert out.y is y and out.prox_evals == 0
    assert out.lam == 0.25 and out.backtracks == 2


# --- ls3: gamma backtracking on the gradient condition ---------------------

def test_ls3_steep_quadratic_pinned():
    # Lipschitz ratio condition: gamma <= 0.225, half of ls1's range
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls3", cfg(delta=0.9, theta=0.5, gamma_max=1.0))
    assert out.gamma == 0.125 and out.backtracks == 3
    # one gradient per trial
    assert out.grad_evals == 4


def test_ls3_gentle_quadratic():
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([0.0]))
    prob = vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1)
    out = search(prob, [1.0], "ls3", cfg(delta=0.9, theta=0.5, gamma_max=1.0))
    assert out.gamma == 0.5 and out.backtracks == 1


# --- ls4: Armijo on F with the ell slope -----------------------------------

def test_ls4_steep_quadratic_pinned():
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "ls4", cfg(delta=0.9, theta=0.5), other=1.0)
    assert out.lam == 0.25 and out.backtracks == 2
    assert out.ell == pytest.approx(-16.0)
    assert out.g_next == 0.0


def test_ls4_monotone_in_delta():
    # gamma = 0.6 puts the lambda threshold at delta/1.2: the grid
    # accepts 0.25 at delta=0.5 but 0.5 as delta approaches 1
    prob = steep_quadratic_1d()
    lo = search(prob, [1.0], "ls4", cfg(delta=0.5, theta=0.5), other=0.6)
    hi = search(prob, [1.0], "ls4", cfg(delta=0.99, theta=0.5), other=0.6)
    assert lo.lam == 0.25 and hi.lam == 0.5
    assert hi.lam > lo.lam


# --- Tseng-Yun -------------------------------------------------------------

def test_tseng_yun_pinned():
    prob = steep_quadratic_1d()
    out = search(prob, [1.0], "tseng-yun",
                 cfg(rule="tseng-yun", sigma=1.0, beta=0.5, theta=0.5),
                 other=1.0)
    assert out.lam == 0.25 and out.backtracks == 2


def test_tseng_yun_reduces_to_ls4(rng):
    # beta = 0 with sigma = 1 - delta makes the two conditions identical
    for _ in range(10):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        prob = vmfbs.CompositeProblem(
            f=vmfbs.PNormResidual(a, b), g=vmfbs.L1Norm(0.3), dimension=3
        )
        x = rng.standard_normal(3)
        delta = float(rng.uniform(0.1, 0.9))
        gamma = float(rng.uniform(0.2, 2.0))
        ls4 = search(prob, x, "ls4", cfg(delta=delta, theta=0.5), other=gamma)
        ty = search(prob, x, "tseng-yun",
                    cfg(rule="tseng-yun", sigma=1.0 - delta, beta=0.0, theta=0.5),
                    other=gamma)
        assert ty.lam == ls4.lam and ty.backtracks == ls4.backtracks
        assert np.array_equal(ty.x_next, ls4.x_next)


# --- domain search ------------------------------------------------------------

def kl_scalar():
    f = vmfbs.KLDivergence(np.array([[1.0]]), np.array([1.0]))
    return vmfbs.CompositeProblem(
        f=f, g=vmfbs.ZeroTerm(), dimension=1, domain_regime="general"
    )


def test_domain_search_pinned_kl_scalar():
    # grad at x=2 is 0.5, trial point 2 - 0.5 gamma: 8 and 4 leave the
    # open domain, 2 lands at 1
    prob = kl_scalar()
    out = search(prob, [2.0], "domain", cfg(gamma_max=8.0, theta=0.5))
    assert out.gamma == 2.0 and out.backtracks == 2
    assert out.prox_evals == 3 and out.f_evals == 0
    assert np.array_equal(out.y, [1.0])


def test_ls3_skips_trials_outside_the_domain():
    # ls3 takes no domain walk first: gamma = 8 and 4 put x_next outside
    # int dom f and are cut without a gradient, gamma = 2 lands at 1 and
    # fails the gradient test, gamma = 1 lands at 1.5 and is accepted
    prob = kl_scalar()
    out = search(prob, [2.0], "ls3", cfg(gamma_max=8.0, theta=0.5, delta=0.9))
    assert out.gamma == 1.0 and out.backtracks == 3
    assert out.prox_evals == 4 and out.grad_evals == 2 and out.f_evals == 1
    assert np.array_equal(out.x_next, [1.5])


def test_domain_search_already_feasible():
    prob = kl_scalar()
    out = search(prob, [2.0], "domain", cfg(gamma_max=0.5, theta=0.5))
    assert out.gamma == 0.5 and out.backtracks == 0


def test_domain_search_exhaustion_fails():
    # trial point 2 - 0.5 gamma stays infeasible for every gamma the
    # budget allows
    prob = kl_scalar()
    with pytest.raises(vmfbs.SearchFailure) as err:
        search(prob, [2.0], "domain", cfg(gamma_max=1e6, theta=0.5, max_backtracks=3))
    assert err.value.diagnostics["trials"] == 4
    assert err.value.diagnostics["rule"] == "domain"


# --- the lam walk's lifetime ---------------------------------------------------

@pytest.mark.parametrize("rule", vmfbs.RULES + ("domain",))
def test_no_walk_outlives_an_accepted_search(rule):
    # a lam walk is current only inside line_search: a term queried after
    # the call must not see its trial state
    search(steep_quadratic_1d(), [1.0], rule, cfg(delta=0.9, theta=0.5))
    assert problems._CURRENT_WALK.get() is None


@pytest.mark.parametrize("rule", ["ls2", "ls4", "tseng-yun"])
def test_no_walk_outlives_a_failed_search(rule):
    # the walk accepts lam = 0.25 after two cuts, beyond a budget of one
    with pytest.raises(vmfbs.SearchFailure):
        search(steep_quadratic_1d(), [1.0], rule,
               cfg(delta=0.9, theta=0.5, max_backtracks=1))
    assert problems._CURRENT_WALK.get() is None


# --- the finished step ----------------------------------------------------------

@pytest.mark.parametrize("rule", vmfbs.RULES + ("domain",))
def test_accepted_step_carries_f_and_g_at_x_next(rng, rule):
    # every rule hands back f(x_next) and g(x_next); ls3 and the fixed step
    # do not test f at x_next, so the walk evaluates it on acceptance and
    # counts that call; the domain walk forms no x_next
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(rng.standard_normal((8, 5)), rng.standard_normal(8)),
        g=vmfbs.L1Norm(0.3),
        dimension=5,
    )
    if rule == "fixed":
        c, other = cfg(rule="fixed", fixed_gamma=0.05, fixed_lam=0.5), 0.05
    else:
        c, other = cfg(gamma_max=4.0), 1.0
    out = search(prob, rng.standard_normal(5), rule, c, other=other)
    if rule == "domain":
        assert np.isnan(out.f_next) and np.isnan(out.g_next) and out.f_evals == 0
        return
    assert out.f_next == prob.f.value(out.x_next)
    assert out.g_next == prob.g.value(out.x_next) and out.g_next > 0
    assert out.f_evals == (1 if rule in ("ls3", "fixed") else out.backtracks + 1)


# --- shared invariants -------------------------------------------------------

def test_step_norm_monotone_in_gamma(rng):
    # ||J(gamma1) - x|| <= ||J(gamma2) - x|| <= (gamma2/gamma1) ||J(gamma1) - x||
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(rng.standard_normal((6, 4)), rng.standard_normal(6)),
        g=vmfbs.L1Norm(0.5),
        dimension=4,
    )
    m = identity(4)
    for _ in range(25):
        x = rng.standard_normal(4)
        g1, g2 = sorted(rng.uniform(0.05, 3.0, size=2))
        y1, _ = trial(prob, m, x, g1, 1.0)
        y2, _ = trial(prob, m, x, g2, 1.0)
        n1 = np.linalg.norm(y1 - x)
        n2 = np.linalg.norm(y2 - x)
        assert n1 <= n2 + 1e-12
        assert n2 <= (g2 / g1) * n1 + 1e-12


def test_accepted_points_sit_on_grid():
    prob = steep_quadratic_1d()
    c = cfg(delta=0.37, theta=0.5, gamma_max=1.3)
    out = search(prob, [0.7], "ls1", c)
    assert out.gamma == 1.3 * 0.5**out.backtracks


def test_descent_inequality_at_accepted_y(rng):
    prob = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(rng.standard_normal((8, 5)), rng.standard_normal(8)),
        g=vmfbs.L1Norm(0.2),
        dimension=5,
    )
    for _ in range(20):
        x = rng.standard_normal(5)
        out = search(prob, x, "ls1", cfg(delta=0.6, theta=0.5, gamma_max=2.0))
        dy = out.y - x
        ell = prob.g.value(out.y) - prob.g.value(x) + float(dy @ prob.f.gradient(x))
        assert ell <= -np.dot(dy, dy) / out.gamma + 1e-10
