"""Reuse of the last image Ax inside the composite smooth terms.

The terms remember the image and gradient of the last point queried. A
reused image is the product a fresh call would compute, so every solve
must match, bit for bit, a solve with a reference term that takes a
fresh ``a @ x`` on every call; and the products saved must show in the
matvec counter.
"""

import numpy as np
import pytest

import vmfbs
from vmfbs.solver import IterateTrace, solve

BACKTRACKING = ("ls1", "ls2", "ls3", "ls4", "tseng-yun")


class FreshTerm(vmfbs.SmoothTerm):
    """The lp residual or KL term, a fresh product on every call, no memo."""

    lower_bound = 0.0

    def __init__(self, kind, a, b, p=2.0):
        self.kind = kind
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.p = float(p)
        self._lipschitz = vmfbs.LinearMap(a).operator_norm() ** 2

    @property
    def lipschitz_bound(self):
        return self._lipschitz if self.kind == "lp" and self.p == 2.0 else None

    def value(self, x):
        ax = self.a @ np.asarray(x, dtype=float)
        if self.kind == "lp":
            r = ax - self.b
            return float(np.sum(np.abs(r) ** self.p) / self.p)
        if np.any(ax <= 0):
            return np.inf
        return float(np.sum(self.b * np.log(self.b / ax) + ax - self.b))

    def gradient(self, x):
        ax = self.a @ np.asarray(x, dtype=float)
        if self.kind == "lp":
            r = ax - self.b
            return self.a.T @ (np.abs(r) ** (self.p - 1.0) * np.sign(r))
        if np.any(ax <= 0):
            raise vmfbs.UsageError("outside the KL domain")
        return self.a.T @ (1.0 - self.b / ax)

    def in_domain(self, x):
        if self.kind == "lp":
            return True
        return bool(np.all(self.a @ np.asarray(x, dtype=float) > 0))


def lasso(f, n):
    return vmfbs.CompositeProblem(f=f, g=vmfbs.L1Norm(0.1), dimension=n)


def lasso_data(seed, m=30, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) / np.sqrt(n), rng.standard_normal(m)


def search(rule, lipschitz=None):
    if rule == "tseng-yun":
        return vmfbs.LineSearchConfig(rule=rule, sigma=0.5, beta=0.5, warm_start=True)
    if rule == "fixed":
        return vmfbs.LineSearchConfig(rule=rule, fixed_gamma=1.9 / lipschitz, fixed_lam=1.0)
    return vmfbs.LineSearchConfig(rule=rule, warm_start=True)


def assert_bitwise_equal(res, ref):
    assert res.termination == ref.termination
    assert len(res.trace) == len(ref.trace) > 0
    for name in IterateTrace._fields:
        assert res.trace.column(name).tobytes() == ref.trace.column(name).tobytes(), name
    assert res.x_final.tobytes() == ref.x_final.tobytes()
    assert np.float64(res.F_final).tobytes() == np.float64(ref.F_final).tobytes()
    assert (res.f_evals, res.grad_evals, res.prox_evals) == (
        ref.f_evals, ref.grad_evals, ref.prox_evals)
    if ref.states is None:
        assert res.states is None
    else:
        for name in ("xs", "ys", "weights"):
            assert getattr(res.states, name).tobytes() == getattr(ref.states, name).tobytes()


# --- the matvec count ----------------------------------------------------------

@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls4", "tseng-yun", "fixed"])
def test_one_matvec_per_oracle_call(rule):
    # the gradient at x_{k+1} reuses the image of its f-value: A^T only
    a, b = lasso_data(7)
    f = vmfbs.PNormResidual(a, b)
    config = vmfbs.SolverConfig(
        linesearch=search(rule, f.lipschitz_bound), max_iterations=400, tol_fixed_point=1e-8)
    res = solve(lasso(f, a.shape[1]), np.zeros(a.shape[1]), config)
    assert len(res.trace) > 250  # tseng-yun runs to the cap, the rest stop earlier
    assert f.a.matvecs == res.f_evals + res.grad_evals


def test_ls3_matvec_count_pinned():
    # each trial pays A x and A^T r for its gradient; the f-value at the
    # accepted trial and the next iteration's gradient reuse both
    a, b = lasso_data(7)
    f = vmfbs.PNormResidual(a, b)
    config = vmfbs.SolverConfig(
        linesearch=search("ls3"), max_iterations=400, tol_fixed_point=1e-8)
    res = solve(lasso(f, a.shape[1]), np.zeros(a.shape[1]), config)
    assert res.termination == "fixed_point"
    iterations = len(res.trace)
    trial_grads = res.grad_evals - iterations
    assert f.a.matvecs == 2 + 2 * trial_grads
    assert (iterations, res.f_evals, res.grad_evals, f.a.matvecs) == (270, 271, 731, 924)


# --- differential: memo against fresh products ------------------------------------

# the fixed step needs a global Lipschitz constant, which exists only at p = 2
@pytest.mark.parametrize(
    "rule,p", [(r, p) for p in (2.0, 4.0) for r in BACKTRACKING] + [("fixed", 2.0)])
def test_lasso_bitwise_equal_to_fresh_products(rule, p):
    a, b = lasso_data(11)
    n = a.shape[1]
    runs = []
    for f in (vmfbs.PNormResidual(a, b, p=p), FreshTerm("lp", a, b, p=p)):
        config = vmfbs.SolverConfig(
            linesearch=search(rule, f.lipschitz_bound), max_iterations=300,
            tol_fixed_point=1e-9, record_states=True)
        runs.append(solve(lasso(f, n), np.zeros(n), config))
    assert_bitwise_equal(*runs)


@pytest.mark.parametrize("rule", ["ls1", "ls3", "ls4"])
def test_kl_general_regime_bitwise_equal_to_fresh_products(rule):
    rng = np.random.default_rng(5)
    m, n = 8, 5
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    b = a @ (np.abs(rng.standard_normal(n)) + 0.5)
    runs = []
    for f in (vmfbs.KLDivergence(a, b), FreshTerm("kl", a, b)):
        problem = vmfbs.CompositeProblem(
            f=f, g=vmfbs.BoxIndicator(0.0, np.inf), dimension=n, domain_regime="general")
        config = vmfbs.SolverConfig(
            linesearch=vmfbs.LineSearchConfig(rule=rule, gamma_max=8.0),
            metrics=vmfbs.bb_schedule(n, nu=0.25, mu=4.0),
            max_iterations=300, tol_fixed_point=1e-7, record_states=True)
        runs.append(solve(problem, np.ones(n), config))
    assert_bitwise_equal(*runs)
    # the searches backtracked and tested the domain, so the memo saw misses
    assert runs[0].trace.backtracks.sum() > 0
