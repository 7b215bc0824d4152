"""Reuse of images Ax inside the composite smooth terms.

The terms remember the image and gradient of the last point queried.
A lam walk (ls2, ls4, tseng-yun) is current while ``line_search`` runs
it, and the terms recognise its trial points: one product A dy per
walk, each trial at the image Ax + lam A dy, stored as the image of its
point. Every solve must match, bit for bit, a solve with a reference
term written in plain numpy: a fresh ``a @ x`` on every call, except
that it reads the current walk in the same way, keeps the current
iterate's image and takes one ``a @ dy`` per walk. The products saved
must show in the matvec counter. A wrapper that passes ``value``,
``gradient`` and ``in_domain`` on must solve bit for bit as the term it
wraps, with the same products.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

import vmfbs
from vmfbs import problems
from vmfbs.linesearch import line_search
from vmfbs.solver import solve

from conftest import Delegating, assert_same_run

BACKTRACKING = ("ls1", "ls2", "ls3", "ls4", "tseng-yun")
LAM_WALKS = ("ls2", "ls4", "tseng-yun")


class FreshTerm(vmfbs.SmoothTerm):
    """The lp residual or KL term in plain numpy, with no memo.

    Each call takes a fresh product ``a @ x``, except at the trial point
    of the current lam walk and at the last such point: there the image
    is the walk's Ax + lam A dy, with Ax and A dy taken once per walk,
    so the accepted trial of a lam walk, the next iterate, keeps the
    image its f-value came from.
    """

    lower_bound = 0.0

    def __init__(self, kind, a, b, p=2.0):
        self.kind = kind
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.p = float(p)
        self._lipschitz = vmfbs.LinearMap(a).operator_norm() ** 2
        self._walk = None  # (the current walk, its Ax, its A dy)
        self._segment = None  # (bytes of the last trial point, its image)

    @property
    def lipschitz_bound(self):
        return self._lipschitz if self.kind == "lp" and self.p == 2.0 else None

    def _image(self, x):
        walk = problems._CURRENT_WALK.get()
        if walk is not None and walk.point is x:
            if self._walk is None or self._walk[0] is not walk:
                self._walk = (walk, self._image(walk.x), self.a @ walk.dy)
            image = self._walk[1] + walk.lam * self._walk[2]
            self._segment = (x.tobytes(), image)
            return image
        x = np.asarray(x, dtype=float)
        if self._segment is not None and self._segment[0] == x.tobytes():
            return self._segment[1]
        return self.a @ x

    def _h(self, ax):
        if self.kind == "lp":
            r = ax - self.b
            return float(np.sum(np.abs(r) ** self.p) / self.p)
        if np.any(ax <= 0):
            return np.inf
        return float(np.sum(self.b * np.log(self.b / ax) + ax - self.b))

    def value(self, x):
        return self._h(self._image(x))

    def gradient(self, x):
        ax = self._image(x)
        if self.kind == "lp":
            r = ax - self.b
            return self.a.T @ (np.abs(r) ** (self.p - 1.0) * np.sign(r))
        if np.any(ax <= 0):
            raise vmfbs.UsageError("outside the KL domain")
        return self.a.T @ (1.0 - self.b / ax)

    def in_domain(self, x):
        if self.kind == "lp":
            return True
        return bool(np.all(self._image(x) > 0))


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


# --- the matvec count ----------------------------------------------------------

@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls4", "tseng-yun", "fixed"])
def test_one_matvec_per_oracle_call(rule):
    a, b = lasso_data(7)
    f = vmfbs.PNormResidual(a, b)
    config = vmfbs.SolverConfig(
        linesearch=search(rule, f.lipschitz_bound), max_iterations=400, tol_fixed_point=1e-8)
    res = solve(lasso(f, a.shape[1]), np.zeros(a.shape[1]), config)
    assert len(res.trace) > 250  # tseng-yun runs to the cap, the rest stop earlier
    if rule in LAM_WALKS:
        # f(x0), then per iteration one A dy for the whole walk and A^T for
        # each gradient: the trials' images are recombined, not products
        assert f.a.matvecs == 1 + len(res.trace) + res.grad_evals
        assert res.f_evals > len(res.trace) + 1  # the walks backtracked
    else:
        # the gradient at x_{k+1} reuses the image of its f-value: A^T only
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
    assert_same_run(*runs)


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
    assert_same_run(*runs)
    # the searches backtracked and tested the domain, so the memo saw misses
    assert runs[0].trace.backtracks.sum() > 0


# --- the base of a segment ----------------------------------------------------------

@contextlib.contextmanager
def lam_walk(x, dy):
    """What ``line_search`` does around a lam walk from x in the direction dy.

    The walk is current until the block ends; ``trial(f, lam)`` sets its
    trial point x + lam * dy and calls ``f.value`` there, returning
    ``(point, value)``.
    """
    walk = problems._Walk(x, dy)
    token = problems._CURRENT_WALK.set(walk)

    def trial(f, lam):
        point = x + lam * dy
        walk.lam, walk.point = lam, point
        return point, f.value(point)
    try:
        yield trial
    finally:
        problems._CURRENT_WALK.reset(token)


def test_segment_base_is_the_image_of_the_last_gradient():
    # x1 is the accepted point of one lam walk, so f(x1) and grad f(x1) come
    # from the recombined image; the domain test at y overwrites the memo,
    # as the general regime's domain walk does before the next lam walk.
    # That walk must start from the same image: at lam = 0 it gives f(x1)
    # bit for bit, where a fresh A x1 would move the last bits and turn a
    # tie at a fixed point into a failed search.
    rng = np.random.default_rng(5)
    a = np.abs(rng.standard_normal((8, 5))) + 0.1
    b = a @ (np.abs(rng.standard_normal(5)) + 0.5)
    f = vmfbs.KLDivergence(a, b)
    x0, dy = np.ones(5), 0.1 * rng.standard_normal(5)
    bits = lambda v: np.float64(v).tobytes()
    # the first trial of a halving walk whose value a fresh A x1 would change
    for lam in 0.5 ** np.arange(10):
        f.gradient(x0)
        with lam_walk(x0, dy) as trial:
            x1, f1 = trial(f, lam)
        if bits(vmfbs.KLDivergence(a, b).value(x1)) != bits(f1):
            break
    else:
        raise AssertionError("every trial's recombined value equals the fresh one")
    f.gradient(x1)
    y = x1 + 0.3 * np.abs(rng.standard_normal(5))
    assert f.in_domain(y)
    before = f.a.matvecs
    with lam_walk(x1, y - x1) as trial:
        point, value = trial(f, 0.0)
    assert f.a.matvecs == before + 1  # A dy alone
    assert point.tobytes() == x1.tobytes()
    assert bits(value) == bits(f1)


def test_walk_from_a_point_other_than_the_last_gradient_takes_its_own_image():
    # a gradient query at z moves the segment base off x, so a lam walk
    # from x takes A x afresh besides A dy; its steps match, bit for bit,
    # those of the walk that starts from the image of grad f(x)
    a, b = lasso_data(0)
    n = a.shape[1]
    x = np.ones(n)
    runs = []
    for detour in (False, True):
        f = vmfbs.PNormResidual(a, b)
        problem = lasso(f, n)
        fx, grad = f.value(x), f.gradient(x)
        if detour:
            f.gradient(x + 1.0)
        before = f.a.matvecs
        out = line_search(problem, np.ones(n), x, "ls2", vmfbs.LineSearchConfig(rule="ls2"),
                          fx=fx, gx=problem.g.value(x), grad=grad, start=1.0, other=2.0)
        runs.append((out, f.a.matvecs - before))
    (plain, plain_products), (detoured, detoured_products) = runs
    assert (plain.lam, plain.backtracks) == (detoured.lam, detoured.backtracks) == (0.125, 3)
    assert plain.gamma == detoured.gamma
    assert plain.x_next.tobytes() == detoured.x_next.tobytes()
    assert np.float64(plain.f_next).tobytes() == np.float64(detoured.f_next).tobytes()
    assert (plain_products, detoured_products) == (1, 2)


# --- a term behind a delegating wrapper -----------------------------------------

@pytest.mark.parametrize("rule", BACKTRACKING + ("fixed",))
def test_wrapped_term_solves_bitwise_as_the_term(rule):
    # the walk is current while the wrapper passes each trial's value on:
    # the term recombines the same images, with the same products, as
    # when the solver holds it directly
    a, b = lasso_data(11)
    n = a.shape[1]
    runs, matvecs = [], []
    for wrap in (lambda f: f, Delegating):
        f = vmfbs.PNormResidual(a, b)
        config = vmfbs.SolverConfig(
            linesearch=search(rule, f.lipschitz_bound), max_iterations=300,
            tol_fixed_point=1e-9, record_states=True)
        runs.append(solve(lasso(wrap(f), n), np.zeros(n), config))
        matvecs.append(f.a.matvecs)
    assert_same_run(*runs)
    assert matvecs[0] == matvecs[1]


@pytest.mark.parametrize("rule", LAM_WALKS)
def test_wrapped_kl_general_regime_solves_bitwise_as_the_term(rule):
    rng = np.random.default_rng(5)
    m, n = 8, 5
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    b = a @ (np.abs(rng.standard_normal(n)) + 0.5)
    runs, matvecs = [], []
    for wrap in (lambda f: f, Delegating):
        f = vmfbs.KLDivergence(a, b)
        problem = vmfbs.CompositeProblem(
            f=wrap(f), g=vmfbs.BoxIndicator(0.0, np.inf), dimension=n, domain_regime="general")
        config = vmfbs.SolverConfig(
            linesearch=vmfbs.LineSearchConfig(rule=rule, gamma_max=8.0),
            metrics=vmfbs.bb_schedule(n, nu=0.25, mu=4.0),
            max_iterations=300, tol_fixed_point=1e-7, record_states=True)
        runs.append(solve(problem, np.ones(n), config))
        matvecs.append(f.a.matvecs)
    assert_same_run(*runs)
    assert matvecs[0] == matvecs[1]


def test_walk_is_seen_only_at_its_trial_point():
    # the walk stays current for the whole search, but only its trial
    # point recombines: a query at another point of the segment is a
    # fresh product
    a, b = lasso_data(3)
    f = vmfbs.PNormResidual(a, b)
    x, dy = np.ones(a.shape[1]), np.linspace(-1.0, 1.0, a.shape[1])
    f.gradient(x)
    bits = lambda v: np.float64(v).tobytes()
    with lam_walk(x, dy) as trial:
        before = f.a.matvecs
        trial(f, 0.5)
        assert f.a.matvecs == before + 1  # A dy alone
        other = x + 0.25 * dy
        assert bits(f.value(other)) == bits(vmfbs.PNormResidual(a, b).value(other))
        assert f.a.matvecs == before + 2


def test_concurrent_solves_each_see_their_own_walk():
    # the current walk is per thread: solves of separate terms running in
    # threads that switch every few microseconds give the sequential bits
    a, b = lasso_data(11)
    n = a.shape[1]

    def run():
        f = vmfbs.PNormResidual(a, b)
        config = vmfbs.SolverConfig(
            linesearch=search("ls2"), max_iterations=300, tol_fixed_point=1e-9)
        return solve(lasso(f, n), np.zeros(n), config)

    ref = run()
    results = [None] * 4

    def work(i):
        results[i] = run()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for res in results:
        assert res.x_final.tobytes() == ref.x_final.tobytes()
        assert res.trace.F.tobytes() == ref.trace.F.tobytes()
