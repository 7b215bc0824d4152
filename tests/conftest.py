import numpy as np
import pytest

import vmfbs

# filled by test_acceptance.record(); echoed after the test summary so the
# per-criterion verdict lines survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20160114)


def lasso_1d():
    """f = 0.5 (x-3)^2, g = |x|; minimizer 2, F* = 2.5."""
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([3.0]))
    return vmfbs.CompositeProblem(f=f, g=vmfbs.L1Norm(1.0), dimension=1)


def steep_quadratic_1d():
    """f = 2 x^2 (L = 4), pure smooth; the stepsize-floor workhorse."""
    f = vmfbs.PNormResidual(np.array([[2.0]]), np.array([0.0]))
    return vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1)


def random_lasso(rng, m=12, n=8, weight=0.1):
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    f = vmfbs.PNormResidual(a, b)
    return vmfbs.CompositeProblem(f=f, g=vmfbs.L1Norm(weight), dimension=n)


def random_kl(rng, m=6, n=4):
    a = np.abs(rng.standard_normal((m, n))) + 0.1
    x_true = np.abs(rng.standard_normal(n)) + 0.5
    b = a @ x_true
    f = vmfbs.KLDivergence(a, b)
    g = vmfbs.BoxIndicator(0.0, np.inf)
    return vmfbs.CompositeProblem(f=f, g=g, dimension=n, domain_regime="general")


RULE_CYCLE = ["ls1", "ls2", "ls3", "ls4", "tseng-yun", "fixed"]
SIZE_CYCLE = [4, 9, 16, 30, 50]


def batch_instance(i):
    """Deterministic instance i of the 200-run grid.

    The three cycles are coprime in period so every smooth/regularizer/
    rule combination occurs; "fixed" needs a global Lipschitz constant
    and the standard regime, so it falls back to ls1 elsewhere.
    """
    rng = np.random.default_rng(20160114 + i)
    n = SIZE_CYCLE[i % len(SIZE_CYCLE)]
    smooth_kind = ("quadratic", "l4", "kl")[(i // 6) % 3]
    reg_kind = ("l1", "box", "tv")[(i // 18) % 3]
    rule = RULE_CYCLE[i % 6]
    m = n + 5
    if smooth_kind == "kl":
        a = np.abs(rng.standard_normal((m, n))) + 0.1
        x_true = np.abs(rng.standard_normal(n)) + 0.5
        f = vmfbs.KLDivergence(a, a @ x_true)
        regime = "general"
        x0 = np.ones(n)
    else:
        a = rng.standard_normal((m, n)) / np.sqrt(n)
        b = rng.standard_normal(m)
        f = vmfbs.PNormResidual(a, b, p=2.0 if smooth_kind == "quadratic" else 4.0)
        regime = "standard"
        x0 = np.zeros(n)
    if reg_kind == "l1":
        g = vmfbs.L1Norm(0.1)
    elif reg_kind == "box":
        g = vmfbs.BoxIndicator(0.0, 2.0) if smooth_kind == "kl" else vmfbs.BoxIndicator(-1.0, 1.0)
    else:
        g = vmfbs.Tv1dNorm(0.2)
    if rule == "fixed" and smooth_kind != "quadratic":
        rule = "ls1"
    prob = vmfbs.CompositeProblem(f=f, g=g, dimension=n, domain_regime=regime)
    return prob, x0, rule, smooth_kind, reg_kind


def assert_same_run(res, ref):
    """``res`` is ``ref`` bit for bit: termination, every trace column,
    the final point and value, the oracle counters and the states."""
    assert res.termination == ref.termination
    assert len(res.trace) == len(ref.trace) > 0
    for name in vmfbs.Trace.COLUMNS:
        assert getattr(res.trace, name).tobytes() == getattr(ref.trace, name).tobytes(), name
    assert res.x_final.tobytes() == ref.x_final.tobytes()
    assert np.float64(res.F_final).tobytes() == np.float64(ref.F_final).tobytes()
    assert (res.f_evals, res.grad_evals, res.prox_evals) == (
        ref.f_evals, ref.grad_evals, ref.prox_evals)
    if ref.states is None:
        assert res.states is None
    else:
        for name in ("xs", "ys", "weights"):
            assert getattr(res.states, name).tobytes() == getattr(ref.states, name).tobytes()


class Delegating(vmfbs.SmoothTerm):
    """Passes ``value``, ``gradient`` and ``in_domain`` on, and nothing else."""

    def __init__(self, f):
        self._f = f
        self.lower_bound = f.lower_bound

    @property
    def lipschitz_bound(self):
        return self._f.lipschitz_bound

    def value(self, x):
        return self._f.value(x)

    def gradient(self, x):
        return self._f.gradient(x)

    def in_domain(self, x):
        return self._f.in_domain(x)
