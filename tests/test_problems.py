import numpy as np
import pytest

import vmfbs
from vmfbs.problems import as_vector

from conftest import random_kl


def test_as_vector_accepts_scalars_and_lists():
    v = as_vector(3.0)
    assert v.shape == (1,) and v.dtype == np.float64
    v = as_vector([1, 2, 3], dim=3)
    assert v.shape == (3,)


def test_as_vector_rejects_bad_inputs():
    with pytest.raises(vmfbs.UsageError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(vmfbs.UsageError):
        as_vector([1.0, np.nan])
    with pytest.raises(vmfbs.UsageError):
        as_vector([1.0, 2.0], dim=3)


def test_composite_problem_validates_regime():
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(vmfbs.UsageError):
        vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=1, domain_regime="open")


def test_composite_problem_validates_dimension():
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(vmfbs.UsageError):
        vmfbs.CompositeProblem(f=f, g=vmfbs.ZeroTerm(), dimension=0)


def test_kl_gradient_outside_domain_raises():
    prob = random_kl(np.random.default_rng(3))
    bad = -np.ones(prob.dimension)
    assert not prob.f.in_domain(bad)
    with pytest.raises(vmfbs.DomainError):
        prob.f.gradient(bad)


def test_exception_hierarchy():
    # callers filter on ValueError vs RuntimeError, keep that split stable
    assert issubclass(vmfbs.UsageError, ValueError)
    assert issubclass(vmfbs.Unsupported, ValueError)
    assert issubclass(vmfbs.DomainError, RuntimeError)
    assert issubclass(vmfbs.SearchFailure, RuntimeError)


def test_search_failure_carries_diagnostics():
    err = vmfbs.SearchFailure("no step", diagnostics={"rule": "ls1", "trials": 61})
    assert err.diagnostics["trials"] == 61
