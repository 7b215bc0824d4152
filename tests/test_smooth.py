import numpy as np
import pytest

import vmfbs
from oracles import fd_gradient, operator_norm_reference, opnorm_oracle


# --- linear maps and the operator-norm certificate ----------------------

def test_linear_map_apply_adjoint():
    a = vmfbs.LinearMap(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(a.apply(np.array([1.0, 1.0])), [3.0, 1.0])
    assert np.array_equal(a.adjoint(np.array([1.0, 1.0])), [1.0, 3.0])
    assert a.shape == (2, 2)


def test_linear_map_counts_products():
    a = vmfbs.LinearMap(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert a.matvecs == 0
    a.apply(np.ones(2))
    a.adjoint(np.ones(2))
    a.apply(np.ones(2))
    assert a.matvecs == 3
    a.operator_norm()  # the power iteration is not counted
    assert a.matvecs == 3


def test_linear_map_validates_input():
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.LinearMap(np.array([1.0, 2.0]))
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.LinearMap(np.array([[np.inf, 0.0]]))


def test_operator_norm_pinned_matrix():
    a = vmfbs.LinearMap(np.array([[1.0, 2.0], [0.0, 1.0], [-1.0, 0.5]]))
    # largest singular value from a dense SVD
    assert a.operator_norm() == pytest.approx(2.4158799124996397, rel=1e-12)


def test_operator_norm_diagonal():
    a = vmfbs.LinearMap(np.diag([1.0, 3.0]))
    assert a.operator_norm() == pytest.approx(3.0, rel=1e-13)


def test_operator_norm_zero_matrix():
    assert vmfbs.LinearMap(np.zeros((3, 2))).operator_norm() == 0.0


def _ramp_null_matrix():
    # rows orthogonal to the normalized ramp start vector v0, so A v0 = 0
    n = 4
    v = np.ones(n) + np.linspace(0.0, 0.1, n)
    v /= np.linalg.norm(v)
    a = np.zeros((2, n))
    a[0, 0], a[0, 1] = v[1], -v[0]
    a[1, 2], a[1, 3] = 0.5 * v[3], -0.5 * v[2]
    return a, v


def test_operator_norm_rank_one_row():
    a = vmfbs.LinearMap(np.array([[0.0, 0.0], [0.0, 5.0]]))
    assert a.operator_norm() == pytest.approx(5.0, rel=1e-13)


def test_operator_norm_start_in_null_space():
    # start-vector fallback: power iteration must survive A^T A v0 = 0
    a, v0 = _ramp_null_matrix()
    assert not (a.T @ (a @ v0)).any()
    assert vmfbs.LinearMap(a).operator_norm() == pytest.approx(opnorm_oracle(a), rel=1e-13)


def test_operator_norm_is_certified_lower_bound(rng):
    for _ in range(25):
        m, n = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        a = vmfbs.LinearMap(rng.standard_normal((m, n)))
        est = a.operator_norm()
        true = opnorm_oracle(a.a)
        assert est <= true * (1 + 1e-12)
        assert est >= true * (1 - 1e-8)


def test_operator_norm_matches_frozen_power_iteration(rng):
    mats = [
        _ramp_null_matrix()[0],
        np.zeros((3, 2)),
        np.eye(5),
        np.ones((4, 6)),
        rng.uniform(0.1, 1.0, (8, 5)),  # KL-shaped: positive entries
        np.array([[0.0, 0.0], [0.0, 5.0]]),
    ]
    mats += [rng.standard_normal((30, 20)) for _ in range(5)]
    for _ in range(60):
        mats.append(rng.standard_normal((int(rng.integers(1, 61)), int(rng.integers(1, 61)))))
    for a in mats:
        est = vmfbs.LinearMap(a).operator_norm()
        assert type(est) is float
        assert est == operator_norm_reference(a)


def test_operator_norm_cached():
    a = vmfbs.LinearMap(np.eye(4))
    assert a.operator_norm() is a.operator_norm() or a.operator_norm() == 1.0


# --- p-norm residual -----------------------------------------------------

def test_pnorm_value_quadratic():
    f = vmfbs.PNormResidual(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 0.0]))
    # 0.5 * ((x1-1)^2 + (2 x2)^2)
    assert f.value(np.array([2.0, 1.0])) == pytest.approx(2.5)
    assert np.allclose(f.gradient(np.array([2.0, 1.0])), [1.0, 4.0])


def test_pnorm_grad_matches_fd(rng):
    for p in (1.5, 2.0, 4.0):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        f = vmfbs.PNormResidual(a, b, p=p)
        for _ in range(10):
            x = rng.standard_normal(4)
            fd = fd_gradient(f.value, x)
            g = f.gradient(x)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_pnorm_rejects_bad_p():
    a = np.array([[1.0]])
    b = np.array([0.0])
    for p in (1.0, 0.5, np.inf):
        with pytest.raises(vmfbs.ConfigurationError):
            vmfbs.PNormResidual(a, b, p=p)


def test_pnorm_lipschitz_only_at_two():
    a = np.array([[1.0, 0.0], [0.0, 3.0]])
    b = np.zeros(2)
    assert vmfbs.PNormResidual(a, b, p=2.0).lipschitz_bound == pytest.approx(9.0, rel=1e-12)
    assert vmfbs.PNormResidual(a, b, p=4.0).lipschitz_bound is None


# --- KL divergence -------------------------------------------------------

def test_kl_pinned_value_and_gradient():
    a = np.array([[1.0, 1.0], [1.0, 2.0]])
    b = np.array([2.0, 3.0])
    f = vmfbs.KLDivergence(a, b)
    x = np.array([1.0, 0.5])  # Ax = (1.5, 2)
    assert f.value(x) == pytest.approx(0.2917594692280545, rel=1e-14)
    assert np.allclose(f.gradient(x), [-5.0 / 6.0, -4.0 / 3.0], rtol=1e-14)


def test_kl_zero_at_exact_fit():
    a = np.array([[1.0, 0.5], [0.25, 1.0]])
    x = np.array([1.0, 2.0])
    f = vmfbs.KLDivergence(a, a @ x)
    assert f.value(x) == pytest.approx(0.0, abs=1e-14)
    assert f.lower_bound == 0.0


def test_kl_value_inf_outside_domain():
    f = vmfbs.KLDivergence(np.array([[1.0]]), np.array([1.0]))
    assert f.value(np.array([-1.0])) == np.inf
    assert not f.in_domain(np.array([0.0]))
    assert f.in_domain(np.array([0.5]))


def test_kl_grad_matches_fd(rng):
    a = np.abs(rng.standard_normal((6, 4))) + 0.1
    b = np.abs(rng.standard_normal(6)) + 0.5
    f = vmfbs.KLDivergence(a, b)
    for _ in range(10):
        x = np.abs(rng.standard_normal(4)) + 0.5
        fd = fd_gradient(f.value, x)
        assert np.allclose(f.gradient(x), fd, rtol=1e-6, atol=1e-8)


def test_kl_validates_data():
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.KLDivergence(np.array([[-1.0]]), np.array([1.0]))  # negative matrix
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.KLDivergence(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))  # zero row
    with pytest.raises(vmfbs.ConfigurationError):
        vmfbs.KLDivergence(np.array([[1.0]]), np.array([0.0]))  # b must be positive



# --- the memo of the last point queried ------------------------------------

def test_memo_reuses_image_and_gradient():
    f = vmfbs.PNormResidual(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.ones(3))
    x = np.array([0.5, -1.0])
    v = f.value(x)
    g = f.gradient(x)
    assert f.a.matvecs == 2  # A x once, A^T r once
    assert f.value(x.copy()) == v
    assert np.array_equal(f.gradient(x.copy()), g)
    assert f.a.matvecs == 2


def test_memo_sees_in_place_change():
    f = vmfbs.PNormResidual(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    fresh = vmfbs.PNormResidual(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    x = np.array([1.0, 1.0])
    f.gradient(x)
    x[1] = -2.0
    assert f.value(x) == fresh.value(x.copy())
    assert np.array_equal(f.gradient(x), fresh.gradient(x.copy()))


def test_memo_gradient_is_a_copy():
    f = vmfbs.PNormResidual(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    x = np.array([1.0, 3.0])
    g = f.gradient(x)
    expected = g.copy()
    g[:] = 99.0
    assert np.array_equal(f.gradient(x), expected)


def test_memo_signed_zeros_are_distinct_points():
    # 0.0 == -0.0 numerically, but the points differ in their bytes; each
    # must pay its own products rather than reuse the other's
    f = vmfbs.PNormResidual(np.array([[1.0]]), np.array([1.0]), p=3.0)
    f.gradient(np.array([0.0]))
    f.gradient(np.array([-0.0]))
    assert f.a.matvecs == 4
    f.value(np.array([0.0]))
    assert f.a.matvecs == 5


def test_memo_kl_gradient_outside_domain_always_raises():
    f = vmfbs.KLDivergence(np.array([[1.0, 1.0]]), np.array([1.0]))
    bad = np.array([-1.0, 0.5])
    for _ in range(2):
        with pytest.raises(vmfbs.DomainError):
            f.gradient(bad)
    assert f.value(bad) == np.inf
    assert not f.in_domain(bad)
    with pytest.raises(vmfbs.DomainError):
        f.gradient(bad)
    assert f.a.matvecs == 1
