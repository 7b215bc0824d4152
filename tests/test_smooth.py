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



# --- the ingest: a private copy without subnormal entries ---------------

TINY = np.finfo(float).tiny
BLOCK = vmfbs.smooth._INGEST_BLOCK


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _subnormal(a):
    return (a != 0.0) & (np.abs(a) < TINY)


def _three_block_matrix(rng):
    # 300 x 700 = 210000 entries: three full ingest blocks and a partial one
    a = rng.standard_normal((300, 700))
    assert BLOCK < a.size - BLOCK and a.size % BLOCK
    return a


def test_ingest_keeps_a_normal_matrix_bitwise(rng):
    a = _three_block_matrix(rng)
    a[0, :5] = 0.0
    a[1, :5] = -0.0
    for src in (a, np.asfortranarray(a), a[::2, 1::3], np.asfortranarray(a)[1::2, ::-1]):
        stored = vmfbs.LinearMap(src).a
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert stored.shape == src.shape
        assert np.array_equal(_bits(stored), _bits(src))


def test_ingest_flushes_subnormals_to_positive_zero(rng):
    a = _three_block_matrix(rng)
    flat = a.reshape(-1)
    for i in (0, 7, BLOCK - 1, BLOCK, 2 * BLOCK + 3, a.size - 1):
        flat[i] = 3e-310 if i % 2 else -5e-320
    flat[[11, BLOCK + 1]] = -0.0
    flat[[12, a.size - 2]] = 0.0
    flat[13] = TINY  # the smallest normal number stays
    flat[14] = -TINY
    raw = a.copy()
    for src in (a, np.asfortranarray(a)):
        stored = vmfbs.LinearMap(src).a
        sub = _subnormal(raw)
        assert sub.sum() == 6
        assert np.array_equal(_bits(stored)[sub], np.zeros(6, dtype=np.int64))  # +0.0
        assert np.array_equal(_bits(stored)[~sub], _bits(raw)[~sub])  # -0.0 kept
        assert not _subnormal(stored).any()
    assert np.array_equal(_bits(a), _bits(raw))  # the caller's array is not written


@pytest.mark.parametrize("where", ["first", "last", "boundary_before", "boundary_after"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ingest_refuses_non_finite_in_any_block(rng, where, value):
    a = _three_block_matrix(rng)
    i = {"first": 0, "last": a.size - 1, "boundary_before": BLOCK - 1, "boundary_after": BLOCK}[where]
    a.reshape(-1)[i] = value
    with pytest.raises(vmfbs.ConfigurationError, match="non-finite"):
        vmfbs.LinearMap(a)
    with pytest.raises(vmfbs.ConfigurationError, match="non-finite"):
        vmfbs.LinearMap(np.asfortranarray(a))


def test_ingest_refuses_rows_and_columns_it_would_empty(rng):
    with pytest.raises(vmfbs.ConfigurationError, match="row 0 .*subnormal"):
        vmfbs.LinearMap(np.full((3, 4), 1e-310))
    a = rng.standard_normal((5, 6))
    a[3] = [0.0, 1e-310, -2e-315, 0.0, -0.0, 4e-320]
    with pytest.raises(vmfbs.ConfigurationError, match="row 3 "):
        vmfbs.LinearMap(a)
    a = rng.standard_normal((5, 6))
    a[:, 4] = [1e-310, 0.0, 1e-310, -1e-312, 5e-324]
    with pytest.raises(vmfbs.ConfigurationError, match="column 4 "):
        vmfbs.LinearMap(a)
    # a row that was zero all along is not the flush's doing, and a row
    # with one normal entry survives
    a = rng.standard_normal((5, 6))
    a[0] = 0.0
    a[2] = [1e-310, TINY, 0.0, 0.0, 0.0, 0.0]
    stored = vmfbs.LinearMap(a).a
    assert not stored[0].any() and stored[2, 1] == TINY and stored[2, 0] == 0.0


def test_ingest_moves_products_by_at_most_tiny_times_l1(rng):
    # entries from 1e-312 to 1e-300, about a quarter subnormal, so the
    # flush shows in the products
    a = rng.standard_normal((40, 50)) * 10.0 ** rng.uniform(-312, -300, (40, 50))
    assert _subnormal(a).mean() > 0.1
    m = vmfbs.LinearMap(a)
    moved = 0.0
    for _ in range(20):
        x = rng.standard_normal(50)
        r = rng.standard_normal(40)
        dx = np.abs(m.apply(x) - a @ x)
        dr = np.abs(m.adjoint(r) - a.T @ r)
        assert dx.max() <= TINY * np.abs(x).sum()
        assert dr.max() <= TINY * np.abs(r).sum()
        moved = max(moved, dx.max(), dr.max())
    assert moved > 0.0


def test_ingest_copy_is_independent_of_the_caller(rng):
    a = rng.standard_normal((6, 4))
    m = vmfbs.LinearMap(a)
    x = rng.standard_normal(4)
    r = rng.standard_normal(6)
    before = m.apply(x), m.adjoint(r)
    a[:] = 7.0
    assert m.apply(x).tobytes() == before[0].tobytes()
    assert m.adjoint(r).tobytes() == before[1].tobytes()


def _blur(n, width):
    i = np.arange(n)
    k = np.exp(-0.5 * ((i[:, None] - i[None, :]) / width) ** 2)
    return k / k.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("rule", ["ls1", "ls4"])
def test_ingest_leaves_a_blurred_tv_solve_bitwise(rng, rule):
    # the Gaussian tail between |i - j| = 113 and 116 is subnormal; a map
    # whose matrix is set back to the raw one must give the same trace
    n = 200
    k = _blur(n, 3.0)
    signal = np.repeat(rng.uniform(-1.0, 1.0, 8), n // 8)
    b = k @ signal + 0.1 * rng.standard_normal(n)
    flushed = vmfbs.LinearMap(k)
    raw = vmfbs.LinearMap(k)
    raw.a = k.copy()
    raw.a.flags.writeable = False
    assert _subnormal(raw.a).sum() > 0 and not _subnormal(flushed.a).any()
    config = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, warm_start=True),
        max_iterations=400,
    )
    results = [
        vmfbs.solve(
            vmfbs.CompositeProblem(
                f=vmfbs.PNormResidual(m, b), g=vmfbs.Tv1dNorm(0.05), dimension=n
            ),
            np.zeros(n),
            config,
        )
        for m in (flushed, raw)
    ]
    got, want = results
    assert len(got.trace) == len(want.trace) > 10
    for name in vmfbs.IterateTrace._fields:
        assert got.trace.column(name).tobytes() == want.trace.column(name).tobytes(), name
    assert got.x_final.tobytes() == want.x_final.tobytes()
    assert np.float64(got.F_final).tobytes() == np.float64(want.F_final).tobytes()
    assert flushed.matvecs == raw.matvecs


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
