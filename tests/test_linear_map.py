"""The column-major storage of a large dense ``LinearMap``.

A dense matrix of at least ``_COLUMN_FLOOR`` bytes is stored F-ordered,
and ``apply(x)`` with at most n // ``_SPARSE_CUT`` nonzero entries in x
reads only their columns. Every check here runs on a matrix at the floor
(1024 x 1024 doubles, 8 MiB), handed over in C and in F layout, and
needs numpy alone.
"""

import math

import numpy as np
import pytest

import vmfbs
from vmfbs import smooth

TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps
SHAPE = (1024, 1024)
N = SHAPE[1]
CUT = N // smooth._SPARSE_CUT
CHUNK = smooth._COLUMN_CHUNK
TILE = (smooth._INGEST_ROWS, smooth._INGEST_BLOCK // smooth._INGEST_ROWS)


def test_the_floor_is_the_shape_used_here():
    assert 8 * SHAPE[0] * SHAPE[1] == smooth._COLUMN_FLOOR
    assert SHAPE[0] > TILE[0] and SHAPE[1] > TILE[1]  # several ingest blocks each way


@pytest.fixture(params=["C", "F"])
def layout(request):
    """Hands a matrix to ``LinearMap`` in the given memory order."""
    return np.ascontiguousarray if request.param == "C" else np.asfortranarray


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _matrix(rng, shape=SHAPE):
    return rng.standard_normal(shape) / np.sqrt(shape[1])


def _sparse(rng, k):
    x = np.zeros(N)
    x[rng.choice(N, size=k, replace=False)] = rng.standard_normal(k)
    return x


# --- the ingest -------------------------------------------------------------

def test_ingest_keeps_entries_and_flushes_subnormals(rng, layout):
    a = _matrix(rng)
    r, c = TILE
    # corners of the first and the last ingest block, and both sides of a
    # block edge in each direction
    spots = [(0, 0), (r - 1, c - 1), (r, c), (r - 1, c), (r, c - 1), (N - 1, N - 1)]
    for i, (row, col) in enumerate(spots):
        a[row, col] = 3e-310 if i % 2 else -5e-320
    a[1, 1] = a[r + 1, 2 * c] = -0.0
    a[2, 2] = a[N - 2, N - 3] = 0.0
    a[3, 3], a[4, 4] = TINY, -TINY  # the smallest normal numbers stay
    raw = a.copy()
    src = layout(a)
    stored = vmfbs.LinearMap(src).a
    sub = (raw != 0.0) & (np.abs(raw) < TINY)
    assert sub.sum() == len(spots)
    assert np.array_equal(_bits(stored)[sub], np.zeros(len(spots), dtype=np.int64))  # +0.0
    assert np.array_equal(_bits(stored)[~sub], _bits(raw)[~sub])  # -0.0 and the rest kept
    assert np.array_equal(_bits(src), _bits(raw))  # the caller's array is not written


def test_stored_matrix_is_column_major_and_read_only(rng, layout):
    a = _matrix(rng)
    m = vmfbs.LinearMap(layout(a))
    stored = m.a
    assert stored.flags.f_contiguous and not stored.flags.c_contiguous
    assert not stored.flags.writeable
    assert np.array_equal(_bits(stored), _bits(a))
    with pytest.raises(ValueError):
        stored[0, 0] = 1.0


@pytest.mark.parametrize("block", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ingest_refuses_non_finite_in_the_first_and_last_block(rng, layout, block, value):
    a = _matrix(rng)
    r, c = TILE
    # the block's corner that is read last: its final row and column
    spot = (r - 1, c - 1) if block == "first" else (N - 1, N - 1)
    a[spot] = value
    with pytest.raises(vmfbs.UsageError, match="non-finite"):
        vmfbs.LinearMap(layout(a))
    a = _matrix(rng)
    a[(0, 0) if block == "first" else (N - r, N - c)] = value
    with pytest.raises(vmfbs.UsageError, match="non-finite"):
        vmfbs.LinearMap(layout(a))


def test_ingest_refuses_a_row_or_column_it_would_empty(rng, layout):
    a = _matrix(rng)
    a[700] = 0.0
    a[700, [3, 900]] = [1e-310, -4e-320]
    with pytest.raises(vmfbs.UsageError, match="row 700 .*subnormal"):
        vmfbs.LinearMap(layout(a))
    a = _matrix(rng)
    a[:, 300] = 0.0
    a[[5, 1000], 300] = [-2e-315, 5e-324]
    with pytest.raises(vmfbs.UsageError, match="column 300 .*subnormal"):
        vmfbs.LinearMap(layout(a))
    # a column that was zero all along is not the flush's doing
    a = _matrix(rng)
    a[:, 300] = 0.0
    assert not vmfbs.LinearMap(layout(a)).a[:, 300].any()


# --- the products -----------------------------------------------------------

def test_apply_of_zeros_is_positive_zero(rng, layout):
    a = _matrix(rng)
    a[:, :8] = -0.0
    m = vmfbs.LinearMap(layout(a))
    assert np.array_equal(_bits(m.apply(np.zeros(N))), np.zeros(N, dtype=np.int64))
    assert m.matvecs == 1


@pytest.mark.parametrize("k", [CHUNK, CHUNK + 1, CUT, CUT + 1])
def test_apply_within_round_off_of_an_exact_sum(rng, layout, k):
    # k <= n // 4 reads the k columns in chunks of 64, k > n // 4 takes the
    # dense product: both stay within 2 k eps (|A| |x|)_i of the exact sum
    a = _matrix(rng)
    m = vmfbs.LinearMap(layout(a))
    x = _sparse(rng, k)
    y = m.apply(x)
    assert m.matvecs == 1
    cols = np.flatnonzero(x)
    exact = np.array([math.fsum(row) for row in a[:, cols] * x[cols]])
    bound = 2 * k * EPS * (np.abs(a) @ np.abs(x))
    assert (np.abs(y - exact) <= bound).all()
    assert np.abs(y - exact).max() > 0.0  # the check sees rounding at all


@pytest.mark.parametrize("k", [1, CHUNK + 1, CUT, CUT + 1])
def test_apply_sums_column_chunks_up_to_the_cutoff(rng, layout, k):
    # the reference loop: products of 64 columns at a time added into a
    # zeroed output up to n // 4 nonzero entries, the dense product past it
    m = vmfbs.LinearMap(layout(_matrix(rng)))
    stored = m.a
    x = _sparse(rng, k)
    if k <= CUT:
        s = np.flatnonzero(x)
        want = np.zeros(SHAPE[0])
        for i in range(0, k, CHUNK):
            want += stored[:, s[i : i + CHUNK]] @ x[s[i : i + CHUNK]]
    else:
        want = stored @ x
    assert m.apply(x).tobytes() == want.tobytes()


def test_apply_takes_a_list_and_a_matrix(rng, layout):
    # the column path reads vectors; a list is one, a matrix takes the dense product
    a = _matrix(rng)
    m = vmfbs.LinearMap(layout(a))
    x = _sparse(rng, 10)
    assert m.apply(x.tolist()).tobytes() == m.apply(x).tobytes()
    xs = np.stack([x, _sparse(rng, 10)], axis=1)
    assert m.apply(xs).tobytes() == (m.a @ xs).tobytes()


def test_adjoint_within_round_off_of_an_exact_sum(rng, layout):
    a = _matrix(rng)
    m = vmfbs.LinearMap(layout(a))
    r = rng.standard_normal(SHAPE[0])
    got = m.adjoint(r)
    assert m.matvecs == 1
    exact = np.array([math.fsum(col) for col in (a * r[:, None]).T])
    assert (np.abs(got - exact) <= 2 * SHAPE[0] * EPS * (np.abs(a).T @ np.abs(r))).all()


def test_banded_matrix_above_the_floor_keeps_its_band(layout):
    i = np.arange(N)
    a = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 3.0) ** 2)
    a[np.abs(i[:, None] - i[None, :]) > 40] = 0.0
    assert a.nbytes >= smooth._COLUMN_FLOOR
    m = vmfbs.LinearMap(layout(a))
    assert m._blocks is not None and m._a is None
    assert all(block.flags.c_contiguous for *_, block in m._blocks)
    assert np.array_equal(_bits(m.a), _bits(a))


def test_one_row_below_the_floor_stays_row_major(rng, layout):
    a = _matrix(rng, (SHAPE[0] - 1, N))
    assert a.nbytes < smooth._COLUMN_FLOOR
    m = vmfbs.LinearMap(layout(a))
    stored = m.a
    assert stored.flags.c_contiguous and not stored.flags.f_contiguous
    for x in (_sparse(rng, 10), _sparse(rng, CUT), rng.standard_normal(N)):
        assert m.apply(x).tobytes() == (stored @ x).tobytes()
    r = rng.standard_normal(SHAPE[0] - 1)
    assert m.adjoint(r).tobytes() == (stored.T @ r).tobytes()


# --- a solve ----------------------------------------------------------------

@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls3", "ls4", "tseng-yun"])
def test_l1_solve_makes_the_products_of_the_readme_table(rng, layout, rule):
    # per iteration with b backtracks: ls1 2 + b, ls3 2 + 2b, the lam walks
    # 2; beside them f(x0) takes A x0, and ls3 the gradient at x0 as well
    a = _matrix(rng)
    x_true = _sparse(rng, 10)
    b = a @ x_true + 0.01 * rng.standard_normal(SHAPE[0])
    m = vmfbs.LinearMap(layout(a))
    problem = vmfbs.CompositeProblem(
        f=vmfbs.PNormResidual(m, b), g=vmfbs.L1Norm(0.1), dimension=N)
    config = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, warm_start=True),
        max_iterations=25,
        tol_fixed_point=1e-6,
    )
    res = vmfbs.solve(problem, np.zeros(N), config)
    backtracks = np.asarray(res.trace.backtracks)
    per_iteration = {"ls1": 2 + backtracks, "ls3": 2 + 2 * backtracks}.get(
        rule, np.full(len(backtracks), 2))
    assert len(res.trace) >= 5
    assert m.matvecs == per_iteration.sum() + (2 if rule == "ls3" else 1)
    assert 0 < np.count_nonzero(res.x_final) <= CUT  # its products read columns
