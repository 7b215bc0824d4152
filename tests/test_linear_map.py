"""The column-major storage of a large dense ``LinearMap`` and its Gram cache.

A dense matrix of at least ``_COLUMN_FLOOR`` bytes is stored F-ordered,
and ``apply(x)`` with at most n // ``_SPARSE_CUT`` nonzero entries in x
is one product with the gathered columns of x's support. On such a map
the p = 2 residual takes its gradient at a point with at most
n // ``_GRAM_CUT`` nonzero entries from cached columns of A^T A. The map
keeps the last support that either read, its active block, with the
gathered columns of A (up to n // ``_SPARSE_CUT`` entries) and of A^T A
(up to n // ``_GRAM_CUT``). Every check here needs numpy alone. All but
the whole-solve test at the end run on a matrix at the floor (1024 x
1024 doubles, 8 MiB), handed over in C and in F layout where the layout
could matter; that test lowers the floor to 0, so that small maps take
the column path.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vmfbs
from vmfbs import linear_map

TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps
SHAPE = (1024, 1024)
N = SHAPE[1]
CUT = N // linear_map._SPARSE_CUT
GRAM_CUT = N // linear_map._GRAM_CUT
TILE = (linear_map._INGEST_ROWS, linear_map._INGEST_BLOCK // linear_map._INGEST_ROWS)


def test_the_floor_is_the_shape_used_here():
    assert 8 * SHAPE[0] * SHAPE[1] == linear_map._COLUMN_FLOOR
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


def _on(cols, rng):
    """A point whose nonzero entries are exactly those of ``cols``."""
    y = np.zeros(N)
    y[cols] = rng.standard_normal(len(cols))
    return y


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


@pytest.mark.parametrize("k", [64, 65, GRAM_CUT, CUT, CUT + 1])
def test_apply_within_round_off_of_an_exact_sum(rng, layout, k):
    # k <= n // 4 is one product with the k gathered columns, k > n // 4
    # the dense product: both stay within 2 k eps (|A| |x|)_i of the exact sum
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


@pytest.mark.parametrize("k", [1, 64, 65, GRAM_CUT, GRAM_CUT + 1, CUT, CUT + 1])
def test_apply_sums_column_chunks_up_to_the_cutoff(rng, layout, k):
    # the support is one chunk, A[:, S] @ x_S, up to n // 4 nonzero entries,
    # the dense product past it; a second point on the same support reads the
    # active block's columns and keeps the bits of the reference; a support
    # past n // 4 leaves the block of the last smaller one as it was
    m = vmfbs.LinearMap(layout(_matrix(rng)))
    stored = m.a
    m.apply(_sparse(rng, 3))
    block, kept = m._block, m._block[1]
    x = _sparse(rng, k)
    s = np.flatnonzero(x)
    for i, y in enumerate((x, _on(s, rng))):
        want = stored[:, s] @ y[s] if k <= CUT else stored @ y
        assert m.apply(y).tobytes() == want.tobytes()
        if k > CUT:
            assert m._block is block and block[1] is kept  # neither replaced nor emptied
        elif i == 0:
            gathered = m._block[1]
            assert np.array_equal(_bits(gathered), _bits(stored[:, s]))
        else:
            assert m._block[1] is gathered  # read, not gathered again


def test_a_changed_support_replaces_the_block(rng, layout):
    a, b, x = _gram_case()
    m = vmfbs.LinearMap(layout(a))
    f = vmfbs.PNormResidual(m, b)
    stored = m.a
    f.gradient(x)  # A x for the image, then G[:, S] for the gradient
    s = np.flatnonzero(x)
    assert m._block[0] == s.tobytes() and m._block[1] is not None
    # a support of the same size with one column moved
    t = np.sort(np.append(s[:-1], np.setdiff1d(np.arange(N), s)[0]))
    y = _on(t, rng)
    assert m.apply(y).tobytes() == (stored[:, t] @ y[t]).tobytes()
    assert m._block[0] == t.tobytes() and m._block[2] is None  # G[:, T] not asked yet
    assert np.array_equal(_bits(m._block[1]), _bits(stored[:, t]))
    assert f.gradient(y).tobytes() == _fresh_gradient(a, b, y).tobytes()
    assert np.array_equal(_bits(m._block[2]), _bits(m._gram[:, m._slot[t]]))


def test_apply_takes_a_list_and_a_matrix(rng, layout):
    # the column path reads vectors; a list is one, a matrix takes the dense product
    a = _matrix(rng)
    m = vmfbs.LinearMap(layout(a))
    x = _sparse(rng, 10)
    assert m.apply(x.tolist()).tobytes() == m.apply(x).tobytes()
    xs = np.stack([x, _sparse(rng, 10)], axis=1)
    assert m.apply(xs).tobytes() == (m.a @ xs).tobytes()


@pytest.mark.parametrize("length", [N - 1, N + 1])
def test_a_vector_of_another_length_meets_the_dense_products_refusal(rng, layout, length):
    # a sparse vector one entry short or long (the last one nonzero, past n
    # when long) takes neither the column path nor the Gram path
    a = _matrix(rng)
    x = np.zeros(length)
    x[[3, -1]] = [1.0, 2.0]
    for rows in (SHAPE[0], SHAPE[0] - 1):  # at the floor and one row below
        m = vmfbs.LinearMap(layout(a[:rows]))
        f = vmfbs.PNormResidual(m, np.ones(rows))
        for call in (m.apply, f.value, f.gradient):
            with pytest.raises(ValueError, match="matmul"):
                call(x)
        assert m._gram_product(x) is None and m._block is None


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
    assert a.nbytes >= linear_map._COLUMN_FLOOR
    m = vmfbs.LinearMap(layout(a))
    assert m._a is None and len(m._parts) > 1
    assert all(block.flags.c_contiguous for *_, block in m._parts)
    assert np.array_equal(_bits(m.a), _bits(a))


def test_one_row_below_the_floor_stays_row_major(rng, layout):
    a = _matrix(rng, (SHAPE[0] - 1, N))
    assert a.nbytes < linear_map._COLUMN_FLOOR
    m = vmfbs.LinearMap(layout(a))
    stored = m.a
    assert stored.flags.c_contiguous and not stored.flags.f_contiguous
    for x in (_sparse(rng, 10), _sparse(rng, CUT), rng.standard_normal(N)):
        assert m.apply(x).tobytes() == (stored @ x).tobytes()
    r = rng.standard_normal(SHAPE[0] - 1)
    assert m.adjoint(r).tobytes() == (stored.T @ r).tobytes()


# --- the Gram path of the p = 2 residual ---------------------------------

ROOM = SHAPE[0] // linear_map._GRAM_SHARE  # columns the cache holds


def test_gram_cut_and_cap_in_this_shape():
    assert 0 < GRAM_CUT < ROOM < N


def _gram_case(seed=7, k=40):
    """A map at the floor, a right-hand side and a point with k nonzero entries."""
    rng = np.random.default_rng(seed)
    a = _matrix(rng)
    return a, rng.standard_normal(SHAPE[0]), _sparse(rng, k)


def _fresh_gradient(a, b, x):
    """The p = 2 gradient at x on a new map: an empty cache and no block."""
    return vmfbs.PNormResidual(vmfbs.LinearMap(a), b).gradient(x)


_GRAM_BITS = """
import sys
sys.path.insert(0, {tests!r})
import numpy as np, vmfbs
from test_linear_map import _gram_case
a, b, x = _gram_case()
print(vmfbs.PNormResidual(vmfbs.LinearMap(a), b).gradient(x).tobytes().hex())
"""


def test_gram_gradient_has_the_same_bits_whatever_the_cache_held(rng):
    # each Gram column has the same bits in every fill batch of two or more
    # columns, so the gradient at a point does not depend on the cache's
    # history; a one-column fill is padded to two, since OpenBLAS takes a
    # one-column product through gemv, which rounds otherwise
    a, b, x = _gram_case()
    s = np.flatnonzero(x)
    fresh = _fresh_gradient(a, b, x)
    # a second point on x's support reads G[:, S] from the active block
    x2 = _on(s, rng)
    fresh2 = _fresh_gradient(a, b, x2)

    def same_bits_twice(f, m):
        assert f.gradient(x).tobytes() == fresh.tobytes()
        before = m.gram_columns, m._block[2]
        assert f.gradient(x2).tobytes() == fresh2.tobytes()
        assert (m.gram_columns, m._block[2]) == before

    # after other supports filled the cache: x's columns came in three
    # batches, each mixed with columns x does not use
    m = vmfbs.LinearMap(a)
    f = vmfbs.PNormResidual(m, b)
    others = np.setdiff1d(np.arange(N), s)
    for part in np.array_split(s, 3):
        f.gradient(_on(np.union1d(part, rng.choice(others, 30, replace=False)), rng))
    assert (m._slot[s] >= 0).all()
    same_bits_twice(f, m)

    # after the cache was emptied: fill past the cap with other supports
    filled = [m._filled]
    for chunk in np.array_split(rng.permutation(others), len(others) // GRAM_CUT + 1):
        f.gradient(_on(chunk, rng))
        filled.append(m._filled)
    assert any(now < before for before, now in zip(filled, filled[1:]))  # emptied on the way
    same_bits_twice(f, m)

    # through a one-column fill: all of x's support but one column cached
    m = vmfbs.LinearMap(a)
    f = vmfbs.PNormResidual(m, b)
    f.gradient(_on(s[:-1], rng))
    before = m.gram_columns
    same_bits_twice(f, m)
    assert m.gram_columns == before + 1

    # one and two BLAS threads, each in a fresh interpreter
    tests = str(Path(__file__).resolve().parent)
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=str(Path(vmfbs.__file__).resolve().parent.parent),
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        out = subprocess.run(
            [sys.executable, "-c", _GRAM_BITS.format(tests=tests)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == fresh.tobytes().hex(), threads


@pytest.mark.parametrize("k", [1, 2, GRAM_CUT])
def test_gram_gradient_within_round_off_of_an_exact_sum(rng, layout, k):
    # each entry of A^T A x - A^T b stays within
    # 2 (m + k + 1) eps ((|A|^T |A| |x|)_j + (|A|^T |b|)_j) of the exact value
    a = _matrix(rng)
    b = rng.standard_normal(SHAPE[0])
    x = _sparse(rng, k)
    m = vmfbs.LinearMap(layout(a))
    f = vmfbs.PNormResidual(m, b)
    got = f.gradient(x)
    assert m.gram_columns == k  # it took the Gram path
    s = np.flatnonzero(x)
    # a second point on the support reads G[:, S] from the active block,
    # with the bits of a map that gathers it from a fresh cache
    y = _on(s, rng)
    assert f.gradient(y).tobytes() == _fresh_gradient(a, b, y).tobytes()
    assert m.gram_columns == k
    # the residual rounded once per entry, then exact sums: a reference
    # within 3 eps of the same scale, far inside the bound
    r = np.array([math.fsum([*(row * x[s]), -bi]) for row, bi in zip(a[:, s], b)])
    exact = np.array([math.fsum(col * r) for col in a.T])
    scale = np.abs(a).T @ (np.abs(a) @ np.abs(x)) + np.abs(a).T @ np.abs(b)
    assert (np.abs(got - exact) <= 2 * (SHAPE[0] + k + 1) * EPS * scale).all()
    assert np.abs(got - exact).max() > 0.0


def test_the_block_keeps_its_gram_columns_when_the_cache_is_emptied(rng):
    a, b, x = _gram_case()
    m = vmfbs.LinearMap(a)
    f = vmfbs.PNormResidual(m, b)
    f.gradient(x)
    kept = m._block[2]
    bits = kept.tobytes()
    # empty the cache and scribble over its slots, as fills past the cap
    # would, but leave the block in place
    m._slot[:] = -1
    m._filled = 0
    m._gram[:] = np.nan
    y = _on(np.flatnonzero(x), rng)
    before = m.gram_columns
    assert f.gradient(y).tobytes() == _fresh_gradient(a, b, y).tobytes()
    assert m.gram_columns == before  # no fill: G[:, S] came from the block
    assert m._block[2] is kept and kept.tobytes() == bits


def test_gram_path_up_to_the_cut_and_the_dense_gradient_past_it(rng, layout):
    a = _matrix(rng)
    b = rng.standard_normal(SHAPE[0])
    m = vmfbs.LinearMap(layout(a))
    f = vmfbs.PNormResidual(m, b)
    x = _sparse(rng, GRAM_CUT)
    f.gradient(x)
    # A x for the image and A^T b once; the Gram columns are not products
    assert (m.matvecs, m.gram_columns) == (2, GRAM_CUT)
    f.gradient(_on(np.flatnonzero(x)[:-1], rng))
    assert (m.matvecs, m.gram_columns) == (3, GRAM_CUT)  # A^T b is kept
    # a support between n // 8 and n // 4 fills A[:, S] but not G[:, S]
    y = _sparse(rng, GRAM_CUT + 1)
    got = f.gradient(y)
    assert (m.matvecs, m.gram_columns) == (5, GRAM_CUT)  # A y and A^T r
    assert m._block[0] == np.flatnonzero(y).tobytes()
    assert m._block[1] is not None and m._block[2] is None
    assert got.tobytes() == m.adjoint(m.apply(y) - b).tobytes()


def test_gram_path_is_only_for_p_2_on_a_column_major_map(rng):
    a, b, x = _gram_case()
    for m, p in ((vmfbs.LinearMap(a), 3.0), (vmfbs.LinearMap(a[:-1]), 2.0)):
        f = vmfbs.PNormResidual(m, b[: m.shape[0]], p=p)
        r = m.apply(x) - f.b
        want = m.adjoint(np.abs(r) ** (p - 1.0) * np.sign(r))
        assert f.gradient(x).tobytes() == want.tobytes()
        assert m.gram_columns == 0 and m._gram is None


def test_gram_cache_is_emptied_when_a_fill_would_pass_its_cap(rng):
    a, b, _ = _gram_case()
    m = vmfbs.LinearMap(a)
    f = vmfbs.PNormResidual(m, b)
    cols = rng.permutation(N)

    def at(support):
        f.gradient(_on(support, rng))

    for lo in range(0, ROOM, GRAM_CUT):  # exactly full
        at(cols[lo : min(lo + GRAM_CUT, ROOM)])
    assert m._filled == m.gram_columns == ROOM
    assert m._gram.nbytes <= m.a.nbytes // linear_map._GRAM_SHARE
    at(cols[:GRAM_CUT])  # all cached: no fill
    assert m._filled == m.gram_columns == ROOM
    at(np.append(cols[: GRAM_CUT - 1], cols[ROOM]))  # one column past the cap
    assert m._filled == GRAM_CUT  # emptied, then the whole support filled
    assert (m._slot >= 0).sum() == GRAM_CUT
    assert m.gram_columns == ROOM + GRAM_CUT


# --- the right-hand side ------------------------------------------------------

@pytest.mark.parametrize("kind", ["p2", "p3", "kl"])
def test_editing_the_callers_b_changes_neither_value_nor_gradient(rng, kind):
    a, b, x = _gram_case()
    if kind == "kl":
        a, b, x = np.abs(a), np.abs(b) + 0.5, np.abs(x)
        f = vmfbs.KLDivergence(a, b)
    else:
        f = vmfbs.PNormResidual(a, b, p=2.0 if kind == "p2" else 3.0)
    value, grad = f.value(x), f.gradient(x)
    b *= 2.0
    x = x.copy()  # a new point, so the memo is not what answers
    assert f.value(x) == value
    assert f.gradient(x).tobytes() == grad.tobytes()
    assert not f.b.flags.writeable


# --- a solve ----------------------------------------------------------------

@pytest.mark.parametrize("rule", ["ls1", "ls2", "ls3", "ls4", "tseng-yun"])
def test_l1_solve_makes_the_products_of_the_readme_table(rng, layout, rule):
    # every gradient here is taken at a point with at most n // 8 nonzero
    # entries, so on the Gram path: per iteration with b backtracks ls1
    # and ls3 make 1 + b products, the lam walks 1; beside them f(x0)
    # takes A x0 and the term A^T b once
    a = _matrix(rng)
    x_true = _sparse(rng, 10)
    b = a @ x_true + 0.01 * rng.standard_normal(SHAPE[0])
    m = vmfbs.LinearMap(layout(a))
    supports = []

    class Recorded(vmfbs.PNormResidual):
        def gradient(self, x):
            supports.append(np.flatnonzero(x))
            return super().gradient(x)

    problem = vmfbs.CompositeProblem(
        f=Recorded(m, b), g=vmfbs.L1Norm(0.2), dimension=N)
    config = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, warm_start=True),
        max_iterations=25,
        tol_fixed_point=1e-6,
    )
    res = vmfbs.solve(problem, np.zeros(N), config)
    backtracks = np.asarray(res.trace.backtracks)
    per_iteration = 1 + backtracks if rule in ("ls1", "ls3") else np.ones(len(backtracks))
    assert len(res.trace) >= 5
    assert max(s.size for s in supports) <= GRAM_CUT
    assert m.matvecs == per_iteration.sum() + 2
    # no fill passed the cap, so each column of a support was filled once
    assert m.gram_columns == np.unique(np.concatenate(supports)).size
    assert 0 < np.count_nonzero(res.x_final) <= CUT  # its products read columns


# --- the column path under a whole solve -------------------------------------

# (m, n, L1 weight, seeds): wide lassos with sparse solutions, whose
# gradients reach the Gram cache once the support is under n // 8
LASSO_BATCH = [(60, 400, 0.5, range(1, 6)), (100, 800, 1.0, range(1, 3))]
RULES = ["ls1", "ls2", "ls3", "ls4", "tseng-yun"]


def _solve_batch():
    """Every (gamma, lam, backtracks) sequence, termination and F_final of
    the batch, and the Gram columns its maps filled."""
    runs = []
    gram_columns = 0
    for m, n, weight, seeds in LASSO_BATCH:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((m, n)) / np.sqrt(n)
            b = rng.standard_normal(m)
            linear = vmfbs.LinearMap(a)  # one map for the five rules
            problem = vmfbs.CompositeProblem(
                f=vmfbs.PNormResidual(linear, b), g=vmfbs.L1Norm(weight), dimension=n)
            for rule in RULES:
                config = vmfbs.SolverConfig(
                    linesearch=vmfbs.LineSearchConfig(rule=rule, warm_start=True),
                    max_iterations=3000,
                    tol_fixed_point=1e-7,
                )
                res = vmfbs.solve(problem, np.zeros(n), config)
                t = res.trace
                runs.append(((m, n, seed, rule), t.gamma.tobytes(), t.lam.tobytes(),
                             t.backtracks.tobytes(), res.termination, res.F_final))
            gram_columns += linear.gram_columns
    return runs, gram_columns


def test_column_path_keeps_every_step_of_a_solve(monkeypatch):
    # The same lassos solved on row-major maps and, with the floor at 0, on
    # column-major ones: the sparse products, the Gram cache and the active
    # block change the rounding of f and its gradient but no accepted step
    reused = [0]
    block_at = linear_map.LinearMap._block_at

    def counted(self, s):
        before = self._block
        block = block_at(self, s)
        reused[0] += block is before
        return block

    monkeypatch.setattr(linear_map.LinearMap, "_block_at", counted)
    rows, rows_gram = _solve_batch()
    assert rows_gram == 0 and reused[0] == 0  # no column path below the floor
    monkeypatch.setattr(linear_map, "_COLUMN_FLOOR", 0)
    columns, gram_columns = _solve_batch()
    assert gram_columns > 0 and reused[0] > 0
    assert len(rows) == len(columns) == len(RULES) * sum(len(seeds) for *_, seeds in LASSO_BATCH)
    for (run, *row), (_, *column) in zip(rows, columns):
        assert row[:4] == column[:4], f"{run}: a step or the termination changed"
        assert abs(row[4] - column[4]) <= 1e-14 * abs(row[4]), run
