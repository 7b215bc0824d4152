"""The smooth terms, and ``LinearMap`` below its column-major floor.

The map's tests here cover the basic products, the ingest and its
subnormal flush, the banded storage, the dense and banded refusals and
the operator-norm certificate; ``tests/test_linear_map.py`` covers the
column-major storage and its caches. The module needs numpy alone: the
oracles it calls from ``tests/oracles.py`` use no scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vmfbs
from conftest import assert_same_run
from oracles import fd_gradient, operator_norm_reference, opnorm_oracle

SRC = Path(__file__).resolve().parent.parent / "src"


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
    with pytest.raises(vmfbs.UsageError):
        vmfbs.LinearMap(np.array([1.0, 2.0]))
    with pytest.raises(vmfbs.UsageError):
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
BLOCK = vmfbs.linear_map._INGEST_BLOCK


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
    with pytest.raises(vmfbs.UsageError, match="non-finite"):
        vmfbs.LinearMap(a)
    with pytest.raises(vmfbs.UsageError, match="non-finite"):
        vmfbs.LinearMap(np.asfortranarray(a))


def test_ingest_refuses_rows_and_columns_it_would_empty(rng):
    with pytest.raises(vmfbs.UsageError, match="row 0 .*subnormal"):
        vmfbs.LinearMap(np.full((3, 4), 1e-310))
    a = rng.standard_normal((5, 6))
    a[3] = [0.0, 1e-310, -2e-315, 0.0, -0.0, 4e-320]
    with pytest.raises(vmfbs.UsageError, match="row 3 "):
        vmfbs.LinearMap(a)
    a = rng.standard_normal((5, 6))
    a[:, 4] = [1e-310, 0.0, 1e-310, -1e-312, 5e-324]
    with pytest.raises(vmfbs.UsageError, match="column 4 "):
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
    # whose stored (dense) matrix is set back to the raw one must give the
    # same trace
    n = 200
    k = _blur(n, 3.0)
    signal = np.repeat(rng.uniform(-1.0, 1.0, 8), n // 8)
    b = k @ signal + 0.1 * rng.standard_normal(n)
    flushed = vmfbs.LinearMap(k)
    raw = vmfbs.LinearMap(k)
    raw._a = k.copy()
    raw._a.flags.writeable = False
    raw._parts = ((0, n, 0, n, raw._a),)
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
    assert len(got.trace) > 10
    assert_same_run(got, want)
    assert flushed.matvecs == raw.matvecs


# --- band storage: a banded matrix keeps row blocks of its band ----------

SLAB = vmfbs.linear_map._BAND_SLAB
EPS = np.finfo(float).eps


def _spans(m):
    return None if m._a is not None else [part[:4] for part in m._parts]


def _flushed(a):
    return np.where(_subnormal(a), 0.0, a)


def _dense_map(a, monkeypatch):
    """The map the dense path stores for ``a``, whatever its band."""
    with monkeypatch.context() as patch:
        patch.setattr(vmfbs.linear_map, "_band", lambda a: None)
        m = vmfbs.LinearMap(a)
    assert m._a is not None and len(m._parts) == 1  # the patch reached the map's module
    return m


def _block_diagonal(rng, slabs=4):
    a = np.zeros((slabs * SLAB, slabs * SLAB))
    for s in range(slabs):
        a[s * SLAB : (s + 1) * SLAB, s * SLAB : (s + 1) * SLAB] = rng.standard_normal((SLAB, SLAB))
    return a


def test_band_of_a_blur_is_stored_as_row_blocks():
    # half-width 112 (the Gaussian tail beyond is subnormal): 322,496 of
    # the 10^6 entries are kept, in 8 slabs
    k = _blur(1000, 3.0)
    m = vmfbs.LinearMap(k)
    spans = _spans(m)
    assert len(spans) == 8
    assert spans[0] == (0, 128, 0, 240) and spans[1] == (128, 256, 16, 368)
    assert spans[-1] == (896, 1000, 784, 1000)
    assert sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in spans) == 322496
    for *_, block in m._parts:
        assert block.flags.c_contiguous and not block.flags.writeable
        assert not _subnormal(block).any()
    # ``a`` is the flushed matrix, built on access, read-only
    stored = m.a
    assert np.array_equal(_bits(stored), _bits(_flushed(k)))
    assert not stored.flags.writeable
    with pytest.raises(AttributeError):
        m.a = k


def test_band_block_diagonal_is_stored_as_blocks(rng):
    a = _block_diagonal(rng)
    a[2 * SLAB : 3 * SLAB] = 0.0  # a slab with no entry keeps no block
    m = vmfbs.LinearMap(a)
    assert _spans(m) == [(0, 128, 0, 128), (128, 256, 128, 256), (384, 512, 384, 512)]
    assert np.array_equal(_bits(m.a), _bits(a))
    x = rng.standard_normal(a.shape[1])
    r = rng.standard_normal(a.shape[0])
    y = m.apply(x)
    assert y.tobytes() == (a @ x).tobytes()
    assert _bits(y[2 * SLAB : 3 * SLAB]).tolist() == [0] * SLAB  # +0.0
    assert np.allclose(m.adjoint(r), a.T @ r, rtol=0.0, atol=1e-12)


def test_band_needs_two_slabs_and_at_most_half_the_area():
    assert _spans(vmfbs.LinearMap(np.eye(SLAB))) is None
    # exactly half of 256 x 256: slab 0 in columns [0, 128), slab 1 in [128, 256)
    assert _spans(vmfbs.LinearMap(np.eye(2 * SLAB))) == [(0, 128, 0, 128), (128, 256, 128, 256)]
    # one more entry in slab 1, at column 127, widens its block to the
    # 4-column multiple [124, 256): just over half, so the matrix stays dense
    a = np.eye(2 * SLAB)
    a[SLAB, SLAB - 1] = 1.0
    m = vmfbs.LinearMap(a)
    assert _spans(m) is None
    assert m.a is m.a and np.array_equal(_bits(m.a), _bits(a))


def _band_by_slab(a):
    """The spans of ``linear_map._band``, found one slab at a time: its reference."""
    m, n = a.shape
    if m <= SLAB:
        return None

    def first_live(slab):
        start, width = 0, 8
        while start < n:
            live = ~(np.abs(slab[:, start : start + width]) < np.finfo(float).tiny).all(axis=0)
            if live.any():
                return start + int(live.argmax())
            start += width
            width *= 2
        return n

    spans, area = [], 0
    for r0 in range(0, m, SLAB):
        slab = a[r0 : r0 + SLAB]
        c0 = first_live(slab)
        if c0 == n:
            continue
        c1 = n - first_live(slab[:, ::-1])
        c1 = c0 + -(-(c1 - c0) // 4) * 4
        if c1 > n - n % 4:
            c0, c1 = c0 - c0 % 4, n
        area += slab.shape[0] * (c1 - c0)
        if 2 * area > m * n:
            return None
        spans.append((r0, r0 + slab.shape[0], c0, c1))
    return spans


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 13, 40, 300])
def test_band_spans_are_those_of_a_scan_slab_by_slab(rng, n):
    # slabs are judged in groups when they are narrow; the spans are the same
    group = max(1, vmfbs.linear_map._INGEST_BLOCK // (SLAB * n)) * SLAB
    m = max(40 * SLAB, 3 * group) + 17  # three groups at least, the last one short
    dense = rng.standard_normal((m, n))
    top = dense.copy()
    top[3 * SLAB + 5 :] = 0.0  # dense top, zero bottom
    bottom = dense.copy()
    bottom[: m - 2 * SLAB] = 0.0
    holes = dense.copy()
    holes[SLAB : 9 * SLAB] = 0.0  # empty slabs, banded or not
    holes[20 * SLAB :] = 0.0
    sparse = np.where(rng.random((m, n)) < 2e-3, dense, 0.0)
    edge = np.zeros((m, n))
    edge[::SLAB, -1] = 1.0  # a live last column in every slab
    edge[5, 0] = np.nan  # non-finite entries are live
    edge[7 * SLAB + 1, n // 2] = 1e-310  # subnormal ones are not
    rows, cols = np.arange(m)[:, None], np.arange(n)[None, :]
    band = np.where(np.abs(cols - rows * n / m) <= 1, dense, 0.0)
    cases = [dense, top, bottom, holes, sparse, edge, band, np.zeros((m, n)),
             np.asfortranarray(top), dense[: SLAB + 1]]
    found = [vmfbs.linear_map._band(a) for a in cases]
    assert found == [_band_by_slab(a) for a in cases]
    assert any(spans for spans in found)  # some are banded
    assert all(type(v) is int for spans in found if spans for span in spans for v in span)


def test_band_widths_leave_the_gemv_tail_of_the_dense_product():
    # a block is a multiple of 4 columns wide and ends before the dense
    # product's last (n mod 4) columns, or runs from a multiple of 4 to
    # the last column
    n = 1002  # the dense product's tail is columns 1000 and 1001
    a = np.zeros((600, n))
    a[:128, 3:10] = 1.0  # width 7 -> [3, 11)
    a[128:256, 990:996] = 1.0  # width 6 -> [990, 998), short of the tail
    a[256:384, 994:999] = 1.0  # width 5 -> 8 would reach the tail -> [992, 1002)
    a[384:512, 997:1001] = 1.0  # width 4, in the tail -> [996, 1002)
    a[512:, 1000] = 1.0  # -> [1000, 1002)
    assert _spans(vmfbs.LinearMap(a)) == [
        (0, 128, 3, 11), (128, 256, 990, 998), (256, 384, 992, 1002),
        (384, 512, 996, 1002), (512, 600, 1000, 1002),
    ]


_APPLY_BITWISE = """
import numpy as np, vmfbs
from vmfbs.linear_map import _BAND_SLAB
TINY = np.finfo(float).tiny
i = np.arange(1000)
k = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 3.0) ** 2)
mats = [k / k.sum(axis=1, keepdims=True)]
rng = np.random.default_rng(7)
while {random} and len(mats) < 12:
    m, n = (int(v) for v in rng.integers(2 * _BAND_SLAB + 1, 900, 2))
    rows, cols = np.arange(m)[:, None], np.arange(n)[None, :]
    width, shift = int(rng.integers(1, 100)), int(rng.integers(-40, 40))
    band = np.abs(cols - rows * n / m - shift) <= width
    mats.append(np.where(band, rng.standard_normal((m, n)), 0.0))
banded = 0
for a in mats:
    lm = vmfbs.LinearMap(a)
    banded += lm._a is None
    flushed = np.where(np.abs(a) < TINY, 0.0, a)
    for _ in range(50):
        x = rng.standard_normal(a.shape[1])
        assert lm.apply(x).tobytes() == (flushed @ x).tobytes()
print(banded, len(mats))
"""


@pytest.mark.parametrize(("threads", "random"), [("1", True), ("2", False)])
def test_band_apply_is_the_flushed_dense_product_bitwise(threads, random):
    # Each output sums the terms of the dense product in its order: bitwise
    # with a single-threaded OpenBLAS gemv, and threaded where the threads
    # split the dense rows at multiples of 4 (the n = 1000 blur at two
    # threads, as the tv-deblur benchmark runs it). A fresh interpreter
    # fixes the BLAS thread count.
    env = dict(
        os.environ, PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
    )
    out = subprocess.run(
        [sys.executable, "-c", _APPLY_BITWISE.format(random=random)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    banded, total = map(int, out.stdout.split())
    assert banded > total // 2 if random else banded == total == 1


def test_band_adjoint_within_round_off(rng, monkeypatch):
    # the blocks' transposed products are added column range by column
    # range, which rounds differently from the dense product: each output
    # stays within 2 k eps (|A|^T |r|)_j, k the nonzero terms of column j
    for a in (_blur(1000, 3.0), _block_diagonal(rng)):
        m = vmfbs.LinearMap(a)
        dense = _dense_map(a, monkeypatch)
        assert m._a is None and dense._a is not None
        flushed = dense.a
        k = np.count_nonzero(flushed, axis=0)
        moved = 0.0
        for _ in range(50):
            r = rng.standard_normal(a.shape[0])
            got, want = m.adjoint(r), dense.adjoint(r)
            bound = 2.0 * k * EPS * (np.abs(flushed).T @ np.abs(r))
            assert np.all(np.abs(got - want) <= bound)
            moved = max(moved, float(np.abs(got - want).max()))
        # the blur's columns meet two slabs, so the rounding does change;
        # a block-diagonal column meets one and keeps the dense sum
        assert (moved > 0.0) == (a.shape[0] == 1000)


def _refusal(a):
    try:
        vmfbs.LinearMap(a)
    except vmfbs.UsageError as exc:
        return str(exc)
    return None


def test_band_refusals_match_the_dense_path(rng, monkeypatch):
    def refused(a, want):
        assert vmfbs.linear_map._band(a) is not None
        got = _refusal(a)
        with monkeypatch.context() as patch:
            patch.setattr(vmfbs.linear_map, "_band", lambda a: None)
            assert _refusal(a) == got
        assert got is not None and want in got, got

    base = _block_diagonal(rng)
    for i, j, value in ((5, 7, np.nan), (300, 300, np.inf), (5, 500, -np.inf), (511, 0, np.nan)):
        a = base.copy()
        a[i, j] = value  # inside the band, or outside it (which widens it)
        refused(a, "non-finite")
    a = base.copy()
    a[200, 128:256] = 1e-310  # subnormal only, inside the band
    refused(a, "matrix row 200 has only subnormal")
    a = base.copy()
    a[300, 256:384] = 0.0
    a[300, 10] = -3e-320  # subnormal only, outside the band
    refused(a, "matrix row 300 has only subnormal")
    a = base.copy()
    a[:, 130] = 0.0
    a[128:256, 130] = 5e-324
    refused(a, "matrix column 130 has only subnormal")
    a = base.copy()
    a[:, 255] = 0.0
    a[200, 255] = 1e-310  # the band's last column, subnormal only
    refused(a, "matrix column 255 has only subnormal")


def test_band_refuses_a_vector_of_another_length_as_the_dense_path(rng, monkeypatch):
    # 4 slabs of 128 rows, each with 96 live columns: m = 512, n = 384
    m, n = 4 * SLAB, 4 * 96
    a = np.zeros((m, n))
    for s in range(4):
        a[s * SLAB : (s + 1) * SLAB, s * 96 : (s + 1) * 96] = rng.standard_normal((SLAB, 96))
    band, dense = vmfbs.LinearMap(a), _dense_map(a, monkeypatch)
    assert band._a is None and len(band._parts) == 4 and dense._a is not None
    for lm in (band, dense):
        for call, length in ((lm.apply, n - 1), (lm.apply, n + 1),
                             (lm.adjoint, m - 1), (lm.adjoint, m + 1)):
            with pytest.raises(ValueError):
                call(np.ones(length))
    x, r = rng.standard_normal(n), rng.standard_normal(m)
    assert band.apply(x).shape == (m,) and band.adjoint(r).shape == (n,)


def test_band_edge_column_subnormal_in_one_slab_only(rng, monkeypatch):
    # column 256 is subnormal throughout slab 1, where it lies beside the
    # band, and normal in slab 2: it is not emptied, so nothing is refused
    a = _block_diagonal(rng)
    a[SLAB : 2 * SLAB, 2 * SLAB] = 1e-310
    m = vmfbs.LinearMap(a)
    assert _spans(m)[1] == (128, 256, 128, 256)
    assert np.array_equal(_bits(m.a), _bits(_flushed(a)))
    assert np.array_equal(_bits(m.a), _bits(_dense_map(a, monkeypatch).a))


def test_band_operator_norm_runs_on_the_blocks(rng, monkeypatch):
    a = _block_diagonal(rng)
    m = vmfbs.LinearMap(a)
    est = m.operator_norm()
    true = opnorm_oracle(a)
    assert true * (1 - 1e-8) <= est <= true * (1 + 1e-12)
    assert m.matvecs == 0
    # the ramp start in the null space: the fallback takes the dominant
    # row from the blocks
    v = np.ones(2 * SLAB) + np.linspace(0.0, 0.1, 2 * SLAB)
    v /= np.linalg.norm(v)
    a = np.zeros((2 * SLAB, 2 * SLAB))
    a[0, 0], a[0, 1] = v[1], -v[0]
    a[200, 200], a[200, 201] = 0.5 * v[201], -0.5 * v[200]
    m = vmfbs.LinearMap(a)
    assert _spans(m) == [(0, 128, 0, 4), (128, 256, 200, 204)]
    assert not (a @ v).any()
    assert m.operator_norm() == pytest.approx(opnorm_oracle(a), rel=1e-13)
    assert m.operator_norm() == pytest.approx(_dense_map(a, monkeypatch).operator_norm(), rel=1e-13)
    assert vmfbs.LinearMap(np.zeros((2 * SLAB, 8))).operator_norm() == 0.0


def test_band_kl_accepts_a_banded_nonnegative_matrix(rng, monkeypatch):
    k = _blur(1000, 3.0)
    b = k @ rng.uniform(0.5, 1.5, 1000)
    f = vmfbs.KLDivergence(k, b)
    dense = vmfbs.KLDivergence(_dense_map(k, monkeypatch), b)
    assert f.a._a is None
    x = rng.uniform(0.5, 1.5, 1000)
    assert f.value(x) == pytest.approx(dense.value(x), rel=1e-13)
    assert np.allclose(f.gradient(x), dense.gradient(x), rtol=0.0, atol=1e-13)
    negative = np.abs(_block_diagonal(rng))
    negative[3, 3] = -1.0
    emptied = np.abs(_block_diagonal(rng))
    emptied[300] = 0.0
    maps = [vmfbs.LinearMap(negative), vmfbs.LinearMap(emptied)]
    assert all(m._a is None for m in maps)
    # the refusals read the stored blocks; the dense matrix is never built
    monkeypatch.setattr(vmfbs.LinearMap, "a", property(lambda m: pytest.fail("a was read")))
    with pytest.raises(vmfbs.UsageError, match="nonnegative"):
        vmfbs.KLDivergence(maps[0], np.ones(negative.shape[0]))
    with pytest.raises(vmfbs.UsageError, match="all-zero row"):
        vmfbs.KLDivergence(maps[1], np.ones(emptied.shape[0]))


@pytest.mark.parametrize("rule", ["ls1", "ls4"])
def test_band_kl_never_assembles_the_dense_matrix(rng, monkeypatch, rule):
    # the constructor and a general-regime solve read the stored blocks
    # alone: on a 20000 x 20000 band, ``a.a`` would build 3.2 GB
    k = _blur(1000, 3.0)
    b = k @ rng.uniform(0.5, 1.5, 1000)
    m = vmfbs.LinearMap(k)
    assert m._a is None
    monkeypatch.setattr(vmfbs.LinearMap, "a", property(lambda m: pytest.fail("a was read")))
    f = vmfbs.KLDivergence(m, b)
    problem = vmfbs.CompositeProblem(
        f=f, g=vmfbs.BoxIndicator(0.0, np.inf), dimension=1000, domain_regime="general")
    config = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule), max_iterations=5)
    res = vmfbs.solve(problem, np.ones(1000), config)
    assert len(res.trace) == 5 and m.matvecs > 5


@pytest.mark.parametrize("rule", ["ls1", "ls4"])
def test_band_solve_keeps_the_dense_matvecs_and_decisions(rng, monkeypatch, rule):
    # a tv-deblur case: the adjoint's rounding moves F by round-off, but
    # the solve takes the same steps and the same products
    n = 1000
    k = _blur(n, 3.0)
    cuts = np.arange(1, 20) * 50 + rng.integers(-15, 16, 19)
    levels = rng.uniform(0.5, 1.0, 20) * np.where(np.arange(20) % 2, 1.0, -1.0)
    b = k @ np.repeat(levels, np.diff(np.r_[0, cuts, n])) + 0.1 * rng.standard_normal(n)
    maps = [vmfbs.LinearMap(k), _dense_map(k, monkeypatch)]
    assert maps[0]._a is None and maps[1]._a is not None
    config = vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, warm_start=True),
        max_iterations=5000,
        tol_fixed_point=1e-4,
    )
    got, want = (
        vmfbs.solve(
            vmfbs.CompositeProblem(f=vmfbs.PNormResidual(m, b), g=vmfbs.Tv1dNorm(0.05), dimension=n),
            np.zeros(n),
            config,
        )
        for m in maps
    )
    assert 10 < len(got.trace) == len(want.trace) < 5000
    assert maps[0].matvecs == maps[1].matvecs
    for name in ("gamma", "lam", "backtracks"):
        assert np.array_equal(getattr(got.trace, name), getattr(want.trace, name)), name
    assert abs(got.F_final - want.F_final) <= 1e-12 * abs(want.F_final)


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
        with pytest.raises(vmfbs.UsageError):
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


class _FixedImage(vmfbs.LinearMap):
    """An all-ones column whose product is a given image, whatever x."""

    def __init__(self, image):
        super().__init__(np.ones((len(image), 1)))
        self.image = np.array(image, dtype=float)

    def apply(self, x):
        self.matvecs += 1
        return self.image.copy()


@pytest.mark.parametrize("v", [0.0, -0.0, -1e-300, -1.0, -np.inf])
def test_kl_image_entry_at_or_below_zero_is_outside_the_domain(v):
    f = vmfbs.KLDivergence(_FixedImage([1.0, v, 2.0]), np.ones(3))
    x = np.ones(1)
    assert f.value(x) == np.inf
    assert f.in_domain(x) is False
    with pytest.raises(vmfbs.UsageError, match=r"needs \(Ax\)_i > 0"):
        f.gradient(x)


def test_kl_nan_image_entry_gives_nan_and_no_domain():
    f = vmfbs.KLDivergence(_FixedImage([1.0, np.nan, 2.0]), np.ones(3))
    x = np.ones(1)
    assert np.isnan(f.value(x))
    assert f.in_domain(x) is False
    assert f.in_domain(np.full(1, 2.0)) is False  # a fresh image, as a NaN


def _signed(rng, n):
    """Gaussian entries with about a quarter of them +0.0 or -0.0."""
    v = rng.standard_normal(n)
    zero = rng.random(n) < 0.25
    v[zero] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zero]
    return v


def test_values_are_their_sum_formulas_bit_for_bit(rng):
    for n in (1, 2, 5, 7, 8, 9, 17, 130, 300):
        for _ in range(5):
            ax, b = _signed(rng, n), _signed(rng, n)
            x = np.ones(1)
            for p in (2.0, 3.0):
                r = ax - b
                want = (r * r).sum() / 2.0 if p == 2.0 else (np.abs(r) ** p).sum() / p
                got = vmfbs.PNormResidual(_FixedImage(ax), b, p=p).value(x)
                assert _bits(got) == _bits(float(want)), (n, p)
            v = _signed(rng, n)
            assert _bits(vmfbs.L1Norm(0.3).value(v)) == _bits(0.3 * float(np.abs(v).sum()))
            # KL at a positive image, some of its entries equal to b's
            kb = np.abs(rng.standard_normal(n)) + 0.1
            kax = np.where(rng.random(n) < 0.25, kb, np.abs(rng.standard_normal(n)) + 0.1)
            want = float((kb * np.log(kb / kax) + kax - kb).sum())
            assert _bits(vmfbs.KLDivergence(_FixedImage(kax), kb).value(x)) == _bits(want)


def test_kl_grad_matches_fd(rng):
    a = np.abs(rng.standard_normal((6, 4))) + 0.1
    b = np.abs(rng.standard_normal(6)) + 0.5
    f = vmfbs.KLDivergence(a, b)
    for _ in range(10):
        x = np.abs(rng.standard_normal(4)) + 0.5
        fd = fd_gradient(f.value, x)
        assert np.allclose(f.gradient(x), fd, rtol=1e-6, atol=1e-8)


def test_kl_validates_data():
    with pytest.raises(vmfbs.UsageError):
        vmfbs.KLDivergence(np.array([[-1.0]]), np.array([1.0]))  # negative matrix
    with pytest.raises(vmfbs.UsageError):
        vmfbs.KLDivergence(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))  # zero row
    with pytest.raises(vmfbs.UsageError):
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
        with pytest.raises(vmfbs.UsageError):
            f.gradient(bad)
    assert f.value(bad) == np.inf
    assert not f.in_domain(bad)
    with pytest.raises(vmfbs.UsageError):
        f.gradient(bad)
    assert f.a.matvecs == 1
