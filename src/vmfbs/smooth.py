"""Catalog of smooth terms: lp-power residuals and Kullback-Leibler.

Both terms are compositions with a linear map A. The lp residual

    f(x) = (1/p) sum_i |(Ax - b)_i|^p,   p > 1

is everywhere finite with gradient A^T(|Ax-b|^{p-1} sign(Ax-b)); its
gradient is globally Lipschitz only at p = 2 (L = ||A||^2). The KL
divergence

    f(x) = D(b, Ax) = sum_i b_i log(b_i / (Ax)_i) + (Ax)_i - b_i

has the open domain {x : (Ax)_i > 0 for all i} and gradient
A^T(1 - b / (Ax)).

Both terms remember the last point queried: its image Ax and, once
asked for, its gradient. ``value``, ``gradient`` and ``in_domain`` at
that same point (same bytes, same shape) reuse them, so the gradient
at an accepted trial point costs one A^T product and a repeated query
none. A reused image is the product a fresh call would compute, so
results are bitwise the same as without the memo. The memo is plain
instance state: one term instance must not be shared by solves running
in concurrent threads.

``LinearMap`` stores its matrix with every subnormal entry set to +0.0,
so no product meets a subnormal operand (slow on x86); each output of
a product moves by at most ``np.finfo(float).tiny`` times the l1 norm
of the vector it multiplies. A banded matrix is stored as row blocks
of its band. See its docstring for both.
"""

from __future__ import annotations

import math

import numpy as np

from .problems import DomainError, SmoothTerm, UsageError, as_vector

__all__ = [
    "LinearMap",
    "PNormResidual",
    "KLDivergence",
]


# entries per block of the ingest pass: its scratch stays in cache
_INGEST_BLOCK = 1 << 16

# rows per slab of the band detection: a banded matrix is stored as one
# block per slab, from the slab's first to its last live column
_BAND_SLAB = 128


def _ingest(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Read-only C-ordered copy of a finite matrix with subnormal entries set to +0.0.

    One pass in blocks of ``_INGEST_BLOCK`` entries over the copy, with
    reused scratch, so nothing of the matrix's size is allocated beside
    it. Normal entries and signed zeros are kept bit for bit. Returns the
    copy and whether any entry was flushed.
    """
    out = a.copy()  # C order for any input layout; the BLAS path and the bits follow it
    flat = out.reshape(-1)  # a view: ``out`` is C-contiguous
    tiny = np.finfo(float).tiny
    big = np.finfo(float).max
    size = min(_INGEST_BLOCK, flat.size)
    mag = np.empty(size)
    sub = np.empty(size, dtype=bool)
    nonzero = np.empty(size, dtype=bool)
    flushed = False
    for start in range(0, flat.size, size):
        block = flat[start : start + size]
        m = mag[: block.size]
        np.abs(block, out=m)
        if not m.max() <= big:  # NaN fails the comparison too
            raise UsageError("matrix has non-finite entries")
        s = sub[: block.size]
        np.less(m, tiny, out=s)
        if s.any():
            nz = nonzero[: block.size]
            np.greater(m, 0.0, out=nz)
            s &= nz
            if s.any():
                block[s] = 0.0
                flushed = True
    out.flags.writeable = False
    return out, flushed


def _refuse_emptied(a: np.ndarray, parts) -> None:
    """Refuse a row or column of ``a`` that had a nonzero entry and only subnormal ones.

    ``parts`` are the stored blocks ``(r0, r1, c0, c1, block)``; a row or
    column is judged on all of them at once, since a column at a band's
    edge can hold only subnormal entries in one slab and normal ones in
    the next.
    """
    row_live = np.zeros(a.shape[0], dtype=bool)
    col_live = np.zeros(a.shape[1], dtype=bool)
    for r0, r1, c0, c1, block in parts:
        row_live[r0:r1] |= block.any(axis=1)
        col_live[c0:c1] |= block.any(axis=0)
    for live, axis, name in ((row_live, 0, "row"), (col_live, 1, "column")):
        for i in np.flatnonzero(~live).tolist():
            if a.take(i, axis=axis).any():
                raise UsageError(
                    f"matrix {name} {i} has only subnormal nonzero entries; "
                    "flushing them to zero would empty it (rescale the matrix)"
                )


def _first_live(slab: np.ndarray, tiny: float) -> int:
    """First column of ``slab`` with an entry that is non-finite or of magnitude >= tiny.

    Scans in chunks of 8, 16, 32, ... columns, so a live first column
    costs one small chunk and a dead run is read at most twice over.
    Returns the slab's width if no column is live.
    """
    n = slab.shape[1]
    start, width = 0, 8
    while start < n:
        live = ~(np.abs(slab[:, start : start + width]) < tiny).all(axis=0)
        if live.any():
            return start + int(live.argmax())
        start += width
        width *= 2
    return n


def _band(a: np.ndarray) -> list[tuple[int, int, int, int]] | None:
    """The blocks ``(r0, r1, c0, c1)`` that hold every live entry of ``a``, if they pay.

    Each slab of ``_BAND_SLAB`` rows keeps the columns from its first to
    its last live entry, found by scanning inward from both edges and
    widened by at most 3 columns (a slab with none keeps nothing).
    Returns None, for dense storage, when ``a`` fits in one slab or the
    blocks would cover more than half of it.
    """
    m, n = a.shape
    if m <= _BAND_SLAB:
        return None
    tiny = np.finfo(float).tiny
    spans = []
    area = 0
    for r0 in range(0, m, _BAND_SLAB):
        slab = a[r0 : r0 + _BAND_SLAB]
        c0 = _first_live(slab, tiny)
        if c0 == n:
            continue
        c1 = n - _first_live(slab[:, ::-1], tiny)
        # OpenBLAS's gemv adds the last (width mod 4) columns after the
        # rest: a block as wide as a multiple of 4 that stops short of
        # the dense product's such tail, or one that runs from a multiple
        # of 4 to the last column, sums each output in the dense order
        c1 = c0 + -(-(c1 - c0) // 4) * 4
        if c1 > n - n % 4:
            c0, c1 = c0 - c0 % 4, n
        area += slab.shape[0] * (c1 - c0)
        if 2 * area > m * n:
            return None
        spans.append((r0, r0 + slab.shape[0], c0, c1))
    return spans


class LinearMap:
    """m x n matrix with a cached, certified operator-norm estimate.

    The map keeps a private, read-only, C-ordered copy of the matrix in
    which every subnormal entry (0 < |a_ij| < ``np.finfo(float).tiny``)
    is +0.0: a product with a subnormal operand takes a slow microcode
    path on x86 (about 100 cycles), so a Gaussian blur whose tail holds
    0.5% of such entries paid about 30% of each product for them. The
    stored operator differs from the caller's by at most ``tiny`` per
    entry, so each output of ``apply(x)`` moves by at most tiny * ||x||_1
    (and of ``adjoint(r)`` by tiny * ||r||_1). Normal entries and signed
    zeros are stored bit for bit, and a non-finite entry is refused. A
    row or column whose only nonzero entries are subnormal is refused
    too, rather than silently turned into zero.

    A banded matrix is stored as its band. The rows are cut into slabs of
    ``_BAND_SLAB``; when there are at least two and the columns from each
    slab's first to its last entry that is non-finite or at least ``tiny``
    in magnitude cover at most half of the matrix, only those blocks are
    kept, each copied straight from the caller's matrix (no dense copy is
    made). Every non-finite entry lies in a block, so the blocks' ingest
    sees it. ``apply`` takes one product per block into its rows of the
    output; each output sums the terms of the dense product in its
    order, which on OpenBLAS makes it bitwise the dense product (one
    BLAS thread; threaded, when the threads split the rows at multiples
    of 4). ``adjoint`` adds each block's transposed product into its
    columns, which rounds differently from the dense product (within
    2 k eps sum_i |a_ij r_i| for a column of k nonzero entries). Any other
    matrix is stored dense. ``a`` is the stored matrix; a banded map
    builds it afresh on each access, with +0.0 outside the band.

    ``matvecs`` counts the products taken through ``apply`` and
    ``adjoint``; the power iteration of ``operator_norm`` is not counted.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise UsageError(f"matrix must be 2-D, got shape {a.shape}")
        if a.size == 0:
            raise UsageError("matrix must be nonempty")
        m, n = self._shape = a.shape
        spans = _band(a)
        parts = []
        flushed = False
        for r0, r1, c0, c1 in spans if spans is not None else [(0, m, 0, n)]:
            block, sub = _ingest(a[r0:r1, c0:c1])
            parts.append((r0, r1, c0, c1, block))
            flushed |= sub
        if flushed or spans is not None:
            # the entries a band leaves out are dropped without an ingest
            _refuse_emptied(a, parts)
        self._a = parts[0][4] if spans is None else None
        self._blocks = tuple(parts) if spans is not None else None
        self._opnorm: float | None = None
        self.matvecs = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def a(self) -> np.ndarray:
        """The stored matrix, read-only; a banded map builds it on each access."""
        if self._a is not None:
            return self._a
        out = np.zeros(self._shape)
        for r0, r1, c0, c1, block in self._blocks:
            out[r0:r1, c0:c1] = block
        out.flags.writeable = False
        return out

    def _parts(self):
        """The stored blocks ``(r0, r1, c0, c1, block)``; a dense map is one block."""
        if self._a is not None:
            return ((0, self._shape[0], 0, self._shape[1], self._a),)
        return self._blocks

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self._apply(x)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self._adjoint(r)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._a is not None:
            return self._a @ x
        y = np.zeros(self._shape[0])
        for r0, r1, c0, c1, block in self._blocks:
            np.matmul(block, x[c0:c1], out=y[r0:r1])
        return y

    def _adjoint(self, r: np.ndarray) -> np.ndarray:
        if self._a is not None:
            return self._a.T @ r
        y = np.zeros(self._shape[1])
        for r0, r1, c0, c1, block in self._blocks:
            y[c0:c1] += block.T @ r[r0:r1]
        return y

    def operator_norm(self) -> float:
        """||A|| by power iteration on A^T A, cached.

        The returned value is the certificate ||A v|| / ||v|| of the final
        iterate, hence always a lower bound on the true norm; the
        iteration is run until the certificate stalls, which puts it
        within a 1e-6 relative factor of the truth (Rayleigh quotients
        converge even when the top eigenspace is degenerate). The start
        vector is deterministic.
        """
        if self._opnorm is not None:
            return self._opnorm
        parts = self._parts()
        if not any(block.any() for *_, block in parts):
            self._opnorm = 0.0
            return 0.0
        m, n = self._shape
        # deterministic start with a mild index ramp so no eigenvector of a
        # structured matrix is exactly orthogonal to it
        v = np.ones(n) + np.linspace(0.0, 0.1, n)
        v /= np.linalg.norm(v)
        av = self._apply(v)
        if np.linalg.norm(self._adjoint(av)) == 0.0:
            # ramp start landed in the null space; a dominant row never does
            sq = np.zeros(m)
            for r0, r1, c0, c1, block in parts:
                sq[r0:r1] += np.einsum("ij,ij->i", block, block)
            i = int(np.argmax(sq))
            v = np.zeros(n)
            for r0, r1, c0, c1, block in parts:
                if r0 <= i < r1:
                    v[c0:c1] = block[i - r0]
            v /= np.linalg.norm(v)
            av = self._apply(v)
        est = 0.0
        stall = 0
        for it in range(20000):
            # av = A v is the previous sweep's certificate product
            w = self._adjoint(av)
            v = w / math.sqrt(w @ w)
            av = self._apply(v)
            new = math.sqrt(av @ av)
            # the certificate is monotone up to round-off; stop on a
            # persistent stall, but only after a safety minimum of sweeps
            if new <= est * (1.0 + 1e-15):
                stall += 1
                if it >= 100 and stall >= 3:
                    break
            else:
                stall = 0
            if new > est:
                est = new
        self._opnorm = est
        return est


class _Composite(SmoothTerm):
    """f(x) = h(Ax) for a ``LinearMap`` A, remembering the last point queried.

    The memo holds one entry: the point's shape and bytes as the key, its
    image Ax, and its gradient once computed. Keying on bytes makes -0.0
    and 0.0 distinct points and lets an array changed in place miss.
    Subclasses supply h as ``_value(ax)`` and its gradient as
    ``_outer_gradient(ax)``, so that grad f(x) = A^T grad h(Ax).
    """

    a: LinearMap
    _key: tuple | None = None
    _ax: np.ndarray | None = None
    _grad: np.ndarray | None = None

    def _image(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if key != self._key:
            ax = self.a.apply(x)
            self._key, self._ax, self._grad = key, ax, None
        return self._ax

    def value(self, x) -> float:
        return self._value(self._image(x))

    def gradient(self, x) -> np.ndarray:
        ax = self._image(x)
        if self._grad is None:
            self._grad = self.a.adjoint(self._outer_gradient(ax))
        return self._grad.copy()


class PNormResidual(_Composite):
    """f(x) = (1/p) sum |(Ax - b)_i|^p with p > 1. Full domain."""

    lower_bound = 0.0

    def __init__(self, a: LinearMap, b, p: float = 2.0):
        if not isinstance(a, LinearMap):
            a = LinearMap(a)
        self.a = a
        self.b = as_vector(b, a.shape[0])
        if not (p > 1) or not np.isfinite(p):
            raise UsageError(f"p must be a finite real > 1, got {p}")
        self.p = float(p)

    @property
    def lipschitz_bound(self) -> float | None:
        if self.p == 2.0:
            return self.a.operator_norm() ** 2
        return None

    def _value(self, ax) -> float:
        r = ax - self.b
        return float((np.abs(r) ** self.p).sum() / self.p)

    def _outer_gradient(self, ax) -> np.ndarray:
        r = ax - self.b
        return np.abs(r) ** (self.p - 1.0) * np.sign(r)


class KLDivergence(_Composite):
    """f(x) = D(b, Ax), the Kullback-Leibler divergence of Ax from b.

    A must be entrywise nonnegative with no all-zero row (an all-zero
    row would force (Ax)_i = 0 everywhere, emptying the domain), b
    strictly positive. dom f = {x : Ax > 0 componentwise} is open, so
    the domain and its interior coincide.
    """

    lower_bound = 0.0

    def __init__(self, a: LinearMap, b):
        if not isinstance(a, LinearMap):
            a = LinearMap(a)
        stored = a.a  # a banded map builds it on each access
        if np.any(stored < 0):
            raise UsageError("KL needs a nonnegative matrix")
        if not np.all(stored.any(axis=1)):
            raise UsageError("KL matrix has an all-zero row; the domain would be empty")
        self.a = a
        self.b = as_vector(b, a.shape[0])
        if not np.all(self.b > 0):
            raise UsageError("KL needs b > 0 componentwise")

    def _value(self, ax) -> float:
        if (ax <= 0).any():
            return np.inf
        return float((self.b * np.log(self.b / ax) + ax - self.b).sum())

    def _outer_gradient(self, ax) -> np.ndarray:
        if (ax <= 0).any():
            raise DomainError("gradient of the KL term needs (Ax)_i > 0 for every i")
        return 1.0 - self.b / ax

    def in_domain(self, x) -> bool:
        return bool((self._image(x) > 0).all())

    # dom f is open
    in_interior_domain = in_domain
