"""Catalog of smooth terms: lp-power residuals and Kullback-Leibler.

Both terms are compositions with a dense linear map A. The lp residual

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
of the vector it multiplies. See its docstring for the guard.
"""

from __future__ import annotations

import math

import numpy as np

from .problems import ConfigurationError, DomainError, SmoothTerm, as_vector

__all__ = [
    "LinearMap",
    "PNormResidual",
    "KLDivergence",
]


# entries per block of the ingest pass: its scratch stays in cache
_INGEST_BLOCK = 1 << 16


def _ingest(a: np.ndarray) -> np.ndarray:
    """C-ordered copy of a finite matrix with subnormal entries set to +0.0.

    One pass in blocks of ``_INGEST_BLOCK`` entries over the copy, with
    reused scratch, so nothing of the matrix's size is allocated beside
    it. Normal entries and signed zeros are kept bit for bit. A row or
    column that had a nonzero entry and only subnormal ones is refused.
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
            raise ConfigurationError("matrix has non-finite entries")
        s = sub[: block.size]
        np.less(m, tiny, out=s)
        if s.any():
            nz = nonzero[: block.size]
            np.greater(m, 0.0, out=nz)
            s &= nz
            if s.any():
                block[s] = 0.0
                flushed = True
    if flushed:
        for axis, name in ((1, "row"), (0, "column")):
            for i in np.flatnonzero(~out.any(axis=axis)).tolist():
                if a.take(i, axis=1 - axis).any():
                    raise ConfigurationError(
                        f"matrix {name} {i} has only subnormal nonzero entries; "
                        "flushing them to zero would empty it (rescale the matrix)"
                    )
    return out


class LinearMap:
    """Dense m x n matrix with a cached, certified operator-norm estimate.

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

    ``matvecs`` counts the products taken through ``apply`` and
    ``adjoint``; the power iteration of ``operator_norm`` is not counted.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ConfigurationError(f"matrix must be 2-D, got shape {a.shape}")
        if a.size == 0:
            raise ConfigurationError("matrix must be nonempty")
        self.a = _ingest(a)
        self.a.flags.writeable = False
        self._opnorm: float | None = None
        self.matvecs = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self.a @ x

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self.a.T @ r

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
        if not self.a.any():
            self._opnorm = 0.0
            return 0.0
        n = self.a.shape[1]
        # deterministic start with a mild index ramp so no eigenvector of a
        # structured matrix is exactly orthogonal to it
        v = np.ones(n) + np.linspace(0.0, 0.1, n)
        v /= np.linalg.norm(v)
        av = self.a @ v
        if np.linalg.norm(self.a.T @ av) == 0.0:
            # ramp start landed in the null space; a dominant row never does
            i = int(np.argmax(np.einsum("ij,ij->i", self.a, self.a)))
            v = self.a[i] / np.linalg.norm(self.a[i])
            av = self.a @ v
        est = 0.0
        stall = 0
        for it in range(20000):
            # av = A v is the previous sweep's certificate product
            w = self.a.T @ av
            v = w / math.sqrt(w @ w)
            av = self.a @ v
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
    """f(x) = h(Ax) for a dense A, remembering the last point queried.

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
            raise ConfigurationError(f"p must be a finite real > 1, got {p}")
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
        if np.any(a.a < 0):
            raise ConfigurationError("KL needs a nonnegative matrix")
        if not np.all(a.a.any(axis=1)):
            raise ConfigurationError("KL matrix has an all-zero row; the domain would be empty")
        self.a = a
        self.b = as_vector(b, a.shape[0])
        if not np.all(self.b > 0):
            raise ConfigurationError("KL needs b > 0 componentwise")

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
