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
none. For these three the memo is bit-transparent: a reused image is
the product a fresh call would compute. Each term keeps a private,
read-only copy of b.

The trials of a lam walk recombine instead. ``line_search`` makes its
walk from x in the direction dy current and asks ``value`` at each
trial point x + lam dy; the terms recognise the trial's own array and
take one product A dy per walk and evaluate the point at the image
Ax + lam (A dy), with Ax the image that gave f(x) and grad f(x): they
keep the image of the last gradient query beside the memo, so a query
at another point in between (the domain walk's at y) does not move it.
The recombined image is stored as the image of its point, so f, grad f
and the domain test there all come from that one image; it differs from
A(x + lam dy) in the last bits. A wrapper that passes ``value`` on gets
the same bits and products as the term itself. The memo is plain
instance state: one term instance must not be shared by solves running
in concurrent threads.

The p = 2 residual on a column-major ``LinearMap`` takes the gradient at
a point x with at most n // 8 nonzero entries as
A^T A[:, S] x_S - A^T b, S the support of x, from columns of A^T A that
the map caches (glmnet's covariance update): no A^T product but the one
A^T b per term, and not from the image. Every other gradient is
A^T grad h(Ax).
"""

from __future__ import annotations

import numpy as np

from .linear_map import LinearMap
from .problems import _CURRENT_WALK, SmoothTerm, UsageError, as_vector

__all__ = ["PNormResidual", "KLDivergence"]


# a 0-d zero: a comparison with it skips the conversion of a Python scalar
# that each call with 0 makes, which costs about as much as the comparison
# itself on a short vector
_ZERO = np.zeros(())


class _Composite(SmoothTerm):
    """f(x) = h(Ax) for a ``LinearMap`` A, remembering the last point queried.

    The memo holds one entry: the point's shape and bytes as the key, its
    image Ax, and its gradient once computed. Keying on bytes makes -0.0
    and 0.0 distinct points and lets an array changed in place miss.
    Beside it, ``_base`` keeps the key and image of the last gradient
    query, the base of the next segment, and ``_segment`` the current
    lam walk with its base image and A dy. Subclasses supply h as
    ``_value(ax)`` and its gradient as ``_outer_gradient(ax)``, so that
    grad f(x) = A^T grad h(Ax). The term keeps a private, read-only copy
    of b, so that the caller's later edits do not reach it.
    """

    lower_bound = 0.0
    _key: tuple | None = None
    _ax: np.ndarray | None = None
    _grad: np.ndarray | None = None
    _base: tuple | None = None
    _segment: tuple | None = None

    def __init__(self, a: LinearMap, b):
        self.a = a if isinstance(a, LinearMap) else LinearMap(a)
        self.b = as_vector(b, self.a.shape[0]).copy()
        self.b.flags.writeable = False

    def _image(self, x) -> np.ndarray:
        walk = _CURRENT_WALK.get()
        if walk is not None and walk.point is x:
            seg = self._segment
            if seg is None or seg[0] is not walk:
                seg = self._segment = (walk, self._base_image(walk.x), self.a.apply(walk.dy))
            lam = walk.lam
            # 1.0 * A dy is A dy bit for bit
            ax = seg[1] + seg[2] if lam == 1.0 else seg[1] + lam * seg[2]
            key = (x.shape, x.tobytes())
        else:
            x = np.asarray(x, dtype=float)
            key = (x.shape, x.tobytes())
            if key == self._key:
                return self._ax
            ax = self.a.apply(x)
        self._key, self._ax, self._grad = key, ax, None
        return ax

    def _base_image(self, x) -> np.ndarray:
        """Ax for the start x of a walk: the last gradient query's image when x is its point."""
        base = self._base
        if base is not None and base[0] == (x.shape, x.tobytes()):
            return base[1]
        return self._image(x)

    def value(self, x) -> float:
        return self._value(self._image(x))

    def gradient(self, x) -> np.ndarray:
        ax = self._image(x)
        if self._grad is None:
            self._grad = self._gradient(x, ax)
        self._base = (self._key, ax)
        return self._grad.copy()

    def _gradient(self, x, ax) -> np.ndarray:
        return self.a.adjoint(self._outer_gradient(ax))


class PNormResidual(_Composite):
    """f(x) = (1/p) sum |(Ax - b)_i|^p with p > 1. Full domain.

    At p = 2 the gradient at a point x with at most n // 8 nonzero
    entries on a column-major map is A^T A x - A^T b, read from the
    map's cached Gram columns of x's support; A^T b is taken once,
    through ``adjoint``. It rounds otherwise than A^T (Ax - b) and does
    not depend on what the cache held before.
    """

    _atb: np.ndarray | None = None

    def __init__(self, a: LinearMap, b, p: float = 2.0):
        super().__init__(a, b)
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
        if self.p == 2.0:
            return float(np.add.reduce(r * r) / 2.0)
        return float(np.add.reduce(np.abs(r) ** self.p) / self.p)

    def _outer_gradient(self, ax) -> np.ndarray:
        r = ax - self.b
        if self.p == 2.0:
            r += 0.0  # |r| sign(r) is r, with -0.0 read as +0.0
            return r
        return np.abs(r) ** (self.p - 1.0) * np.sign(r)

    def _gradient(self, x, ax) -> np.ndarray:
        if self.p == 2.0:
            gram = self.a._gram_product(x)
            if gram is not None:
                if self._atb is None:
                    self._atb = self.a.adjoint(self.b)
                return gram - self._atb
        return super()._gradient(x, ax)


class KLDivergence(_Composite):
    """f(x) = D(b, Ax), the Kullback-Leibler divergence of Ax from b.

    A must be entrywise nonnegative with no all-zero row (an all-zero
    row would force (Ax)_i = 0 everywhere, emptying the domain), b
    strictly positive. dom f = {x : Ax > 0 componentwise} is open, so
    the domain and its interior coincide.
    """

    def __init__(self, a: LinearMap, b):
        super().__init__(a, b)
        # judged on the stored blocks: a banded map builds ``a.a`` on each access
        row_live = np.zeros(self.a.shape[0], dtype=bool)
        for r0, r1, _, _, block in self.a._parts:
            if (block < 0).any():
                raise UsageError("KL needs a nonnegative matrix")
            row_live[r0:r1] |= block.any(axis=1)
        if not row_live.all():
            raise UsageError("KL matrix has an all-zero row; the domain would be empty")
        if not np.all(self.b > 0):
            raise UsageError("KL needs b > 0 componentwise")

    def _value(self, ax) -> float:
        if np.count_nonzero(ax <= _ZERO):
            return np.inf
        # b log(b / ax) + ax - b, one operation at a time into one array
        b = self.b
        t = b / ax
        np.log(t, out=t)
        t *= b
        t += ax
        t -= b
        return float(np.add.reduce(t))

    def _outer_gradient(self, ax) -> np.ndarray:
        if np.count_nonzero(ax <= _ZERO):
            raise UsageError("gradient of the KL term needs (Ax)_i > 0 for every i")
        return 1.0 - self.b / ax

    def in_domain(self, x) -> bool:
        # dom f is open, so this is also int dom f; a NaN entry fails
        ax = self._image(x)
        return bool(np.count_nonzero(ax > _ZERO) == ax.size)
