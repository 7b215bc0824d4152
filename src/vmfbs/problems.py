"""Composite problem model.

A problem is a pair (f, g): f smooth on (the interior of) its domain, g
proper convex lower semicontinuous with an implementable prox. Both are
extended-real valued; evaluation outside a domain returns ``inf`` rather
than raising, so that line-search conditions can treat an infeasible
trial as an ordinary failed comparison.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UsageError",
    "SearchFailure",
    "as_vector",
    "check_count",
    "SmoothTerm",
    "ProxTerm",
    "CompositeProblem",
]


class UsageError(ValueError):
    """The caller broke a documented precondition (dimensions, feasibility,
    a gradient outside int dom f), gave an inconsistent or unusable
    configuration, or asked for an operation with no formula for the term."""


class SearchFailure(RuntimeError):
    """Backtracking exhausted its budget.

    ``diagnostics`` carries the last trial state so a failure can be
    reported with the offending iterate.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 1-D array, validating length.

    Scalars become length-1 vectors. Non-finite entries are a usage
    error: every iterate the solver touches must be a real point.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise UsageError(f"expected a vector, got array with shape {v.shape}")
    if dim is not None and v.size != dim:
        raise UsageError(f"expected a vector of length {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise UsageError("vector has non-finite entries")
    return v


def check_count(name: str, value) -> None:
    """Refuse ``value`` unless it is an int or numpy integer (not a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")


class SmoothTerm:
    """Differentiable term f.

    ``value`` returns ``inf`` outside dom f. ``gradient`` is only defined
    on the interior of dom f and raises :class:`UsageError` elsewhere.
    ``in_domain`` is the one domain question the solver asks of f.
    ``lipschitz_bound`` is a global Lipschitz constant of the gradient
    when one is known, else None.
    """

    lipschitz_bound: float | None = None
    #: a known lower bound on the values (needed by the general domain regime)
    lower_bound: float | None = None

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, x: np.ndarray) -> bool:
        """Whether x lies in int dom f, where f is finite and differentiable."""
        return True


class _Walk:
    """One lam walk: the points x + lam * dy, and its current trial ``(lam, point)``."""

    __slots__ = ("x", "dy", "lam", "point")

    def __init__(self, x: np.ndarray, dy: np.ndarray):
        self.x, self.dy = x, dy
        self.lam = self.point = None


# The lam walk that ``line_search`` is running, per thread, or None. A
# term reads it in ``value(point)``: a wrapper that passes ``value`` on
# hands the term the trial's own array, so the term can tell a trial
# point (``walk.point is point``) from any other query.
_CURRENT_WALK: ContextVar[_Walk | None] = ContextVar("vmfbs_current_walk", default=None)


class ProxTerm:
    """Proper convex lsc term g with an implementable proximity operator.

    ``prox(z, gamma, weights)`` solves

        argmin_y  g(y) + (1 / (2 gamma)) * sum_i w_i (y_i - z_i)^2

    with ``weights=None`` meaning the Euclidean case (all ones). Separable
    terms handle arbitrary positive diagonal weights coordinatewise; a
    non-separable term must reject non-uniform weights with
    :class:`UsageError`.

    ``subdiff_distance(p, u)`` is the Euclidean distance from u to the
    subdifferential of g at p, used by the prox optimality residual.
    Terms without a formula raise :class:`UsageError`.
    """

    #: whether g splits as a sum of scalar terms, one per coordinate
    separable: bool = True
    lower_bound: float | None = None

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, z: np.ndarray, gamma: float, weights: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, x: np.ndarray) -> bool:
        return bool(np.isfinite(self.value(x)))

    def subdiff_distance(self, p: np.ndarray, u: np.ndarray) -> float:
        raise UsageError(f"{type(self).__name__} has no subdifferential formula")


@dataclass
class CompositeProblem:
    """Minimize F = f + g over R^dimension.

    ``domain_regime`` selects the assumptions the solver works under:

    - ``"standard"``: dom g is contained in dom f and the gradient of f is
      Lipschitz on dom g. Iterates stay in dom g, so every trial point is
      automatically in dom f.
    - ``"general"``: only dom g intersected with int dom f is workable;
      the solver runs a per-iteration domain search and keeps iterates in
      the interior of dom f.
    """

    f: SmoothTerm
    g: ProxTerm
    dimension: int
    domain_regime: str = "standard"

    def __post_init__(self):
        if self.domain_regime not in ("standard", "general"):
            raise UsageError(
                f"domain_regime must be 'standard' or 'general', got {self.domain_regime!r}"
            )
        check_count("dimension", self.dimension)
