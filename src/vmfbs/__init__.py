"""Variable-metric forward-backward splitting with inexact line searches.

Minimizes f + g for smooth f and prox-friendly g under a per-iteration
diagonal metric, with four backtracking stepsize rules, a
sufficient-decrease rule, and a validated fixed-step mode. Diagnostics
re-verify the inequalities each run is supposed to satisfy.
"""

from .diagnostics import (
    CheckReport,
    check_descent_inequality,
    check_quasi_fejer,
    check_stepsize_floor,
    estimate_rate,
)
from .linesearch import RULES, LineSearchConfig
from .metrics import (
    MetricSchedule,
    StepSnapshot,
    SummabilityReport,
    bb_schedule,
    constant_schedule,
    table_schedule,
    validate_growth,
    validate_spread,
)
from .problems import (
    CompositeProblem,
    DomainError,
    ProxTerm,
    SearchFailure,
    SmoothTerm,
    Unsupported,
    UsageError,
)
from .prox import (
    BoxIndicator,
    L1Norm,
    SeparableProx,
    Tv1dNorm,
    ZeroTerm,
    prox_optimality_residual,
    prox_tv1d,
    soft_threshold,
)
from .smooth import KLDivergence, LinearMap, PNormResidual
from .solver import (
    TERMINATIONS,
    IterateTrace,
    SolveResult,
    SolverConfig,
    Trace,
    fixed_step_validate,
    read_trace_csv,
    solve,
)

__all__ = [
    "BoxIndicator",
    "CheckReport",
    "CompositeProblem",
    "DomainError",
    "IterateTrace",
    "KLDivergence",
    "L1Norm",
    "LineSearchConfig",
    "LinearMap",
    "MetricSchedule",
    "PNormResidual",
    "ProxTerm",
    "RULES",
    "SearchFailure",
    "SeparableProx",
    "SmoothTerm",
    "SolveResult",
    "SolverConfig",
    "StepSnapshot",
    "SummabilityReport",
    "TERMINATIONS",
    "Trace",
    "Tv1dNorm",
    "Unsupported",
    "UsageError",
    "ZeroTerm",
    "bb_schedule",
    "check_descent_inequality",
    "check_quasi_fejer",
    "check_stepsize_floor",
    "constant_schedule",
    "estimate_rate",
    "fixed_step_validate",
    "prox_optimality_residual",
    "prox_tv1d",
    "read_trace_csv",
    "soft_threshold",
    "solve",
    "table_schedule",
    "validate_growth",
    "validate_spread",
]
