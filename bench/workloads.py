"""The four benchmark workloads, built from a seed through the public vmfbs API.

A workload turns ``--seed`` into a fixed batch of cases. A case is one
composite problem with its start point and the rules that solve it; case
``i`` of a batch draws its data from ``numpy.random.default_rng(seed + i)``
(the dense workload draws its single matrix and all right-hand sides from
``seed``). No case is filtered out. Every solve stops at the workload's
fixed-point tolerance, so each timed solve is the time to a solution of
that accuracy.

``kit`` decides whether the pieces are the plain vmfbs objects or the
span-recording wrappers of ``tracing.py``; both paths build identical
problems from identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import vmfbs

from calibrate import InterpreterKernel, MemoryKernel

BACKTRACKING = ("ls1", "ls2", "ls3", "ls4", "tseng-yun")


@dataclass
class Case:
    """One problem instance and the rules that solve it."""

    label: str
    problem: vmfbs.CompositeProblem
    x0: np.ndarray
    tasks: list  # (rule, SolverConfig) pairs, solved in this order
    data: dict = field(default_factory=dict)  # raw arrays for the plain-numpy checks


def _config(rule, tol, max_iterations, schedule, record_states=False, **search):
    return vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(rule=rule, **search),
        metrics=schedule,
        max_iterations=max_iterations,
        tol_fixed_point=tol,
        record_states=record_states,
    )


class Workload:
    name = ""
    tol = 0.0  # tol_fixed_point of every solve
    shape = (0, 0)  # of the dense operator A
    trace_cases = 0  # cases solved by the traced run
    kernel = InterpreterKernel  # calibration kernel with the workload's cost profile, or None

    def build(self, seed: int, kit) -> list[Case]:
        raise NotImplementedError

    def matrix_bytes(self) -> int:
        """Bytes of one dense operator A (float64), computed from its shape."""
        m, n = self.shape
        return 8 * m * n


class SmallLasso(Workload):
    """c6-shaped lassos: 30x20, A Gaussian / sqrt(n), b Gaussian, L1 weight 0.1."""

    name = "small-lasso"
    tol = 1e-6
    shape = (30, 20)
    cases = 180
    trace_cases = 90

    def build(self, seed, kit):
        m, n = self.shape
        out = []
        for i in range(self.cases):
            rng = np.random.default_rng(seed + i)
            a = rng.standard_normal((m, n)) / np.sqrt(n)
            b = rng.standard_normal(m)
            f = kit.smooth(vmfbs.PNormResidual(kit.linear_map(a), b))
            g = kit.prox(vmfbs.L1Norm(0.1))
            problem = vmfbs.CompositeProblem(f=f, g=g, dimension=n)
            schedule = kit.schedule(vmfbs.constant_schedule(np.ones(n)))
            tasks = [
                (rule, _config(rule, self.tol, 20000, schedule, warm_start=True))
                for rule in BACKTRACKING
            ]
            step = 1.9 / problem.f.lipschitz_bound
            tasks.append(("fixed", _config(
                "fixed", self.tol, 20000, schedule, fixed_gamma=step, fixed_lam=1.0
            )))
            out.append(Case(
                f"seed {seed + i}", problem, np.zeros(n), tasks,
                {"kind": "l1", "a": a, "b": b, "weight": 0.1},
            ))
        return out


class DenseL1(Workload):
    """One 3000x2000 Gaussian matrix, sparse truths plus noise, L1 penalty."""

    name = "dense-l1"
    tol = 1e-6
    shape = (3000, 2000)
    kernel = MemoryKernel
    rhs = 4
    trace_cases = 4
    nonzeros = 100

    def build(self, seed, kit):
        m, n = self.shape
        k = self.nonzeros
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n)) / np.sqrt(n)
        linear_map = kit.linear_map(a)
        g = kit.prox(vmfbs.L1Norm(0.1))
        schedule = kit.schedule(vmfbs.constant_schedule(np.ones(n)))
        tasks = [
            (rule, _config(rule, self.tol, 2000, schedule, warm_start=True))
            for rule in BACKTRACKING
        ]
        out = []
        for j in range(self.rhs):
            x_true = np.zeros(n)
            idx = rng.choice(n, size=k, replace=False)
            x_true[idx] = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
            b = a @ x_true + 0.01 * rng.standard_normal(m)
            f = kit.smooth(vmfbs.PNormResidual(linear_map, b))
            problem = vmfbs.CompositeProblem(f=f, g=g, dimension=n)
            out.append(Case(
                f"seed {seed} rhs {j}", problem, np.zeros(n), tasks,
                {"kind": "l1", "a": a, "b": b, "weight": 0.1},
            ))
        return out


def gaussian_blur(n: int, width: float) -> np.ndarray:
    """Row-normalised Gaussian convolution matrix (nonnegative, ||K||_2 <= 1)."""
    i = np.arange(n)
    k = np.exp(-0.5 * ((i[:, None] - i[None, :]) / width) ** 2)
    return k / k.sum(axis=1, keepdims=True)


class TvDeblur(Workload):
    """n=1000 Gaussian blur (width 3) of a piecewise-constant signal, TV weight 0.05.

    The signal has 19 jumps, spaced 50 apart with a random shift of up to
    15, alternating in sign with magnitudes in [0.5, 1], and noise 0.1.
    Spacing and alternation keep the iteration count of a case within
    about 10% of the batch mean, so a small batch stands for the family.
    """

    name = "tv-deblur"
    tol = 1e-4
    shape = (1000, 1000)
    # Neither kernel follows a pure-Python prox beside two-thread matvecs:
    # scaled by InterpreterKernel, ten runs spread by 0.3, unscaled by 0.2.
    kernel = None
    cases = 10
    trace_cases = 5
    jumps = 19

    def build(self, seed, kit):
        n = self.shape[1]
        k = gaussian_blur(n, 3.0)
        linear_map = kit.linear_map(k)
        g = kit.prox(vmfbs.Tv1dNorm(0.05))
        schedule = kit.schedule(vmfbs.constant_schedule(np.ones(n)))
        tasks = [
            (rule, _config(rule, self.tol, 5000, schedule, warm_start=True))
            for rule in ("ls1", "ls4")
        ]
        signs = np.where(np.arange(self.jumps + 1) % 2 == 1, 1.0, -1.0)
        out = []
        for i in range(self.cases):
            rng = np.random.default_rng(seed + i)
            cuts = np.arange(1, self.jumps + 1) * 50 + rng.integers(-15, 16, self.jumps)
            levels = rng.uniform(0.5, 1.0, self.jumps + 1) * signs
            signal = np.repeat(levels, np.diff(np.r_[0, cuts, n]))
            b = k @ signal + 0.1 * rng.standard_normal(n)
            f = kit.smooth(vmfbs.PNormResidual(linear_map, b))
            problem = vmfbs.CompositeProblem(f=f, g=g, dimension=n)
            out.append(Case(
                f"seed {seed + i}", problem, np.zeros(n), tasks,
                {"kind": "tv", "a": k, "b": b, "weight": 0.05},
            ))
        return out


class KlBbVerify(Workload):
    """c8-shaped KL problems (8x5 nonnegative A, x >= 0, general domain regime).

    A is |Gaussian| + 0.1 as in c8, with 3 added to the diagonal of its top
    5x5 block. Plain c8 matrices give iteration counts from under 100 to
    over 10^4 on neighbouring seeds, so a batch median moves by tens of
    percent from seed to seed; the diagonal boost keeps every case well
    posed while the domain search, the backtracking and the BB metric
    behave as on c8.
    """

    name = "kl-bb-verify"
    tol = 1e-6
    shape = (8, 5)
    cases = 200
    trace_cases = 100

    def build(self, seed, kit):
        m, n = self.shape
        out = []
        for i in range(self.cases):
            rng = np.random.default_rng(seed + i)
            a = np.abs(rng.standard_normal((m, n))) + 0.1
            a[:n] += 3.0 * np.eye(n)
            x_true = np.abs(rng.standard_normal(n)) + 0.5
            b = a @ x_true
            f = kit.smooth(vmfbs.KLDivergence(kit.linear_map(a), b))
            g = kit.prox(vmfbs.BoxIndicator(0.0, np.inf))
            problem = vmfbs.CompositeProblem(f=f, g=g, dimension=n, domain_regime="general")
            schedule = kit.schedule(vmfbs.bb_schedule(n, nu=0.25, mu=4.0))
            tasks = [
                (rule, _config(rule, self.tol, 20000, schedule, record_states=True, gamma_max=8.0))
                for rule in ("ls1", "ls4")
            ]
            out.append(Case(
                f"seed {seed + i}", problem, np.ones(n), tasks,
                {"kind": "kl", "a": a, "b": b, "x_true": x_true},
            ))
        return out


WORKLOADS = {w.name: w for w in (SmallLasso(), DenseL1(), TvDeblur(), KlBbVerify())}
