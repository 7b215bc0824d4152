"""Machine-speed calibration with fixed plain-numpy kernels (no vmfbs code).

Small shared machines drift in speed over minutes: on a 2-core Xeon VM
shared with other tenants, in seven processes started one after
another, the median time of one small vmfbs solve ranged over 53%, while
its ratio to ``InterpreterKernel`` ranged over 7%. On a workload that
names a kernel, the measuring loop therefore times it before every case
and scales the solve timings by reference_s / median(kernel time), which
reports them at the speed the kernel had on that VM. A change to vmfbs
moves the solve times but not the kernel, so it shows in full.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class InterpreterKernel:
    """60 steps of a backtracking prox-gradient lasso solve, with per-step records.

    Small numpy calls plus Python-level bookkeeping, the cost profile of
    a vmfbs solve at small n.
    """

    reference_s = 2.6e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((30, 20)) / np.sqrt(20)
        self.b = rng.standard_normal(30)

    def __call__(self) -> float:
        a, b = self.a, self.b

        def f(v):
            r = a @ v - b
            return 0.5 * float(r @ r)

        t0 = perf_counter()
        x = np.zeros(20)
        gamma = 1.0
        rows = []
        for k in range(60):
            g = a.T @ (a @ x - b)
            fx = f(x)
            for _ in range(20):
                z = x - gamma * g
                y = np.sign(z) * np.maximum(np.abs(z) - 0.1 * gamma, 0.0)
                d = y - x
                if f(y) - fx - float(d @ g) <= 0.5 / gamma * float(d @ d) + 1e-14:
                    break
                gamma *= 0.5
            rows.append((k, fx, gamma, float(np.linalg.norm(d))))
            x = y
            gamma = min(1.0, 2.0 * gamma)
        return perf_counter() - t0


class MemoryKernel:
    """Sum of a fixed 48 MB array: streams memory like a 3000x2000 matvec."""

    reference_s = 6.3e-3

    def __init__(self):
        self.buf = np.random.default_rng(0).standard_normal(6_000_000)

    def __call__(self) -> float:
        t0 = perf_counter()
        float(self.buf.sum())
        return perf_counter() - t0
