"""vmfbs benchmark: one workload in one process, closed loop.

Run from the repository root:

    python3 bench/run.py --workload small-lasso --seed 1 --seconds 20 --trace 0

Solves run one at a time, each started after the previous one returned.
With ``--trace 0`` the run measures the end-to-end metrics with no
wrappers in the way. With ``--trace 1`` every solve of a fixed prefix of
the batch runs twice, plain and then through the span-recording wrappers
of ``tracing.py``, and the run reports the per-layer metrics; the two
runs must give identical results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
print the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("small-lasso", "dense-l1", "tv-deblur", "kl-bb-verify")

# The BLAS thread count is fixed per workload and set for this process (and
# the import probes it starts) before numpy loads: one dense matvec of
# dense-l1 costs 3.3 ms on one thread and 1.4 ms on two, so it must be the
# same on both sides of a comparison. One thread by default: on a 2-core
# Xeon VM shared with other tenants, two-thread 48 MB matvecs swung by 30%
# from process to process and one-thread ones by 11%. tv-deblur keeps two,
# so that its 8 MB blur stays below the TV prox it is meant to exercise
# (with one thread the matvecs take 46% of a solve and the prox 45%).
BLAS_THREADS = {"tv-deblur": 2}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median of several set-ups in one run: the import is timed
# in this process and in fresh interpreters, the build is repeated here.
IMPORT_SAMPLES = 3
BUILD_SAMPLES = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import vmfbs; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_import_time() -> float:
    """Seconds of ``import vmfbs`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS.get(args.workload, 1), len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    if not (SRC / "vmfbs" / "__init__.py").is_file():
        print(f"bench: vmfbs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import vmfbs
    import_samples = [perf_counter() - t0]
    if Path(vmfbs.__file__).resolve().parent != (SRC / "vmfbs").resolve():
        print(f"bench: imported vmfbs from {vmfbs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_samples += [probe_import_time() for _ in range(IMPORT_SAMPLES - 1)]

    import measure
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup, cases = measure.set_up(wl, args.seed, import_samples, BUILD_SAMPLES)
    print("env " + json.dumps(environment(wl, threads), sort_keys=True))
    if args.trace:
        result = measure.traced_run(wl, args.seed, cases, setup)
        OUT.mkdir(exist_ok=True)
        result.pop("tracer").save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    else:
        result = measure.untraced_run(wl, cases, args.seconds, setup)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        )
    report(result)
    return 0


def report(result) -> None:
    for line in result.get("notes", []):
        print(line)
    metrics = result["metrics"]
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':<{width}}  {failed / attempted:.6g} ({failed} of {attempted} solves)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment(wl, threads) -> dict:
    """Versions, BLAS, CPU and caches (read-only from /proc and /sys)."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    cpu_model = None
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_core_or_shared": caches,
        "matrix_shape": list(wl.shape),
        "matrix_bytes_computed": wl.matrix_bytes(),
    }


if __name__ == "__main__":
    sys.exit(main())
