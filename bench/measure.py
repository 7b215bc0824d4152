"""Set-up, the closed measuring loop and the metrics computed from it."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import vmfbs

import checks
import tracing


@dataclass
class SolveRecord:
    """What one solve left behind once its result was checked and dropped."""

    rule: str
    seconds: float
    verify_seconds: float = math.nan
    iterations: int = 0
    F_final: float = math.nan
    x_final: np.ndarray | None = None
    problems: list = field(default_factory=list)  # every miss; each one fails the solve
    wrong_answer: bool = False  # a miss of the plain-numpy checks on x_final / F_final
    quasi_fejer: bool | None = None
    evals: tuple = (0, 0, 0)
    backtracks: int = 0
    searches: int = 0
    states_bytes: int = 0
    root_span: int = -1


def set_up(wl, seed, import_samples, build_samples):
    """Build the batch ``build_samples`` times; time it; keep the last build."""
    times = []
    cases = None
    for _ in range(build_samples):
        cases = None  # free the previous build before timing the next one
        t0 = perf_counter()
        cases = wl.build(seed, tracing.Plain())
        times.append(perf_counter() - t0)
    setup = {
        "import_s": statistics.median(import_samples),
        "build_s": statistics.median(times),
    }
    _add_reference(cases)
    return setup, cases


def _add_reference(cases) -> None:
    """Reference constants for the checks, computed outside the timed set-up."""
    bounds = {}
    for case in cases:
        data = case.data
        if data["kind"] == "l1":
            key = id(data["a"])
            if key not in bounds:
                bounds[key] = checks.lipschitz_upper(data["a"])
            data["lipschitz"] = bounds[key]


def _post_hoc(case, res) -> tuple[dict, bool | None]:
    """vmfbs's own verdicts on a result: inline reports, and re-checks of states."""
    verdicts = {name: report.passed for name, report in res.verification.items()}
    quasi = None
    if res.states is not None:
        verdicts["descent_recheck"] = vmfbs.check_descent_inequality(res, case.problem).passed
        quasi = vmfbs.check_quasi_fejer(res, case.data["x_true"], case.problem).passed
    return verdicts, quasi


def solve_one(case, rule, config, kit) -> SolveRecord:
    span = len(kit.tracer) if kit.tracer is not None else -1
    t0 = perf_counter()
    try:
        res = kit.call("solver", vmfbs.solve, case.problem, case.x0, config)
    except Exception as exc:  # a solve that raises is a failed solve; the run goes on
        return SolveRecord(rule, perf_counter() - t0, problems=[f"raised {exc!r}"], wrong_answer=True)
    seconds = perf_counter() - t0
    t0 = perf_counter()
    verdicts, quasi = kit.call("diagnostics", _post_hoc, case, res)
    verify_seconds = perf_counter() - t0
    problems = [f"vmfbs {name} check failed" for name, ok in verdicts.items() if not ok]
    wrong = checks.check_solve(case.data, res, config.tol_fixed_point)
    trace = res.trace
    backtracks = int(trace.backtracks.sum())
    searches = len(trace)
    if case.problem.domain_regime == "general":
        # one domain search per iteration; its grid index is its backtrack count
        ls = config.linesearch
        steps = np.log(ls.gamma_max / trace.domain_gamma) / np.log(1.0 / ls.theta)
        backtracks += int(np.rint(steps).sum())
        searches *= 2
    states = res.states
    return SolveRecord(
        rule=rule,
        seconds=seconds,
        verify_seconds=verify_seconds,
        iterations=len(trace),
        F_final=res.F_final,
        x_final=res.x_final,
        problems=problems + wrong,
        wrong_answer=bool(wrong),
        quasi_fejer=quasi,
        evals=(res.f_evals, res.grad_evals, res.prox_evals),
        backtracks=backtracks,
        searches=searches,
        states_bytes=0 if states is None else states.xs.nbytes + states.ys.nbytes + states.weights.nbytes,
        root_span=span,
    )


def _agree(records, tol) -> None:
    """Flag the rules of one case whose F_final disagrees with the others."""
    bad = checks.check_agreement({i: r.F_final for i, r in enumerate(records)}, tol)
    for i, problem in bad.items():
        records[i].problems.append(problem)
        records[i].wrong_answer = True


def run_case(case, kit, tol) -> list[SolveRecord]:
    records = [solve_one(case, rule, config, kit) for rule, config in case.tasks]
    _agree(records, tol)
    for r in records:
        r.x_final = None
    return records


def _quantile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def untraced_run(wl, cases, seconds, setup) -> dict:
    """Passes over the batch while another one fits in ``seconds``.

    If the workload has a calibration kernel, it runs before every case
    and the solve timings are scaled to its reference speed
    (``calibrate.py``); the raw values are printed beside them.
    """
    kit = tracing.Plain()
    kernel = wl.kernel() if wl.kernel is not None else None
    kernel_s = []
    passes = []
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        this = []
        for case in cases:
            if kernel is not None:
                kernel_s.append(kernel())
            this += run_case(case, kit, wl.tol)
        passes.append(this)
        pass_seconds = perf_counter() - t_pass
        if perf_counter() - t_start + pass_seconds > seconds:
            break
    loop_seconds = perf_counter() - t_start
    first = passes[0]
    repeat_ok = all(
        [(r.iterations, r.F_final) for r in p] == [(r.iterations, r.F_final) for r in first]
        for p in passes[1:]
    )
    records = [r for p in passes for r in p]
    returned = [r for r in records if r.iterations]  # solves that gave a result
    times = np.array([r.seconds for r in returned])
    raw = {
        "solve_s.p50": (_quantile(times, 50), "s"),
        "solve_s.p90": (_quantile(times, 90), "s"),
        "iter_us.mean": (float(times.sum()) / sum(r.iterations for r in returned) * 1e6, "us"),
        "solves_per_s": (len(records) / loop_seconds, "1/s"),
    }
    slowdown = statistics.median(kernel_s) / kernel.reference_s if kernel is not None else 1.0
    metrics = {"setup_s": (setup["import_s"] + setup["build_s"], "s")}
    for name, (value, unit) in raw.items():
        metrics[name] = (value * slowdown if unit == "1/s" else value / slowdown, unit)
    metrics["iterations"] = (sum(r.iterations for r in first), "count")
    failed = [r for r in records if r.problems]
    notes = [
        f"workload {wl.name}: {len(first)} solves per pass, {len(passes)} passes, "
        f"{len(records)} solves in {loop_seconds:.2f} s; tolerance {wl.tol:g}",
        f"setup: import {setup['import_s']:.4f} s + build {setup['build_s']:.4f} s (medians)",
    ]
    if kernel is not None:
        notes += [
            f"{type(kernel).__name__}: median {statistics.median(kernel_s) * 1e3:.4f} ms over "
            f"{len(kernel_s)} runs, reference {kernel.reference_s * 1e3:g} ms; slowdown {slowdown:.4f}",
            "raw " + json.dumps({name: value for name, (value, _) in raw.items()}),
        ]
    notes += _quasi_note(records)
    if not repeat_ok:
        notes.append("ERROR: a later pass gave other iteration counts or F_final than the first")
    notes += _failure_notes(failed)
    return {
        "correct": repeat_ok and not any(r.wrong_answer for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "notes": notes,
    }


def _failure_notes(failed) -> list[str]:
    """The first few failed solves, then how many there were in all."""
    notes = [f"FAILED {r.rule}: {'; '.join(r.problems)}" for r in failed[:5]]
    if len(failed) > 5:
        notes.append(f"... {len(failed)} failed solves in all")
    return notes


def _quasi_note(records) -> list[str]:
    verdicts = [r.quasi_fejer for r in records if r.quasi_fejer is not None]
    if not verdicts:
        return []
    return [f"check_quasi_fejer toward x_true (reported, not gated): "
            f"{sum(verdicts)} of {len(verdicts)} solves pass"]


def traced_run(wl, seed, cases, setup) -> dict:
    """Each solve of the trace prefix plain, then traced; per-layer metrics."""
    tracer = tracing.Tracer()
    traced_kit = tracing.Traced(tracer)
    traced_cases = wl.build(seed, traced_kit)
    _add_reference(traced_cases)
    plain_kit = tracing.Plain()
    plain, traced = [], []
    mismatches = []
    for case, tcase in list(zip(cases, traced_cases))[: wl.trace_cases]:
        for (rule, config), (_, tconfig) in zip(case.tasks, tcase.tasks):
            p = solve_one(case, rule, config, plain_kit)
            t = solve_one(tcase, rule, tconfig, traced_kit)
            same = (
                p.iterations == t.iterations
                and p.F_final == t.F_final
                and p.x_final is not None and t.x_final is not None
                and np.array_equal(p.x_final, t.x_final)
            )
            if not same:
                mismatches.append(f"{case.label} {rule}: traced and plain solves differ")
            plain.append(p)
            traced.append(t)
        for group in (plain[-len(case.tasks):], traced[-len(case.tasks):]):
            _agree(group, wl.tol)
            for r in group:
                r.x_final = None

    metrics, notes, selfsum_ok = layer_metrics(wl, tracer, traced)
    overhead = (_quantile([r.seconds for r in traced], 50) / _quantile([r.seconds for r in plain], 50)) - 1.0
    metrics["diagnostics.verify_s.p50"] = (_quantile([r.verify_seconds for r in plain if r.iterations], 50), "s")
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.build_s"] = (setup["build_s"], "s")
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    records = plain + traced
    failed = [r for r in records if r.problems]
    notes = [
        f"workload {wl.name}: {len(plain)} solves traced, each also run plain; "
        f"tolerance {wl.tol:g}",
    ] + notes + _quasi_note(traced) + mismatches
    notes += _failure_notes(failed)
    return {
        "correct": not any(r.wrong_answer for r in records) and not mismatches and selfsum_ok,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "notes": notes,
        "tracer": tracer,
    }


def layer_metrics(wl, tracer, records):
    """Per-layer metrics from the spans of the traced solves."""
    t = tracer.table()
    codes, roots = t["codes"], t["roots"]
    code = {name: i for i, name in enumerate(tracing.SPAN_NAMES)}
    in_solve = codes[roots] == code["solver"]
    is_root = t["parents"] < 0
    span_total = float(t["duration"][is_root & (codes == code["solver"])].sum())
    iters = sum(r.iterations for r in records)

    def sel(*names, within=in_solve):
        return within & np.isin(codes, [code[n] for n in names])

    def self_s(*names, within=in_solve):
        return float(t["self"][sel(*names, within=within)].sum())

    def dur_s(*names):
        return float(t["duration"][sel(*names)].sum())

    def per_iter(*names):
        return int(sel(*names).sum()) / iters

    layer_self = {
        "solver": self_s("solver"),
        "smooth": self_s("smooth.value", "smooth.grad", "smooth.domain"),
        "smooth.linearmap": self_s("smooth.linearmap"),
        "prox": self_s("prox.prox", "prox.gvalue", "prox.domain"),
        "metrics": self_s("metrics"),
    }
    selfsum = sum(layer_self.values())
    selfsum_ok = abs(selfsum - span_total) <= 1e-9 * span_total
    matvecs = per_iter("smooth.linearmap")
    us = 1e6 / iters
    trials = sum(r.searches + r.backtracks for r in records)
    in_diag = codes[roots] == code["diagnostics"]
    metrics = {
        "solver.self_us_per_iter": (layer_self["solver"] * us, "us"),
        "solver.share": (layer_self["solver"] / span_total, "fraction"),
        "smooth.linearmap.matvecs_per_iter": (matvecs, "count"),
        "smooth.linearmap.us_per_iter": (dur_s("smooth.linearmap") * us, "us"),
        "smooth.linearmap.gb_per_iter_computed": (matvecs * wl.matrix_bytes() / 1e9, "GB"),
        "smooth.value.calls_per_iter": (per_iter("smooth.value"), "count"),
        "smooth.grad.calls_per_iter": (per_iter("smooth.grad"), "count"),
        "smooth.domain.calls_per_iter": (per_iter("smooth.domain"), "count"),
        "smooth.self_us_per_iter": (layer_self["smooth"] * us, "us"),
        "prox.prox.calls_per_iter": (per_iter("prox.prox"), "count"),
        "prox.prox.us_per_iter": (dur_s("prox.prox") * us, "us"),
        "prox.gvalue.calls_per_iter": (per_iter("prox.gvalue"), "count"),
        "prox.share": (layer_self["prox"] / span_total, "fraction"),
        "metrics.calls_per_iter": (per_iter("metrics"), "count"),
        "metrics.us_per_iter": (dur_s("metrics") * us, "us"),
        "metrics.share": (layer_self["metrics"] / span_total, "fraction"),
        "linesearch.backtracks_per_iter": (sum(r.backtracks for r in records) / iters, "count"),
        "linesearch.accept_ratio": (sum(r.searches for r in records) / trials, "fraction"),
        "diagnostics.self_us_per_iter": (self_s("diagnostics", within=in_diag) * us, "us"),
        "diagnostics.states_mb_computed": (
            statistics.fmean(r.states_bytes for r in records) / 1e6, "MB"),
        "trace.counter_mismatches": (_counter_mismatches(t, code, records), "count"),
    }
    shares = ", ".join(f"{name} {v / span_total:.1%}" for name, v in layer_self.items())
    notes = [
        f"layer self time / solve span: {shares}; sum {selfsum / span_total:.9f} of "
        f"{span_total:.4f} s over {len(records)} solves, {iters} iterations",
    ]
    if not selfsum_ok:
        notes.append("ERROR: layer self times do not add up to the solve span")
    return metrics, notes, selfsum_ok


def _counter_mismatches(t, code, records) -> int:
    """Solves whose span counts differ from SolveResult's own counters.

    Known gaps, allowed for: g.value is never counted by the solver, and
    with record_states the gradient at the final iterate (emitted for the
    metric row after the last step) is verification-only and uncounted.
    """
    codes, roots = t["codes"], t["roots"]
    n = codes.size
    counts = [
        np.bincount(roots[codes == code[name]], minlength=n)
        for name in ("smooth.value", "smooth.grad", "prox.prox")
    ]
    bad = 0
    for r in records:
        if r.root_span < 0 or not r.iterations:
            continue
        f, g, p = (int(c[r.root_span]) for c in counts)
        final_grad = 1 if r.states_bytes else 0
        if (f, g - final_grad, p) != r.evals:
            bad += 1
    return bad
