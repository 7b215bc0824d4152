import json
import re
import subprocess
import sys

import numpy as np
import pytest

import vmfbs
from vmfbs.cli import build_problem, build_solver_config, load_spec, main
from vmfbs.solver import read_trace_csv, solve

TRACE_HEADER = (
    "k,F,gamma,lambda,backtracks,step_norm,mapping_norm,fp_scaled,descent_residual,"
    "decrease_residual,check_max_residual,domain_gamma,f_evals,grad_evals,prox_evals"
)


def write_spec(tmp_path, spec, name="exp.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def lasso_spec(**solver):
    return {
        "problem": {
            "smooth": {"type": "quadratic", "matrix": [[1.0]], "b": [3.0]},
            "regularizer": {"type": "l1", "weight": 1.0},
            "x0": [0.0],
        },
        "solver": {"max_iterations": 5, **solver},
        "output": {},
    }


def random_spec(seed_a=11, seed_b=12, **solver):
    return {
        "problem": {
            "smooth": {
                "type": "quadratic",
                "matrix": {"random": {"rows": 6, "cols": 4, "seed": seed_a}},
                "b": {"random": {"size": 6, "seed": seed_b}},
            },
            "regularizer": {"type": "l1", "weight": 0.1},
        },
        "solver": {"max_iterations": 25, **solver},
        "output": {},
    }


# --- solve -------------------------------------------------------------------

def test_solve_lasso_writes_trace(tmp_path, capsys):
    spec = write_spec(tmp_path, lasso_spec())
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--spec", spec, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,4.5,1,1,0,2,")
    assert "fixed_point" in capsys.readouterr().out


def test_solve_trace_roundtrip(tmp_path):
    spec = write_spec(tmp_path, random_spec())
    out = str(tmp_path / "trace.csv")
    main(["solve", "--spec", spec, "--out", out])
    frame = read_trace_csv(out)
    assert len(frame) == 25
    # 17 significant digits survive the round trip bit for bit
    reparsed = [f"{v:.17g}" for v in frame.F]
    raw = [ln.split(",")[1] for ln in open(out).read().splitlines()[1:]]
    assert reparsed == raw


@pytest.mark.parametrize("regime", ["standard", "general"])
def test_solve_trace_csv_round_trips_every_column(tmp_path, regime):
    if regime == "standard":
        spec_dict = random_spec(rule="ls4", warm_start=True)
    else:  # domain walk, BB metric, checks off: the NaN-capable columns
        spec_dict = random_spec(rule="ls1", gamma_max=8.0,
                                metrics={"type": "bb", "nu": 0.25, "mu": 4.0})
        spec_dict["problem"]["smooth"] = {
            "type": "kl",
            "matrix": {"random": {"rows": 8, "cols": 5, "seed": 3, "kind": "positive"}},
            "b": {"random": {"size": 8, "seed": 4, "kind": "positive"}},
        }
        spec_dict["problem"]["regularizer"] = {"type": "box", "lo": 0.0}
        spec_dict["problem"]["x0"] = [1.0] * 5
        spec_dict["problem"]["domain_regime"] = "general"
    spec_dict["output"]["checks"] = regime == "standard"
    spec = write_spec(tmp_path, spec_dict)
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--spec", spec, "--out", out]) == 0

    problem, x0 = build_problem(load_spec(spec))
    trace = solve(problem, x0, build_solver_config(load_spec(spec), problem.dimension)).trace
    frame = read_trace_csv(out)
    assert len(frame) == len(trace) == 25
    for name in vmfbs.IterateTrace._fields:
        want, got = trace.column(name), frame.column(name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want, equal_nan=True), name
    # rows index too (NaN marks the columns a run does not fill)
    for i in (0, -1):
        row = frame[i]
        assert isinstance(row, vmfbs.IterateTrace)
        assert all(a == b or (np.isnan(a) and np.isnan(b)) for a, b in zip(row, trace[i]))


def test_solve_deterministic_byte_identical(tmp_path):
    spec = write_spec(tmp_path, random_spec())
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["solve", "--spec", spec, "--out", a])
    main(["solve", "--spec", spec, "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_seed_override_is_deterministic_and_distinct(tmp_path):
    spec = write_spec(tmp_path, random_spec())
    runs = {}
    for tag, seed in (("s7", "7"), ("s7b", "7"), ("s8", "8")):
        out = str(tmp_path / f"{tag}.csv")
        main(["solve", "--spec", spec, "--out", out, "--seed", seed])
        runs[tag] = open(out, "rb").read()
    assert runs["s7"] == runs["s7b"]
    assert runs["s7"] != runs["s8"]


def test_solve_uses_output_trace_field(tmp_path):
    spec_dict = lasso_spec()
    spec_dict["output"]["trace"] = str(tmp_path / "configured.csv")
    spec = write_spec(tmp_path, spec_dict)
    assert main(["solve", "--spec", spec]) == 0
    assert (tmp_path / "configured.csv").exists()


def test_solve_x0_from_file(tmp_path):
    np.savetxt(tmp_path / "x0.txt", [1.0])
    spec_dict = lasso_spec()
    spec_dict["problem"]["x0"] = {"path": str(tmp_path / "x0.txt")}
    spec = write_spec(tmp_path, spec_dict)
    out = str(tmp_path / "t.csv")
    assert main(["solve", "--spec", spec, "--out", out]) == 0
    frame = read_trace_csv(out)
    assert frame.F[0] == pytest.approx(3.0)  # 0.5*(1-3)^2 + 1


def test_solve_search_failure_exits_3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        lasso_spec(delta=0.01, max_backtracks=1, rule="ls1"),
    )
    spec_dict = json.load(open(spec))
    spec_dict["problem"]["smooth"] = {"type": "quadratic", "matrix": [[2.0]], "b": [0.0]}
    spec_dict["problem"]["regularizer"] = {"type": "zero"}
    spec_dict["problem"]["x0"] = [1.0]
    spec = write_spec(tmp_path, spec_dict, "fail.json")
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "f.csv")]) == 3
    assert "search failure" in capsys.readouterr().err


def test_search_failure_prints_the_step_not_the_iterate(tmp_path, capsys):
    # a 40-dimensional iterate: the message names the failing step and
    # prints no array
    n = 40
    spec_dict = lasso_spec(delta=0.01, max_backtracks=1, rule="ls1")
    spec_dict["problem"]["smooth"] = {
        "type": "quadratic", "matrix": (2.0 * np.eye(n)).tolist(), "b": [0.0] * n,
    }
    spec_dict["problem"]["regularizer"] = {"type": "zero"}
    spec_dict["problem"]["x0"] = np.linspace(1.0, 2.0, n).tolist()
    spec = write_spec(tmp_path, spec_dict)
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "f.csv")]) == 3
    err = capsys.readouterr().err
    line = next(s for s in err.splitlines() if s.startswith("search failure"))
    fields = dict(re.findall(r"(\w+)=(\S+)", line))
    assert fields["rule"] == "ls1" and fields["iteration"] == "0"
    for key in ("gamma_last", "lam_last", "lhs", "rhs"):
        float(fields[key])
    assert float(fields["lhs"]) > float(fields["rhs"])
    assert "[" not in err and "array" not in err and "1.025641" not in err


# --- strict spec validation -----------------------------------------------------

def table_metrics(**fields):
    """A valid metric table for the one-dimensional lasso, with ``fields`` replaced."""
    return {"type": "table", "weights": [[1.0], [1.5]], "nu": 1.0, "mu": 1.5,
            "regime": "growth", **fields}


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda s: s.update(extra=1), "spec: unknown key"),
        (lambda s: s["problem"].update(shape="big"), "problem: unknown key"),
        (lambda s: s["solver"].update(momentum=0.9), "solver: unknown key"),
        (lambda s: s["problem"].pop("regularizer"), "problem: missing required"),
        (lambda s: s["problem"]["smooth"].update(p=3), "problem.smooth: unknown key"),
        (lambda s: s["problem"]["regularizer"].pop("weight"),
         "problem.regularizer: missing required"),
        (lambda s: s["solver"].update(rule="ls9"), "solver.rule"),
        (lambda s: s["solver"].update(max_iterations=0), "solver"),
        (lambda s: s["output"].update(plot=True), "output: unknown key"),
        (lambda s: s["solver"].update(max_backtracks="7"),
         "solver.max_backtracks: expected a number"),
        (lambda s: s["solver"].update(warm_start=1), "solver.warm_start: expected true/false"),
        (lambda s: s["output"].update(checks="no"), "output.checks: expected true/false"),
        (lambda s: s["solver"].update(metrics={"type": "constant", "weights": ["heavy"]}),
         "solver.metrics.weights: not numeric"),
        (lambda s: s["solver"].update(metrics=table_metrics(weights=[[1.0], ["x"]])),
         "solver.metrics.weights[1]: not numeric"),
        (lambda s: s["solver"].update(metrics=table_metrics(regime=5)),
         "solver.metrics.regime: expected one of"),
        (lambda s: s["solver"].update(metrics=table_metrics(extend="hold")),
         "solver.metrics: unknown key(s) ['extend']"),
        (lambda s: s["solver"].update(metrics={"type": "constant", "weights": [1.0, 2.0]}),
         "solver.metrics.weights: expected 1 weights"),
        # the library's own refusals, under the block that was refused
        (lambda s: s["problem"]["smooth"].update(type="pnorm", p=0.5),
         "problem.smooth: p must be a finite real > 1, got 0.5"),
        (lambda s: s["problem"]["smooth"].update(type="kl", matrix=[[-1.0]]),
         "problem.smooth: KL needs a nonnegative matrix"),
        (lambda s: s["problem"].update(domain_regime="weird"),
         "problem: domain_regime must be 'standard' or 'general', got 'weird'"),
        (lambda s: s["problem"]["regularizer"].update(weight=-1),
         "problem.regularizer: l1 weight must be positive and finite, got -1.0"),
        (lambda s: s["problem"].update(regularizer={"type": "box", "lo": 1.0, "hi": 0.0}),
         "problem.regularizer: empty box"),
        (lambda s: s["problem"].update(regularizer={"type": "box", "lo": float("nan"), "hi": 2.0}),
         "problem.regularizer: empty box: lo > hi or a NaN bound"),
        (lambda s: s["problem"].update(
            regularizer={"type": "separable", "pieces": [{"kind": "abs", "weight": 0}]}),
         "problem.regularizer.pieces[0].weight: abs weight must be positive and finite, got 0.0"),
        (lambda s: s["problem"].update(x0=[0.0, 1.0]),
         "problem.x0: expected a vector of length 1, got 2"),
    ],
)
def test_spec_validation_names_the_field(tmp_path, capsys, mutate, needle):
    spec_dict = lasso_spec()
    mutate(spec_dict)
    spec = write_spec(tmp_path, spec_dict)
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert needle in capsys.readouterr().err


def test_random_block_requires_seed_unless_overridden(tmp_path, capsys):
    spec_dict = random_spec()
    del spec_dict["problem"]["smooth"]["matrix"]["random"]["seed"]
    spec = write_spec(tmp_path, spec_dict)
    out = str(tmp_path / "t.csv")
    assert main(["solve", "--spec", spec, "--out", out]) == 2
    assert ".seed" in capsys.readouterr().err
    assert main(["solve", "--spec", spec, "--out", out, "--seed", "3"]) == 0


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--spec", str(p), "--out", str(tmp_path / "t.csv")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_spec_file_exits_2(tmp_path, capsys):
    assert main(["solve", "--spec", str(tmp_path / "absent.json")]) == 2
    assert "cannot read spec" in capsys.readouterr().err


def test_infeasible_interior_start_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "problem": {
            "smooth": {"type": "kl", "matrix": [[1.0]], "b": [1.0]},
            "regularizer": {"type": "box", "lo": 0.0},
            "x0": [0.0],
            "domain_regime": "general",
        },
        "solver": {"max_iterations": 5},
        "output": {},
    })
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert "interior" in capsys.readouterr().err


def test_empty_solver_block_builds_the_default_config(tmp_path):
    # the dataclasses hold the only defaults
    spec = load_spec(write_spec(tmp_path, {"problem": lasso_spec()["problem"]}))
    assert build_solver_config(spec, 1) == vmfbs.SolverConfig()


def test_solver_block_passes_the_keys_it_sets(tmp_path):
    spec = load_spec(write_spec(tmp_path, lasso_spec(
        rule="ls3", delta=0.25, max_backtracks=7, warm_start=True, record_states=True,
        gamma_schedule=2, tol_fixed_point=1e-9,
    )))
    assert build_solver_config(spec, 1) == vmfbs.SolverConfig(
        linesearch=vmfbs.LineSearchConfig(
            rule="ls3", delta=0.25, max_backtracks=7, warm_start=True
        ),
        max_iterations=5, record_states=True, gamma_schedule=2.0, tol_fixed_point=1e-9,
    )


SEPARABLE_PIECES = [
    {"kind": "abs", "weight": 1.0},
    {"kind": "interval", "lo": None, "hi": 1.0},
    {"kind": "zero"},
]


def separable_spec(pieces):
    # f = 0.5 ||x - b||^2, so one step at gamma = 1 lands on prox_g(b)
    return {
        "problem": {
            "smooth": {"type": "quadratic", "matrix": np.eye(3).tolist(), "b": [3.0, 2.0, -1.5]},
            "regularizer": {"type": "separable", "pieces": pieces},
        },
        "solver": {"max_iterations": 20},
        "output": {},
    }


def test_solve_separable_regularizer(tmp_path, capsys):
    path = write_spec(tmp_path, separable_spec(SEPARABLE_PIECES))
    spec = load_spec(path)
    problem, x0 = build_problem(spec)
    assert np.array_equal(problem.g.weight, [1.0, 0.0, 0.0])
    assert np.array_equal(problem.g.box.lo, [-np.inf, -np.inf, -np.inf])
    assert np.array_equal(problem.g.box.hi, [np.inf, 1.0, np.inf])
    result = solve(problem, x0, build_solver_config(spec, problem.dimension))
    assert result.termination == "fixed_point"
    assert np.array_equal(result.x_final, [2.0, 1.0, -1.5])
    assert result.F_final == 3.0
    out = str(tmp_path / "t.csv")
    assert main(["solve", "--spec", path, "--out", out]) == 0
    assert open(out).read().splitlines()[0] == TRACE_HEADER


@pytest.mark.parametrize(
    "pieces, needle",
    [
        (SEPARABLE_PIECES[:2], "problem.regularizer.pieces: expected a list of length 3"),
        (SEPARABLE_PIECES[:2] + [{"kind": "huber"}],
         "problem.regularizer.pieces[2].kind: expected abs|interval|zero, got 'huber'"),
        (SEPARABLE_PIECES[:1] + [{"kind": "interval", "lo": 2.0, "hi": 1.0}, {"kind": "zero"}],
         "problem.regularizer: empty interval [2.0, 1.0] at coordinate 1"),
    ],
)
def test_separable_regularizer_errors_name_the_field(tmp_path, capsys, pieces, needle):
    spec = write_spec(tmp_path, separable_spec(pieces))
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert needle in capsys.readouterr().err


# --- compare ----------------------------------------------------------------------

def test_compare_default_rules(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec(max_iterations=400,
                                            tol_fixed_point=1e-10))
    assert main(["compare", "--spec", spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("rule,termination,iterations,f_evals,grad_evals,"
                        "prox_evals,min_gamma,min_lambda,F_final")
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "ls1", "ls2", "ls3", "ls4", "tseng-yun"
    ]
    # every rule reaches a comparable objective on this easy instance
    finals = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert max(finals) - min(finals) < 1e-3


def test_compare_rule_subset_and_out(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec())
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--spec", spec, "--rules", "ls1,ls3", "--out", out]) == 0
    written = open(out).read()
    assert written == capsys.readouterr().out
    rows = written.splitlines()
    assert len(rows) == 3 and rows[1].startswith("ls1,") and rows[2].startswith("ls3,")


def test_compare_rejects_unknown_rule(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec())
    assert main(["compare", "--spec", spec, "--rules", "ls1,armijo"]) == 2
    assert "--rules" in capsys.readouterr().err


# --- validate-metrics ----------------------------------------------------------------

def test_validate_metrics_table(tmp_path, capsys):
    spec_dict = random_spec()
    spec_dict["solver"]["metrics"] = {
        "type": "table",
        "weights": [[1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2]],
        "nu": 1.0,
        "mu": 1.2,
        "regime": "growth",
        "growth_budget": 1.0,
    }
    spec = write_spec(tmp_path, spec_dict)
    assert main(["validate-metrics", "--spec", spec, "--horizon", "10"]) == 0
    out = capsys.readouterr().out.lower()
    assert "growth" in out and "spread" in out


def test_validate_metrics_bb_needs_a_run(tmp_path, capsys):
    spec_dict = random_spec()
    spec_dict["solver"]["metrics"] = {
        "type": "bb", "nu": 0.25, "mu": 4.0, "growth_budget": 1.0, "spread_budget": 1.0,
    }
    spec = write_spec(tmp_path, spec_dict)
    assert main(["validate-metrics", "--spec", spec, "--horizon", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "growth: n/a: needs a run, the weights depend on the solver state",
        "spread: n/a: needs a run, the weights depend on the solver state",
    ]


@pytest.mark.parametrize("budget", ["growth_budget", "spread_budget"])
def test_validate_metrics_checks_the_budgets(tmp_path, capsys, budget):
    spec_dict = lasso_spec(metrics=table_metrics(**{budget: "1"}))
    spec = write_spec(tmp_path, spec_dict)
    assert main(["validate-metrics", "--spec", spec, "--horizon", "10"]) == 2
    assert f"solver.metrics.{budget}: expected a number" in capsys.readouterr().err


def test_validate_metrics_bad_horizon(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec())
    assert main(["validate-metrics", "--spec", spec, "--horizon", "0"]) == 2


# --- rate -------------------------------------------------------------------------------

def test_rate_lasso(tmp_path, capsys):
    spec = write_spec(tmp_path, lasso_spec())
    fstar = tmp_path / "fstar.txt"
    fstar.write_text("2.5\n")
    out = str(tmp_path / "rate.csv")
    assert main(["rate", "--spec", spec, "--fstar", str(fstar), "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "k,F,r"
    assert len(lines) == 3
    printed = capsys.readouterr().out
    assert "sup_{k>=1} k*(F_k - F*) = 0" in printed


def test_rate_requires_fstar(tmp_path, capsys):
    spec = write_spec(tmp_path, lasso_spec())
    assert main(["rate", "--spec", spec]) == 2
    assert "--fstar" in capsys.readouterr().err


def test_rate_rejects_reference_above_trace(tmp_path, capsys):
    spec = write_spec(tmp_path, lasso_spec())
    fstar = tmp_path / "fstar.txt"
    fstar.write_text("3.0")
    assert main(["rate", "--spec", spec, "--fstar", str(fstar),
                 "--out", str(tmp_path / "r.csv")]) == 2


# --- console entry point -------------------------------------------------------------------

def test_installed_script_runs(tmp_path):
    spec = write_spec(tmp_path, lasso_spec())
    out = str(tmp_path / "t.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "vmfbs.cli", "solve", "--spec", spec, "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert open(out).read().splitlines()[0] == TRACE_HEADER
