import json
import re
import subprocess
import sys

import numpy as np
import pytest

import vmfbs
from vmfbs.cli import build_problem, build_solver_config, load_spec, main
from vmfbs.solver import read_trace_csv, solve, write_trace_csv

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


def test_build_problem_takes_a_spec_built_by_hand():
    # the spec carries no state of its own: a dict never read from a file
    # builds, and a seed N stands for the seeds N, N+1, ... of the random
    # blocks in the order they are read
    x = np.linspace(-1.0, 1.0, 4)
    seeded, _ = build_problem(random_spec(), seed=7)
    as_given, _ = build_problem(random_spec(seed_a=7, seed_b=8))
    assert seeded.f.value(x) == as_given.f.value(x)
    assert build_problem(random_spec())[0].f.value(x) != seeded.f.value(x)


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


def test_solve_tv1d_regularizer(tmp_path, capsys):
    spec_dict = lasso_spec()
    spec_dict["problem"] = {
        "smooth": {"type": "quadratic", "matrix": np.eye(4).tolist(), "b": [0, 0.1, 1, 1.1]},
        "regularizer": {"type": "tv1d", "weight": 0.2},
    }
    spec = write_spec(tmp_path, spec_dict)
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 0
    assert capsys.readouterr().out.startswith(
        "fixed_point after 2 iterations, F = 0.18500000000000003;")


@pytest.mark.parametrize("command, suffix", [("solve", "_trace.csv"), ("rate", "_rate.csv")])
def test_default_output_path_is_the_spec_stem(tmp_path, capsys, command, suffix):
    # neither --out nor output.trace: the file sits beside the spec
    spec = write_spec(tmp_path, lasso_spec(), "run.json")
    fstar = tmp_path / "fstar.txt"
    fstar.write_text("2.5\n")
    extra = ["--fstar", str(fstar)] if command == "rate" else []
    assert main([command, "--spec", spec, *extra]) == 0
    out = tmp_path / f"run{suffix}"
    assert out.exists()
    assert capsys.readouterr().out.endswith(f"-> {out}\n")


def test_rate_leaves_the_configured_trace_alone(tmp_path, capsys):
    # output.trace names solve's trace only, so rate after solve keeps it
    spec_dict = lasso_spec()
    spec_dict["output"]["trace"] = str(tmp_path / "configured.csv")
    spec = write_spec(tmp_path, spec_dict, "run.json")
    fstar = tmp_path / "fstar.txt"
    fstar.write_text("2.5\n")
    assert main(["solve", "--spec", spec]) == 0
    trace = (tmp_path / "configured.csv").read_bytes()
    assert main(["rate", "--spec", spec, "--fstar", str(fstar)]) == 0
    assert (tmp_path / "configured.csv").read_bytes() == trace
    assert trace.decode().startswith(TRACE_HEADER + "\n")
    assert (tmp_path / "run_rate.csv").read_text().startswith("k,F,r\n")
    assert capsys.readouterr().out.endswith(f"rate table -> {tmp_path / 'run_rate.csv'}\n")


# a first search that fails: at x0 = (100, -100) the p = 4 residual's
# gradient is about 1e10, and none of ls1's three trials passes its test
FIRST_SEARCH_FAILS = {
    "problem": {
        "smooth": {"type": "pnorm", "p": 4, "matrix": [[10, 0], [0, 10]], "b": [1, -1]},
        "regularizer": {"type": "l1", "weight": 0.1},
        "x0": [100, -100],
    },
    "solver": {"rule": "ls1", "max_backtracks": 2, "max_iterations": 5},
}

# the third search fails: the run of the failure batch of golden_paths.py
THIRD_SEARCH_FAILS = {
    "problem": {
        "smooth": {"type": "quadratic", "matrix": [[2.0]], "b": [0.0]},
        "regularizer": {"type": "zero"},
        "x0": [1.0],
    },
    "solver": {
        "rule": "ls1", "delta": 0.3, "max_backtracks": 2, "max_iterations": 10,
        "metrics": {"type": "table", "weights": [[4.0], [2.0], [1.0]], "nu": 1.0, "mu": 4.0,
                    "regime": "growth"},
    },
}


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
        (lambda s: s["problem"].update(regularizer={"type": "box", "lo": [0.0, 1.0]}),
         "problem.regularizer.lo: expected 1 values (one per coordinate), got 2"),
        (lambda s: s["problem"].update(regularizer={"type": "box", "hi": [True]}),
         "problem.regularizer.hi[0]: expected a number or null, got True"),
        (lambda s: s["problem"].update(x0=[0.0, 1.0]),
         "problem.x0: expected a vector of length 1, got 2"),
        # a count must be an integer: 3.7 used to run 3 iterations and exit 0
        (lambda s: s["solver"].update(max_iterations=3.7),
         "solver.max_iterations: expected an integer, got 3.7"),
        (lambda s: s["solver"].update(max_backtracks=2.5),
         "solver.max_backtracks: expected an integer, got 2.5"),
        (lambda s: s["solver"].update(stall_window=2.5, tol_objective_stall=1e-3),
         "solver.stall_window: expected an integer, got 2.5"),
        (lambda s: s["problem"]["smooth"].update(matrix={"random": {"rows": 1.5, "cols": 1}}),
         "problem.smooth.matrix.random.rows: expected an integer, got 1.5"),
        # json writes and reads the NaN literal
        (lambda s: s["solver"].update(tol_fixed_point=float("nan")),
         "solver: tol_fixed_point must be nonnegative, got nan"),
        # a constant schedule is refused before the run, under its block
        (lambda s: s["solver"].update(lam_schedule=float("nan")),
         "solver: lam_schedule must lie in (0,1], got nan"),
        (lambda s: s["solver"].update(gamma_schedule=0),
         "solver: gamma_schedule must be positive and finite, got 0.0"),
        # F* comes from rate's --fstar alone
        (lambda s: s["output"].update(f_star=0), "output: unknown key(s) ['f_star']"),
        # the lam walks start at 1: there is no lam grid top to set
        (lambda s: s["solver"].update(lam_max=1.0), "solver: unknown key(s) ['lam_max']"),
        # a trace path is a non-empty string: open(1) is file descriptor 1,
        # stdout, and open(["x"]) a TypeError
        (lambda s: s["output"].update(trace=1),
         "output.trace: expected a non-empty string, got 1"),
        (lambda s: s["output"].update(trace=["x"]),
         "output.trace: expected a non-empty string, got ['x']"),
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


@pytest.mark.parametrize(
    "seed, flag, needle",
    [
        ("x", [], "problem.smooth.matrix.random.seed: expected a number, got 'x'"),
        (1.5, [], "problem.smooth.matrix.random.seed: expected an integer, got 1.5"),
        (True, [], "problem.smooth.matrix.random.seed: expected a number, got True"),
        (-1, [], "problem.smooth.matrix.random.seed: expected a nonnegative integer, got -1"),
        (11, ["--seed", "-1"], "--seed: expected a nonnegative integer, got -1"),
    ],
)
def test_random_block_seed_is_a_nonnegative_integer(tmp_path, capsys, seed, flag, needle):
    # numpy's generator takes neither a string, a fraction nor a negative
    # seed, and would read true as 1
    spec_dict = random_spec()
    spec_dict["problem"]["smooth"]["matrix"]["random"]["seed"] = seed
    spec = write_spec(tmp_path, spec_dict)
    out = tmp_path / "t.csv"
    assert main(["solve", "--spec", spec, "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


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


def separable_spec(**regularizer):
    # f = 0.5 ||x - b||^2, so one step at gamma = 1 lands on prox_g(b)
    return {
        "problem": {
            "smooth": {"type": "quadratic", "matrix": np.eye(4).tolist(),
                       "b": [3.0, 2.0, -1.5, 3.0]},
            "regularizer": {"type": "separable", **regularizer},
        },
        "solver": {"max_iterations": 20},
        "output": {},
    }


# |x_0|, x_1 <= 1, nothing on x_2, and |x_3| on [-1, 1.5]
SEPARABLE = {"weight": [1.0, 0, 0, 1], "lo": [None, None, None, -1],
             "hi": [None, 1, None, 1.5]}


def test_solve_separable_regularizer(tmp_path):
    path = write_spec(tmp_path, separable_spec(**SEPARABLE))
    spec = load_spec(path)
    problem, x0 = build_problem(spec)
    assert np.array_equal(problem.g.weight, [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(problem.g.box.lo, [-np.inf, -np.inf, -np.inf, -1.0])
    assert np.array_equal(problem.g.box.hi, [np.inf, 1.0, np.inf, 1.5])
    result = solve(problem, x0, build_solver_config(spec, problem.dimension))
    assert result.termination == "fixed_point"
    # the last coordinate is both: soft threshold 3 -> 2, then clamp to 1.5
    assert np.array_equal(result.x_final, [2.0, 1.0, -1.5, 1.5])
    assert result.F_final == 0.5 * (1.0 + 1.0 + 0.0 + 2.25) + 2.0 + 1.5


def test_separable_scalars_and_missing_keys(tmp_path):
    # a number serves every coordinate; a missing weight is 0, a missing
    # or null bound is infinite, and a weight of 0 is allowed
    g = build_problem(load_spec(write_spec(tmp_path, separable_spec(lo=-1.0, hi=None))))[0].g
    assert np.array_equal(g.weight, np.zeros(4))
    assert np.array_equal(g.box.lo, [-1.0] * 4) and np.array_equal(g.box.hi, [np.inf] * 4)
    g = build_problem(load_spec(write_spec(tmp_path, separable_spec(weight=0))))[0].g
    assert np.array_equal(g.weight, np.zeros(4)) and np.array_equal(g.box.lo, [-np.inf] * 4)


def test_separable_trace_is_the_library_trace(tmp_path):
    # the CLI's trace, byte for byte, is a library solve's with the same term
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
    # x_2 carries a weight and an interval and ends on its lower bound
    spec_dict = separable_spec(weight=[0.3, 0.0, 0.05, 0.0], lo=[None, -0.2, -0.02, None],
                               hi=[None, 0.2, 0.1, 0.1])
    spec_dict["problem"]["smooth"].update(matrix=a.tolist(), b=b.tolist())
    spec_dict["solver"].update(rule="ls3", max_iterations=40, gamma_max=4.0)
    path = write_spec(tmp_path, spec_dict)
    out = str(tmp_path / "cli.csv")
    assert main(["solve", "--spec", path, "--out", out]) == 0

    g = vmfbs.SeparableProx([0.3, 0.0, 0.05, 0.0], [-np.inf, -0.2, -0.02, -np.inf],
                            [np.inf, 0.2, 0.1, 0.1])
    problem = vmfbs.CompositeProblem(f=vmfbs.PNormResidual(a, b, p=2.0), g=g, dimension=4)
    config = vmfbs.SolverConfig(linesearch=vmfbs.LineSearchConfig(rule="ls3", gamma_max=4.0),
                                max_iterations=40)
    lib = str(tmp_path / "lib.csv")
    result = solve(problem, np.zeros(4), config)
    assert np.array_equal(result.x_final, [0.0, -0.2, -0.02, 0.1])
    write_trace_csv(lib, result.trace)
    assert open(out, "rb").read() == open(lib, "rb").read()
    assert len(result.trace) == 8


@pytest.mark.parametrize(
    "regularizer, needle",
    [
        ({**SEPARABLE, "lo": [None, 0.0]},
         "problem.regularizer.lo: expected 4 values (one per coordinate), got 2"),
        ({**SEPARABLE, "weight": None},
         "problem.regularizer.weight: expected a number, got None"),
        ({**SEPARABLE, "weight": [1.0, None, 0, 0]},
         "problem.regularizer.weight[1]: expected a number, got None"),
        ({**SEPARABLE, "hi": [None, "one", None, 1.5]},
         "problem.regularizer.hi[1]: expected a number or null, got 'one'"),
        # the values themselves are refused by SeparableProx
        ({**SEPARABLE, "weight": -1},
         "problem.regularizer: weight must be nonnegative and finite, got -1.0 at coordinate 0"),
        ({**SEPARABLE, "lo": [None, 2.0, None, None]},
         "problem.regularizer: empty interval [2.0, 1.0] at coordinate 1"),
        ({"pieces": [{"kind": "abs", "weight": 1.0}]},
         "problem.regularizer: unknown key(s) ['pieces']"),
    ],
)
def test_separable_regularizer_errors_name_the_field(tmp_path, capsys, regularizer, needle):
    spec = write_spec(tmp_path, separable_spec(**regularizer))
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

    # a 4x3 KL spec in the general domain regime (box lo 0, x0 ones): the
    # domain walk, ls3's domain test and the step the walk finishes; every
    # rule stops at the fixed-point tolerance
    spec = write_spec(tmp_path, {
        "problem": {
            "smooth": {"type": "kl", "matrix": [[1, 2, 0], [0, 1, 1], [1, 0, 1], [2, 1, 1]],
                       "b": [3.0, 1.0, 2.0, 4.0]},
            "regularizer": {"type": "box", "lo": 0},
            "x0": [1, 1, 1],
            "domain_regime": "general",
        },
        "solver": {"gamma_max": 8, "tol_fixed_point": 1e-6},
    }, "kl.json")
    assert main(["compare", "--spec", spec]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (rule, "fixed_point") for rule in ("ls1", "ls2", "ls3", "ls4", "tseng-yun")
    ]


def test_compare_rule_subset_and_out(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec())
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--spec", spec, "--rules", "ls1,ls3", "--out", out]) == 0
    written = open(out).read()
    assert written == capsys.readouterr().out
    rows = written.splitlines()
    assert len(rows) == 3 and rows[1].startswith("ls1,") and rows[2].startswith("ls3,")


def test_compare_writes_an_error_row_for_a_refused_rule(tmp_path, capsys):
    spec = write_spec(tmp_path, lasso_spec())
    assert main(["compare", "--spec", spec, "--rules", "ls1,fixed"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("ls1,fixed_point,")
    assert rows[2] == "fixed,error: fixed-step mode needs fixed_gamma and fixed_lam,0,0,0,0,nan,nan,nan"


def test_compare_rejects_unknown_rule(tmp_path, capsys):
    spec = write_spec(tmp_path, random_spec())
    assert main(["compare", "--spec", spec, "--rules", "ls1,armijo"]) == 2
    assert "--rules" in capsys.readouterr().err


# --- validate-metrics ----------------------------------------------------------------

def test_validate_metrics_table(tmp_path, capsys):
    # two rows: the last one holds past the end of the table, so the
    # growth is 0.5 over the 4 steps of a horizon of 5
    spec = write_spec(tmp_path, {
        "problem": {
            "smooth": {"type": "quadratic", "matrix": [[1, 0], [0, 1]], "b": [1.0, -1.0]},
            "regularizer": {"type": "l1", "weight": 0.1},
        },
        "solver": {"metrics": {"type": "table", "weights": [[1, 1], [1.5, 1]], "nu": 1,
                               "mu": 1.5, "regime": "growth", "growth_budget": 1}},
    })
    assert main(["validate-metrics", "--spec", spec, "--horizon", "5"]) == 0
    growth, spread = capsys.readouterr().out.splitlines()
    assert growth == "growth: sum eta over 4 steps = 0.5 (budget 1.0, pass)"
    assert spread.startswith("spread: ")


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


@pytest.mark.parametrize(
    "solver, needle",
    [
        ({"rule": "ls9"}, "solver.rule: expected one of"),
        ({"delta": 5}, "solver: delta must lie in (0,1), got 5.0"),
        ({"max_iterations": 2.5}, "solver.max_iterations: expected an integer, got 2.5"),
    ],
)
def test_validate_metrics_refuses_what_solve_refuses(tmp_path, capsys, solver, needle):
    # every command builds the whole solver block; these used to pass here
    spec = write_spec(tmp_path, lasso_spec(metrics=table_metrics(), **solver))
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 2
    solve_err = capsys.readouterr().err
    assert needle in solve_err
    assert main(["validate-metrics", "--spec", spec]) == 2
    assert capsys.readouterr().err == solve_err


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


@pytest.mark.parametrize(
    "content, needle",
    [(None, "cannot read --fstar"), ("1 2\n", "--fstar file does not hold a single number"),
     ("", "--fstar file does not hold a single number")],
)
def test_rate_refuses_an_unreadable_reference(tmp_path, capsys, content, needle):
    spec = write_spec(tmp_path, lasso_spec())
    fstar = tmp_path / "fstar.txt"
    if content is not None:
        fstar.write_text(content)
    assert main(["rate", "--spec", spec, "--fstar", str(fstar),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("spec_dict, rows", [(FIRST_SEARCH_FAILS, 0), (THIRD_SEARCH_FAILS, 2)])
def test_rate_reports_a_search_failure_as_solve_does(tmp_path, capsys, spec_dict, rows):
    # exit 3 and solve's stderr line; a first search that fails leaves the
    # table its header alone (it used to exit 2 with "empty trace")
    spec = write_spec(tmp_path, spec_dict)
    fstar = tmp_path / "fstar.txt"
    fstar.write_text("0\n")
    assert main(["solve", "--spec", spec, "--out", str(tmp_path / "t.csv")]) == 3
    solve_err = capsys.readouterr().err
    assert solve_err.startswith("search failure: rule=ls1 iteration=")
    out = tmp_path / "r.csv"
    assert main(["rate", "--spec", spec, "--fstar", str(fstar), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == solve_err
    lines = out.read_text().splitlines()
    assert lines[0] == "k,F,r" and len(lines) == 1 + rows
    assert captured.out.endswith(f"rate table -> {out}\n")
    assert ("sup_{k>=1}" in captured.out) == (rows > 0)


def test_rate_rejects_a_nan_reference(tmp_path, capsys, monkeypatch):
    # a NaN F* used to print nan tails and exit 0; a non-finite F* is now
    # refused when it is read, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called for a non-finite F*")

    monkeypatch.setattr("vmfbs.cli.solve", no_solve)
    spec = write_spec(tmp_path, lasso_spec())
    fstar = tmp_path / "fstar.txt"
    for text in ("nan", "inf", "-inf"):
        fstar.write_text(text + "\n")
        assert main(["rate", "--spec", spec, "--fstar", str(fstar),
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"--fstar must be finite, got {float(text)!r}" in capsys.readouterr().err


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
