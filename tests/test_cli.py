import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from odefilter import SolverConfig, filtering, get_problem
from odefilter.cli import build_parser, main


def run(argv):
    return main(argv)


# Every subcommand's options, written out so that regrouping their declarations
# cannot change a flag: (default, choices, required, kind), where kind is the
# value's type, or "flag" for an option that takes none.
CLI_OPTIONS = {
    "solve": {
        "--problem": (None, None, False, "str"),
        "--problem-file": (None, None, False, "str"),
        "--q": (2, None, False, "int"),
        "--eps": (None, None, True, "float"),
        "--fixed-step": (None, None, False, "float"),
        "--tau": (0.1, None, False, "float"),
        "--per-unit-step": (False, None, False, "flag"),
        "--h-init": (None, None, False, "float"),
        "--init": ("exact", ["exact", "diffuse", "rk"], False, "str"),
        "--obs": ("mean", ["mean", "sampled"], False, "str"),
        "--seed": (0, None, False, "int"),
        "--global-sigma": (False, None, False, "flag"),
        "--samples": (0, None, False, "int"),
        "--lipschitz-star": (None, None, False, "float"),
        "--out": (None, None, False, "str"),
        "--format": ("csv", ["csv", "json"], False, "str"),
    },
    "bench": {
        "--problems": (None, None, True, "str"),
        "--eps": (None, None, True, "str"),
        "--q": (2, None, False, "int"),
        "--tau": (0.1, None, False, "float"),
        "--per-unit-step": (False, None, False, "flag"),
        "--timing": (False, None, False, "flag"),
        "--out": (None, None, False, "str"),
        "--format": ("csv", ["csv", "json"], False, "str"),
    },
    "stability": {
        "--q": (2, None, False, "int"),
        "--grid": ("-4,0.5,0,3,400", None, False, "str"),
        "--out": (None, None, False, "str"),
    },
    "converge": {
        "--problem": (None, None, True, "str"),
        "--q": (2, None, False, "int"),
        "--h-list": (None, None, True, "str"),
        "--out": (None, None, False, "str"),
    },
    "calibrate": {
        "--problem": (None, None, True, "str"),
        "--eps": (None, None, True, "float"),
        "--q": (2, None, False, "int"),
        "--tau": (0.1, None, False, "float"),
        "--per-unit-step": (False, None, False, "flag"),
        "--out": (None, None, False, "str"),
    },
}


@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_parser_options(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_OPTIONS)
    got = {}
    for action in sub.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (option,) = action.option_strings
        assert action.dest == option[2:].replace("-", "_")
        kind = "flag" if action.nargs == 0 else (action.type or str).__name__
        got[option] = (action.default, action.choices, action.required, kind)
    assert got == CLI_OPTIONS[command]


class TestSolveCommand:
    def test_solve_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(["solve", "--problem", "logistic", "--q", "2", "--eps", "0.01",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,mean_0,lo_0,hi_0")
        assert len(lines) > 10
        assert "steps" in capsys.readouterr().out

    def test_solve_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run(["solve", "--problem", "logistic", "--eps", "0.01",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert doc["records"][0]["t"] == 0.0

    def test_samples_and_band_inflation(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["solve", "--problem", "logistic", "--eps", "0.01",
                    "--samples", "2", "--seed", "3", "--lipschitz-star", "1.0",
                    "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "sample0_0" in header and "sample1_0" in header

    @pytest.mark.parametrize("step", [["--h-init", "10"], ["--fixed-step", "3"]])
    def test_diffuse_start_longer_than_the_span_writes_no_row_past_T(self, tmp_path, step):
        out = tmp_path / "s.csv"
        code = run(["solve", "--problem", "logistic", "--init", "diffuse", "--eps", "1e-3",
                    *step, "--out", str(out)])
        assert code == 0
        t = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
        assert t.max() == t[-1] == 1.5

    def test_problem_file(self, tmp_path):
        spec = {"name": "decay", "dim": 1, "t0": 0.0, "T": 1.0, "y0": [1.0],
                "rhs": [{"terms": [{"coef": -1.0, "y_powers": [1]}]}]}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(spec))
        out = tmp_path / "trace.csv"
        assert run(["solve", "--problem-file", str(pfile), "--eps", "0.01",
                    "--out", str(out)]) == 0
        assert out.exists()

    def test_infinite_end_time_is_usage_error(self, tmp_path, capsys):
        # It exited 0 and wrote the single row 0,1,nan,nan.
        spec = {"name": "decay", "dim": 1, "t0": 0.0, "T": float("inf"), "y0": [1.0],
                "rhs": [{"terms": [{"coef": -1.0, "y_powers": [1]}]}]}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(spec))
        assert '"T": Infinity' in pfile.read_text()
        out = tmp_path / "trace.csv"
        assert run(["solve", "--problem-file", str(pfile), "--eps", "1e-3", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", [2.5, True])
    def test_non_integer_dim_is_usage_error(self, tmp_path, capsys, dim):
        spec = {"name": "pair", "dim": dim, "t0": 0.0, "T": 1.0, "y0": [1.0, 1.0],
                "rhs": [{"terms": [{"coef": -1.0, "y_powers": [1, 0]}]},
                        {"terms": [{"coef": -1.0, "y_powers": [0, 1]}]}]}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(spec))
        out = tmp_path / "trace.csv"
        assert run(["solve", "--problem-file", str(pfile), "--eps", "1e-3", "--out", str(out)]) == 2
        assert f"dim must be an integer, got {dim!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_y0_is_usage_error(self, tmp_path, capsys):
        spec = {"name": "decay", "dim": 1, "t0": 0.0, "T": 1.0, "y0": [float("nan")],
                "rhs": [{"terms": [{"coef": -1.0, "y_powers": [1]}]}]}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(spec))
        assert '"y0": [NaN]' in pfile.read_text()
        out = tmp_path / "trace.csv"
        assert run(["solve", "--problem-file", str(pfile), "--eps", "1e-3", "--out", str(out)]) == 2
        assert "y0 must be finite, got y0[0] = nan" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_problem_is_usage_error(self, tmp_path, capsys):
        code = run(["solve", "--problem", "nope", "--eps", "0.1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_negative_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["solve", "--problem", "logistic", "--eps", "0.01", "--samples", "-2",
                    "--out", str(out)])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error_naming_seed(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" came only from a sampled solve.
        out = tmp_path / "x.csv"
        code = run(["solve", "--problem", "logistic", "--eps", "0.01", "--seed", "-1",
                    "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_global_sigma_needs_fixed_step(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["solve", "--problem", "logistic", "--eps", "0.001", "--global-sigma",
                    "--out", str(out)])
        assert code == 2
        assert "fixed_step" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_solve_is_solver_failure(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["solve", "--problem", "brusselator", "--q", "4", "--eps", "1e-3",
                    "--fixed-step", "0.0333333333", "--out", str(out)])
        assert code == 1
        assert "solver failure: solve diverged at t = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        [],
        ["--problem", "logistic", "--problem-file", "p.json"],
    ])
    def test_exactly_one_problem_source(self, tmp_path, capsys, source):
        out = tmp_path / "x.csv"
        code = run(["solve", *source, "--eps", "0.01", "--out", str(out)])
        assert code == 2
        assert "exactly one of --problem / --problem-file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", ["", "missing.json"])
    def test_unreadable_problem_file_is_usage_error_naming_the_file(self, tmp_path, capsys, path):
        # An empty path went to get_problem(None) and exited 1, "solver failure";
        # a missing file printed only its errno, "odefilter solve: 2".
        out = tmp_path / "x.csv"
        assert run(["solve", "--problem-file", path, "--eps", "0.01", "--out", str(out)]) == 2
        assert f"No such file or directory: '{path}'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_argument(self, tmp_path):
        assert run(["solve", "--problem", "logistic", "--out", str(tmp_path / "x.csv")]) == 2

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ODEFILTER_OUTDIR", str(tmp_path))
        assert run(["solve", "--problem", "logistic", "--eps", "0.01"]) == 0
        assert (tmp_path / "solve_logistic.csv").exists()


class TestOtherCommands:
    def test_bench_runs(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--problems", "logistic", "--eps", "0.01,0.001",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("problem,eps,fevals,steps")

    def test_bench_failed_cell_exit_code(self, tmp_path):
        code = run(["bench", "--problems", "nope", "--eps", "0.01",
                    "--out", str(tmp_path / "b.csv")])
        assert code == 1

    def test_runtime_column_only_under_timing(self, tmp_path):
        header = "problem,eps,fevals,steps,deceived_fraction,max_error_per_unit_step,{}status"
        for flags, runtime in (([], ""), (["--timing"], "runtime,")):
            out = tmp_path / "b.csv"
            assert run(["bench", "--problems", "logistic", "--eps", "0.01", *flags,
                        "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == header.format(runtime)
            assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_bench_takes_no_seed(self, tmp_path):
        # bench solves with the mean strategy, which draws nothing.
        code = run(["bench", "--problems", "logistic", "--eps", "0.01", "--seed", "1",
                    "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_stability_grid(self, tmp_path):
        out = tmp_path / "stab.csv"
        code = run(["stability", "--q", "2", "--grid", "-4,0.5,0,3,10", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "re,im,spectral_radius"
        assert len(rows) == 101
        radii = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert radii.min() < 1.0 < radii.max()

    @pytest.mark.parametrize("n", ["0", "-3", "2.5"])
    def test_stability_grid_count_must_be_positive_integer(self, tmp_path, capsys, n):
        out = tmp_path / "stab.csv"
        code = run(["stability", f"--grid=-4,0.5,0,3,{n}", "--out", str(out)])
        assert code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_bad_grid(self, tmp_path, capsys):
        assert run(["stability", "--grid", "1,2,3", "--out", str(tmp_path / "x.csv")]) == 2

    def test_converge(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = run(["converge", "--problem", "logistic", "--q", "2",
                    "--h-list", "0.1,0.05,0.025,0.0125", "--out", str(out)])
        assert code == 0
        assert "fitted order" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "h,error"

    def test_converge_needs_three_distinct_steps(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = run(["converge", "--problem", "logistic", "--h-list", "0.1,0.1,0.05",
                    "--out", str(out)])
        assert code == 2
        assert "three distinct step sizes for an order fit, got [0.1, 0.1, 0.05]" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_converge_refuses_a_poly_degree_below_one(self, tmp_path, capsys):
        # poly(0) would fit order 0 against an exact solution its rhs does not have.
        out = tmp_path / "conv.csv"
        code = run(["converge", "--problem", "poly(0)", "--h-list", "0.1,0.05,0.025",
                    "--out", str(out)])
        assert code == 2
        assert "poly takes an integer degree >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate(self, tmp_path, capsys):
        out = tmp_path / "cal.csv"
        code = run(["calibrate", "--problem", "logistic", "--eps", "0.001",
                    "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "ratio,ecdf,chi1_cdf"
        assert "deceived fraction" in capsys.readouterr().out


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["solve", "--problem", "logistic", "--eps", "0.01",
                        "--obs", "sampled", "--seed", "11", "--samples", "3",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bench_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["bench", "--problems", "logistic,vdp", "--eps", "0.01",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFingerprintTool:
    """``tools/output_fingerprint.py`` prints a line per reference CLI command
    and exits 1 when any of them exits nonzero, since two runs of a failing
    command print the same line and a ``diff`` of them passes."""

    @pytest.fixture
    def tool(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "tools" / "output_fingerprint.py"
        spec = importlib.util.spec_from_file_location("output_fingerprint", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "cells", lambda quick: iter(()))
        monkeypatch.setattr(sys, "argv", [str(path)])
        return module

    def test_backward_change_moves_only_the_posterior_hash(self, tool, monkeypatch):
        problem, config = get_problem("logistic"), SolverConfig(q=2, fixed_step=0.1)
        forward, posterior, outcome = tool.fingerprint(problem, config)
        backward = filtering._backward
        monkeypatch.setattr(filtering, "_backward",
                            lambda *args: tuple(2.0 * x for x in backward(*args)))
        moved = tool.fingerprint(problem, config)
        assert (moved[0], moved[2]) == (forward, outcome) and moved[1] != posterior

    @pytest.mark.parametrize("commands, code", [
        (("solve --problem logistic --eps 0.01 --out a.csv",), 0),
        (("solve --problem logistic --bogus --out a.csv",
          "solve --problem logistic --eps 0.01 --out a.csv"), 1),
    ])
    def test_exit_code_follows_the_commands(self, tool, monkeypatch, capsys, commands, code):
        monkeypatch.setattr(tool, "CLI_COMMANDS", commands)
        assert tool.main() == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(commands)
        assert lines[0].endswith(": exit 2") == bool(code)
