#!/usr/bin/env python3
"""Print SHA-256 lines, two per solve and one per CLI command, to compare two checkouts.

Usage: python3 tools/output_fingerprint.py [--quick]

Imports the package from this checkout's src/ and ``linear_nd`` from its
perfbench/.  Each solve line holds two hashes, which together cover every
bit a solve hands out.  The forward hash covers the state ``initialize``
starts from (so a start is covered even when the solve after it fails), the
path's columns (knots, steps, diffusions, filtered means and factors,
predicted means), the per-step records, the step and evaluation counts, the
diffusion trace and the rebuilt predictions.  The posterior hash covers the
smoothed states, posterior samples, and ``interpolate`` at off-mesh times
inside the span and past its end.  A change to the backward pass alone moves
only posterior hashes.  A solve that raises hashes its error's type and
message instead, into the hash of the part it stopped in.
Then each of the eight reference CLI commands runs in-process in a temporary
directory; its line is the SHA-256 of the file it writes, the command and
the summary line it prints (or its exit code, when that is not 0).  The
script exits 1, after printing every line, if any of those commands exits
nonzero.  Two checkouts whose outputs agree bit for bit print the same lines:

    python3 tools/output_fingerprint.py > a.txt   # in each checkout
    diff a.txt b.txt
    diff <(cut -d' ' -f1,3- a.txt) <(cut -d' ' -f1,3- b.txt)   # without posterior hashes

``--quick`` drops the eps 1e-6 cells, which take most of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import odefilter  # noqa: E402
from odefilter import cli  # noqa: E402
from workloads import LINEAR_CASES, linear_nd  # noqa: E402

PROBLEMS = ("logistic", "brusselator", "vdp")
INITS = ("exact", "diffuse_filter", "rk_starter")
# Each command writes the file its last argument names, inside the working directory.
CLI_COMMANDS = (
    "solve --problem logistic --eps 1e-6 --out solve_logistic.csv",
    "solve --problem vdp --eps 1e-4 --fixed-step 0.02 --global-sigma --format json "
    "--out solve_vdp_global.json",
    "solve --problem brusselator --eps 1e-3 --obs sampled --seed 3 --samples 2 "
    "--out solve_brusselator_sampled.csv",
    "solve --problem logistic --q 4 --init rk --eps 1e-4 --out solve_logistic_q4_rk.csv",
    "bench --problems logistic,brusselator,vdp --eps 1e-3,1e-6 --out bench.csv",
    "stability --q 2 --out stability_q2.csv",
    "converge --problem logistic --q 2 --h-list 0.1,0.05,0.025,0.0125 "
    "--out converge_logistic_q2.csv",
    "calibrate --problem logistic --eps 1e-6 --out calibrate_logistic.csv",
)


def cells(quick: bool):
    """``(label, problem name or linear_nd dimension, config)`` per solve, in a fixed order."""
    config = odefilter.SolverConfig
    for name in PROBLEMS:
        for init in INITS:
            for q in (2, 3, 4):
                yield f"{name} q={q} {init} eps=1e-3", name, config(q=q, eps=1e-3, init_mode=init)
            for eps in (1e-4,) if quick else (1e-4, 1e-6):
                yield f"{name} q=2 {init} eps={eps:g}", name, config(q=2, eps=eps, init_mode=init)
        for init in ("exact", "diffuse_filter"):
            for q in (2, 3, 4):
                yield (f"{name} q={q} {init} eps=1e-3 sampled seed=3", name,
                       config(q=q, eps=1e-3, init_mode=init, obs_strategy="sampled", seed=3))
        problem = odefilter.get_problem(name)
        span = problem.T - problem.t0
        for init in ("exact", "diffuse_filter"):
            yield (f"{name} q=2 {init} fixed=span/200 global_ml", name,
                   config(q=2, fixed_step=span / 200, init_mode=init, sigma_mode="global_ml"))
            yield (f"{name} q=3 {init} fixed=span/300", name,
                   config(q=3, fixed_step=span / 300, init_mode=init))
    for d, steps in LINEAR_CASES:
        yield f"linear_nd d={d} q=2 fixed=1/{steps}", d, config(q=2, fixed_step=1.0 / steps)


def fingerprint(problem: odefilter.IvpProblem,
                config: odefilter.SolverConfig) -> tuple[str, str, str]:
    """The solve's forward and posterior hashes, and its step counts or the name of
    the error it raised."""
    forward, posterior = hashlib.sha256(), hashlib.sha256()
    digest, outcome = forward, ""

    def add(*values):
        for value in values:
            digest.update(np.ascontiguousarray(value, dtype=float).tobytes())

    try:
        start = odefilter.initialize(problem, config)
        add(start.t, start.mean, start.factor)
        result = odefilter.solve(problem, config)
        path = result.path
        outcome = f"{result.steps_accepted} accepted, {result.steps_rejected} rejected"
        add(*(path.columns[name] for name in ("t", "h", "sigma2", "mean", "factor", "pred_mean")))
        steps = result.per_step
        add([[r.t, r.h, r.accepted, r.h_next] for r in steps],
            [r.sigma2_hat for r in steps], [r.D for r in steps])
        add([result.steps_accepted, result.steps_rejected, result.fevals], result.sigma2_trace)
        for state in path.predictions:
            add(state.t, state.mean, state.factor)
        digest = posterior
        odefilter.smooth(path)
        for state in path.smoothed:
            add(state.t, state.mean, state.factor)
        add(odefilter.sample_posterior(path, seed=7, count=3))
        knots = path.knots
        span = knots[-1] - knots[0]
        queries = list(knots[:-1] + 0.37 * np.diff(knots))[:: max(1, len(knots) // 50)]
        for t in queries + [knots[-1] + 0.01 * span, knots[-1] + 0.3 * span]:
            state = odefilter.interpolate(path, t, allow_extrapolation=True)
            add(state.t, state.mean, state.factor)
    except Exception as exc:  # the failure is part of the output
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        outcome = f"{outcome}; " * bool(outcome) + type(exc).__name__
    return forward.hexdigest(), posterior.hexdigest(), outcome


def cli_fingerprints():
    """``(hash of the output file, command, exit code, summary line)`` per
    command of ``CLI_COMMANDS``, run in a temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in CLI_COMMANDS:
                args, stdout = command.split(), io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(args)
                out = Path(args[-1])
                digest = hashlib.sha256(out.read_bytes() if out.exists() else b"").hexdigest()
                yield digest, command, code, stdout.getvalue().strip() if code == 0 else f"exit {code}"
        finally:
            os.chdir(cwd)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="drop the eps 1e-6 cells")
    args = parser.parse_args()
    warnings.simplefilter("ignore")  # overflowing sampled readings warn; their outputs are hashed
    for label, name, config in cells(args.quick):
        problem = linear_nd(name, 0) if isinstance(name, int) else odefilter.get_problem(name)
        forward, posterior, outcome = fingerprint(problem, config)
        print(f"{forward} {posterior}  {label}: {outcome}", flush=True)
    failed = False
    for digest, command, code, summary in cli_fingerprints():
        print(f"{digest}  odefilter {command}: {summary}", flush=True)
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
