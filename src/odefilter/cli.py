"""Command-line interface: solve, bench, stability, converge, calibrate.

Exit codes: 0 on success, 1 on solver failure, 2 on usage errors.  The
ODEFILTER_OUTDIR environment variable sets the directory used when --out is
omitted.  All numeric output is written at full round-trip precision and
repeated invocations with identical arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, bench
from .filtering import sample_posterior, smooth
from .problems import get_problem, load_problem_file, local_errors
from .solver import SolverConfig, solve

__all__ = ["main", "build_parser"]


def _out_path(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    base = Path(os.environ.get("ODEFILTER_OUTDIR", "."))
    return base / default_name


def _load_problem(args):
    if getattr(args, "problem_file", None):
        return load_problem_file(args.problem_file)
    return get_problem(args.problem)


def _config_from(args) -> SolverConfig:
    init_mode = {"exact": "exact", "diffuse": "diffuse_filter", "rk": "rk_starter"}[args.init]
    return SolverConfig(
        q=args.q,
        eps=args.eps,
        weighting_tau=args.tau,
        per_unit_step=args.per_unit_step,
        fixed_step=args.fixed_step,
        h_init=args.h_init,
        init_mode=init_mode,
        obs_strategy=args.obs,
        seed=args.seed,
        sigma_mode="global_ml" if args.global_sigma else "local_ml",
    )


def _add_solver_options(p: argparse.ArgumentParser):
    p.add_argument("--q", type=int, default=2, help="derivative order of the prior")
    p.add_argument("--eps", type=float, required=True, help="error-test tolerance")
    p.add_argument("--fixed-step", type=float, default=None, dest="fixed_step")
    p.add_argument("--tau", type=float, default=0.1, help="error weighting parameter")
    p.add_argument("--per-unit-step", action="store_true", dest="per_unit_step",
                   help="test error per unit step (eps*h) instead of per step (eps)")
    p.add_argument("--h-init", type=float, default=None, dest="h_init")
    p.add_argument("--init", choices=["exact", "diffuse", "rk"], default="exact")
    p.add_argument("--obs", choices=["mean", "sampled"], default="mean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--global-sigma", action="store_true",
                   help="constant diffusion with a whole-run estimate (fixed step only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odefilter",
                                     description="Gaussian-filtering ODE solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and emit the posterior trace")
    p_solve.add_argument("--problem", default=None)
    p_solve.add_argument("--problem-file", default=None,
                         help="JSON file describing a custom problem")
    _add_solver_options(p_solve)
    p_solve.add_argument("--samples", type=int, default=0,
                         help="also emit this many posterior sample trajectories")
    p_solve.add_argument("--lipschitz-star", type=float, default=None,
                         help="inflate reported bands to global-error scale exp(L*(T-t0))")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=["csv", "json"], default="csv")

    p_bench = sub.add_parser("bench", help="sweep problems x tolerances with classic quality metrics")
    p_bench.add_argument("--problems", required=True, help="comma-separated problem names")
    p_bench.add_argument("--eps", required=True, help="comma-separated tolerances")
    p_bench.add_argument("--q", type=int, default=2)
    p_bench.add_argument("--tau", type=float, default=0.1)
    p_bench.add_argument("--per-unit-step", action="store_true", dest="per_unit_step")
    p_bench.add_argument("--timing", action="store_true", help="include wall-clock column")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")

    p_stab = sub.add_parser("stability", help="spectral-radius scan of the steady-state method")
    p_stab.add_argument("--q", type=int, default=2)
    p_stab.add_argument("--grid", default="-4,0.5,0,3,400",
                        help="RE0,RE1,IM0,IM1,N for the zeta grid")
    p_stab.add_argument("--out", default=None)

    p_conv = sub.add_parser("converge", help="empirical order from fixed-step runs")
    p_conv.add_argument("--problem", required=True)
    p_conv.add_argument("--q", type=int, default=2)
    p_conv.add_argument("--h-list", required=True, dest="h_list",
                        help="comma-separated step sizes")
    p_conv.add_argument("--out", default=None)

    p_cal = sub.add_parser("calibrate", help="local-error calibration table for one run")
    p_cal.add_argument("--problem", required=True)
    p_cal.add_argument("--eps", type=float, required=True)
    p_cal.add_argument("--q", type=int, default=2)
    p_cal.add_argument("--tau", type=float, default=0.1)
    p_cal.add_argument("--per-unit-step", action="store_true", dest="per_unit_step")
    p_cal.add_argument("--out", default=None)
    return parser


def _cmd_solve(args) -> int:
    if (args.problem is None) == (args.problem_file is None):
        print("solve: give exactly one of --problem / --problem-file", file=sys.stderr)
        return 2
    if args.samples < 0:
        print(f"solve: --samples must be >= 0, got {args.samples}", file=sys.stderr)
        return 2
    problem = _load_problem(args)
    config = _config_from(args)
    result = solve(problem, config)
    smooth(result.path)

    band = 1.0
    if args.lipschitz_star is not None:
        from .stepcontrol import global_error_factor

        band = global_error_factor(args.lipschitz_star, problem.t0, problem.T)

    q1 = result.path.model.block_size
    rows = []
    samples = None
    if args.samples > 0:
        samples = sample_posterior(result.path, seed=args.seed, count=args.samples)
    for n, state in enumerate(result.path.smoothed):
        row = {"t": result.path.knots[n]}
        std = state.std()
        for k in range(problem.dim):
            m = state.mean[k * q1]
            s = band * std[k * q1]
            row[f"mean_{k}"] = m
            row[f"lo_{k}"] = m - 2.0 * s
            row[f"hi_{k}"] = m + 2.0 * s
        if samples is not None:
            for j in range(args.samples):
                for k in range(problem.dim):
                    row[f"sample{j}_{k}"] = samples[j, n, k * q1]
        rows.append(row)
    out = _out_path(args, f"solve_{problem.name}.{args.format}")
    bench.emit(rows, args.format, out)
    print(f"{problem.name}: {result.steps_accepted} steps "
          f"({result.steps_rejected} rejected), {result.fevals} evaluations -> {out}")
    return 0


def _cmd_bench(args) -> int:
    config = SolverConfig(q=args.q, weighting_tau=args.tau, per_unit_step=args.per_unit_step)
    problems = [p for p in args.problems.split(",") if p]
    eps_list = [float(e) for e in args.eps.split(",") if e]
    records = bench.run_benchmark(problems, eps_list, config)
    out = _out_path(args, f"bench.{args.format}")
    bench.emit(records, args.format, out, include_runtime=args.timing)
    failed = [r for r in records if r.status != "ok"]
    print(f"bench: {len(records)} cells, {len(failed)} failed -> {out}")
    return 0 if not failed else 1


def _cmd_stability(args) -> int:
    parts = [float(x) for x in args.grid.split(",")]
    if len(parts) != 5:
        print("stability: --grid needs RE0,RE1,IM0,IM1,N", file=sys.stderr)
        return 2
    re0, re1, im0, im1, n = parts
    if not (n >= 1 and n == int(n)):
        print(f"stability: --grid N must be a positive integer, got {n:g}", file=sys.stderr)
        return 2
    n = int(n)
    gain = analysis.steady_state(args.q).gain
    re_grid = np.linspace(re0, re1, n)
    im_grid = np.linspace(im0, im1, n)
    radius, _ = analysis.stability_scan(gain, re_grid, im_grid)
    rows = [
        {"re": float(re_grid[b]), "im": float(im_grid[a]), "spectral_radius": float(radius[a, b])}
        for a in range(n)
        for b in range(n)
    ]
    out = _out_path(args, f"stability_q{args.q}.csv")
    bench.emit(rows, "csv", out)
    print(f"stability: {n * n} grid points -> {out}")
    return 0


def _cmd_converge(args) -> int:
    problem = get_problem(args.problem)
    h_list = [float(h) for h in args.h_list.split(",") if h]
    fit = analysis.convergence_order(problem, args.q, h_list)
    rows = [{"h": float(h), "error": float(e)} for h, e in zip(fit.h_list, fit.errors)]
    out = _out_path(args, f"converge_{problem.name}_q{args.q}.csv")
    bench.emit(rows, "csv", out)
    order = "degenerate" if fit.degenerate else f"{fit.order:.3f}"
    print(f"converge: fitted order {order} -> {out}")
    return 0


def _cmd_calibrate(args) -> int:
    problem = get_problem(args.problem)
    config = SolverConfig(q=args.q, eps=args.eps, weighting_tau=args.tau,
                          per_unit_step=args.per_unit_step)
    result = solve(problem, config)
    xi = local_errors(problem, result)
    table = bench.error_calibration(result, xi)
    hs = np.diff(result.knots)
    out = _out_path(args, f"calibrate_{problem.name}.csv")
    bench.emit(table, "csv", out)
    print(f"calibrate: {result.steps_accepted} steps, "
          f"over-estimated fraction {table.overestimated_fraction:.4f}, "
          f"deceived fraction {bench.deceived_fraction(xi, hs, args.eps):.4f} -> {out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "stability": _cmd_stability,
    "converge": _cmd_converge,
    "calibrate": _cmd_calibrate,
}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Fold ``--grid -4,...`` into ``--grid=-4,...`` so argparse does not
    mistake a leading-minus value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(list(argv)))
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, OSError) as exc:
        # Bad names or malformed inputs are usage-level problems.
        msg = exc.args[0] if exc.args else exc
        print(f"odefilter {args.command}: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"odefilter {args.command}: solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
