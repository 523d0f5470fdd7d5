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
from dataclasses import fields
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


def build_parser() -> argparse.ArgumentParser:
    # Options that several subcommands share are declared once, in parent parsers; a flag
    # that passes its value to a SolverConfig field unchanged takes that field's default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=SolverConfig.q,
                        help="derivative order of the prior")
    common.add_argument("--out")
    weighting = argparse.ArgumentParser(add_help=False)
    weighting.add_argument("--tau", type=float, default=SolverConfig.weighting_tau,
                           help="error weighting parameter")
    weighting.add_argument("--per-unit-step", action="store_true",
                           help="test error per unit step (eps*h) instead of per step (eps)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv")

    parser = argparse.ArgumentParser(prog="odefilter",
                                     description="Gaussian-filtering ODE solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common, weighting, fmt],
                             help="solve one problem and emit the posterior trace")
    p_solve.add_argument("--problem")
    p_solve.add_argument("--problem-file", help="JSON file describing a custom problem")
    p_solve.add_argument("--eps", type=float, required=True, help="error-test tolerance")
    p_solve.add_argument("--fixed-step", type=float)
    p_solve.add_argument("--h-init", type=float)
    p_solve.add_argument("--init", choices=["exact", "diffuse", "rk"], default="exact")
    p_solve.add_argument("--obs", choices=["mean", "sampled"], default=SolverConfig.obs_strategy)
    p_solve.add_argument("--seed", type=int, default=SolverConfig.seed)
    p_solve.add_argument("--global-sigma", action="store_true",
                         help="constant diffusion with a whole-run estimate (fixed step only)")
    p_solve.add_argument("--samples", type=int, default=0,
                         help="also emit this many posterior sample trajectories")
    p_solve.add_argument("--lipschitz-star", type=float,
                         help="inflate reported bands to global-error scale exp(L*(T-t0))")

    p_bench = sub.add_parser("bench", parents=[common, weighting, fmt],
                             help="sweep problems x tolerances with classic quality metrics")
    p_bench.add_argument("--problems", required=True, help="comma-separated problem names")
    p_bench.add_argument("--eps", required=True, help="comma-separated tolerances")
    p_bench.add_argument("--timing", action="store_true", help="include wall-clock column")

    p_stab = sub.add_parser("stability", parents=[common],
                            help="spectral-radius scan of the steady-state method")
    p_stab.add_argument("--grid", default="-4,0.5,0,3,400",
                        help="RE0,RE1,IM0,IM1,N for the zeta grid")

    p_conv = sub.add_parser("converge", parents=[common],
                            help="empirical order from fixed-step runs")
    p_conv.add_argument("--problem", required=True)
    p_conv.add_argument("--h-list", required=True, help="comma-separated step sizes")

    p_cal = sub.add_parser("calibrate", parents=[common, weighting],
                           help="local-error calibration table for one run")
    p_cal.add_argument("--problem", required=True)
    p_cal.add_argument("--eps", type=float, required=True)
    return parser


def _cmd_solve(args) -> int:
    if (args.problem is None) == (args.problem_file is None):
        print("solve: give exactly one of --problem / --problem-file", file=sys.stderr)
        return 2
    if args.samples < 0:
        print(f"solve: --samples must be >= 0, got {args.samples}", file=sys.stderr)
        return 2
    if args.problem_file is None:
        problem = get_problem(args.problem)
    else:
        problem = load_problem_file(args.problem_file)
    config = _config_from(args)
    result = solve(problem, config)
    smooth(result.path)

    band = 1.0
    if args.lipschitz_star is not None:
        from .stepcontrol import global_error_factor

        band = global_error_factor(args.lipschitz_star, problem.t0, problem.T)

    path, q1 = result.path, result.path.q + 1
    means = np.array([state.mean for state in path.smoothed])
    std = np.array([state.std() for state in path.smoothed])
    columns = {"t": path.knots}
    for k in range(problem.dim):
        m, s = means[:, k * q1], band * std[:, k * q1]
        columns.update({f"mean_{k}": m, f"lo_{k}": m - 2.0 * s, f"hi_{k}": m + 2.0 * s})
    if args.samples > 0:
        samples = sample_posterior(path, seed=args.seed, count=args.samples)
        columns.update({f"sample{j}_{k}": samples[j, :, k * q1]
                        for j in range(args.samples) for k in range(problem.dim)})
    out = _out_path(args, f"solve_{problem.name}.{args.format}")
    bench.emit(columns, args.format, out)
    print(f"{problem.name}: {result.steps_accepted} steps "
          f"({result.steps_rejected} rejected), {result.fevals} evaluations -> {out}")
    return 0


def _cmd_bench(args) -> int:
    config = SolverConfig(q=args.q, weighting_tau=args.tau, per_unit_step=args.per_unit_step)
    problems = [p for p in args.problems.split(",") if p]
    eps_list = [float(e) for e in args.eps.split(",") if e]
    records = bench.run_benchmark(problems, eps_list, config)
    out = _out_path(args, f"bench.{args.format}")
    bench.emit({f.name: [getattr(r, f.name) for r in records] for f in fields(bench.BenchRecord)
                if args.timing or f.name != "runtime"}, args.format, out)
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
    out = _out_path(args, f"stability_q{args.q}.csv")
    bench.emit({"re": np.tile(re_grid, n), "im": np.repeat(im_grid, n),
                "spectral_radius": radius.ravel()}, "csv", out)
    print(f"stability: {n * n} grid points -> {out}")
    return 0


def _cmd_converge(args) -> int:
    problem = get_problem(args.problem)
    h_list = [float(h) for h in args.h_list.split(",") if h]
    fit = analysis.convergence_order(problem, args.q, h_list)
    out = _out_path(args, f"converge_{problem.name}_q{args.q}.csv")
    bench.emit({"h": fit.h_list, "error": fit.errors}, "csv", out)
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
    bench.emit({"ratio": table.ratios, "ecdf": table.ecdf, "chi1_cdf": table.chi1_cdf}, "csv", out)
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
        # Bad names or malformed inputs are usage-level problems.  str() of a
        # KeyError quotes its message, and an OSError's first argument is its errno.
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"odefilter {args.command}: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"odefilter {args.command}: solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
