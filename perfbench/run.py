"""Benchmark of the odefilter library: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adaptive_registry --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

One process runs one workload: a single caller that makes one library call
at a time.  It sets up (import, problems, references, warm-up), repeats
passes over the workload until ``--seconds`` have elapsed, checks every
cell against its reference, and prints a report followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
JSON carries the ``end_to_end`` metrics of BENCHMARK.json; with
``--trace 1`` it carries the ``per_layer`` metrics, from passes that
alternate between untraced and traced.  ``--workload all`` runs each
workload in a fresh process, untraced and then traced.

Timings are medians over passes.  The gated ones are in RK45 steps: each
pass's time over the step time of a fixed scipy RK45 solve timed between
its cells, which cancels the host's speed (see ``workloads.RK45_SHARE``).
Counts (steps, evaluations, step outcomes, failed cells) must repeat
exactly across passes, or the run stops with an error.  Results and spans
go to ``.perfbench_out/`` in the checkout.
"""

import os
import time

_T_START = time.perf_counter()
# One BLAS thread, set before numpy loads: the library's matrices are small,
# and more threads would only add scheduling noise to the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("adaptive_registry", "linear_nd_sweep", "posterior_queries")
SETUP_REPEATS = 3  # set-ups per run: this process and two fresh ones
PROBE_PASSES = 2  # passes that run the untimed probe cells too
SOLVE_CHILDREN = (
    "priors.discrete_transition", "filtering.predict", "filtering.update",
    "stepcontrol.estimate_sigma2", "stepcontrol.local_error_test",
    "stepcontrol.next_step_size", "problems.rhs",
)
LAYERS = ("solver.solve",) + SOLVE_CHILDREN + (
    "filtering.smooth", "filtering.interpolate", "filtering.sample_posterior",
    "problems.local_errors", "problems.reference_solution",
)
DIMS = (1, 2, 8, 64, 128)


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


def import_library():
    """Import odefilter from this checkout's ``src`` and nowhere else."""
    if not (SRC / "odefilter" / "__init__.py").is_file():
        raise BenchmarkError(f"no odefilter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import odefilter

    if Path(odefilter.__file__).resolve().parent != SRC / "odefilter":
        raise BenchmarkError(f"imported odefilter from {odefilter.__file__}, not {SRC}")
    return odefilter


def setup_seconds(args, own: float) -> list[float]:
    """This process's set-up time and that of fresh processes doing the same."""
    times = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail(values):
    """(median, label, value) with the highest percentile that has at least
    ten samples beyond it; label and value are None below 11 samples."""
    values = sorted(values)
    n = len(values)
    med = statistics.median(values)
    if n < 11:
        return med, None, None
    q = 1.0 - 10.0 / n
    label = f"p{100 * q:.4g}"
    return med, label, values[min(n - 1, math.floor(q * (n - 1)))]


def measure(cells, seconds: float, trace: bool):
    """Passes until ``seconds`` elapse; alternate untraced/traced if ``trace``.

    The first pass is checked in full; later passes must reproduce it bit
    for bit.  Untimed probe cells run in the first ``PROBE_PASSES`` passes
    only, enough to show that their outcomes repeat, which leaves the rest
    of the run to the timed cells.  Results are dropped after each cell, so
    memory does not grow with the number of passes.
    """
    import workloads
    from tracer import Tracer

    kinds = (False, True) if trace else (False,)
    timed_cells = [c for c in cells if c.timed]
    passes, tracers, durations, verdicts, reference = [], [], [], None, None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = kinds[len(passes) % len(kinds)]
        gc.collect()
        tracer = Tracer() if traced else None
        todo = cells if len(passes) < PROBE_PASSES else timed_cells
        runs = workloads.run_pass(todo, tracer, check=verdicts is None)
        if verdicts is None:
            verdicts = [r.verdict for r in runs]
            reference = {r.cell: r.fingerprint for r in runs}
        else:
            diff = [r.cell.label for r in runs if r.fingerprint != reference[r.cell]]
            if diff:
                raise BenchmarkError(f"pass {len(passes)} differs from pass 0 in: {diff}")
        passes.append(workloads.summarize(runs, traced))
        del runs
        if tracer is not None:
            tracers.append(tracer)
        # Stop before a pass that would end after ``seconds``, judged by the
        # median pass so far, so that a run never lasts much past ``seconds``.
        now = time.perf_counter()
        durations.append(now - began)
        if (len(passes) >= len(kinds)
                and now - start + statistics.median(durations) > seconds):
            return verdicts, passes, tracers


def end_to_end(verdicts, passes, setup_times) -> dict:
    """Every end-to-end metric: name -> (value, unit)."""
    untraced = [p for p in passes if not p["traced"]]
    timed = [v for v in verdicts if v.cell.timed and v.returned]

    def median_sum(key):
        """Sum over cells of the cell's median over passes."""
        return sum(statistics.median(p[key][label] for p in untraced)
                   for label in untraced[0][key])

    def in_rk45_steps(seconds):
        # A pass's time over the RK45 step time measured in that pass: the
        # host's speed then slows both alike, and the quotient cancels it.
        return statistics.median(seconds(p) * p["rk45_steps"] / max(p["rk45_s"], 1e-300)
                                 for p in untraced)

    solve_s = median_sum("solve_s")
    posterior_s = median_sum("posterior_s")
    solve_rk45 = in_rk45_steps(lambda p: sum(p["solve_s"].values()))
    attempts = sum(v.attempts for v in timed)
    accepted = sum(v.accepted for v in timed)
    calibrated = sum(v.calibrated for v in timed)
    failed = sum(1 for v in verdicts if v.failures)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_rk45": (solve_rk45, "rk45_steps"),
        "attempt_rk45": (solve_rk45 / max(attempts, 1), "rk45_steps"),
        "pass_rk45": (in_rk45_steps(lambda p: sum(p["solve_s"].values())
                                    + sum(p["posterior_s"].values())), "rk45_steps"),
        "solve_s": (solve_s, "s"),
        "us_per_attempt": (1e6 * solve_s / max(attempts, 1), "us"),
        "fevals_per_accepted": (sum(v.fevals for v in timed) / max(accepted, 1), "evals/step"),
        "posterior_s": (posterior_s, "s"),
        "pass_s": (solve_s + posterior_s, "s"),
        "failed_fraction": (failed / len(verdicts), "ratio"),
        "passed_fraction": (1.0 - failed / len(verdicts), "ratio"),
        "deceived_fraction": (sum(v.deceived for v in timed) / max(accepted, 1), "ratio"),
        "max_error_per_unit_step": (max((v.max_error_per_unit_step for v in timed),
                                        default=math.nan), "ratio"),
        "final_error": (max((v.final_error for v in timed), default=math.nan), "rel"),
        "overestimated_fraction": (sum(v.overestimated for v in timed) / max(calibrated, 1),
                                   "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rk45_step_us": (1e6 * sum(p["rk45_s"] for p in untraced)
                         / max(sum(p["rk45_steps"] for p in untraced), 1), "us"),
    }


def per_layer(verdicts, passes, tracers, check_tracer) -> dict:
    """Per-layer metrics from the traced passes: name -> (value, unit).

    Times are medians over traced passes and calls are per pass.  Per-call
    and per-knot figures use inclusive span time.  The check functions run
    outside the passes and are reported once per run.
    """
    untraced = [sum(p["solve_s"].values()) for p in passes if not p["traced"]]
    traced = [sum(p["solve_s"].values()) for p in passes if p["traced"]]
    out = {"trace_overhead_frac": (statistics.median(traced) / statistics.median(untraced)
                                   - 1.0, "ratio")}

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    for layer in LAYERS:
        src = [check_tracer] if layer.startswith(("problems.local", "problems.ref")) else tracers
        out[f"{layer}.calls"] = (src[0].total(layer)[0], "count")
        out[f"{layer}.self_s"] = (statistics.median(t.total(layer)[1] for t in src), "s")
    for layer in ("filtering.predict", "filtering.update", "filtering.interpolate"):
        calls = tracers[0].total(layer)[0]
        out[f"{layer}.us_per_call"] = (1e6 * med(lambda t: t.total(layer)[2]) / max(calls, 1),
                                       "us")
    for layer in ("solver.solve",) + SOLVE_CHILDREN:
        share = med(lambda t: t.total(layer, root="solver.solve")[1]
                    / max(t.total("solver.solve")[2], 1e-300))
        out[f"{layer}.solve_share"] = (share, "ratio")

    knots = {}
    for v in verdicts:
        if v.cell.timed and v.cell.smooth:
            knots[v.cell.problem.dim] = knots.get(v.cell.problem.dim, 0) + v.knots
    smooth_incl = med(lambda t: t.total("filtering.smooth")[2])
    out["filtering.smooth.us_per_knot"] = (1e6 * smooth_incl / max(sum(knots.values()), 1),
                                           "us")
    for d in DIMS:
        calls = tracers[0].total("filtering.update", tag=d)[0]
        out[f"filtering.update.d{d}.self_s"] = (
            med(lambda t: t.total("filtering.update", tag=d)[1]), "s")
        out[f"filtering.update.d{d}.us_per_call"] = (
            1e6 * med(lambda t: t.total("filtering.update", tag=d)[2]) / max(calls, 1), "us")
        out[f"filtering.update.d{d}.solve_share"] = (
            med(lambda t: t.total("filtering.update", tag=d)[1]
                / max(t.total("solver.solve", tag=d)[2], 1e-300)), "ratio")
        out[f"filtering.smooth.d{d}.self_s"] = (
            med(lambda t: t.total("filtering.smooth", tag=d)[1]), "s")
        out[f"filtering.smooth.d{d}.us_per_knot"] = (
            1e6 * med(lambda t: t.total("filtering.smooth", tag=d)[2]) / max(knots.get(d, 0), 1),
            "us")

    outcomes = {}
    for v in verdicts:
        for k, n in v.outcomes.items():
            outcomes[k] = outcomes.get(k, 0) + n
    for k in ("accepted", "rejected_error", "rejected_nonfinite", "forced_accepts"):
        out[f"stepcontrol.{k}"] = (outcomes.get(k, 0), "count")
    attempts = sum(outcomes.get(k, 0) for k in ("accepted", "rejected_error",
                                                 "rejected_nonfinite"))
    out["stepcontrol.accept_ratio"] = (outcomes.get("accepted", 0) / max(attempts, 1), "ratio")
    out["filtering.path_bytes_per_knot"] = (passes[0]["bytes_per_knot"], "bytes")
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def report(args, env, verdicts, passes, metrics, missing) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={len(passes)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# one closed-loop caller, no concurrency; timings are medians over passes")
    for v in verdicts:
        steps = (f"attempts={v.attempts} accepted={v.accepted} fevals={v.fevals} "
                 if v.returned else "")
        status = "ok" if not v.failures else "FAILED: " + "; ".join(v.failures)
        print(f"# cell [{'timed' if v.cell.timed else 'probe'}] {v.cell.label}: {steps}{status}")
    untraced = [p for p in passes if not p["traced"]]
    for name, samples in (("pass solve_s", [sum(p["solve_s"].values()) for p in untraced]),
                          ("interpolate call s", [t for p in untraced
                                                  for t in p["interp_call_s"]])):
        if samples:
            med, label, value = tail(samples)
            extra = f" {label}={value:.6g}" if label else " (fewer than 11 samples: no tail)"
            print(f"# timing {name}: median={med:.6g}{extra} n={len(samples)}")
    if missing:
        print("# traced attributes not found (0 calls): " + ", ".join(sorted(missing)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    spec = load_spec()
    from tracer import Tracer, patched

    check_tracer = Tracer() if args.trace else None
    import_library()
    import workloads

    with patched(check_tracer, workloads.CHECK_TARGETS):
        # Set-up: import (above), problem and reference construction, warm-up.
        cells = workloads.build_cells(args.workload, args.seed)
        workloads.warm_up()
        own_setup = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_times = setup_seconds(args, own_setup)
        verdicts, passes, tracers = measure(cells, args.seconds, bool(args.trace))

    metrics = end_to_end(verdicts, passes, setup_times)
    wanted = spec["end_to_end"]
    if args.trace:
        metrics.update(per_layer(verdicts, passes, tracers, check_tracer))
        wanted = spec["per_layer"]
    missing = set().union(*(t.missing for t in tracers)) if tracers else set()
    env = environment(args.seed)
    report(args, env, verdicts, passes, metrics, missing)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setup_s_samples": setup_times,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "cells": [{"label": v.cell.label, "timed": v.cell.timed,
                              "failures": v.failures} for v in verdicts],
                   "passes": [{k: p[k] for k in ("traced", "solve_s", "posterior_s",
                                                 "rk45_s", "rk45_steps")}
                              for p in passes]},
                  fh, indent=1)
    if tracers:
        tracers[-1].write(str(stem) + "-spans.npz")

    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise BenchmarkError(f"metric {m['name']} is in {metrics[m['name']][1]}, "
                                 f"BENCHMARK.json says {m['unit']}")
    timed = [v for v in verdicts if v.cell.timed]
    failed_calls = sum(v.cell.calls for v in timed if v.failures)
    print(json.dumps({
        "correct": failed_calls == 0,
        "attempted": sum(v.cell.calls for v in timed) * len(passes),
        "failed": failed_calls * len(passes),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
