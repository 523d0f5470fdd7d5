"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

A pass calls the library's public functions from outside the package, one
call at a time, and times each call.  Timed cells make up the end-to-end
timings.  Untimed cells (the robustness slice of ``adaptive_registry``)
only feed the failure and step-outcome counts.

``adaptive_registry``
    Adaptive q=2 solves of the registry problems.  Per-step overhead
    dominates: solver loop, transition construction, predict, update, step
    control and the right-hand side, all at d <= 2.  No posterior function
    runs.  Timed cells are {logistic, brusselator, vdp} x eps {1e-3, 1e-4}.
    The robustness slice is the same problems x init mode x q in {2, 3, 4}
    at eps 1e-3.  It is untimed, so a fix that makes its cells succeed
    cannot read as a slowdown.
``linear_nd_sweep``
    Fixed-step q=2 solves of ``linear_nd(d, seed)`` for d in {8, 64, 128},
    each followed by ``smooth``.  The dense d(q+1) covariances dominate
    here, and step control does no work.
``posterior_queries``
    One adaptive vdp solve with about 4.7k knots, then ``smooth``, 2000
    ``interpolate`` calls at seeded off-mesh times and ``sample_posterior``.
    This is the read side of ``SolutionPath``.

The seed changes the inputs but not their difficulty.  It orders the cells,
picks the query times and the sampling seed, and relabels the coordinates of
the linear systems.  Step counts and errors therefore repeat across seeds,
so their medians can be compared between runs.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg

import odefilter

from tracer import Tracer, patched

CORE_PROBLEMS = ("logistic", "brusselator", "vdp")
# The tighter eps stops at 1e-4: a tighter one does the same per-step work
# in longer passes, and a run then holds too few passes for their median to
# ride out slow spells of a shared host.
CORE_EPS = (1e-3, 1e-4)
ROBUST_EPS = 1e-3
ROBUST_INITS = ("exact", "diffuse_filter", "rk_starter")
ROBUST_QS = (2, 3, 4)
LINEAR_CASES = ((8, 200), (64, 50), (128, 10))  # (d, fixed steps over [0, 1])
POSTERIOR_EPS = 1e-4
QUERY_COUNT = 2000
SAMPLE_COUNT = 20

# ROADMAP item 4's gate on the share of accepted steps whose true local error
# exceeds h * eps.
DECEIVED_LIMIT = 0.10
# Fixed-step solves of linear_nd have global error ~0.2 h^q at every d; ten
# times h^q passes them at all three sizes but not a wrong solution, whose
# error is O(|y(T)|) ~ 1.
FIXED_STEP_ERROR_FACTOR = 10.0
# Every posterior draw must lie within this many posterior standard
# deviations of the smoothed mean.
SAMPLE_SIGMAS = 10.0

# After each timed call (or run of interpolate calls), a fixed scipy RK45
# solve is repeated for this share of its time, outside the timing, so the
# RK45 samples spread over a pass as its timed work does.  A pass's time
# divided by its RK45 time per step is its cost in RK45 steps: how many
# steps of a classic explicit code the same host made in that time.
RK45_SHARE = 0.1

# Library attributes wrapped during a traced pass.  The solver's module-level
# imports are what its loop calls, so wrapping them there sees every call.
SOLVE_TARGETS = (
    ("odefilter", "solve", "solver.solve"),
    ("odefilter.solver", "discrete_transition", "priors.discrete_transition"),
    ("odefilter.solver", "predict", "filtering.predict"),
    ("odefilter.solver", "update", "filtering.update"),
    ("odefilter.solver", "estimate_sigma2", "stepcontrol.estimate_sigma2"),
    ("odefilter.solver", "local_error_test", "stepcontrol.local_error_test"),
    ("odefilter.solver", "next_step_size", "stepcontrol.next_step_size"),
    ("odefilter.filtering", "discrete_transition", "priors.discrete_transition"),
    ("odefilter", "smooth", "filtering.smooth"),
    ("odefilter", "interpolate", "filtering.interpolate"),
    ("odefilter", "sample_posterior", "filtering.sample_posterior"),
)
CHECK_TARGETS = (
    ("odefilter", "local_errors", "problems.local_errors"),
    ("odefilter", "reference_solution", "problems.reference_solution"),
)

_clock = time.perf_counter


def linear_nd(d: int, seed: int) -> odefilter.IvpProblem:
    """Seeded dissipative linear system y' = M y on [0, 1].

    M = S - diag(c) with S a random skew matrix of entry scale 1/sqrt(d)
    (spectral radius about 2 at every d) and c uniform in [0.5, 1.5].  The
    symmetric part of M is -diag(c), so every solution decays, and the
    exact flow is expm(M t) y0.

    The system is drawn once per d.  The seed then relabels and re-signs
    the coordinates: M -> P M P^T and y0 -> P y0 for a seeded signed
    permutation P.  The filter treats coordinates independently, so step
    counts and errors are the same for every seed, while the arrays the
    library receives differ.  Drawing a fresh system per seed would move
    the errors by about 2x between seeds.
    """
    base = np.random.default_rng([20161017, d])
    g = base.standard_normal((d, d))
    m0 = (g - g.T) / math.sqrt(2 * d) - np.diag(base.uniform(0.5, 1.5, d))
    y00 = base.standard_normal(d)
    rng = np.random.default_rng([seed, d])
    perm = rng.permutation(d)
    sign = rng.choice([-1.0, 1.0], d)
    p = np.zeros((d, d))
    p[np.arange(d), perm] = sign
    m = p @ m0 @ p.T
    y0 = p @ y00

    def rhs(t, y):
        return np.asarray(y, dtype=float) @ m.T

    def exact(t):
        return scipy.linalg.expm(m * t) @ y0

    return odefilter.IvpProblem(
        name=f"linear_nd({d},{seed})", dim=d, t0=0.0, T=1.0, y0=y0, rhs=rhs, exact=exact
    )


def _rk45_vdp(t, y):
    """Van der Pol (mu = 1), written here so no library change can move it."""
    return np.array([y[1], (1.0 - y[0] * y[0]) * y[1] - y[0]])


def rk45_yardstick(budget: float) -> tuple[float, int]:
    """(seconds, steps) of a fixed scipy RK45 solve repeated for ``budget`` s.

    The solve (Van der Pol over one period at tolerance 1e-10, about 280
    steps) is the same in every workload and uses no library code, so its
    step time follows the host's speed and nothing else.
    """
    seconds, steps = 0.0, 0
    while not steps or seconds < budget:
        start = _clock()
        sol = scipy.integrate.solve_ivp(_rk45_vdp, (0.0, 6.6632868593231), [2.0, 0.0],
                                        method="RK45", rtol=1e-10, atol=1e-10)
        seconds += _clock() - start
        steps += sol.t.size - 1
    return seconds, steps


@dataclass(eq=False)
class Cell:
    """One solve and the posterior calls that follow it."""

    label: str
    problem: odefilter.IvpProblem
    config: odefilter.SolverConfig
    timed: bool
    y_ref: np.ndarray  # reference solution at T
    smooth: bool = False
    queries: np.ndarray | None = None  # interpolation times, sorted
    query_ref: np.ndarray | None = None  # reference solution at the queries
    sample_seed: int = 0

    @property
    def calls(self) -> int:
        """Library calls the cell times in one pass."""
        return 1 + self.smooth + (0 if self.queries is None else self.queries.size + 1)


@dataclass(eq=False)
class CellRun:
    cell: Cell
    result: object | None = None
    error: str | None = None
    solve_s: float = math.nan
    posterior_s: dict = field(default_factory=dict)  # function name -> seconds
    interp_call_s: list = field(default_factory=list)
    interp_means: np.ndarray | None = None
    samples: np.ndarray | None = None
    # Kept once the outputs above are released:
    fingerprint: tuple = ()
    verdict: Verdict | None = None
    bytes_per_knot: float = 0.0
    rk45_s: float = 0.0  # the RK45 yardstick after the timed calls
    rk45_steps: int = 0


def _registry_cell(name, eps, q, init, timed, y_ref) -> Cell:
    problem = odefilter.get_problem(name)
    config = odefilter.SolverConfig(q=q, eps=eps, weighting_tau=0.1, init_mode=init)
    return Cell(f"{name} q={q} {init} eps={eps:g}", problem, config, timed, y_ref[name])


def build_cells(workload: str, seed: int) -> list[Cell]:
    """The workload's cells, timed ones first, in a seeded order."""
    rng = np.random.default_rng([seed, *workload.encode()])
    if workload == "adaptive_registry":
        y_ref = {}
        for name in CORE_PROBLEMS:
            problem = odefilter.get_problem(name)
            y_ref[name] = np.atleast_1d(odefilter.reference_solution(problem, problem.T))
        core = [
            _registry_cell(name, eps, 2, "exact", True, y_ref)
            for name in CORE_PROBLEMS
            for eps in CORE_EPS
        ]
        robust = [
            _registry_cell(name, ROBUST_EPS, q, init, False, y_ref)
            for name in CORE_PROBLEMS
            for init in ROBUST_INITS
            for q in ROBUST_QS
            if (init, q) != ("exact", 2)
        ]
        return [core[i] for i in rng.permutation(len(core))] + [
            robust[i] for i in rng.permutation(len(robust))
        ]
    if workload == "linear_nd_sweep":
        cells = []
        for i in rng.permutation(len(LINEAR_CASES)):
            d, steps = LINEAR_CASES[i]
            problem = linear_nd(d, seed)
            config = odefilter.SolverConfig(q=2, fixed_step=1.0 / steps)
            cells.append(Cell(f"linear_nd d={d} steps={steps}", problem, config, True,
                              problem.exact(problem.T), smooth=True))
        return cells
    if workload == "posterior_queries":
        problem = odefilter.get_problem("vdp")
        config = odefilter.SolverConfig(q=2, eps=POSTERIOR_EPS, weighting_tau=0.1)
        queries = np.sort(rng.uniform(problem.t0, problem.T, QUERY_COUNT))
        query_ref = odefilter.reference_solution(problem, queries)
        y_ref = np.atleast_1d(odefilter.reference_solution(problem, problem.T))
        return [Cell(f"vdp q=2 exact eps={POSTERIOR_EPS:g} + posterior", problem, config,
                     True, y_ref, smooth=True, queries=queries, query_ref=query_ref,
                     sample_seed=int(rng.integers(2**31)))]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up() -> None:
    """Touch every library path a pass times, on a small problem."""
    problem = odefilter.get_problem("logistic")
    result = odefilter.solve(problem, odefilter.SolverConfig(q=2, eps=1e-3))
    odefilter.smooth(result.path)
    odefilter.interpolate(result.path, 0.5 * (problem.t0 + problem.T))
    odefilter.sample_posterior(result.path, seed=0, count=2)
    odefilter.solve(problem, odefilter.SolverConfig(q=2, fixed_step=0.1))


def run_cell(cell: Cell) -> CellRun:
    run = CellRun(cell)

    def yardstick(timed_s: float) -> None:
        if cell.timed:
            seconds, steps = rk45_yardstick(RK45_SHARE * timed_s)
            run.rk45_s += seconds
            run.rk45_steps += steps

    try:
        start = _clock()
        run.result = odefilter.solve(cell.problem, cell.config)
        run.solve_s = _clock() - start
        yardstick(run.solve_s)
        if cell.smooth:
            start = _clock()
            odefilter.smooth(run.result.path)
            run.posterior_s["smooth"] = _clock() - start
            yardstick(run.posterior_s["smooth"])
        if cell.queries is not None:
            means = []
            for t in cell.queries:
                start = _clock()
                state = odefilter.interpolate(run.result.path, float(t))
                run.interp_call_s.append(_clock() - start)
                means.append(state.mean)
            run.posterior_s["interpolate"] = sum(run.interp_call_s)
            run.interp_means = np.asarray(means)
            yardstick(run.posterior_s["interpolate"])
            start = _clock()
            run.samples = odefilter.sample_posterior(
                run.result.path, seed=cell.sample_seed, count=SAMPLE_COUNT)
            run.posterior_s["sample_posterior"] = _clock() - start
            yardstick(run.posterior_s["sample_posterior"])
    except Exception as exc:  # a failing cell is a measured outcome, not a crash
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def run_pass(cells: list[Cell], tracer: Tracer | None, check: bool) -> list[CellRun]:
    """Run every cell once; timed cells are traced when a tracer is given.

    Each cell starts from a collected heap, and its outputs are released as
    soon as they are fingerprinted (and assessed, if ``check``), so neither
    a cell's time nor the run's peak memory depends on the seeded order of
    the cells before it.
    """
    runs = []
    for cell in cells:
        active = tracer if cell.timed else None
        if active is not None:
            active.tag = cell.problem.dim
        targets = SOLVE_TARGETS + ((cell.problem, "rhs", "problems.rhs"),)
        gc.collect()
        with patched(active, targets):
            run = run_cell(cell)
        run.fingerprint = fingerprint(run)
        if check:
            run.verdict = assess(run)
        if run.result is not None:
            run.bytes_per_knot = path_bytes_per_knot(run)
        run.result = run.interp_means = run.samples = None
        runs.append(run)
    return runs


def step_outcomes(run: CellRun) -> dict[str, int]:
    """Step outcome counts read from ``SolveResult.per_step``.

    A rejection with a NaN ``sigma2_hat`` is a non-finite right-hand side.
    An accepted adaptive step whose max(D) exceeds the step's bound was
    forced through after a rejection streak.
    """
    counts = dict(accepted=0, rejected_error=0, rejected_nonfinite=0, forced_accepts=0)
    if run.result is None:
        return counts
    config = run.cell.config
    adaptive = config.fixed_step is None
    for rep in run.result.per_step:
        if rep.accepted:
            counts["accepted"] += 1
            bound = config.eps * rep.h / (1.0 if config.per_unit_step else rep.h)
            if adaptive and float(np.max(rep.D)) > bound:
                counts["forced_accepts"] += 1
        elif np.any(np.isnan(rep.sigma2_hat)):
            counts["rejected_nonfinite"] += 1
        else:
            counts["rejected_error"] += 1
    return counts


def summarize(runs: list[CellRun], traced: bool) -> dict:
    """The timings of one pass, kept after its results are dropped."""
    timed = [r for r in runs if r.cell.timed]
    return {
        "traced": traced,
        "solve_s": {r.cell.label: r.solve_s for r in timed},
        "rk45_s": sum(r.rk45_s for r in timed),
        "rk45_steps": sum(r.rk45_steps for r in timed),
        "posterior_s": {f"{r.cell.label}: {k}": v for r in timed
                        for k, v in r.posterior_s.items()},
        "interp_call_s": [t for r in timed for t in r.interp_call_s],
        "bytes_per_knot": max((r.bytes_per_knot for r in runs), default=0.0),
    }


def fingerprint(run: CellRun) -> tuple:
    """Everything about a cell's outcome that must repeat bit for bit."""
    if run.result is None:
        return (run.error,)
    r = run.result
    extra = tuple(
        a.tobytes() for a in (run.interp_means, run.samples) if a is not None
    )
    smoothed = r.path.smoothed[0].mean.tobytes() if r.path.smoothed else b""
    return (run.error, r.steps_accepted, r.steps_rejected, r.fevals,
            tuple(step_outcomes(run).items()), r.path.filtered[-1].mean.tobytes(),
            smoothed) + extra


def path_bytes_per_knot(run: CellRun) -> float:
    """Bytes of the state arrays a solution path stores, per knot."""
    path = run.result.path
    states = list(path.filtered) + list(path.predictions) + list(path.smoothed or [])
    return sum(s.mean.nbytes + s.cov.nbytes for s in states) / len(path.knots)


@dataclass
class Verdict:
    """Correctness, counts and accuracy of one cell, computed outside timing."""

    cell: Cell
    failures: list
    returned: bool = False  # the solve returned a result
    attempts: int = 0
    accepted: int = 0
    fevals: int = 0
    knots: int = 0
    outcomes: dict = field(default_factory=dict)
    deceived: int = 0
    max_error_per_unit_step: float = math.nan
    final_error: float = math.nan
    overestimated: float = 0.0  # count of steps, from the calibration table
    calibrated: int = 0


def _rel_err(values, ref) -> float:
    values, ref = np.atleast_2d(values), np.atleast_2d(ref)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    return float(np.max(np.max(np.abs(values - ref), axis=1) / scale))


def assess(run: CellRun) -> Verdict:
    """Check a cell against its reference.

    The value at t0 must equal y0; the error at T must be within eps
    (adaptive) or 10 h^q (fixed step); fewer than 10% of accepted steps may
    be deceived, i.e. have a true local error above h * eps.  A fixed-step
    solve has no tolerance, so it is judged at the tightest eps under which
    its own error test would have accepted every step: the largest D.
    Smoothed, interpolated and sampled outputs are checked where produced.
    """
    cell, result = run.cell, run.result
    if result is None:
        return Verdict(cell, [run.error])
    problem, config = cell.problem, cell.config
    fails = []
    means = result.solution_means()
    if not np.all(np.isfinite(means)):
        fails.append("non-finite solution mean")
    y0_err = float(np.max(np.abs(means[0] - problem.y0)))
    if y0_err > 1e-12 * max(1.0, float(np.max(np.abs(problem.y0)))):
        fails.append(f"value at t0 is off y0 by {y0_err:.3g}")

    n = result.steps_accepted
    xi = odefilter.local_errors(problem, result)
    xs = xi[len(xi) - n:]
    hs = np.diff(result.knots)[len(xi) - n:]
    if config.fixed_step is None:
        eps = config.eps
        error_bound = eps
    else:
        eps = max(float(np.max(rep.D)) for rep in result.per_step)
        error_bound = FIXED_STEP_ERROR_FACTOR * config.fixed_step ** config.q
    deceived = int(np.count_nonzero(xs > hs * eps))
    mepus = float(np.max(xs / (hs * eps))) if n else math.nan
    final_error = _rel_err(means[-1], cell.y_ref)
    if not final_error <= error_bound:
        fails.append(f"final error {final_error:.3g} above {error_bound:.3g}")
    if n == 0 or not deceived / n < DECEIVED_LIMIT:
        fails.append(f"deceived {deceived} of {n} accepted steps")
    table = odefilter.error_calibration(result, xi)
    calibrated = table.ratios.size + table.infinite_count

    path = result.path
    if cell.smooth:
        q1 = config.q + 1
        if not np.array_equal(path.smoothed[-1].mean, path.filtered[-1].mean):
            fails.append("smoothed state at T differs from the filtered one")
        exact = getattr(problem, "exact", None)
        if exact is not None:
            smoothed = np.array([s.mean[0::q1] for s in path.smoothed])
            ref = np.array([exact(t) for t in path.knots])
            err = _rel_err(smoothed, ref)
            if not err <= error_bound:
                fails.append(f"smoothed error {err:.3g} above {error_bound:.3g}")
    if run.interp_means is not None:
        err = _rel_err(run.interp_means[:, 0::config.q + 1], cell.query_ref)
        if not err <= config.eps:
            fails.append(f"interpolation error {err:.3g} above {config.eps:.3g}")
    if run.samples is not None:
        mean = np.array([s.mean for s in path.smoothed])
        std = np.array([s.std() for s in path.smoothed])
        dev = np.abs(run.samples - mean) - SAMPLE_SIGMAS * std
        scale = 1e-9 * max(1.0, float(np.max(np.abs(mean))))
        if not (np.all(np.isfinite(run.samples)) and np.all(dev <= scale)):
            fails.append(f"posterior sample beyond {SAMPLE_SIGMAS:g} sigma")
    return Verdict(
        cell, fails, returned=True, attempts=n + result.steps_rejected, accepted=n,
        fevals=result.fevals, knots=len(result.knots), outcomes=step_outcomes(run),
        deceived=deceived, max_error_per_unit_step=mepus,
        final_error=final_error,
        overestimated=table.overestimated_fraction * max(calibrated, 1),
        calibrated=calibrated,
    )
