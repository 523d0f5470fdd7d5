"""Registry of IVP test problems, ground-truth oracle, local-error metric.

A right-hand side may be written for one ``(d,)`` vector and a float time.  The
local-error oracle restarts every step at once when ``rhs`` also broadcasts over a
leading batch axis, as every registered and loaded one does, and row by row when a
probe shows it does not.  Custom problems with polynomial or rational terms can be
loaded from a JSON file without touching code.
"""

from __future__ import annotations

import json
import re

import numpy as np
from scipy.integrate import solve_ivp

from .solver import IvpProblem, SolveResult

__all__ = [
    "available_problems",
    "get_problem",
    "reference_solution",
    "local_errors",
    "load_problem_file",
]

_ORACLE_TOL = 1e-13  # rtol = atol of the ground truth and of the local-error restarts


def _logistic(r: float = 3.0, big_k: float = 1.0):
    def rhs(t, y):
        return r * y * (1.0 - y / big_k)

    def exact(t):
        e = np.exp(r * t)
        return np.atleast_1d(big_k * 0.1 * e / (big_k + 0.1 * (e - 1.0)))

    return IvpProblem(
        name="logistic", dim=1, t0=0.0, T=1.5, y0=np.array([0.1]), rhs=rhs, exact=exact
    )


def _brusselator(a: float = 1.0, b: float = 3.0):
    def rhs(t, y):
        y = np.asarray(y, dtype=float)
        y1, y2, out = y[..., 0], y[..., 1], np.empty(y.shape)
        out[..., 0], out[..., 1] = a + y1**2 * y2 - (b + 1.0) * y1, b * y1 - y1**2 * y2
        return out

    return IvpProblem(
        name="brusselator", dim=2, t0=0.0, T=10.0, y0=np.array([1.5, 3.0]), rhs=rhs
    )


def _van_der_pol(mu: float = 1.0):
    # One period of the limit cycle, started on it; amplitude and period are
    # the standard printed approximations for mu = 1.
    amplitude, period = 2.0086, 6.6633

    def rhs(t, y):
        y = np.asarray(y, dtype=float)
        y1, y2, out = y[..., 0], y[..., 1], np.empty(y.shape)
        out[..., 0], out[..., 1] = y2, mu * (1.0 - y1**2) * y2 - y1
        return out

    return IvpProblem(
        name="vdp", dim=2, t0=0.0, T=period, y0=np.array([amplitude, 0.0]), rhs=rhs
    )


def _linear(lam: float):
    def rhs(t, y):
        return lam * np.asarray(y, dtype=float)

    def exact(t):
        return np.atleast_1d(np.exp(lam * t))

    return IvpProblem(
        name=f"linear({lam:g})", dim=1, t0=0.0, T=2.0, y0=np.array([1.0]), rhs=rhs, exact=exact
    )


def _poly(k: int):
    # y' = k t^(k-1), so y = 1 + t^k: a solution of exact polynomial degree k.
    def rhs(t, y):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.asarray(k * t ** (k - 1))[..., None], np.shape(y)).astype(float)

    def exact(t):
        return np.atleast_1d(1.0 + t**k)

    return IvpProblem(
        name=f"poly({k})", dim=1, t0=0.0, T=2.0, y0=np.array([1.0]), rhs=rhs, exact=exact
    )


_REGISTRY = {
    "logistic": _logistic,
    "brusselator": _brusselator,
    "vdp": _van_der_pol,
}
_FAMILY = re.compile(r"^(linear|poly)\(([-+0-9.eE]+)\)$")


def available_problems() -> list[str]:
    return sorted(_REGISTRY) + ["linear(<lambda>)", "poly(<k>)"]


def get_problem(name: str) -> IvpProblem:
    """Fresh problem instance by name; parametrized families parse their
    argument, e.g. ``linear(-0.5)`` (a finite rate) or ``poly(3)`` (a degree >= 1)."""
    if name in _REGISTRY:
        return _REGISTRY[name]()
    m = _FAMILY.match(name.replace(" ", ""))
    if m:
        family, arg = m.group(1), float(m.group(2))
        if family == "linear" and np.isfinite(arg):
            return _linear(arg)
        if family == "poly" and arg.is_integer() and arg >= 1:
            return _poly(int(arg))
        need = "a finite rate" if family == "linear" else "an integer degree >= 1"
        raise ValueError(f"problem {name!r}: {family} takes {need}, got {m.group(2)}")
    raise KeyError(
        f"unknown problem {name!r}; available: {', '.join(available_problems())}"
    )


def reference_solution(problem: IvpProblem, t, tol: float = _ORACLE_TOL) -> np.ndarray:
    """Ground-truth solution at time(s) t from DOP853 at rtol = atol = tol,
    a high-order adaptive integrator used solely as ground truth."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < problem.t0):
        raise ValueError("reference times precede t0")
    out = np.empty((ts.size, problem.dim))
    inside = ts > problem.t0
    if np.any(~inside):
        out[~inside] = problem.y0
    if np.any(inside):
        sol = solve_ivp(problem.rhs, (problem.t0, max(problem.T, float(ts.max()))), problem.y0,
                        method="DOP853", rtol=tol, atol=tol, t_eval=ts[inside])
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        out[inside] = sol.y.T
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


# Dormand-Prince 5(4) pair, used to restart many short sub-problems at once.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _batched_rhs(problem: IvpProblem, t: np.ndarray, y: np.ndarray):
    """``rhs`` over ``(N, d)`` batches: itself when it broadcasts, else one call per row.

    Decided on d + 1 of the restart points ``t``, ``y``, rows repeated when there are fewer:
    on exactly d rows a rhs that indexes rows (``y[i]``) returns the right shape.  The batch
    call must return shape ``(d + 1, d)`` and match the rows to 1e-12 of each row's max-norm,
    since a batched product like ``y @ m.T`` may differ from a row's in its last bits.
    """
    def by_rows(t, y):
        return np.stack([np.atleast_1d(problem.rhs(float(ti), yi)) for ti, yi in zip(t, y)])

    probe = np.arange(problem.dim + 1) % len(t)
    t, y = t[probe], y[probe]
    rows = by_rows(t, y)  # outside the try: a rhs that fails per row raises its own error
    try:
        batch = np.asarray(problem.rhs(t, y), dtype=float)
        broadcasts = batch.shape == rows.shape and bool(np.all(
            abs(batch - rows) <= 1e-12 * abs(rows).max(axis=1, keepdims=True)))
    except Exception:  # a rhs written for one vector may fail on a batch in any way
        broadcasts = False
    return problem.rhs if broadcasts else by_rows


def _batch_flow(
    problem: IvpProblem,
    t_start: np.ndarray,
    y_start: np.ndarray,
    spans: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Integrate many independent sub-intervals in lockstep.

    Each interval is covered by an equal number of embedded Dormand-Prince
    substeps; intervals whose accumulated error estimate exceeds the
    tolerance are redone with twice as many substeps until all pass.
    """
    n = t_start.size
    out = np.empty_like(y_start)
    rhs = _batched_rhs(problem, t_start, y_start) if n else None
    todo = np.arange(n)
    substeps = 4
    while todo.size:
        t = t_start[todo].copy()
        y = y_start[todo].copy()
        hs = spans[todo] / substeps
        err_acc = np.zeros(todo.size)
        for _ in range(substeps):
            k = np.empty((7,) + y.shape)
            for s in range(7):
                y_stage = y.copy()
                for j, a in enumerate(_DP_A[s]):
                    y_stage = y_stage + hs[:, None] * a * k[j]
                k[s] = rhs(t + _DP_C[s] * hs, y_stage)
            incr5 = np.einsum("s,sbd->bd", _DP_B5, k)
            incr4 = np.einsum("s,sbd->bd", _DP_B4, k)
            y = y + hs[:, None] * incr5
            t = t + hs
            err_acc += np.max(np.abs(hs[:, None] * (incr5 - incr4)), axis=1)
        scale = np.maximum(1.0, np.max(np.abs(y), axis=1))
        ok = err_acc <= tol * scale
        out[todo[ok]] = y[ok]
        todo = todo[~ok]
        substeps *= 2
        if substeps > 2**16:
            raise RuntimeError("local-error oracle failed to reach tolerance")
    return out


def local_errors(problem: IvpProblem, result: SolveResult) -> np.ndarray:
    """Per-step local errors: deviation from the exact flow restarted at the
    previous numerical value, measured in the max norm at the step's end.

    Depends only on the mesh and the numerical values, never on the
    posterior covariance.  The restarts are integrated to ``_ORACLE_TOL``, and
    their evaluations are not counted against the problem's evaluation budget.
    """
    knots = result.knots
    if knots[0] < problem.t0 - 1e-12 or knots[-1] > problem.T + 1e-9:
        raise ValueError("result mesh extends outside the problem domain")
    means = result.solution_means()
    t_start = knots[:-1]
    spans = np.diff(knots)
    restarted = _batch_flow(problem, t_start, means[:-1], spans, _ORACLE_TOL)
    return np.max(np.abs(means[1:] - restarted), axis=1)


def _term_value(term: dict, t, y: np.ndarray) -> np.ndarray:
    coef = float(term.get("coef", 1.0))
    val = np.full(np.shape(y)[:-1] or (), coef, dtype=float)
    tp = int(term.get("t_power", 0))
    if tp:
        val = val * np.asarray(t, dtype=float) ** tp
    for k, p in enumerate(term.get("y_powers", [])):
        if p:
            val = val * y[..., k] ** p
    return val


def load_problem_file(path) -> IvpProblem:
    """Build a problem from a declarative JSON description.

    Expected keys: name, dim, t0, T, y0, and rhs -- a list (one entry per
    dimension) of ``{"terms": [...], "denominator": [...]}`` where each term
    is ``{"coef": c, "t_power": a, "y_powers": [p0, p1, ...]}``.  The
    denominator is optional and defaults to 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    dim = spec["dim"]
    if type(dim) is not int:  # not isinstance: JSON's true loads as a bool, an int subclass
        raise ValueError(f"dim must be an integer, got {dim!r}")
    rhs_spec = spec["rhs"]
    if len(rhs_spec) != dim:
        raise ValueError(f"rhs has {len(rhs_spec)} components but dim = {dim}")

    def rhs(t, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        comps = []
        for comp in rhs_spec:
            num = sum(_term_value(term, t, y) for term in comp["terms"])
            den = comp.get("denominator")
            if den:
                num = num / sum(_term_value(term, t, y) for term in den)
            comps.append(np.broadcast_to(num, y.shape[:-1]))
        return np.stack(comps, axis=-1)

    return IvpProblem(
        name=str(spec["name"]),
        dim=dim,
        t0=float(spec["t0"]),
        T=float(spec["T"]),
        y0=np.asarray(spec["y0"], dtype=float),
        rhs=rhs,
    )
