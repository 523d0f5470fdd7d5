"""Benchmark sweeps, calibration statistics, and machine-readable output.

Solution quality is judged the classic way: per accepted step, the local
error xi_n (max-norm deviation from the exact flow restarted at the previous
numerical value) is compared against h_n * eps.  A step with xi_n above that
bound is a deceived step.  Runtimes are measured but excluded from emitted
files by default so that identical invocations produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .priors import _constants
from .problems import get_problem, local_errors
from .solver import SolverConfig, SolveResult, solve

__all__ = [
    "BenchRecord",
    "CalibrationTable",
    "run_benchmark",
    "error_calibration",
    "emit",
]


@dataclass(frozen=True)
class BenchRecord:
    """One (problem, eps) cell; a failed cell keeps the defaults and says why in ``status``."""

    problem: str
    eps: float
    fevals: int = 0
    steps: int = 0
    deceived_fraction: float = math.nan
    max_error_per_unit_step: float = math.nan
    runtime: float = 0.0
    status: str = "ok"


def deceived_fraction(xi: np.ndarray, hs: np.ndarray, eps: float) -> float:
    if xi.size == 0:
        return 0.0
    return float(np.count_nonzero(xi > hs * eps) / xi.size)


def max_error_per_unit_step(xi: np.ndarray, hs: np.ndarray, eps: float) -> float:
    if xi.size == 0:
        return 0.0
    return float(np.max(xi / (hs * eps)))


def run_benchmark(problems, eps_list, config: SolverConfig | None = None) -> list[BenchRecord]:
    """Adaptive solve of every (problem, eps) cell with quality metrics.

    Cells are independent; they run in a fixed order and a failing cell is
    recorded as a failed row instead of aborting the sweep.
    """
    config = config or SolverConfig()
    records = []
    for name in problems:
        for eps in eps_list:
            eps = float(eps)
            start = time.perf_counter()
            try:
                problem = get_problem(name) if isinstance(name, str) else name
                result = solve(problem, replace(config, eps=eps, fixed_step=None,
                                                sigma_mode="local_ml"))
                xi = local_errors(problem, result)
                hs = np.diff(result.knots)
                cell = dict(problem=problem.name, fevals=result.fevals, steps=result.steps_accepted,
                            deceived_fraction=deceived_fraction(xi, hs, eps),
                            max_error_per_unit_step=max_error_per_unit_step(xi, hs, eps))
            except Exception as exc:  # a failed cell must not kill the sweep
                cell = dict(problem=str(name), status=f"failed: {exc}")
            records.append(BenchRecord(eps=eps, runtime=time.perf_counter() - start, **cell))
    return records


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Empirical CDF of local errors scaled by their estimated size.

    ``ratios`` are xi_n / (sigma2_hat_n * qbar(h_n))_00^(1/2), sorted;
    ``chi1_cdf`` is the half-normal reference erf(x / sqrt(2)).  Ratios
    below one mean the estimator over-estimated the realized error.  Steps
    with a zero estimate but nonzero error land in an infinity bucket.
    """

    ratios: np.ndarray
    ecdf: np.ndarray
    chi1_cdf: np.ndarray
    overestimated_fraction: float
    infinite_count: int

    def ecdf_at(self, x: float) -> float:
        return float(np.count_nonzero(self.ratios <= x) / max(self.ratios.size + self.infinite_count, 1))

    def rows(self) -> list[dict]:
        return [
            {"ratio": float(r), "ecdf": float(e), "chi1_cdf": float(c)}
            for r, e, c in zip(self.ratios, self.ecdf, self.chi1_cdf)
        ]


def chi1_cdf(x) -> np.ndarray:
    """CDF of |Z| for standard normal Z."""
    from scipy.special import erf

    return erf(np.asarray(x, dtype=float) / np.sqrt(2.0))


def error_calibration(result: SolveResult, xi: np.ndarray) -> CalibrationTable:
    """Compare realized local errors against the posterior's expectation."""
    xi = np.asarray(xi, dtype=float)
    n_steps = result.sigma2_trace.shape[0]
    n_intervals = len(result.path.step_sizes)
    if xi.size == n_intervals and n_intervals > n_steps:
        xi = xi[n_intervals - n_steps:]  # drop initialization intervals
    elif xi.size != n_steps:
        raise ValueError(f"got {xi.size} local errors for {n_steps} accepted steps")
    model = result.path.model
    q = model.q
    hs = np.asarray(result.path.step_sizes[-n_steps:]) if n_steps else np.empty(0)
    qbar00 = hs ** (2 * q + 1) / _constants(q).q00_den
    est = np.sqrt(np.max(result.sigma2_trace, axis=1) * qbar00) if n_steps else np.empty(0)
    finite = est > 0
    zero_est_nonzero_xi = int(np.count_nonzero(~finite & (xi > 0)))
    ratios = np.sort(np.where(finite, xi / np.where(finite, est, 1.0), 0.0)[finite | (xi == 0)])
    total = ratios.size + zero_est_nonzero_xi
    ecdf = np.arange(1, ratios.size + 1) / max(total, 1)
    return CalibrationTable(
        ratios=ratios,
        ecdf=ecdf,
        chi1_cdf=chi1_cdf(ratios),
        overestimated_fraction=float(np.count_nonzero(ratios < 1.0) / max(total, 1)),
        infinite_count=zero_est_nonzero_xi,
    )


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _as_rows(obj) -> list[dict]:
    if isinstance(obj, CalibrationTable):
        return obj.rows()
    rows = []
    for item in obj:
        if is_dataclass(item):
            rows.append({f.name: getattr(item, f.name) for f in fields(item)})
        elif isinstance(item, dict):
            rows.append(dict(item))
        else:
            raise TypeError(f"cannot emit {type(item).__name__}")
    return rows


def emit(records_or_table, format: str, path, *, include_runtime: bool = False) -> None:
    """Write records as CSV or JSON with full round-trip precision.

    Wall-clock columns are dropped unless ``include_runtime`` is set, so
    repeated runs of the same command emit byte-identical files.
    """
    rows = _as_rows(records_or_table)
    if not include_runtime:
        rows = [{k: v for k, v in row.items() if k != "runtime"} for row in rows]
    if format == "csv":
        headers = list(rows[0].keys()) if rows else _default_headers(records_or_table, include_runtime)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_format_value(row[h]) for h in headers])
        payload = buf.getvalue()
    elif format == "json":
        payload = json.dumps({"schema_version": "1", "records": rows}, indent=2, allow_nan=True,
                             default=_numpy_scalar) + "\n"
    else:
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json'")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _default_headers(obj, include_runtime: bool) -> list[str]:
    if isinstance(obj, CalibrationTable):
        return ["ratio", "ecdf", "chi1_cdf"]
    names = [f.name for f in fields(BenchRecord)]
    return names if include_runtime else [n for n in names if n != "runtime"]


def _numpy_scalar(v):
    """A numpy integer or float as its Python value, for ``json.dumps``; nothing else."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def read_back(path, format: str) -> list[dict]:
    """Inverse of :func:`emit`, mainly for round-trip checks."""
    if format == "json":
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["records"]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
