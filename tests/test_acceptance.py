"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from odefilter import (
    SolverConfig,
    amplification_matrix,
    convergence_order,
    discrete_transition,
    error_calibration,
    get_problem,
    local_errors,
    nordsieck_gains,
    rk_starter_q4,
    solve,
    starter_coefficients,
    steady_state,
    trapezoid_oracle,
)
from odefilter.bench import chi1_cdf, deceived_fraction
from odefilter.cli import main as cli_main
from transition_oracle import matrix_fraction

SQ3 = np.sqrt(3.0)


@contextmanager
def criterion(number, description, time_limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < time_limit, f"criterion {number} exceeded {time_limit}s ({elapsed:.2f}s)"


def test_criterion_1_transition_oracle_equivalence():
    with criterion(1, "closed-form transitions match the matrix-fraction oracle", 1.0):
        for q in (1, 2, 3, 4):
            for h in (1e-3, 0.1, 1.0):
                A, Q_sqrt, _ = discrete_transition(q, h)
                Q = Q_sqrt @ Q_sqrt.T
                A_ref, Q_ref = matrix_fraction(q, h)
                assert np.max(np.abs(A - A_ref)) <= 1e-10 * np.max(np.abs(A))
                assert np.max(np.abs(Q - Q_ref)) <= 1e-10 * np.max(np.abs(Q))


def test_criterion_2_trapezoid_equivalence():
    with criterion(2, "first-order model reproduces the explicit trapezoid rule", 1.0):
        h = 0.3
        problem = get_problem("logistic")
        res = solve(problem, SolverConfig(q=1, fixed_step=h))
        oracle = trapezoid_oracle(get_problem("logistic"), h, res.steps_accepted)
        means = res.solution_means()[:, 0]
        rel = np.abs(means[2:] - oracle[2:, 0]) / np.abs(oracle[2:, 0])
        assert np.max(rel) <= 1e-12
        # variance of the solution slot after the first full step
        c00 = res.path.filtered[1].cov[0, 0, 0]
        sigma2_first = res.sigma2_trace[0, 0]
        assert c00 == pytest.approx(sigma2_first * h**3 / 12, rel=1e-12)


def test_criterion_3_steady_state_and_live_gains():
    with criterion(3, "steady-state gain/covariance values and live-gain convergence", 1.0):
        ss = steady_state(2)
        np.testing.assert_allclose(
            ss.gain, [(3 + SQ3) / 12, 1.0, (3 - SQ3) / 2], atol=1e-10
        )
        assert ss.cov_coeffs[0, 2] == pytest.approx(-SQ3 / 144, abs=1e-10)
        assert ss.cov_coeffs[2, 2] == pytest.approx(SQ3 / 24, abs=1e-10)
        res = solve(
            get_problem("logistic"),
            SolverConfig(q=2, fixed_step=0.1, sigma_mode="global_ml"),
        )
        gains = nordsieck_gains(res)
        assert np.max(np.abs(gains[9] - ss.gain)) < 1e-6


def test_criterion_4_convergence_orders():
    with criterion(4, "empirical global orders of the q=1 and q=2 models", 5.0):
        h_list = [0.1, 0.05, 0.025, 0.0125]
        fit2 = convergence_order(get_problem("logistic"), 2, h_list)
        assert 2.7 <= fit2.order <= 3.3
        fit1 = convergence_order(get_problem("logistic"), 1, h_list)
        assert 1.7 <= fit1.order <= 2.3


def test_criterion_5_stability():
    with criterion(5, "amplification spectrum at the origin and along the negative axis", 1.0):
        gain = steady_state(2).gain
        eigs = np.sort(np.linalg.eigvals(amplification_matrix(gain, 0.0)).real)
        np.testing.assert_allclose(eigs, [SQ3 - 2.0, 0.0, 1.0], atol=1e-10)
        rho = lambda z: np.max(np.abs(np.linalg.eigvals(amplification_matrix(gain, z))))
        assert rho(-0.1) < 1.0
        assert rho(-10.0) > 1.0


def test_criterion_6_fourth_order_starter():
    with criterion(6, "four-evaluation starter weights and covariance structure", 1.0):
        co = starter_coefficients(1 / 3, 1 / 2)
        np.testing.assert_allclose(
            co[0], [1 / 6, 0.0, 2 / 3, 1 / 6], atol=1e-12
        )
        c = np.array([0.0, 1 / 3, 1 / 2, 1.0])
        for k in range(4):
            assert co[0] @ c**k == pytest.approx(1 / (k + 1), abs=1e-12)
        _, cov = rk_starter_q4(1 / 3, 1 / 2, 0.5, 1.0, [0.27, 0.3, 0.32, 0.4], 0.1)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.max(np.abs(cov[1, :])) == 0.0
        assert np.max(np.abs(cov[:, 1])) == 0.0
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.max(np.abs(cov))


def test_criterion_7_adaptive_step_counts():
    with criterion(7, "adaptive step counts on the oscillator problems", 10.0):
        cfg = SolverConfig(q=2, eps=3.0, weighting_tau=0.1, h_init=0.01)
        brus = solve(get_problem("brusselator"), cfg)
        assert 22 <= brus.steps_accepted <= 86
        vdp = solve(get_problem("vdp"), cfg)
        assert 20 <= vdp.steps_accepted <= 82
        fixed = solve(get_problem("brusselator"), SolverConfig(q=2, fixed_step=0.0834))
        assert fixed.steps_accepted == 120
        assert brus.steps_accepted < fixed.steps_accepted


def test_criterion_8_calibration():
    with criterion(8, "conservative error calibration at eps = 1e-6", 30.0):
        for name in ("logistic", "brusselator"):
            problem = get_problem(name)
            cfg = SolverConfig(q=2, eps=1e-6, weighting_tau=0.1, h_init=1e-3)
            res = solve(problem, cfg)
            xi = local_errors(problem, res)
            hs = np.diff(res.knots)
            table = error_calibration(res, xi)
            assert table.ecdf_at(1.0) >= chi1_cdf(1.0)
            assert deceived_fraction(xi, hs, 1e-6) < 0.10


def test_criterion_9_deterministic_outputs(tmp_path):
    with criterion(9, "byte-identical solve and bench reruns", 5.0):
        solve_outputs, bench_outputs = [], []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = cli_main(
                ["solve", "--problem", "logistic", "--eps", "0.01",
                 "--obs", "sampled", "--seed", "11", "--samples", "3",
                 "--out", str(out)]
            )
            assert code == 0
            solve_outputs.append(out.read_bytes())
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            code = cli_main(
                ["bench", "--problems", "logistic,vdp", "--eps", "0.01,0.001",
                 "--out", str(out)]
            )
            assert code == 0
            bench_outputs.append(out.read_bytes())
        assert solve_outputs[0] == solve_outputs[1]
        assert bench_outputs[0] == bench_outputs[1]
