import json
from dataclasses import replace

import numpy as np
import pytest

from odefilter import (
    SolverConfig,
    available_problems,
    get_problem,
    load_problem_file,
    local_errors,
    reference_solution,
    solve,
)


class TestRegistry:
    def test_logistic_exact_endpoint(self):
        p = get_problem("logistic")
        assert p.exact(1.5)[0] == pytest.approx(0.90910, abs=1e-4)
        r, K, y0 = 3.0, 1.0, 0.1
        closed = K * y0 * np.exp(r * 1.5) / (K + y0 * (np.exp(r * 1.5) - 1.0))
        assert p.exact(1.5)[0] == pytest.approx(closed, rel=1e-14)

    def test_vdp_rhs_value(self):
        p = get_problem("vdp")
        np.testing.assert_allclose(p.rhs(0.0, (2.0, 0.0)), [0.0, -2.0], rtol=1e-14)
        np.testing.assert_allclose(p.y0, [2.0086, 0.0])
        assert p.T == pytest.approx(6.6633)

    def test_brusselator_setup(self):
        p = get_problem("brusselator")
        np.testing.assert_allclose(p.y0, [1.5, 3.0])
        assert (p.t0, p.T) == (0.0, 10.0)
        np.testing.assert_allclose(p.rhs(0.0, p.y0), [1.75, -2.25], rtol=1e-14)

    def test_linear_families(self):
        p = get_problem("linear(0)")
        for t in (0.0, 0.7, 2.0):
            assert p.exact(t)[0] == 1.0
        p2 = get_problem("linear(-0.5)")
        assert p2.exact(2.0)[0] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_poly_family(self):
        p = get_problem("poly(3)")
        assert p.exact(2.0)[0] == pytest.approx(9.0, rel=1e-14)
        assert p.rhs(2.0, np.array([0.0]))[0] == pytest.approx(12.0)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="logistic"):
            get_problem("nope")
        assert "brusselator" in available_problems()

    def test_instances_are_fresh(self):
        a, b = get_problem("logistic"), get_problem("logistic")
        a.eval_rhs(0.0, a.y0)
        assert a.nfev == 1 and b.nfev == 0

    def test_rhs_broadcasts_over_batches(self):
        for name in ("logistic", "brusselator", "vdp", "linear(2)", "poly(2)"):
            p = get_problem(name)
            batch = np.tile(p.y0, (5, 1))
            ts = np.linspace(p.t0 + 0.1, p.t0 + 0.5, 5)
            out = np.asarray(p.rhs(ts, batch))
            assert out.shape == (5, p.dim)
            row = np.atleast_1d(p.rhs(float(ts[2]), p.y0 * 1.0))
            np.testing.assert_allclose(out[2], row, rtol=1e-14)


class TestReferenceSolution:
    def test_start_is_initial_value(self):
        p = get_problem("brusselator")
        np.testing.assert_array_equal(reference_solution(p, 0.0), p.y0)

    def test_matches_closed_form(self):
        p = get_problem("logistic")
        for t in (0.4, 1.0, 1.5):
            got = reference_solution(p, t)
            np.testing.assert_allclose(got, p.exact(t), atol=1e-11)

    def test_tolerance_self_consistency(self):
        p1, p2 = get_problem("brusselator"), get_problem("brusselator")
        a = reference_solution(p1, 10.0, tol=1e-12)
        b = reference_solution(p2, 10.0, tol=1e-13)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_rejects_times_before_start(self):
        with pytest.raises(ValueError):
            reference_solution(get_problem("logistic"), -1.0)

    def test_vector_of_times(self):
        p = get_problem("logistic")
        ts = np.array([0.0, 0.5, 1.0])
        out = reference_solution(p, ts)
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out[:, 0], [p.exact(t)[0] for t in ts], atol=1e-11)


# The registered two-dimensional right-hand sides at their default parameters
# as numpy.stack formulas: the reference they must match bit for bit.
_STACKED_RHS = {
    "brusselator": lambda t, y: np.stack(
        [1.0 + y[..., 0]**2 * y[..., 1] - 4.0 * y[..., 0], 3.0 * y[..., 0] - y[..., 0]**2 * y[..., 1]],
        axis=-1),
    "vdp": lambda t, y: np.stack(
        [y[..., 1], 1.0 * (1.0 - y[..., 0]**2) * y[..., 1] - y[..., 0]], axis=-1),
}


class TestRegisteredRhs:
    @pytest.mark.parametrize("name", sorted(_STACKED_RHS))
    @pytest.mark.parametrize("shape", [(2,), (50, 2)])
    def test_equals_the_stacked_formula_bit_for_bit(self, name, shape):
        y = np.random.default_rng(7).uniform(-3.0, 3.0, shape)
        got = get_problem(name).rhs(0.0, y)
        want = _STACKED_RHS[name](0.0, y)
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert got.dtype == np.float64 and not np.shares_memory(got, y)

    @pytest.mark.parametrize("name", sorted(_STACKED_RHS))
    def test_local_errors_unchanged(self, name):
        # local_errors restarts every step in one batched sweep of the rhs.
        p = get_problem(name)
        p = replace(p, T=p.t0 + 1.0)
        res = solve(p, SolverConfig(q=2, eps=1e-3))
        xi = local_errors(p, res)
        want = local_errors(replace(p, rhs=_STACKED_RHS[name]), res)
        assert len(xi) > 5 and xi.tobytes() == want.tobytes()


class TestLocalErrors:
    def test_zero_field_zero_errors(self):
        p = get_problem("linear(0)")
        res = solve(p, SolverConfig(q=2, fixed_step=0.25))
        xi = local_errors(p, res)
        np.testing.assert_array_equal(xi, np.zeros(len(xi)))

    def test_nonnegative_and_mesh_sized(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-3))
        xi = local_errors(p, res)
        assert xi.shape == (len(res.knots) - 1,)
        assert np.all(xi >= 0.0)

    def test_restart_property_on_oracle_output(self):
        # Feed the oracle's own flow back in: every restart must then track
        # the flow to within a few multiples of the oracle tolerance.
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, fixed_step=0.15))
        tol = 1e-13
        truth = reference_solution(p, res.knots[1:], tol)
        means = res.solution_means()
        means[1:] = truth  # exact values on the same mesh
        for state, y in zip(res.path.filtered[1:], truth):
            state.mean[0] = y[0]
        xi = local_errors(p, res, tol)
        assert np.max(xi) <= 10 * tol

    def test_cubic_local_error_scaling(self):
        # The fitted per-step error constant from one step size bounds the
        # errors at a finer one, with local order at least three.
        p, p2 = get_problem("logistic"), get_problem("logistic")
        xi_c = local_errors(p, solve(p, SolverConfig(q=2, fixed_step=0.1, sigma_mode="global_ml")))
        xi_f = local_errors(p2, solve(p2, SolverConfig(q=2, fixed_step=0.05, sigma_mode="global_ml")))
        c_fit = np.max(xi_c) / 0.1**3
        assert np.max(xi_f) <= 10 * c_fit * 0.05**3

    def test_mesh_outside_domain_rejected(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, fixed_step=0.3))
        res.path.knots[-1] = 99.0
        with pytest.raises(ValueError):
            local_errors(p, res)


class TestProblemFile:
    def test_load_and_evaluate(self, tmp_path):
        spec = {
            "name": "decay-pair",
            "dim": 2,
            "t0": 0.0,
            "T": 1.0,
            "y0": [1.0, 2.0],
            "rhs": [
                {"terms": [{"coef": -0.5, "y_powers": [1, 0]}]},
                {
                    "terms": [{"coef": 1.0, "t_power": 1}],
                    "denominator": [{"coef": 1.0}, {"coef": 1.0, "y_powers": [0, 2]}],
                },
            ],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec))
        p = load_problem_file(path)
        assert p.name == "decay-pair" and p.dim == 2
        got = p.rhs(2.0, np.array([4.0, 1.0]))
        np.testing.assert_allclose(got, [-2.0, 1.0], rtol=1e-14)
        batch = p.rhs(np.array([2.0, 2.0]), np.tile([4.0, 1.0], (2, 1)))
        np.testing.assert_allclose(batch, [[-2.0, 1.0], [-2.0, 1.0]], rtol=1e-14)

    def test_loaded_problem_solves(self, tmp_path):
        spec = {
            "name": "halflife",
            "dim": 1,
            "t0": 0.0,
            "T": 1.0,
            "y0": [1.0],
            "rhs": [{"terms": [{"coef": -1.0, "y_powers": [1]}]}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        p = load_problem_file(path)
        res = solve(p, SolverConfig(q=2, fixed_step=0.05))
        assert res.solution_means()[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-3)

    def test_component_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "dim": 2, "t0": 0, "T": 1,
                                    "y0": [1, 1], "rhs": [{"terms": []}]}))
        with pytest.raises(ValueError):
            load_problem_file(path)
