import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import analysis
from odefilter import (
    SolverConfig,
    amplification_matrix,
    convergence_order,
    get_problem,
    nordsieck_gains,
    rk_starter_q4,
    solve,
    stability_scan,
    starter_coefficients,
    steady_state,
    trapezoid_oracle,
)

SQ3 = np.sqrt(3.0)


class TestSteadyState:
    def test_iwp2_gain_and_coefficients(self):
        ss = steady_state(2)
        np.testing.assert_allclose(
            ss.gain, [(3 + SQ3) / 12, 1.0, (3 - SQ3) / 2], atol=1e-10
        )
        assert ss.cov_coeffs[2, 2] == pytest.approx(SQ3 / 24, abs=1e-10)
        assert ss.cov_coeffs[0, 2] == pytest.approx(-SQ3 / 144, abs=1e-10)

    def test_gain_slot_one_exact_and_cov_row_one_zero(self):
        for q in (1, 2, 3, 4):
            ss = steady_state(q)
            assert ss.gain[1] == 1.0
            assert np.max(np.abs(ss.cov_coeffs[1, :])) == 0.0
            assert np.max(np.abs(ss.cov_coeffs[:, 1])) == 0.0

    def test_iwp1_immediate(self):
        ss = steady_state(1)
        assert ss.iterations == 1
        assert ss.cov_coeffs[0, 0] == pytest.approx(1 / 12, rel=1e-14)
        np.testing.assert_allclose(ss.gain, [0.5, 1.0], atol=1e-14)

    @pytest.mark.parametrize("q", [2.5, True])
    def test_q_must_be_an_integer(self, q):
        with pytest.raises(TypeError, match="q must be an integer"):
            steady_state(q)

    @pytest.mark.parametrize("q", [0, 5])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError, match="q"):
            steady_state(q)

    def test_nonconvergence_reported(self):
        with pytest.raises(RuntimeError):
            steady_state(2, max_iter=2)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.0, 50.0), b=st.floats(0.0, 50.0))
    def test_corner_map_is_quarter_contraction(self, a, b):
        g = lambda c: (16 * c + 1) / (16 * (12 * c + 1))
        assert abs(g(a) - g(b)) <= 0.25 * abs(a - b) + 1e-15


class TestLiveGains:
    def test_reach_steady_gain_by_step_ten(self):
        p = get_problem("logistic")
        cfg = SolverConfig(q=2, fixed_step=0.1, sigma_mode="global_ml")
        res = solve(p, cfg)
        gains = nordsieck_gains(res)
        ss = steady_state(2)
        assert np.max(np.abs(gains[9] - ss.gain)) < 1e-6
        assert np.max(np.abs(gains[-1] - ss.gain)) < 1e-8


class TestTrapezoidOracle:
    def test_one_step_hand_value(self):
        out = trapezoid_oracle(get_problem("logistic"), 0.3, 1)
        assert out[1, 0] == pytest.approx(0.2072076, abs=1e-7)

    def test_zero_field_constant(self):
        out = trapezoid_oracle(get_problem("linear(0)"), 0.5, 4)
        np.testing.assert_array_equal(out, np.ones((5, 1)))

    def test_exact_for_constant_slope(self):
        p = get_problem("poly(1)")  # y' = 1
        out = trapezoid_oracle(p, 0.25, 8)
        np.testing.assert_allclose(out[:, 0], 1.0 + 0.25 * np.arange(9), rtol=1e-15)

    def test_equivalence_with_first_order_model(self):
        # The once-integrated model with a fixed step reproduces the
        # explicit trapezoid predictor-corrector in its solution slot.
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=1, fixed_step=0.3))
        oracle = trapezoid_oracle(get_problem("logistic"), 0.3, 5)
        means = res.solution_means()[:, 0]
        rel = np.abs(means[2:] - oracle[2:, 0]) / np.abs(oracle[2:, 0])
        assert np.max(rel) <= 1e-12


class TestStarter:
    def test_slot0_weights_and_quadrature_conditions(self):
        co = starter_coefficients(1 / 3, 1 / 2)
        np.testing.assert_allclose(co.mean_weights[0], [1 / 6, 0.0, 2 / 3, 1 / 6], atol=1e-12)
        c = np.array([0.0, 1 / 3, 1 / 2, 1.0])
        for k in range(4):
            assert co.mean_weights[0] @ c**k == pytest.approx(1 / (k + 1), abs=1e-12)

    @pytest.mark.parametrize("u,v", [(1 / 3, 1 / 2), (0.25, 0.7), (0.9, 0.2)])
    def test_slot1_returns_last_reading(self, u, v):
        mean, _ = rk_starter_q4(u, v, 0.4, 1.0, [0.1, 0.2, 0.3, 0.4], 1.0)
        assert mean[1] == pytest.approx(0.4, rel=1e-14)

    @pytest.mark.parametrize("u,v", [(1 / 3, 1 / 2), (0.25, 0.7)])
    def test_covariance_shape(self, u, v):
        _, cov = rk_starter_q4(u, v, 0.4, 2.0, [0.1, 0.2, 0.3, 0.4], 1.0)
        assert np.max(np.abs(cov[1, :])) == 0.0
        assert np.max(np.abs(cov[:, 1])) == 0.0
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.max(np.abs(cov))

    def test_covariance_linear_in_sigma2(self):
        _, c1 = rk_starter_q4(1 / 3, 1 / 2, 0.4, 1.0, [0.1, 0.2, 0.3, 0.4], 1.0)
        _, c3 = rk_starter_q4(1 / 3, 1 / 2, 0.4, 3.0, [0.1, 0.2, 0.3, 0.4], 1.0)
        np.testing.assert_allclose(c3, 3.0 * c1, rtol=1e-14)

    @pytest.mark.parametrize("u,v", [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (0.3, 1.0), (-0.1, 0.5)])
    def test_singular_parameters_rejected(self, u, v):
        with pytest.raises(ValueError):
            starter_coefficients(u, v)

    def test_matches_diffuse_prior_sweep(self):
        # Run the large-variance start twice and extrapolate the prior
        # variance to infinity; the closed forms must agree with the limit.
        from odefilter.priors import discrete_transition
        from odefilter.filtering import GaussState, ObservationModel, predict, update

        u, v, h = 1 / 3, 1 / 2, 1.0

        def diffuse_run(var):
            prob = get_problem("logistic")
            state = GaussState(0.0, np.zeros(5), np.sqrt(var) * np.eye(5)[None])
            state, _ = update(state, [0.1], ObservationModel(0))
            zs, t_prev = [], 0.0
            for tk in (0.0, u * h, v * h, h):
                if tk > 0.0:
                    state = predict(state, discrete_transition(4, tk - t_prev))
                z = prob.rhs(tk, state.mean[[0]])
                state, _ = update(state, z, ObservationModel(1))
                zs.append(float(np.atleast_1d(z)[0]))
                t_prev = tk
            return state.mean, state.cov[0], np.array(zs)

        v1, v2 = 1e5, 1e7
        m1, c1, z1 = diffuse_run(v1)
        m2, c2, z2 = diffuse_run(v2)
        w2, w1 = v2 / (v2 - v1), v1 / (v2 - v1)
        m_lim, c_lim, z_lim = w2 * m2 - w1 * m1, w2 * c2 - w1 * c1, w2 * z2 - w1 * z1
        mean, cov = rk_starter_q4(u, v, h, 1.0, z_lim, 0.1)
        assert np.max(np.abs(mean - m_lim)) < 1e-6
        assert np.max(np.abs(cov - c_lim)) < 1e-6


class TestStability:
    def test_zero_point_spectrum(self):
        gain = steady_state(2).gain
        eigs = np.sort(np.linalg.eigvals(amplification_matrix(gain, 0.0)).real)
        np.testing.assert_allclose(eigs, [SQ3 - 2, 0.0, 1.0], atol=1e-10)

    def test_stable_near_origin_unstable_far(self):
        gain = steady_state(2).gain
        rho = lambda z: np.max(np.abs(np.linalg.eigvals(amplification_matrix(gain, z))))
        assert rho(-0.1) < 1.0
        assert rho(-10.0) > 1.0

    def test_scan_grid(self):
        gain = steady_state(2).gain
        re = np.linspace(-4.0, 0.5, 8)
        im = np.linspace(0.0, 3.0, 6)
        radius, stable = stability_scan(gain, re, im)
        assert radius.shape == (6, 8)
        assert stable.dtype == bool
        assert stable.any() and not stable.all()
        for a, y in enumerate(im):
            for b, x in enumerate(re):
                eig = np.linalg.eigvals(amplification_matrix(gain, complex(x, y)))
                np.testing.assert_allclose(radius[a, b], np.max(np.abs(eig)), rtol=0, atol=0)

    # Blocks of 1 and 17 of the 48 points; 17 cut across rows.
    @pytest.mark.parametrize("points", [1, 17])
    def test_scan_blocks_match_one_block(self, points, monkeypatch):
        gain = steady_state(4).gain
        re = np.linspace(-4.0, 0.5, 8)
        im = np.linspace(0.0, 3.0, 6)
        whole = stability_scan(gain, re, im)
        monkeypatch.setattr(analysis, "_SCAN_POINTS", points)
        blocked = stability_scan(gain, re, im)
        assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])

    def test_gain_scaling_validated(self):
        with pytest.raises(ValueError):
            amplification_matrix(np.array([0.1, 0.5, 0.2]), 0.0)


class TestConvergenceOrder:
    def test_third_order_model(self):
        fit = convergence_order(get_problem("logistic"), 2, [0.1, 0.05, 0.025, 0.0125])
        assert not fit.degenerate
        assert 2.7 <= fit.order <= 3.3

    def test_diverged_step_size_raises(self):
        # h = 0.02 is far outside q = 2's stability region for lam = -1000.
        with pytest.raises(RuntimeError, match="solve diverged at t = "):
            convergence_order(get_problem("linear(-1000)"), 2, [0.02, 0.01, 0.005])

    def test_second_order_model(self):
        fit = convergence_order(get_problem("logistic"), 1, [0.1, 0.05, 0.025, 0.0125])
        assert 1.7 <= fit.order <= 2.3

    def test_degenerate_on_exact_problem(self):
        fit = convergence_order(get_problem("linear(0)"), 2, [0.2, 0.1, 0.05])
        assert fit.degenerate
        assert np.isnan(fit.order)

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order(get_problem("logistic"), 2, [0.1, 0.05])

    def test_needs_reference(self):
        with pytest.raises(ValueError):
            convergence_order(get_problem("brusselator"), 2, [0.1, 0.05, 0.025])
