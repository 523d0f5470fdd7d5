import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import solver
from odefilter import (
    discrete_transition,
    estimate_sigma2,
    global_error_factor,
    local_error_test,
    next_step_size,
)


class TestEstimateSigma2:
    def test_zero_residual(self):
        assert estimate_sigma2([0.0], 0.5).tolist() == [0.0]

    def test_hand_value(self):
        qbar11 = 0.5**3 / 3
        assert qbar11 == pytest.approx(0.0416667, abs=1e-7)
        got = estimate_sigma2([0.01], qbar11)
        assert got[0] == pytest.approx(0.0024, rel=1e-12)

    def test_quadratic_in_residual(self):
        base = estimate_sigma2([0.3, -0.2], 0.1)
        scaled = estimate_sigma2([0.9, -0.6], 0.1)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-14)

    def test_overflow_gives_inf_without_warning(self):
        # Warnings fail the tests, so this also checks that none is raised.
        assert estimate_sigma2([1e200, 1.0], 0.5).tolist() == [np.inf, 2.0]

    @pytest.mark.parametrize("qbar11", [0.0, -1.0, np.nan])
    def test_rejects_bad_qbar(self, qbar11):
        with pytest.raises(ValueError):
            estimate_sigma2([0.1], qbar11)


class TestErrorTest:
    def test_zero_sigma_always_accepted(self):
        qbar11 = discrete_transition(2, 0.1)[2]
        D, ok = local_error_test([0.0], qbar11, [1.0], 0.1, 1e-9)
        assert ok and D.tolist() == [0.0]

    def test_weights_from_solution_scale(self):
        w, _ = local_error_test([1.0, 1.0], 1.0, [1.5, 3.0], 0.1, 1.0)
        np.testing.assert_allclose(w, [4.0, 2.5], rtol=1e-14)

    def test_weights_use_magnitude(self):
        np.testing.assert_allclose(local_error_test([1.0], 1.0, [-1.5], 0.1, 1.0)[0],
                                   local_error_test([1.0], 1.0, [1.5], 0.1, 1.0)[0])

    def test_hand_rejection(self):
        # tau = 1 and y = 0 give w = 1; the per-unit-step bound is eps*h.
        qbar11 = discrete_transition(2, 0.1)[2]
        D, ok = local_error_test([1.0], qbar11, [0.0], 1.0, 1e-2 * 0.1)
        assert D[0] == pytest.approx(np.sqrt(0.1**3 / 3), rel=1e-12)
        assert D[0] == pytest.approx(0.018257, abs=1e-6)
        assert not ok  # 0.01826 > eps*h = 1e-3

    def test_per_step_scaling(self):
        qbar11 = discrete_transition(2, 0.1)[2]
        _, ok = local_error_test([1.0], qbar11, [0.0], 1.0, 0.02)
        assert ok  # 0.01826 <= eps = 0.02

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            local_error_test([1.0], 1.0, [1.0], 0.0, 1e-6)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            local_error_test([-1.0], 1.0, [1.0], 0.1, 1e-6)


class TestController:
    def test_ratio_one_gives_safety_factor(self):
        assert next_step_size(1.0, 1.0, 0.2, 2) == pytest.approx(0.95 * 0.2, rel=1e-14)

    def test_hand_growth(self):
        got = next_step_size(1.0, 8.0, 0.1, 2)
        assert got == pytest.approx(0.19, rel=1e-12)

    def test_growth_clamped(self):
        assert next_step_size(1e-9, 1.0, 0.1, 2) == pytest.approx(0.5, rel=1e-12)
        assert next_step_size(0.0, 1.0, 0.1, 2) == pytest.approx(0.5, rel=1e-12)

    def test_shrink_clamped(self):
        assert next_step_size(1e12, 1.0, 0.1, 2) == pytest.approx(0.01, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        d1=st.floats(1e-12, 1e6),
        d2=st.floats(1e-12, 1e6),
        h=st.floats(1e-6, 10.0),
        q=st.integers(1, 4),
    )
    def test_monotone_and_rate_limited(self, d1, d2, h, q):
        lo, hi = sorted([d1, d2])
        h_lo = next_step_size(hi, 1.0, h, q)  # bigger error -> smaller step
        h_hi = next_step_size(lo, 1.0, h, q)
        assert h_lo <= h_hi + 1e-15 * h
        for new in (h_lo, h_hi):
            assert solver._ETA_MIN - 1e-12 <= new / h <= solver._ETA_MAX + 1e-12


class TestGlobalRescale:
    def test_factor_value(self):
        assert global_error_factor(0.0, 0.0, 10.0) == 1.0
        assert global_error_factor(0.5, 0.0, 2.0) == pytest.approx(np.e, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            global_error_factor(-1.0, 0.0, 1.0)
