from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import discrete_transition, make_iwp, nordsieck_qbar, pascal_matrix


def _loop_a(q, h):
    """Entry-by-entry closed form of A(h), the reference for the table."""
    A = np.zeros((q + 1, q + 1))
    for i in range(q + 1):
        for j in range(i, q + 1):
            A[i, j] = h ** (j - i) / factorial(j - i)
    return A


def _loop_q(q, h, sigma2):
    """Entry-by-entry closed form of Q(h), the reference for the table."""
    Q = np.zeros((q + 1, q + 1))
    for i in range(q + 1):
        for j in range(q + 1):
            p = 2 * q + 1 - i - j
            Q[i, j] = sigma2 * h**p / (p * factorial(q - i) * factorial(q - j))
    return Q


def _nordsieck_diag(q, h):
    return np.array([h**i / factorial(i) for i in range(q + 1)])


class TestMakeIwp:
    def test_scalar_model(self):
        m = make_iwp(2, [1.0], 1)
        assert m.q == 2 and m.dim == 1
        assert m.sigma2.tolist() == [1.0]

    def test_anisotropic_model(self):
        m = make_iwp(1, [1.0, 4.0], 2)
        assert m.dim == 2
        assert m.sigma2.tolist() == [1.0, 4.0]

    def test_scalar_sigma2_broadcasts(self):
        m = make_iwp(2, 0.5, 3)
        assert m.sigma2.tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "q,sigma2,dim",
        [(0, [1.0], 1), (2, [-1.0], 1), (2, [0.0], 1), (2, [1.0, 1.0], 3), (2, [np.inf], 1)],
    )
    def test_rejects_bad_inputs(self, q, sigma2, dim):
        with pytest.raises((ValueError, TypeError)):
            make_iwp(q, sigma2, dim)

    def test_drift_is_upper_shift(self):
        m = make_iwp(3, [1.0], 1)
        F = m.drift_matrix()
        assert np.array_equal(F, np.eye(4, k=1))
        assert np.array_equal(m.dispersion_vector(), [0, 0, 0, 1])


class TestDiscreteTransition:
    def test_a_matrix_iwp2_half(self):
        tr = discrete_transition(make_iwp(2, [1.0], 1), 0.5)
        expected = np.array([[1.0, 0.5, 0.125], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(tr.A, expected, rtol=0, atol=0)

    def test_q_matrix_iwp1_unit(self):
        tr = discrete_transition(make_iwp(1, [1.0], 1), 1.0)
        np.testing.assert_allclose(tr.Q, [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-15)

    def test_q_matrix_iwp2_unit_and_oracle(self):
        m = make_iwp(2, [1.0], 1)
        tr = discrete_transition(m, 1.0)
        expected = np.array(
            [[1 / 20, 1 / 8, 1 / 6], [1 / 8, 1 / 3, 1 / 2], [1 / 6, 1 / 2, 1.0]]
        )
        np.testing.assert_allclose(tr.Q, expected, rtol=1e-15)
        oracle = discrete_transition(m, 1.0, "matrix_fraction")
        np.testing.assert_allclose(oracle.Q, tr.Q, rtol=1e-10)
        np.testing.assert_allclose(oracle.A, tr.A, rtol=1e-10)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_closed_form_matches_matrix_fraction(self, q, h):
        m = make_iwp(q, [0.7], 1)
        a = discrete_transition(m, h, "closed_form")
        b = discrete_transition(m, h, "matrix_fraction")
        scale_q = np.max(np.abs(a.Q))
        assert np.max(np.abs(a.A - b.A)) <= 1e-10 * np.max(np.abs(a.A))
        assert np.max(np.abs(a.Q - b.Q)) <= 1e-10 * scale_q

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_q_symmetric_psd(self, q, h):
        tr = discrete_transition(make_iwp(q, [2.0], 1), h)
        assert np.array_equal(tr.Q, tr.Q.T)
        eigs = np.linalg.eigvalsh(tr.Q)
        assert eigs.min() >= -1e-12 * np.max(np.abs(tr.Q))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_table_bit_identical_to_loop_formulas(self, q):
        m = make_iwp(q, [1.0], 1)
        steps = np.concatenate([10.0 ** np.arange(-12, 2), [0.37, 1.9, 0.015, 3.3e-7]])
        for h in steps:
            for s in (1.0, 0.37, 2.5e4):
                tr = discrete_transition(m, h, sigma2=s)
                np.testing.assert_allclose(tr.A, _loop_a(q, h), rtol=0, atol=0)
                np.testing.assert_allclose(tr.Q, _loop_q(q, h, s), rtol=0, atol=0)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_q_sqrt_is_lower_factor_of_q(self, q):
        m = make_iwp(q, [0.7], 1)
        for h in 10.0 ** np.arange(-8.0, 2.0):
            tr = discrete_transition(m, h)
            assert np.array_equal(tr.Q_sqrt, np.tril(tr.Q_sqrt))
            # Entrywise, so the tiny entries of Q are checked too.
            np.testing.assert_allclose(tr.Q_sqrt @ tr.Q_sqrt.T, tr.Q, rtol=1e-14, atol=0)
        for h in (1e-3, 0.1, 1.0, 10.0):
            oracle = discrete_transition(m, h, "matrix_fraction")
            Q = oracle.Q_sqrt @ oracle.Q_sqrt.T
            assert np.max(np.abs(Q - oracle.Q)) <= 1e-10 * np.max(np.abs(oracle.Q))

    def test_a_unit_upper_triangular(self):
        tr = discrete_transition(make_iwp(3, [1.0], 1), 0.42)
        assert np.allclose(np.tril(tr.A, -1), 0.0)
        np.testing.assert_allclose(np.diag(tr.A), 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_step(self, h):
        with pytest.raises(ValueError):
            discrete_transition(make_iwp(2, [1.0], 1), h)

    def test_anisotropic_needs_explicit_sigma(self):
        m = make_iwp(1, [1.0, 4.0], 2)
        with pytest.raises(ValueError):
            discrete_transition(m, 0.5)
        unit = discrete_transition(m, 0.5, sigma2=1.0)
        np.testing.assert_allclose(
            discrete_transition(m, 0.5, sigma2=4.0).Q, 4.0 * unit.Q, rtol=1e-15
        )

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(1, 4),
        h1=st.floats(1e-3, 5.0),
        h2=st.floats(1e-3, 5.0),
    )
    def test_semigroup(self, q, h1, h2):
        m = make_iwp(q, [1.0], 1)
        t1 = discrete_transition(m, h1)
        t2 = discrete_transition(m, h2)
        t12 = discrete_transition(m, h1 + h2)
        np.testing.assert_allclose(t2.A @ t1.A, t12.A, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            t2.A @ t1.Q @ t2.A.T + t2.Q, t12.Q, rtol=1e-10, atol=1e-13 * np.max(np.abs(t12.Q))
        )

    @settings(max_examples=25, deadline=None)
    @given(q=st.integers(1, 4), h=st.floats(1e-3, 10.0), s=st.floats(1e-3, 1e3))
    def test_q_linear_in_sigma2(self, q, h, s):
        base = discrete_transition(make_iwp(q, [1.0], 1), h)
        scaled = discrete_transition(make_iwp(q, [2.0 * s], 1), h, sigma2=2.0 * s)
        np.testing.assert_allclose(scaled.Q, 2.0 * s * base.Q, rtol=1e-14)


class TestNordsieck:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_scaled_transition_is_pascal_and_qbar(self, q):
        m = make_iwp(q, [1.0], 1)
        for h in (0.05, 0.73, 2.0):
            tr = discrete_transition(m, h)
            b = _nordsieck_diag(q, h)
            np.testing.assert_allclose(
                b[:, None] * tr.A / b[None, :], pascal_matrix(q), rtol=1e-13, atol=1e-15
            )
            np.testing.assert_allclose(
                b[:, None] * tr.Q * b[None, :], h ** (2 * q + 1) * nordsieck_qbar(q), rtol=1e-13
            )

    def test_rescaled_a_is_pascal(self):
        m = make_iwp(2, [1.0], 1)
        for h in (0.05, 0.73, 2.0):
            b = _nordsieck_diag(2, h)
            nA = b[:, None] * discrete_transition(m, h).A / b[None, :]
            np.testing.assert_allclose(nA, [[1, 1, 1], [0, 1, 2], [0, 0, 1]], atol=1e-12)

    def test_rescaled_q_at_unit_step_unchanged(self):
        tr = discrete_transition(make_iwp(1, [1.0], 1), 1.0)
        b = _nordsieck_diag(1, 1.0)
        np.testing.assert_allclose(
            b[:, None] * tr.Q * b[None, :], [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14
        )
        np.testing.assert_allclose(nordsieck_qbar(1), [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14)

    def test_rescaled_q00_value(self):
        tr = discrete_transition(make_iwp(2, [1.0], 1), 2.0)
        b = _nordsieck_diag(2, 2.0)
        assert (b[0] * tr.Q[0, 0] * b[0]) == pytest.approx(2**5 / 20, rel=1e-13)
        assert nordsieck_qbar(2)[0, 0] == pytest.approx(1 / 20, rel=1e-15)

    def test_pascal_matrix(self):
        P = pascal_matrix(3)
        np.testing.assert_allclose(
            P, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 3], [0, 0, 0, 1]]
        )

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            pascal_matrix(2)[0, 0] = 5.0
        with pytest.raises(ValueError):
            nordsieck_qbar(2)[0, 0] = 5.0
