from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import SolverConfig, discrete_transition, nordsieck_qbar, pascal_matrix
from odefilter.priors import _constants, _pivot
from transition_oracle import loop_a, loop_q, matrix_fraction


def _unit_q(Q_sqrt):
    """The library's unit Q(h), formed from its factor."""
    return Q_sqrt @ Q_sqrt.T


def _nordsieck_diag(q, h):
    return np.array([h**i / factorial(i) for i in range(q + 1)])


class TestDiscreteTransition:
    def test_a_matrix_iwp2_half(self):
        A, _, _ = discrete_transition(2, 0.5)
        expected = np.array([[1.0, 0.5, 0.125], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(A, expected, rtol=0, atol=0)

    def test_q_matrix_iwp1_unit(self):
        _, Q_sqrt, _ = discrete_transition(1, 1.0)
        np.testing.assert_allclose(_unit_q(Q_sqrt), [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-15)

    def test_q_matrix_iwp2_unit_and_oracle(self):
        A, Q_sqrt, _ = discrete_transition(2, 1.0)
        expected = np.array(
            [[1 / 20, 1 / 8, 1 / 6], [1 / 8, 1 / 3, 1 / 2], [1 / 6, 1 / 2, 1.0]]
        )
        np.testing.assert_allclose(_unit_q(Q_sqrt), expected, rtol=1e-15)
        A_ref, Q = matrix_fraction(2, 1.0)
        np.testing.assert_allclose(Q, _unit_q(Q_sqrt), rtol=1e-10)
        np.testing.assert_allclose(A_ref, A, rtol=1e-10)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_closed_form_matches_matrix_fraction(self, q, h):
        A, Q_sqrt, _ = discrete_transition(q, h)
        A_ref, Q = matrix_fraction(q, h)
        assert np.max(np.abs(A - A_ref)) <= 1e-10 * np.max(np.abs(A))
        assert np.max(np.abs(_unit_q(Q_sqrt) - Q)) <= 1e-10 * np.max(np.abs(_unit_q(Q_sqrt)))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_q_symmetric_psd(self, q, h):
        Q = _unit_q(discrete_transition(q, h)[1])
        assert np.array_equal(Q, Q.T)
        eigs = np.linalg.eigvalsh(Q)
        assert eigs.min() >= -1e-12 * np.max(np.abs(Q))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_table_bit_identical_to_loop_formulas(self, q):
        steps = np.concatenate([10.0 ** np.arange(-12, 2), [0.37, 1.9, 0.015, 3.3e-7]])
        for h in steps:
            A, _, q11 = discrete_transition(q, h)
            np.testing.assert_allclose(A, loop_a(q, h), rtol=0, atol=0)
            assert q11 == loop_q(q, h)[1, 1]

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_q_sqrt_is_lower_factor_of_q(self, q):
        for h in 10.0 ** np.arange(-8.0, 2.0):
            _, Q_sqrt, _ = discrete_transition(q, h)
            assert np.array_equal(Q_sqrt, np.tril(Q_sqrt))
            # Entrywise, so the tiny entries of Q are checked too.
            np.testing.assert_allclose(_unit_q(Q_sqrt), loop_q(q, h), rtol=1e-14, atol=0)
        for h in (1e-3, 0.1, 1.0, 10.0):
            _, Q = matrix_fraction(q, h)
            assert np.max(np.abs(_unit_q(discrete_transition(q, h)[1]) - Q)) <= 1e-10 * np.max(np.abs(Q))

    def test_a_unit_upper_triangular(self):
        A, _, _ = discrete_transition(3, 0.42)
        assert np.allclose(np.tril(A, -1), 0.0)
        np.testing.assert_allclose(np.diag(A), 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_step(self, h):
        with pytest.raises(ValueError):
            discrete_transition(2, h)

    @pytest.mark.parametrize(
        "q,error",
        [
            pytest.param(SolverConfig(q=2), TypeError, id="q0"),
            pytest.param(0, ValueError, id="0"),
            pytest.param(2.0, TypeError, id="2.0"),
            # bool subclasses int, so True must be refused, not read as q = 1.
            pytest.param(True, TypeError, id="True"),
        ],
    )
    def test_rejects_non_order(self, q, error):
        # A call with a whole config in place of q must not run either.
        with pytest.raises(error, match="q must be"):
            discrete_transition(q, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(1, 4),
        h1=st.floats(1e-3, 5.0),
        h2=st.floats(1e-3, 5.0),
    )
    def test_semigroup(self, q, h1, h2):
        A1, Q1, _ = discrete_transition(q, h1)
        A2, Q2, _ = discrete_transition(q, h2)
        A12, Q12_sqrt, _ = discrete_transition(q, h1 + h2)
        Q12 = _unit_q(Q12_sqrt)
        np.testing.assert_allclose(A2 @ A1, A12, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            A2 @ _unit_q(Q1) @ A2.T + _unit_q(Q2), Q12,
            rtol=1e-10, atol=1e-13 * np.max(np.abs(Q12)),
        )

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_pivoted_rows_are_the_permuted_transition(self, q):
        # The table holds two row orders: slot order at index 0, which discrete_transition
        # returns, and the derivative slot's pivot order at index 1, which the accepted
        # step stacks as it comes; each row must be bit for bit the slot-order row that
        # the pivot puts there.
        table, order = _constants(q), _pivot(q + 1, 1)[0]
        assert order[0] == 1 and sorted(order) == list(range(q + 1))
        for h in (1e-9, 3.3e-7, 0.015, 0.37, 1.0, 1.9, 42.0):
            tr_A, tr_Q_sqrt, _ = discrete_transition(q, h)
            A, Q_sqrt, _ = table.transition(h)
            assert A.shape == Q_sqrt.shape == (2, q + 1, q + 1)
            assert A[0].tobytes() == tr_A.tobytes() and Q_sqrt[0].tobytes() == tr_Q_sqrt.tobytes()
            assert A[1].tobytes() == tr_A.take(order, axis=0).tobytes()
            assert Q_sqrt[1].tobytes() == tr_Q_sqrt.take(order, axis=0).tobytes()
        assert _constants(q) is table  # built once per q
        for arr in (table.lags, table.dens, table.qbar_rows, order):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


class TestNordsieck:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_scaled_transition_is_pascal_and_qbar(self, q):
        for h in (0.05, 0.73, 2.0):
            A, Q_sqrt, _ = discrete_transition(q, h)
            b = _nordsieck_diag(q, h)
            np.testing.assert_allclose(
                b[:, None] * A / b[None, :], pascal_matrix(q), rtol=1e-13, atol=1e-15
            )
            np.testing.assert_allclose(
                b[:, None] * _unit_q(Q_sqrt) * b[None, :], h ** (2 * q + 1) * nordsieck_qbar(q),
                rtol=1e-13,
            )

    def test_rescaled_a_is_pascal(self):
        for h in (0.05, 0.73, 2.0):
            b = _nordsieck_diag(2, h)
            nA = b[:, None] * discrete_transition(2, h)[0] / b[None, :]
            np.testing.assert_allclose(nA, [[1, 1, 1], [0, 1, 2], [0, 0, 1]], atol=1e-12)

    def test_rescaled_q_at_unit_step_unchanged(self):
        _, Q_sqrt, _ = discrete_transition(1, 1.0)
        b = _nordsieck_diag(1, 1.0)
        np.testing.assert_allclose(
            b[:, None] * _unit_q(Q_sqrt) * b[None, :], [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14
        )
        np.testing.assert_allclose(nordsieck_qbar(1), [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14)

    def test_rescaled_q00_value(self):
        _, Q_sqrt, _ = discrete_transition(2, 2.0)
        b = _nordsieck_diag(2, 2.0)
        assert (b[0] * _unit_q(Q_sqrt)[0, 0] * b[0]) == pytest.approx(2**5 / 20, rel=1e-13)
        assert nordsieck_qbar(2)[0, 0] == pytest.approx(1 / 20, rel=1e-15)

    def test_pascal_matrix(self):
        P = pascal_matrix(3)
        np.testing.assert_allclose(
            P, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 3], [0, 0, 0, 1]]
        )

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_table_holds_the_unit_step_transition(self, q):
        # The backward pass reads A(1) and Q(1)^(1/2) off the table, and the
        # calibration reads Q(h)_00 from q00_den; all as the transition builds them.
        c, (A, Q_sqrt, _) = _constants(q), discrete_transition(q, 1.0)
        assert c.a_unit.tobytes() == A.tobytes()
        assert c.qbar_sqrt.tobytes() == Q_sqrt.tobytes()
        assert not c.a_unit.flags.writeable and not c.qbar_sqrt.flags.writeable
        for h in (1e-6, 0.015, 0.37, 1.0, 3.3):
            assert h ** (2 * q + 1) / c.q00_den == loop_q(q, h)[0, 0]

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            pascal_matrix(2)[0, 0] = 5.0
        with pytest.raises(ValueError):
            nordsieck_qbar(2)[0, 0] = 5.0
