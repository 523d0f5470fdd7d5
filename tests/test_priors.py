from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import discrete_transition, make_iwp, nordsieck_qbar, pascal_matrix
from odefilter.priors import _constants
from transition_oracle import loop_a, loop_q, matrix_fraction


def _unit_q(tr):
    """The library's unit Q(h), formed from its factor."""
    return tr.Q_sqrt @ tr.Q_sqrt.T


def _nordsieck_diag(q, h):
    return np.array([h**i / factorial(i) for i in range(q + 1)])


class TestMakeIwp:
    def test_scalar_model(self):
        m = make_iwp(2, 1)
        assert m.q == 2 and m.dim == 1
        assert m.block_size == 3 and m.state_size == 3

    @pytest.mark.parametrize(
        "q,dim,error,name",
        [
            (0, 1, ValueError, "q"),
            (2, 0, ValueError, "dim"),
            (2, 2.5, TypeError, "dim"),
            (2, True, TypeError, "dim"),
        ],
    )
    def test_rejects_bad_inputs(self, q, dim, error, name):
        with pytest.raises(error, match=f"{name} must"):
            make_iwp(q, dim)


class TestDiscreteTransition:
    def test_a_matrix_iwp2_half(self):
        tr = discrete_transition(2, 0.5)
        expected = np.array([[1.0, 0.5, 0.125], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(tr.A, expected, rtol=0, atol=0)

    def test_q_matrix_iwp1_unit(self):
        tr = discrete_transition(1, 1.0)
        np.testing.assert_allclose(_unit_q(tr), [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-15)

    def test_q_matrix_iwp2_unit_and_oracle(self):
        tr = discrete_transition(2, 1.0)
        expected = np.array(
            [[1 / 20, 1 / 8, 1 / 6], [1 / 8, 1 / 3, 1 / 2], [1 / 6, 1 / 2, 1.0]]
        )
        np.testing.assert_allclose(_unit_q(tr), expected, rtol=1e-15)
        A, Q = matrix_fraction(2, 1.0)
        np.testing.assert_allclose(Q, _unit_q(tr), rtol=1e-10)
        np.testing.assert_allclose(A, tr.A, rtol=1e-10)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_closed_form_matches_matrix_fraction(self, q, h):
        tr = discrete_transition(q, h)
        A, Q = matrix_fraction(q, h)
        assert np.max(np.abs(tr.A - A)) <= 1e-10 * np.max(np.abs(tr.A))
        assert np.max(np.abs(_unit_q(tr) - Q)) <= 1e-10 * np.max(np.abs(_unit_q(tr)))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 10.0])
    def test_q_symmetric_psd(self, q, h):
        Q = _unit_q(discrete_transition(q, h))
        assert np.array_equal(Q, Q.T)
        eigs = np.linalg.eigvalsh(Q)
        assert eigs.min() >= -1e-12 * np.max(np.abs(Q))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_table_bit_identical_to_loop_formulas(self, q):
        steps = np.concatenate([10.0 ** np.arange(-12, 2), [0.37, 1.9, 0.015, 3.3e-7]])
        for h in steps:
            tr = discrete_transition(q, h)
            np.testing.assert_allclose(tr.A, loop_a(q, h), rtol=0, atol=0)
            assert tr.q11 == loop_q(q, h)[1, 1]

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_q_sqrt_is_lower_factor_of_q(self, q):
        for h in 10.0 ** np.arange(-8.0, 2.0):
            tr = discrete_transition(q, h)
            assert np.array_equal(tr.Q_sqrt, np.tril(tr.Q_sqrt))
            # Entrywise, so the tiny entries of Q are checked too.
            np.testing.assert_allclose(_unit_q(tr), loop_q(q, h), rtol=1e-14, atol=0)
        for h in (1e-3, 0.1, 1.0, 10.0):
            _, Q = matrix_fraction(q, h)
            assert np.max(np.abs(_unit_q(discrete_transition(q, h)) - Q)) <= 1e-10 * np.max(np.abs(Q))

    def test_a_unit_upper_triangular(self):
        tr = discrete_transition(3, 0.42)
        assert np.allclose(np.tril(tr.A, -1), 0.0)
        np.testing.assert_allclose(np.diag(tr.A), 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_step(self, h):
        with pytest.raises(ValueError):
            discrete_transition(2, h)

    @pytest.mark.parametrize(
        "q,error",
        [
            pytest.param(make_iwp(2, 1), TypeError, id="q0"),
            pytest.param(0, ValueError, id="0"),
            pytest.param(2.0, TypeError, id="2.0"),
            # bool subclasses int, so True must be refused, not read as q = 1.
            pytest.param(True, TypeError, id="True"),
        ],
    )
    def test_rejects_non_order(self, q, error):
        # A stale call with the model in place of q must not run either.
        with pytest.raises(error, match="q must be"):
            discrete_transition(q, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(1, 4),
        h1=st.floats(1e-3, 5.0),
        h2=st.floats(1e-3, 5.0),
    )
    def test_semigroup(self, q, h1, h2):
        t1 = discrete_transition(q, h1)
        t2 = discrete_transition(q, h2)
        t12 = discrete_transition(q, h1 + h2)
        Q12 = _unit_q(t12)
        np.testing.assert_allclose(t2.A @ t1.A, t12.A, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            t2.A @ _unit_q(t1) @ t2.A.T + _unit_q(t2), Q12,
            rtol=1e-10, atol=1e-13 * np.max(np.abs(Q12)),
        )


class TestNordsieck:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_scaled_transition_is_pascal_and_qbar(self, q):
        for h in (0.05, 0.73, 2.0):
            tr = discrete_transition(q, h)
            b = _nordsieck_diag(q, h)
            np.testing.assert_allclose(
                b[:, None] * tr.A / b[None, :], pascal_matrix(q), rtol=1e-13, atol=1e-15
            )
            np.testing.assert_allclose(
                b[:, None] * _unit_q(tr) * b[None, :], h ** (2 * q + 1) * nordsieck_qbar(q),
                rtol=1e-13,
            )

    def test_rescaled_a_is_pascal(self):
        for h in (0.05, 0.73, 2.0):
            b = _nordsieck_diag(2, h)
            nA = b[:, None] * discrete_transition(2, h).A / b[None, :]
            np.testing.assert_allclose(nA, [[1, 1, 1], [0, 1, 2], [0, 0, 1]], atol=1e-12)

    def test_rescaled_q_at_unit_step_unchanged(self):
        tr = discrete_transition(1, 1.0)
        b = _nordsieck_diag(1, 1.0)
        np.testing.assert_allclose(
            b[:, None] * _unit_q(tr) * b[None, :], [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14
        )
        np.testing.assert_allclose(nordsieck_qbar(1), [[1 / 3, 1 / 2], [1 / 2, 1.0]], rtol=1e-14)

    def test_rescaled_q00_value(self):
        tr = discrete_transition(2, 2.0)
        b = _nordsieck_diag(2, 2.0)
        assert (b[0] * _unit_q(tr)[0, 0] * b[0]) == pytest.approx(2**5 / 20, rel=1e-13)
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
        c, tr = _constants(q), discrete_transition(q, 1.0)
        assert c.a_unit.tobytes() == tr.A.tobytes()
        assert c.qbar_sqrt.tobytes() == tr.Q_sqrt.tobytes()
        assert not c.a_unit.flags.writeable and not c.qbar_sqrt.flags.writeable
        for h in (1e-6, 0.015, 0.37, 1.0, 3.3):
            assert h ** (2 * q + 1) / c.q00_den == loop_q(q, h)[0, 0]

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            pascal_matrix(2)[0, 0] = 5.0
        with pytest.raises(ValueError):
            nordsieck_qbar(2)[0, 0] = 5.0
