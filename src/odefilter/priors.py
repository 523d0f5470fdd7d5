"""Integrated-Wiener-process priors and their exact one-step discretizations.

The continuous-time model per ODE dimension is the linear SDE

    dX_t = F X_t dt + L dW_t,

where ``F`` is the (q+1)-dimensional upper shift matrix (no feedback from
higher derivatives into lower ones), ``L = e_q`` injects white noise of
intensity ``sigma2`` into the highest tracked derivative, and the state
stacks ``(y, y', ..., y^(q))``.  This is the q-times integrated Wiener
process.  Over a step ``h`` the state propagates exactly through the pair
``(A(h), sigma2 Q(h))``, where ``Q(h)`` is the unit-diffusion process noise;
both have closed forms.  The filter reads ``A``, the factor
``Q(h)^(1/2)`` and the single entry ``Q(h)_11``, so a step's transition is
that triple; the diffusion scales enter in ``filtering.predict_update``.

Everything about ``(A(h), Q(h))`` that does not depend on ``h`` lives in one
cached table per q.  Its ``transition(h)`` raises ``h`` to its powers and
reads the triple off them, ``A`` and ``Q(h)^(1/2)`` each in slot order and
with the derivative slot's row first, the order an accepted step's QR wants,
so no matrix is permuted per step.  The solver and the path call it
directly; :func:`discrete_transition` is its checked view in slot order, on
which ``filtering.predict(state, h, sigma2)`` builds.  In Nordsieck scaling,
``B = diag(h^i/i!)``, the table gives constant matrices: ``B A(h) B^-1`` is the Pascal matrix
(:func:`pascal_matrix`) and ``B Q(h) B = h^(2q+1) Qbar``
(:func:`nordsieck_qbar`), whose Cholesky factor rescales to
``Q(h)^(1/2)``.  The closed-form transitions of the solver and the
dimensionless recursions of ``analysis`` read this table.  Without the
i!, in units of the step, ``S = diag(h^i)``, the transition is ``A(1)`` and
``S Q(h)^(1/2) = h^(q+1/2) Q(1)^(1/2)``, the units of the smoother's backward pass.

Multivariate problems use ``d`` independent copies of the scalar model that
share the mesh, so all matrices in this module are single-block
``(q+1) x (q+1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

__all__ = ["discrete_transition", "pascal_matrix", "nordsieck_qbar"]


def _check_int(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int``: a TypeError unless it is a (numpy) integer and not a
    bool, a ValueError below ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class _IwpConstants:
    """Step-independent parts of the unit IWP(q) transition; arrays read-only.

    ``A(h)_ij = h^lag_ij / den_ij`` and ``Q(h)^(1/2) = sqrt(h) diag(h^(q-i))
    qbar_sqrt``, the powers of ``h`` taken by :meth:`transition`.  ``qbar_sqrt``
    is ``diag(i!)`` times the Cholesky factor of ``qbar``, so it is
    ``Q(1)^(1/2)``; ``a_unit`` is ``A(1)``, ``Q(h)_00 = h^(2q+1) / q00_den``
    and ``Q(h)_11 = h^(2q-1) / q11_den``.  ``lags``, ``dens`` and ``qbar_rows`` hold
    their rows in two orders, slot order at index 0 and the derivative slot's pivot order
    (:func:`_pivot`) at index 1; each row is the same products in both.
    """

    q: int
    lags: np.ndarray  # (2, 2, q+1, q+1): A's lags, then each row's q-i, in both orders
    dens: np.ndarray  # the divisors of lags' powers: A's dens, then 1
    qbar_rows: np.ndarray  # (2, q+1, q+1): qbar_sqrt's rows in both orders
    a_unit: np.ndarray
    q00_den: float
    q11_den: float
    pascal: np.ndarray
    qbar: np.ndarray
    qbar_sqrt: np.ndarray

    def transition(self, h: float) -> tuple[np.ndarray, np.ndarray, float]:
        """``A(h)`` and ``Q(h)^(1/2)``, rows in slot order, then in the derivative slot's pivot
        order (shape ``(2, q+1, q+1)`` each), and ``Q(h)_11``: one take of the powers, unchecked."""
        # Python's ** per power: np.power's vectorized loop can differ in the last bit.
        powers = np.array([h**k for k in range(2 * self.q + 2)] + [0.0])
        lagged = powers.take(self.lags) / self.dens
        return (lagged[0], sqrt(powers[1]) * lagged[1] * self.qbar_rows,
                float(powers[2 * self.q - 1]) / self.q11_den)


@lru_cache(maxsize=None)
def _constants(q: int) -> _IwpConstants:
    i, j = np.indices((q + 1, q + 1))
    lag = j - i
    fact = np.array([float(factorial(k)) for k in range(q + 1)])
    # Q(h)_ij = h^(2q+1-i-j) / q_den_ij.  Products of integer-valued
    # floats, exact while below 2^53 (q <= 10).
    q_den = (2 * q + 1 - i - j) * fact[q - i] * fact[q - j]
    qbar = 1.0 / (q_den * fact[i] * fact[j])
    a_lag, a_den = np.where(lag >= 0, lag, 2 * q + 2), fact[np.maximum(lag, 0)]
    qbar_sqrt = fact[:, None] * np.linalg.cholesky(qbar)
    orders = np.array([np.arange(q + 1), _pivot(q + 1, 1)[0]])
    tables = _IwpConstants(
        q=q,
        lags=np.array([a_lag[orders], np.broadcast_to((q - orders)[..., None], (2, q + 1, q + 1))]),
        dens=np.array([a_den[orders], np.ones((2, q + 1, q + 1))]),
        qbar_rows=qbar_sqrt[orders],
        a_unit=np.where(lag >= 0, 1.0, 0.0) / a_den,
        q00_den=float(q_den[0, 0]),
        q11_den=float(q_den[1, 1]),
        pascal=np.vectorize(comb)(j, i).astype(float),
        qbar=qbar,
        qbar_sqrt=qbar_sqrt,
    )
    for arr in (tables.lags, tables.dens, tables.qbar_rows, tables.a_unit,
                tables.pascal, tables.qbar, tables.qbar_sqrt):
        arr.setflags(write=False)
    return tables


def pascal_matrix(q: int) -> np.ndarray:
    """Upper triangular Pascal matrix with entries binom(j, i) for i <= j.

    This is ``A(h)`` in Nordsieck scaling.  The array is read-only and shared
    between calls.
    """
    return _constants(q).pascal


def nordsieck_qbar(q: int) -> np.ndarray:
    """Constant ``Qbar`` with ``B Q(h) B = h^(2q+1) Qbar``, B = diag(h^i / i!).

    ``Qbar_ij = 1 / ((2q+1-i-j) (q-i)! (q-j)! i! j!)``.  The array is
    read-only and shared between calls.
    """
    return _constants(q).qbar


def discrete_transition(q: int, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit-diffusion transition ``(A, Q_sqrt, q11)`` of one IWP(q) block over a step ``h``.

    ``A_ij = 1{i<=j} h^(j-i)/(j-i)!`` is upper triangular with unit diagonal,
    ``Q_sqrt`` the lower triangular factor of the unit process noise ``Q_ij =
    h^(2q+1-i-j) / ((2q+1-i-j)(q-i)!(q-j)!)``, and ``q11`` its entry ``Q(h)_11``,
    the variance the step adds to the derivative slot; ``Q`` itself is never
    formed.  The checked view, in slot order, of the per-q table's
    ``transition`` that the solve loop calls; ``filtering.predict(state, h,
    sigma2)`` scales the process noise by a diffusion intensity.
    """
    q = _check_int("q", q)
    if not np.isfinite(h):
        raise ValueError(f"step size must be finite, got {h}")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    A, Q_sqrt, q11 = _constants(q).transition(h)
    return A[0], Q_sqrt[0], q11


@lru_cache(maxsize=None)
def _pivot(q1: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot order with slot ``i`` first, and the order that undoes it."""
    order = np.array([i] + [j for j in range(q1) if j != i])
    back = np.argsort(order)
    order.flags.writeable = back.flags.writeable = False
    return order, back

