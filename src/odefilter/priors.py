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
cached table per q.  Its ``transition(h, i)`` raises ``h`` to its powers and
reads the triple off them, with the rows in the order the solver's QR wants
for a reading of slot ``i``, so no matrix is permuted per step.  The solve
loop, the start and the path's rebuilt predictions call it directly;
:func:`discrete_transition` is its checked view in slot order, on which
``filtering.predict(state, h, sigma2)`` builds.  In Nordsieck scaling,
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

__all__ = [
    "IwpModel",
    "make_iwp",
    "discrete_transition",
    "pascal_matrix",
    "nordsieck_qbar",
]


@dataclass(frozen=True, eq=False)
class IwpModel:
    """Unit-diffusion q-times integrated Wiener process prior over a d-dimensional ODE.

    The diffusion is not part of the prior: the solver estimates it from
    the residuals and hands it to ``filtering.predict_update`` step by step.

    Attributes
    ----------
    q : int
        Number of integrations; the per-dimension state has q+1 entries.
    dim : int
        Number of ODE dimensions, each modeled as an independent block.
    """

    q: int
    dim: int

    @property
    def block_size(self) -> int:
        return self.q + 1

    @property
    def state_size(self) -> int:
        return (self.q + 1) * self.dim


def make_iwp(q: int, dim: int) -> IwpModel:
    """Validate and build an IWP(q) prior over ``dim`` blocks; both are integers >= 1."""
    return IwpModel(q=_check_int("q", q), dim=_check_int("dim", dim))


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
    and ``Q(h)_11 = h^(2q-1) / q11_den``.  Entry ``i`` of ``lags``, ``dens``
    and ``qbar_rows`` serves an observed slot ``i``: :meth:`transition` reads rows in its
    pivot order (:func:`_pivot`), each the same products as in slot order.
    """

    q: int
    lags: tuple  # per slot, (3, q+1, q+1): A's lags in slot and pivot order, then each row's q-i
    dens: tuple  # per slot, the divisors of lags' powers: A's dens, then 1
    qbar_rows: tuple  # per slot, qbar_sqrt's rows in pivot order
    a_unit: np.ndarray
    q00_den: float
    q11_den: float
    pascal: np.ndarray
    qbar: np.ndarray
    qbar_sqrt: np.ndarray

    def transition(self, h: float, i: int) -> tuple[np.ndarray, np.ndarray, float]:
        """``A(h)`` in slot order and in slot ``i``'s pivot order, shape ``(2, q+1, q+1)``,
        and ``Q(h)^(1/2)`` with its rows in that pivot order, from one take of the powers
        ``h^0 .. h^(2q+1)`` (and a 0 for ``A`` below the diagonal), then ``Q(h)_11``;
        unchecked."""
        # Python's ** per power: np.power's vectorized loop can differ in the last bit.
        powers = np.array([h**k for k in range(2 * self.q + 2)] + [0.0])
        lagged = powers.take(self.lags[i]) / self.dens[i]
        return (lagged[:2], sqrt(powers[1]) * lagged[2] * self.qbar_rows[i],
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
    orders = [_pivot(q + 1, slot)[0] for slot in range(q + 1)]
    tables = _IwpConstants(
        q=q,
        lags=tuple(np.array([a_lag, a_lag[o], np.broadcast_to((q - o)[:, None], lag.shape)])
                   for o in orders),
        dens=tuple(np.array([a_den, a_den[o], np.ones_like(a_den)]) for o in orders),
        qbar_rows=tuple(qbar_sqrt[o] for o in orders),
        a_unit=np.where(lag >= 0, 1.0, 0.0) / a_den,
        q00_den=float(q_den[0, 0]),
        q11_den=float(q_den[1, 1]),
        pascal=np.vectorize(comb)(j, i).astype(float),
        qbar=qbar,
        qbar_sqrt=qbar_sqrt,
    )
    for arr in (*tables.lags, *tables.dens, *tables.qbar_rows, tables.a_unit,
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
    A, Q_sqrt, q11 = _constants(q).transition(h, 0)
    return A[0], Q_sqrt, q11


@lru_cache(maxsize=None)
def _pivot(q1: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot order with slot ``i`` first, and the order that undoes it."""
    order = np.array([i] + [j for j in range(q1) if j != i])
    back = np.argsort(order)
    order.flags.writeable = back.flags.writeable = False
    return order, back

