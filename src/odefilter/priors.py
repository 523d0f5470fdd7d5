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
``Q(h)^(1/2)`` and the single entry ``Q(h)_11``, so those are all
:func:`discrete_transition` builds; the diffusion scales enter in
``filtering.predict``.  A solver attempt raises ``h`` to its powers once
and builds only ``A`` and ``Q(h)_11`` from them (``_transition_mean``); an
accepted step builds the factor from the same powers (``_noise_factor``).

Everything about ``(A(h), Q(h))`` that does not depend on ``h`` lives in one
cached table per q.  In Nordsieck scaling, ``B = diag(h^i / i!)``, the table
gives constant matrices: ``B A(h) B^-1`` is the Pascal matrix
(:func:`pascal_matrix`) and ``B Q(h) B = h^(2q+1) Qbar``
(:func:`nordsieck_qbar`), whose Cholesky factor rescales to
``Q(h)^(1/2)``.  The closed-form transitions of the solver and the
dimensionless recursions of ``analysis`` read this table.

Multivariate problems use ``d`` independent copies of the scalar model that
share the mesh, so all matrices in this module are single-block
``(q+1) x (q+1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, inf, sqrt

import numpy as np

__all__ = [
    "IwpModel",
    "DiscreteTransition",
    "make_iwp",
    "discrete_transition",
    "pascal_matrix",
    "nordsieck_qbar",
]


@dataclass(frozen=True, eq=False)
class IwpModel:
    """Unit-diffusion q-times integrated Wiener process prior over a d-dimensional ODE.

    The diffusion is not part of the prior: the solver estimates it from
    the residuals and hands it to ``filtering.predict`` step by step.

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


@dataclass(frozen=True, eq=False)
class DiscreteTransition:
    """Exact unit-diffusion discretization of one IWP block over a step ``h``.

    ``A`` is upper triangular with unit diagonal.  ``Q_sqrt`` is a lower
    triangular factor of the unit process noise, ``Q(h) = Q_sqrt @
    Q_sqrt.T``, and ``q11`` is ``Q(h)_11``, the variance the step adds to
    the derivative slot.  Under a diffusion intensity ``sigma2`` the
    process noise is ``sigma2 Q(h)``; ``filtering.predict`` applies it.
    """

    h: float
    A: np.ndarray
    Q_sqrt: np.ndarray
    q11: float


def make_iwp(q: int, dim: int) -> IwpModel:
    """Validate and build an IWP(q) prior over ``dim`` blocks; both are integers >= 1."""
    return IwpModel(q=_check_positive_int("q", q), dim=_check_positive_int("dim", dim))


def _check_positive_int(name: str, value) -> int:
    """``value`` as an ``int``: a TypeError unless it is a (numpy) integer and not a
    bool, a ValueError below 1."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class _IwpConstants:
    """Step-independent parts of the unit IWP(q) transition; arrays read-only.

    ``A(h)_ij = h^a_lag_ij / a_den_ij``, with ``h^k`` taken from a list of
    powers whose last entry is 0 (``a_lag`` points there below the
    diagonal).  ``Q(h)^(1/2) = sqrt(h) diag(h^(q-i)) qbar_sqrt``, where
    ``qbar_sqrt`` is ``diag(i!)`` times the Cholesky factor of ``qbar``, and
    ``Q(h)_11 = h^(2q-1) / q11_den``.
    """

    a_lag: np.ndarray
    a_den: np.ndarray
    q11_den: float
    pascal: np.ndarray
    qbar: np.ndarray
    qbar_sqrt: np.ndarray


@lru_cache(maxsize=None)
def _constants(q: int) -> _IwpConstants:
    i, j = np.indices((q + 1, q + 1))
    lag = j - i
    fact = np.array([float(factorial(k)) for k in range(q + 1)])
    # Q(h)_ij = h^(2q+1-i-j) / q_den_ij.  Products of integer-valued
    # floats, exact while below 2^53 (q <= 10).
    q_den = (2 * q + 1 - i - j) * fact[q - i] * fact[q - j]
    qbar = 1.0 / (q_den * fact[i] * fact[j])
    tables = _IwpConstants(
        a_lag=np.where(lag >= 0, lag, 2 * q + 2),
        a_den=fact[np.maximum(lag, 0)],
        q11_den=float(q_den[1, 1]),
        pascal=np.vectorize(comb)(j, i).astype(float),
        qbar=qbar,
        qbar_sqrt=fact[:, None] * np.linalg.cholesky(qbar),
    )
    for arr in (tables.a_lag, tables.a_den, tables.pascal, tables.qbar, tables.qbar_sqrt):
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


def discrete_transition(q: int, h: float) -> DiscreteTransition:
    """Unit-diffusion transition of one IWP(q) block over a step ``h``.

    Evaluates ``A_ij = 1{i<=j} h^(j-i)/(j-i)!``, the factor ``Q_sqrt`` of
    ``Q_ij = h^(2q+1-i-j) / ((2q+1-i-j)(q-i)!(q-j)!)`` and its entry
    ``q11`` from the per-q constant table; ``Q`` itself is never formed.
    Scale the process noise by a diffusion intensity in
    ``filtering.predict(state, transition, sigma2)``.
    """
    q = _check_positive_int("q", q)
    if not np.isfinite(h):
        raise ValueError(f"step size must be finite, got {h}")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    A, q11, powers = _transition_mean(q, h)
    return DiscreteTransition(h=float(h), A=A, Q_sqrt=_noise_factor(q, h, powers), q11=q11)


def _transition_mean(q: int, h: float) -> tuple[np.ndarray, float, np.ndarray]:
    """``A(h)`` and ``Q(h)_11`` of :func:`discrete_transition`, bit for bit, and the
    powers ``h^0 .. h^(2q+1)`` (then 0) ``A`` was read from; ``h`` is not checked."""
    c = _constants(q)
    # Python's ** per power, not np.power, whose vectorized loop can differ
    # from it in the last bit.  The trailing 0 fills A below the diagonal.
    powers = np.array([h**k for k in range(2 * q + 2)] + [0.0])
    return powers.take(c.a_lag) / c.a_den, h ** (2 * q - 1) / c.q11_den, powers


def _noise_factor(q: int, h: float, powers: np.ndarray) -> np.ndarray:
    """``Q_sqrt`` of :func:`discrete_transition` from :func:`_transition_mean`'s ``powers``."""
    return (sqrt(h) * powers[q::-1])[:, None] * _constants(q).qbar_sqrt


def _transition_stack(q: int, steps: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """``A`` and ``Q_sqrt`` of :func:`discrete_transition` for a list of steps.

    Returns two ``(N, q+1, q+1)`` arrays, bit-identical to the scalar
    transitions step by step: the same table, the same Python powers.  The
    smoother builds a whole path's transitions at once this way; the
    scalar function stays separate because the solver calls it once per
    attempt, where the stack's overhead would cost more than it saves.
    """
    for h in steps:
        if not 0.0 < h < inf:
            raise ValueError(f"step sizes must be finite and positive, got {h}")
    c = _constants(q)
    powers = np.array([[h**k for k in range(2 * q + 2)] + [0.0] for h in steps])
    A = powers[:, c.a_lag] / c.a_den
    Q_sqrt = (np.sqrt(steps)[:, None] * powers[:, q::-1])[:, :, None] * c.qbar_sqrt
    return A, Q_sqrt
