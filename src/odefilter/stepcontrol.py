"""Per-step diffusion estimation, local error test, and step-size control.

These take numbers, not solver settings; the solver computes the error bound
``ebar`` once per attempt and passes it to the test and the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

__all__ = [
    "StepReport",
    "estimate_sigma2",
    "local_error_test",
    "next_step_size",
    "global_error_factor",
]

# The controller's safety factor rho and its clamp [eta_min, eta_max] on h'/h.
_RHO = 0.95
_ETA_MIN = 0.1
_ETA_MAX = 5.0


@dataclass(frozen=True, eq=False)
class StepReport:
    """Diagnostics of one attempted step.  ``D`` carries the weights ``w_i`` of
    :func:`local_error_test` only where an error test was made: a fixed step's
    ``D`` is the unweighted ``sqrt(sigma2_hat Q(h)_11)``."""

    t: float
    h: float
    sigma2_hat: np.ndarray
    D: np.ndarray
    accepted: bool
    h_next: float


def estimate_sigma2(residual, qbar11: float) -> np.ndarray:
    """Maximum-likelihood diffusion intensity from one step's residual.

    Treating the residual of the derivative observation as a zero-mean
    Gaussian with variance ``sigma2 * qbar11`` (``qbar11`` being the unit
    ``Q(h)_11``, the last entry of ``priors.discrete_transition``) gives the
    per-dimension estimator ``sigma2_hat = residual**2 / qbar11``.  It is
    applied before the covariance prediction of the same step.  A residual
    too large to square gives an infinite estimate, without a warning.
    """
    if not 0.0 < qbar11 < inf:
        raise ValueError(f"qbar11 must be positive, got {qbar11}")
    return _sigma2(np.atleast_1d(np.asarray(residual, dtype=float)), qbar11)


@np.errstate(over="ignore")
def _sigma2(residual: np.ndarray, qbar11: float) -> np.ndarray:
    """:func:`estimate_sigma2` of a residual vector, unchecked."""
    return residual**2 / qbar11


@np.errstate(over="ignore", invalid="ignore")
def _weighted(D: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """``D_i w_i`` with the weights ``w_i = 1 / (tau * |y_i| + tau)`` of a vector, unchecked.
    Silent, as on Python floats: ``tau * |y_i|`` too large for a float gives ``w_i = 0``,
    and an infinite ``D_i`` times that 0 gives NaN."""
    return D * (1.0 / (tau * np.abs(y) + tau))


def local_error_test(sigma2, qbar11: float, y, tau: float, ebar: float) -> tuple[np.ndarray, bool]:
    """Weighted expected error D and the accept decision max(D) <= ebar.

    ``D_i = sqrt(sigma2_i * qbar11) * w_i``, with ``qbar11`` the unit
    ``Q(h)_11`` as in :func:`estimate_sigma2` and the componentwise weights
    ``w_i = 1 / (tau * |y_i| + tau)``, ``tau > 0``.  The reciprocal-linear form
    ``1 / (tau * y_i + tau)`` is singular for y_i <= -1, so the magnitude of the
    solution is used; on positive trajectories the two coincide.  The solver
    passes the bound ``ebar = eps * h / S``, where ``S`` is 1 (error per unit
    step) or ``h`` (error per step).
    """
    sigma2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
    if (sigma2 < 0.0).any():
        raise ValueError("sigma2 must be >= 0")
    if not 0.0 < tau < inf:
        raise ValueError(f"tau must be positive, got {tau}")
    D = _weighted(np.sqrt(sigma2 * qbar11), np.atleast_1d(np.asarray(y, dtype=float)), tau)
    return D, bool(D.max() <= ebar)


def next_step_size(D: float, ebar: float, h: float, q: int) -> float:
    """Controller update h' = rho * h * (ebar/D)^(1/(q+1)), rate limited.

    The constants ``_RHO`` = 0.95 and the clamp of the ratio h'/h to
    [``_ETA_MIN``, ``_ETA_MAX``] = [0.1, 5] are fixed.  A vanishing error
    estimate proposes maximal growth.
    """
    if D <= 0.0:
        factor = _ETA_MAX
    else:
        factor = _RHO * (ebar / D) ** (1.0 / (q + 1))
        factor = min(max(factor, _ETA_MIN), _ETA_MAX)
    return h * factor


def global_error_factor(lipschitz_star: float, t0: float, t_end: float) -> float:
    """Std-dev inflation exp(L* (T - t0)) turning local into global scale.

    The posterior spread produced by the solver tracks local extrapolation
    error; the global error can be exponentially larger.  Multiplying the
    reported standard deviations by this factor (with a user-supplied
    problem constant L*) gives a usually very conservative global-scale
    band.  Off by default everywhere; callers opt in explicitly.
    """
    if not np.isfinite(lipschitz_star) or lipschitz_star < 0:
        raise ValueError(f"lipschitz_star must be finite and >= 0, got {lipschitz_star}")
    return float(np.exp(lipschitz_star * (t_end - t0)))
