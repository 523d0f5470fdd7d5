"""Per-step diffusion estimation, local error test, and step-size control."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid an import cycle; config only needs a few attributes
    from .solver import SolverConfig

__all__ = [
    "StepReport",
    "estimate_sigma2",
    "error_weights",
    "local_error_test",
    "next_step_size",
    "global_error_factor",
]


@dataclass(frozen=True, eq=False)
class StepReport:
    """Diagnostics of one attempted step."""

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
    ``Q(h)_11``, the ``q11`` of ``priors.discrete_transition``) gives the
    per-dimension estimator ``sigma2_hat = residual**2 / qbar11``.  It is
    applied before the covariance prediction of the same step.
    """
    if not np.isfinite(qbar11) or qbar11 <= 0:
        raise ValueError(f"qbar11 must be positive, got {qbar11}")
    residual = np.atleast_1d(np.asarray(residual, dtype=float))
    return residual**2 / qbar11


def error_weights(y, tau: float) -> np.ndarray:
    """Componentwise weights w_i = 1 / (tau * |y_i| + tau).

    The reciprocal-linear form is singular for y_i <= -1, so the magnitude
    of the solution is used; on positive trajectories the two coincide.
    """
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return 1.0 / (tau * np.abs(y) + tau)


def local_error_test(
    sigma2,
    qbar11: float,
    y,
    config: "SolverConfig",
    h: float,
) -> tuple[np.ndarray, bool]:
    """Weighted expected error D and the accept decision max(D) <= eps*h/S.

    ``D_i = sqrt(sigma2_i * qbar11) * w_i``, with ``qbar11`` the unit
    ``Q(h)_11`` as in :func:`estimate_sigma2` and the weights from
    :func:`error_weights`; ``S`` is 1 (error per unit step) or ``h`` (error
    per step) depending on ``config.per_unit_step``.
    """
    sigma2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be >= 0")
    w = error_weights(y, config.weighting_tau)
    D = np.sqrt(sigma2 * qbar11) * w
    scale = 1.0 if config.per_unit_step else h
    ebar = config.eps * h / scale
    return D, bool(np.max(D) <= ebar)


def next_step_size(D: float, ebar: float, h: float, q: int, config: "SolverConfig") -> float:
    """Controller update h' = rho * h * (ebar/D)^(1/(q+1)), rate limited.

    A vanishing error estimate proposes maximal growth.  The ratio h'/h is
    clamped to [eta_min, eta_max].
    """
    if D <= 0.0:
        factor = config.eta_max
    else:
        factor = config.rho * (ebar / D) ** (1.0 / (q + 1))
        factor = min(max(factor, config.eta_min), config.eta_max)
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
