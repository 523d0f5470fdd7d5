"""Steady-state gains, classical-method oracles, starters, stability scans.

Everything here works in the Nordsieck scaling, where covariances carry a
common factor sigma2 * h^(2q+1) and the filter's gain sequence has an
h-independent limit.  That limit defines an equivalent constant-weight
multistep method whose stability and order can be analyzed classically.
The constant matrices of this scaling, the Pascal transition and the
diffusion ``Qbar``, come from :func:`priors.pascal_matrix` and
:func:`priors.nordsieck_qbar`, the table the solver's transitions use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .filtering import predict_update
from .priors import _check_int, _pivot, nordsieck_qbar, pascal_matrix
from .solver import IvpProblem, SolveResult, SolverConfig, solve

__all__ = [
    "SteadyState",
    "StarterCoefficients",
    "OrderFit",
    "steady_state",
    "trapezoid_oracle",
    "starter_coefficients",
    "rk_starter_q4",
    "amplification_matrix",
    "stability_scan",
    "convergence_order",
    "nordsieck_gains",
]


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Fixed point of the covariance recursion in dimensionless form.

    ``gain`` is the limiting weight vector in Nordsieck scaling (slot 1 is
    exactly 1, the noise-free derivative observation).  ``cov_coeffs`` holds
    the dimensionless coefficients c_ij with C = sigma2 h^(2q+1) (c_ij);
    rows and columns at index 1 vanish.  The (0, 0) coefficient is the one
    entry without a fixed point: the solution-slot variance accumulates a
    constant increment per step (the unit-root mode of the update), so the
    value reported is the one at the stopping iterate.
    """

    gain: np.ndarray
    cov_coeffs: np.ndarray
    iterations: int


def steady_state(q: int, tol: float = 1e-12, max_iter: int = 10_000) -> SteadyState:
    """Iterate predict/update on the dimensionless covariance of IWP(q).

    Starts from C = 0 (the state right after exact initialization; the
    non-stationary prior has no stationary covariance to start from).
    Convergence is tested on every coefficient except the drifting (0, 0)
    entry.  In these units the result does not depend on h or on the
    diffusion sigma2, so the prior is the unit-diffusion one.
    """
    q = _check_int("q", q)
    if not 1 <= q <= 4:
        raise ValueError(f"steady-state analysis supports q in 1..4, got {q}")
    qbar, order = nordsieck_qbar(q), _pivot(q + 1, 1)[0]  # predict_update reads slot 1's rows first
    A, Q_sqrt = pascal_matrix(q)[order], np.linalg.cholesky(qbar)[order]
    mask = np.ones((q + 1, q + 1), dtype=bool)
    mask[0, 0] = False
    factor, c = np.zeros((1, q + 1, q + 1)), np.zeros((q + 1, q + 1))
    zero, one = np.zeros(q + 1), np.ones(1)
    for it in range(1, max_iter + 1):
        # The filter's own recursion: from mean 0, a unit residual leaves the gain.
        gain, factor = predict_update(factor, A, Q_sqrt, one, zero, one)
        c_new = (factor @ factor.swapaxes(1, 2))[0]
        if np.max(np.abs((c_new - c)[mask])) < tol:
            return SteadyState(gain=gain, cov_coeffs=c_new, iterations=it)
        c = c_new
    raise RuntimeError(f"covariance recursion did not settle within {max_iter} iterations")


def trapezoid_oracle(problem: IvpProblem, h: float, n_steps: int) -> np.ndarray:
    """Explicit predict-evaluate-correct trapezoid recursion, one correction.

    Predict with the previous slope, evaluate the new slope there, then
    average: y <- y + (h/2)(f_prev + f_new).  Returns the mesh values
    including the initial one, shape (n_steps + 1, dim).
    """
    if h <= 0 or n_steps < 0:
        raise ValueError("need h > 0 and n_steps >= 0")
    y = np.array(problem.y0, dtype=float)
    t = problem.t0
    f_prev = problem.eval_rhs(t, y)
    out = np.empty((n_steps + 1, problem.dim))
    out[0] = y
    for n in range(1, n_steps + 1):
        y_pred = y + h * f_prev
        f_new = problem.eval_rhs(t + h, y_pred)
        y = y + 0.5 * h * (f_prev + f_new)
        f_prev = f_new
        t = t + h
        out[n] = y
    return out


def _check_starter_params(u: float, v: float):
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise ValueError(f"starter knots must lie strictly inside (0, 1), got u={u}, v={v}")
    if u == v:
        raise ValueError("starter knots u and v must be distinct")


@dataclass(frozen=True, eq=False)
class StarterCoefficients:
    """Closed-form four-evaluation starter for the q = 4 model.

    ``mean_weights[s]`` are the dimensionless weights of (z0, z1, z2, z3) in
    state slot ``s``; slot s additionally carries a factor h^(1-s), and slot
    0 adds y0.  The weights interpolate the four derivative readings at the
    knots (0, u, v, 1)*h, so the slot-0 row is a fourth-order quadrature
    rule (weights summing to 1) and slot 1 reproduces z3 exactly.
    """

    u: float
    v: float
    mean_weights: np.ndarray  # (5, 4)

    def mean(self, z, y0: float, h: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (4,):
            raise ValueError(f"need four derivative readings, got shape {z.shape}")
        out = np.empty(5)
        for s in range(5):
            out[s] = h ** (1 - s) * float(self.mean_weights[s] @ z)
        out[0] += y0
        return out

    def covariance(self, sigma2: float, h: float) -> np.ndarray:
        return _starter_covariance(self.u, self.v, sigma2, h)


def starter_coefficients(u: float, v: float) -> StarterCoefficients:
    """Mean weights of the q = 4 starter for knots (0, u, v, 1)."""
    _check_starter_params(u, v)
    W = np.zeros((5, 4))
    W[0] = [
        (1 - 2 * (u + v) + 6 * u * v) / (12 * u * v),
        (2 * v - 1) / (12 * u * (u - v) * (u - 1)),
        (1 - 2 * u) / (12 * v * (u - v) * (v - 1)),
        (3 - 4 * (u + v) + 6 * u * v) / (12 * (u - 1) * (v - 1)),
    ]
    W[1] = [0.0, 0.0, 0.0, 1.0]
    W[2] = [
        (u + v - u * v - 1) / (u * v),
        (1 - v) / (u * (u - v) * (u - 1)),
        (u - 1) / (v * (u - v) * (v - 1)),
        (3 - 2 * (u + v) + u * v) / ((u - 1) * (v - 1)),
    ]
    W[3] = [
        2 * (u + v - 2) / (u * v),
        2 * (2 - v) / (u * (u - v) * (u - 1)),
        2 * (u - 2) / (v * (u - v) * (v - 1)),
        2 * (3 - u - v) / ((u - 1) * (v - 1)),
    ]
    W[4] = [
        -6 / (u * v),
        6 / (u * (u - v) * (u - 1)),
        -6 / (v * (u - v) * (v - 1)),
        6 / ((u - 1) * (v - 1)),
    ]
    return StarterCoefficients(u=float(u), v=float(v), mean_weights=W)


def _starter_covariance(u: float, v: float, sigma2: float, h: float) -> np.ndarray:
    _check_starter_params(u, v)
    C = np.zeros((5, 5))
    C[0, 0] = sigma2 * h**9 * (
        6*u**6*v**2 - 3*u**6*v + 6*u**5*v**3 - 27*u**5*v**2 + 20*u**5*v
        - 4*u**5 + 6*u**4*v**4 - 27*u**4*v**3 + 28*u**4*v**2 - 12*u**4*v
        + 2*u**4 + 6*u**3*v**5 - 27*u**3*v**4 + 28*u**3*v**3 - 12*u**3*v**2
        + 2*u**3*v + 6*u**2*v**6 - 27*u**2*v**5 + 28*u**2*v**4 + 68*u**2*v**3
        - 78*u**2*v**2 + 20*u**2*v - 9*u*v**6 + 38*u*v**5 - 42*u*v**4
        - 48*u*v**3 + 70*u*v**2 - 20*u*v + 3*v**6 - 13*v**5 + 17*v**4
        + 5*v**3 - 15*v**2 + 5*v
    ) / (725760 * v * (1 - u))
    C[0, 2] = sigma2 * h**7 * (v - 1) * (
        3*u**6*v + 3*u**5*v**2 - 16*u**5*v + 6*u**5 + 3*u**4*v**3
        - 16*u**4*v**2 + 14*u**4*v - 4*u**4 + 3*u**3*v**4 - 16*u**3*v**3
        + 14*u**3*v**2 - 4*u**3*v + 3*u**2*v**5 - 16*u**2*v**4 + 14*u**2*v**3
        + 76*u**2*v**2 - 40*u**2*v - 6*u*v**5 + 29*u*v**4 - 24*u*v**3
        - 85*u*v**2 + 50*u*v + 3*v**5 - 14*v**4 + 15*v**3 + 20*v**2 - 15*v
    ) / (120960 * v * (u - 1))
    C[0, 3] = sigma2 * h**6 * (
        3*u**6*v**2 - 6*u**6*v + 3*u**5*v**3 - 18*u**5*v**2 + 32*u**5*v
        - 10*u**5 + 3*u**4*v**4 - 18*u**4*v**3 + 40*u**4*v**2 - 30*u**4*v
        + 8*u**4 + 3*u**3*v**5 - 18*u**3*v**4 + 40*u**3*v**3 - 30*u**3*v**2
        + 8*u**3*v + 3*u**2*v**6 - 18*u**2*v**5 + 40*u**2*v**4 + 50*u**2*v**3
        - 192*u**2*v**2 + 80*u**2*v - 9*u*v**6 + 41*u*v**5 - 69*u*v**4
        - 81*u*v**3 + 271*u*v**2 - 117*u*v + 6*v**6 - 28*v**5 + 50*v**4
        + 2*v**3 - 78*v**2 + 39*v
    ) / (60480 * v * (u - 1))
    C[0, 4] = sigma2 * h**5 * (
        3*u**6*v + 3*u**5*v**2 - 12*u**5*v + 4*u**5 + 3*u**4*v**3
        - 12*u**4*v**2 + 12*u**4*v - 4*u**4 + 3*u**3*v**4 - 12*u**3*v**3
        + 12*u**3*v**2 - 4*u**3*v + 3*u**2*v**5 - 12*u**2*v**4 + 12*u**2*v**3
        + 76*u**2*v**2 - 40*u**2*v + 3*u*v**6 - 12*u*v**5 + 12*u*v**4
        + 16*u*v**3 - 140*u*v**2 + 72*u*v - 3*v**6 + 13*v**5 - 19*v**4
        + 5*v**3 + 45*v**2 - 27*v
    ) / (20160 * v * (1 - u))
    C[2, 2] = sigma2 * h**5 * (v - 1)**2 * (
        u**4 + u**3*v + u**2*v**2 + u*v**3 - 10*u*v - 2*v**3 + 2*v**2 + 6*v
    ) / (2520 * v)
    C[2, 3] = sigma2 * h**4 * (v - 1) * (
        u**5*v - 3*u**5 + u**4*v**2 - 5*u**4*v + 4*u**4 + u**3*v**3
        - 5*u**3*v**2 + 4*u**3*v + u**2*v**4 - 5*u**2*v**3 - 16*u**2*v**2
        + 40*u**2*v - 5*u*v**4 + 15*u*v**3 + 37*u*v**2 - 77*u*v + 5*v**4
        - 15*v**3 - 11*v**2 + 33*v
    ) / (2520 * v * (u - 1))
    C[2, 4] = sigma2 * h**3 * (v - 1) * (
        -u**5 - u**4*v + 2*u**4 - u**3*v**2 + 2*u**3*v - u**2*v**3
        + 2*u**2*v**2 + 20*u**2*v - u*v**4 + 2*u*v**3 + 5*u*v**2 - 50*u*v
        + 2*v**4 - 5*v**3 + 25*v
    ) / (840 * v * (u - 1))
    C[3, 3] = sigma2 * h**3 * (
        u**5*v - 2*u**5 + 2*u**4*v**2 - 6*u**4*v + 4*u**4 + 2*u**3*v**3
        - 6*u**3*v**2 + 4*u**3*v + 2*u**2*v**4 + 4*u**2*v**3 - 36*u**2*v**2
        + 40*u**2*v + u*v**5 - 12*u*v**4 - 12*u*v**3 + 104*u*v**2 - 96*u*v
        - 2*v**5 + 16*v**4 - 8*v**3 - 48*v**2 + 48*v
    ) / (630 * v * (1 - u))
    C[3, 4] = sigma2 * h**2 * (
        u**5 + 3*u**4*v - 4*u**4 + 3*u**3*v**2 - 4*u**3*v + 3*u**2*v**3
        + 16*u**2*v**2 - 40*u**2*v + 3*u*v**4 + u*v**3 - 95*u*v**2 + 135*u*v
        + v**5 - 10*v**4 + 14*v**3 + 54*v**2 - 81*v
    ) / (420 * v * (u - 1))
    C[4, 4] = sigma2 * h * (
        u**4 + u**3*v + u**2*v**2 + 10*u**2*v + u*v**3 + 20*u*v**2 - 60*u*v
        + v**4 - 5*v**3 - 15*v**2 + 45*v
    ) / (70 * v * (1 - u))
    # Row/column 1 vanish: the terminal derivative reading is noise free.
    return C + np.triu(C, 1).T


def rk_starter_q4(u: float, v: float, h: float, sigma2: float, z, y0: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form diffuse-limit state after the four-evaluation start.

    The four derivative readings ``z`` were taken at times (0, u, v, 1)*h;
    the returned pair is the exact limit of filtering them from an
    unboundedly diffuse prior, a fourth-order starter for the q = 4 model.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    coeffs = starter_coefficients(u, v)
    return coeffs.mean(z, y0, h), coeffs.covariance(sigma2, h)


def amplification_matrix(gain: np.ndarray, zeta) -> np.ndarray:
    """One-step propagation matrix of the constant-gain method on y' = lam*y.

    In Nordsieck scaling the update with weight vector K on the test problem
    with zeta = h*lam is M(zeta) = (I - K e1^T) P + zeta K e0^T P; the method
    is stable at zeta when the spectral radius does not exceed one.  An
    array ``zeta`` gives a stack of shape ``zeta.shape + (q+1, q+1)``.
    """
    gain = np.asarray(gain, dtype=float)
    q = gain.size - 1
    if abs(gain[1] - 1.0) > 1e-9:
        raise ValueError("gain must be in Nordsieck scaling with slot 1 equal to 1")
    P, eye = pascal_matrix(q), np.eye(q + 1)
    zeta = np.asarray(zeta)[..., None, None]
    return (eye - np.outer(gain, eye[1])) @ P + zeta * np.outer(gain, eye[0]) @ P


_SCAN_POINTS = 16384  # grid points per batched eigvals call (6.6 MB at q = 4)


def stability_scan(gain: np.ndarray, re_grid: np.ndarray, im_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral radius of the amplification matrix over a zeta grid.

    Returns (radius, stable) arrays of shape (len(im_grid), len(re_grid));
    stable means radius <= 1 + 1e-12.  Each ``_SCAN_POINTS`` grid points
    take one batched ``eigvals`` call, which bounds the working memory.
    """
    zeta = np.asarray(re_grid)[None, :] + 1j * np.asarray(im_grid)[:, None]
    radius = np.full(zeta.shape, np.nan)
    for i in range(0, zeta.size, _SCAN_POINTS):
        block = amplification_matrix(gain, zeta.flat[i : i + _SCAN_POINTS])
        radius.flat[i : i + _SCAN_POINTS] = np.max(np.abs(np.linalg.eigvals(block)), axis=-1)
    return radius, radius <= 1.0 + 1e-12


@dataclass(frozen=True, eq=False)
class OrderFit:
    """Least-squares slope of log(error) against log(h)."""

    order: float
    errors: np.ndarray
    h_list: np.ndarray
    degenerate: bool


def convergence_order(problem: IvpProblem, q: int, h_list) -> OrderFit:
    """Empirical global order of IWP(q) from fixed-step runs at decreasing steps.

    Requires a problem with a known solution.  Each run starts from the
    diffuse filter and uses a constant diffusion (``global_ml``), which
    keeps the mean sequence independent of the estimated scale.  Errors at
    round-off level make the fit meaningless and set the degenerate flag.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no reference solution")
    h_list = np.asarray(sorted(h_list, reverse=True), dtype=float)
    if h_list.size < 3:
        raise ValueError("need at least three step sizes for an order fit")
    errors = np.empty(h_list.size)
    for i, h in enumerate(h_list):
        # The data-driven start keeps the higher derivative slots accurate
        # enough that initialization error does not cap the observed order.
        cfg = SolverConfig(q=q, init_mode="diffuse_filter", fixed_step=float(h), sigma_mode="global_ml")
        result = solve(problem, cfg)
        y_end = result.solution_means()[-1]
        errors[i] = np.max(np.abs(y_end - problem.exact(problem.T)))
    scale = float(np.max(np.abs(problem.exact(problem.T)))) or 1.0
    if np.max(errors) < 1e4 * np.finfo(float).eps * scale:
        return OrderFit(order=float("nan"), errors=errors, h_list=h_list, degenerate=True)
    slope = np.polyfit(np.log(h_list), np.log(np.maximum(errors, 1e-300)), 1)[0]
    return OrderFit(order=float(slope), errors=errors, h_list=h_list, degenerate=False)


def nordsieck_gains(result: SolveResult, dim: int = 0) -> np.ndarray:
    """Per-step gain vectors of a solve, rescaled to Nordsieck units.

    Recovered from the stored predictive covariances; row n is the weight
    vector of accepted step n for the chosen dimension, directly comparable
    with :func:`steady_state`'s limit.
    """
    model = result.path.model
    q1 = model.block_size
    scales = np.array([1.0 / factorial(i) for i in range(q1)])
    out = np.empty((len(result.path.step_sizes), q1))
    for n, h in enumerate(result.path.step_sizes):
        c_pred = result.path.predictions[n + 1].cov[dim]
        k_nat = c_pred[:, 1] / c_pred[1, 1]
        out[n] = k_nat * scales * h ** (np.arange(q1) - 1)
    return out
