"""Kalman prediction/update, RTS smoothing, posterior sampling, dense output.

A state stacks ``d`` independent blocks of ``q+1`` entries, one block per
ODE dimension.  The mean is the flat vector ``(y_0, y_0', ..., y_0^(q),
y_1, ...)`` of length d(q+1).  The covariance is stored as its d diagonal
blocks, an array of shape ``(d, q+1, q+1)``: under the IWP prior the
dimensions never couple, so the off-diagonal blocks are zero and are never
formed.  Every operation here acts on all blocks at once through batched
small-matrix products, so a step costs O(d (q+1)^3) and a state takes
O(d (q+1)^2) memory.

Update uses the Joseph form internally, which stays PSD even with exact
(zero-noise) observations; the plain form is kept for cross-checks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .priors import DiscreteTransition, IwpModel, discrete_transition

__all__ = [
    "GaussState",
    "ObservationModel",
    "SolutionPath",
    "SingularUpdateError",
    "predict",
    "update",
    "smooth",
    "sample_posterior",
    "interpolate",
]

_EPS = float(np.finfo(float).eps)


class SingularUpdateError(ValueError):
    """Observation would divide by a vanishing innovation variance."""


@dataclass(frozen=True, eq=False)
class GaussState:
    """Gaussian state at one time point.

    ``mean`` is the flat block-interleaved vector of length d(q+1); ``cov``
    is the stack of the d per-dimension covariance blocks, shape
    ``(d, q+1, q+1)``.
    """

    t: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.ndim != 3 or cov.shape[1] != cov.shape[2] or cov.shape[0] * cov.shape[1] != mean.size:
            raise ValueError(
                f"cov shape {cov.shape} is not a (d, q+1, q+1) block stack for mean size {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def std(self) -> np.ndarray:
        """Marginal standard deviations, flat like ``mean``."""
        return np.sqrt(np.clip(np.diagonal(self.cov, axis1=1, axis2=2), 0.0, None)).reshape(-1)


@dataclass(frozen=True)
class ObservationModel:
    """Scalar observation of one derivative per dimension.

    ``derivative_index`` selects which state slot is observed (0 for the
    solution itself, 1 for its derivative); ``noise`` is the observation
    variance R^2, zero by default for exact conditioning.  No selection rule
    for a nonzero R^2 is built in; it is exposed as a plain knob.
    """

    derivative_index: int = 1
    noise: float = 0.0

    def __post_init__(self):
        if self.derivative_index < 0:
            raise ValueError("derivative_index must be >= 0")
        if not np.isfinite(self.noise) or self.noise < 0:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


def _transpose(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _transpose(M))


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply one block (or a stack of d blocks) to flat block vectors.

    ``x`` has trailing axis d(q+1); the result has the shape of ``x``.
    """
    q1 = M.shape[-1]
    return np.matmul(M, x.reshape(x.shape[:-1] + (-1, q1, 1))).reshape(x.shape)


def predict_mean(state: GaussState, transition: DiscreteTransition) -> np.ndarray:
    """Predicted mean A m, the same numbers :func:`predict` produces."""
    return _matvec(transition.A, state.mean)


def predict(state: GaussState, transition: DiscreteTransition, sigma2=None) -> GaussState:
    """Propagate a state through one step: m -> A m, C -> A C A^T + Q.

    ``transition`` is one unit block shared by every dimension.  ``sigma2``,
    if given, holds one diffusion scale per dimension and replaces ``Q`` by
    ``sigma2[k] * Q`` in block ``k``.  The output covariance is
    re-symmetrized.
    """
    A, Q = transition.A, transition.Q
    if sigma2 is not None:
        sigma2 = np.asarray(sigma2, dtype=float)
        if sigma2.shape != state.cov.shape[:1]:
            raise ValueError(
                f"expected {state.cov.shape[0]} diffusion scales, got shape {sigma2.shape}"
            )
        if not (sigma2.min() >= 0.0 and sigma2.max() < np.inf):
            raise ValueError(f"diffusion scales must be finite and >= 0, got {sigma2}")
        Q = sigma2[:, None, None] * Q
    mean = _matvec(A, state.mean)
    cov = _symmetrize(A @ state.cov @ A.T + Q)
    return GaussState(t=state.t + transition.h, mean=mean, cov=cov)


def update(
    state: GaussState,
    z,
    obs: ObservationModel,
    form: str = "joseph",
) -> tuple[GaussState, np.ndarray]:
    """Condition a predicted state on one observed derivative per dimension.

    Returns the updated state and the pre-update residual ``z - H m``.
    With zero observation noise the updated state satisfies ``H m = z``
    exactly and ``H C H^T = 0`` to round-off.  All blocks are conditioned
    at once; each is a rank-1 update of its own (q+1)-square.

    A block whose innovation variance is at round-off scale of its own
    diagonal carries no new information (that slot is already exactly
    known) and is skipped rather than divided by ~0.  A negative innovation
    variance means the covariance was invalid and raises
    :class:`SingularUpdateError`.
    """
    if form not in ("joseph", "plain"):
        raise ValueError(f"unknown update form {form!r}")
    d, q1, _ = state.cov.shape
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (d,):
        raise ValueError(f"observation of shape {z.shape} does not match {d} state blocks")
    i = obs.derivative_index
    if i >= q1:
        raise ValueError(f"derivative_index {i} outside state order {q1 - 1}")
    r2 = obs.noise

    cov = state.cov
    mean = state.mean.reshape(d, q1)
    residual = z - mean[:, i]
    s = cov[:, i, i] + r2
    tol = _EPS * np.max(np.abs(np.diagonal(cov, axis1=1, axis2=2)), axis=1)
    negative = s < -tol
    if negative.any():
        k = int(np.argmax(negative))
        raise SingularUpdateError(f"negative innovation variance {s[k]} in dimension {k}")
    # Degenerate blocks (observed slot already exactly determined) get zero gain.
    live = s > tol
    gain = np.divide(cov[:, :, i], s[:, None], out=np.zeros((d, q1)), where=live[:, None])
    mean = mean + gain * np.where(live, residual, 0.0)[:, None]
    if form == "joseph":
        # (I - K H) C (I - K H)^T + R^2 K K^T, one rank-1 factor at a time.
        c1 = cov - gain[:, :, None] * cov[:, None, i, :]
        cov = c1 - c1[:, :, i, None] * gain[:, None, :]
        if r2 > 0:
            cov = cov + r2 * (gain[:, :, None] * gain[:, None, :])
    else:
        cov = cov - (gain[:, :, None] * gain[:, None, :]) * s[:, None, None]
    return GaussState(t=state.t, mean=mean.reshape(-1), cov=_symmetrize(cov)), residual


@dataclass(eq=False)
class SolutionPath:
    """Filtered (and optionally smoothed) states over an increasing mesh.

    The path is append-only while filtering and written once by smoothing.
    Per-interval step sizes and diffusion scales are stored instead of the
    transition matrices, which smoothing and interpolation rebuild on
    demand; this keeps long paths compact.
    """

    model: IwpModel
    knots: list[float] = field(default_factory=list)
    filtered: list[GaussState] = field(default_factory=list)
    predictions: list[GaussState] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    step_sigma2: list[np.ndarray] = field(default_factory=list)
    smoothed: list[GaussState] | None = None

    def __len__(self) -> int:
        return len(self.knots)

    def append(self, prediction: GaussState, filtered: GaussState, h: float | None, sigma2=None):
        """Add one knot.  ``h``/``sigma2`` describe the incoming interval
        and are omitted for the first knot."""
        if self.knots:
            if h is None:
                raise ValueError("interior knots need the incoming step size")
            t_prev = self.knots[-1]
            if filtered.t <= t_prev:
                raise ValueError(f"knots must increase: {filtered.t} after {t_prev}")
            self.step_sizes.append(float(h))
            self.step_sigma2.append(np.atleast_1d(np.asarray(sigma2, dtype=float)))
        self.knots.append(float(filtered.t))
        self.predictions.append(prediction)
        self.filtered.append(filtered)


def _smoother_gain(c_filt: np.ndarray, model: IwpModel, h: float, c_pred: np.ndarray) -> np.ndarray:
    a = discrete_transition(model, h, sigma2=1.0).A
    # pinv handles exactly-known (rank-deficient) slots: no information, zero gain.
    return c_filt @ a.T @ np.linalg.pinv(c_pred, hermitian=True)


def smooth(path: SolutionPath) -> SolutionPath:
    """Backward RTS pass filling ``path.smoothed``; idempotent, linear cost.

    Needs no new right-hand-side evaluations.  The last knot's smoothed state
    equals its filtered state exactly.
    """
    if not path.knots:
        raise ValueError("cannot smooth an empty path")
    if path.smoothed is not None:
        return path
    n = len(path.knots)
    out: list[GaussState | None] = [None] * n
    out[-1] = path.filtered[-1]
    for i in range(n - 2, -1, -1):
        filt = path.filtered[i]
        pred_next = path.predictions[i + 1]
        nxt = out[i + 1]
        G = _smoother_gain(filt.cov, path.model, path.step_sizes[i], pred_next.cov)
        mean = filt.mean + _matvec(G, nxt.mean - pred_next.mean)
        cov = _symmetrize(filt.cov + G @ (nxt.cov - pred_next.cov) @ _transpose(G))
        out[i] = GaussState(t=filt.t, mean=mean, cov=cov)
    path.smoothed = out  # type: ignore[assignment]
    return path


def _draw_gaussian(rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray, count: int) -> np.ndarray:
    """Draw ``count`` samples of N(mean, blocks); tolerates rank-deficient blocks."""
    w, V = np.linalg.eigh(_symmetrize(cov))
    root = V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    return mean + _matvec(root, rng.standard_normal((count, mean.size)))


def sample_posterior(path: SolutionPath, seed: int, count: int) -> np.ndarray:
    """Joint posterior trajectories over the knots by backward sampling.

    Deterministic for a fixed seed.  Returns an array of shape
    ``(count, n_knots, state_size)``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if path.smoothed is None:
        raise ValueError("smooth the path before sampling")
    rng = np.random.default_rng(seed)
    n = len(path.knots)
    out = np.empty((count, n, path.model.state_size))
    last = path.smoothed[-1]
    out[:, -1, :] = _draw_gaussian(rng, last.mean, last.cov, count)
    for i in range(n - 2, -1, -1):
        filt = path.filtered[i]
        pred_next = path.predictions[i + 1]
        G = _smoother_gain(filt.cov, path.model, path.step_sizes[i], pred_next.cov)
        cond_mean = filt.mean + _matvec(G, out[:, i + 1, :] - pred_next.mean)
        cond_cov = _symmetrize(filt.cov - G @ pred_next.cov @ _transpose(G))
        out[:, i, :] = cond_mean + _draw_gaussian(rng, np.zeros(filt.mean.size), cond_cov, count)
    return out


def interpolate(path: SolutionPath, t: float, allow_extrapolation: bool = False) -> GaussState:
    """Smoothed posterior at an arbitrary time, on or off the mesh.

    At a knot this returns the stored smoothed state.  Inside an interval it
    conditions the prior bridge on the filtered state at the left knot and
    the smoothed state at the right knot, so the result agrees with the knot
    states in the limits and is continuous in ``t``.  Times outside the
    solved span raise unless ``allow_extrapolation`` is set, in which case
    the state is predicted forward from the last knot.
    """
    if not path.knots:
        raise ValueError("cannot interpolate an empty path")
    smooth(path)
    knots = path.knots
    t = float(t)
    tol = 4.0 * _EPS * max(1.0, abs(t))
    right = bisect_left(knots, t)
    for k in (right - 1, right):
        if 0 <= k < len(knots) and abs(knots[k] - t) <= tol:
            return path.smoothed[k]
    if t < knots[0]:
        raise ValueError(f"t={t} precedes the first knot {knots[0]}")
    if t > knots[-1]:
        if not allow_extrapolation:
            raise ValueError(
                f"t={t} is past the last knot {knots[-1]}; "
                "pass allow_extrapolation=True to predict forward"
            )
        base = discrete_transition(path.model, t - knots[-1], sigma2=1.0)
        sig = path.step_sigma2[-1] if path.step_sigma2 else path.model.sigma2
        return predict(path.smoothed[-1], base, sig)

    i = right - 1
    fwd = discrete_transition(path.model, t - knots[i], sigma2=1.0)
    pred_t = predict(path.filtered[i], fwd, path.step_sigma2[i])
    pred_next = path.predictions[i + 1]
    nxt = path.smoothed[i + 1]
    G = _smoother_gain(pred_t.cov, path.model, knots[i + 1] - t, pred_next.cov)
    mean = pred_t.mean + _matvec(G, nxt.mean - pred_next.mean)
    cov = _symmetrize(pred_t.cov + G @ (nxt.cov - pred_next.cov) @ _transpose(G))
    return GaussState(t=t, mean=mean, cov=cov)
