"""The IVP solving loop: initialization, model interrogation, predict-update.

One solve is strictly sequential.  Each attempted step predicts the state
mean to the trial time, evaluates the right-hand side there to manufacture a
derivative observation, estimates the local diffusion intensity from the
residual, runs the error test (in adaptive mode), and only then completes
the covariance prediction and the Kalman update.  Rejected steps re-estimate
everything at the shrunken step, and an observation that is not finite is
a rejection at half the step; the final step is clamped to land exactly
on T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .filtering import (
    GaussState,
    ObservationModel,
    SolutionPath,
    predict,
    predict_mean,
    update,
)
from .priors import IwpModel, discrete_transition, make_iwp
from .stepcontrol import StepReport, estimate_sigma2, local_error_test, next_step_size

__all__ = [
    "IvpProblem",
    "SolverConfig",
    "SolveResult",
    "StepSizeUnderflowError",
    "initialize",
    "observe",
    "solve",
]

_EPS = float(np.finfo(float).eps)
_DERIV_OBS = ObservationModel(derivative_index=1)
_MAX_STEPS = 2_000_000  # attempted steps before a solve gives up
# Rejections in a row that force the step through; the controller shrinks h
# at most 10x per rejection, so this trips well before h underflows.
_MAX_REJECTIONS = 8
_DIFFUSE_VARIANCE = 1e12  # prior variance of every slot in the diffuse starts

# Derivative-observation knots (fractions of h_init) used by the diffuse
# start; q derivative readings plus the initial value give q+1 conditions.
_STARTER_KNOTS = {
    1: (0.0,),
    2: (0.0, 1.0),
    3: (0.0, 0.5, 1.0),
    4: (0.0, 1.0 / 3.0, 0.5, 1.0),
}


class StepSizeUnderflowError(RuntimeError):
    """Step size shrank below the resolvable scale of the time variable."""


@dataclass(eq=False)
class IvpProblem:
    """An initial value problem y' = f(t, y), y(t0) = y0 on [t0, T].

    ``rhs(t, y) -> ndarray`` is the vector field; invocations through
    :meth:`eval_rhs` are counted.  ``exact``, when present, maps a time to
    the true solution vector and is used by reference and convergence
    tooling only.
    """

    name: str
    dim: int
    t0: float
    T: float
    y0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    exact: Optional[Callable[[float], np.ndarray]] = None
    _nfev: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.y0.size != self.dim:
            raise ValueError(f"y0 has {self.y0.size} entries but dim = {self.dim}")
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")

    @property
    def nfev(self) -> int:
        return self._nfev

    def eval_rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """Counted right-hand-side evaluation."""
        self._nfev += 1
        out = np.atleast_1d(np.asarray(self.rhs(t, y), dtype=float))
        if out.shape != (self.dim,):
            raise ValueError(
                f"rhs returned shape {out.shape}, expected ({self.dim},) for problem {self.name!r}"
            )
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``eps`` is the error-test tolerance; ``per_unit_step`` selects whether
    the test bound is eps*h (True, error per unit step) or eps (False, error
    per step, the default).  Shrinking h does not always shrink the tested
    quantity: D equals |residual| * w, and as h -> 0 it tends to
    |f(t, y) - y'| * w, the mismatch between the vector field and the
    state's derivative slot, not to 0.  Only an update can repair that slot,
    so after ``_MAX_REJECTIONS`` (8) rejections in a row the step is forced
    through.  The per-unit-step bound also shrinks with h and stalls sooner,
    which is why the per-step bound is the default.  ``fixed_step``
    disables adaptivity.  ``sigma_mode`` chooses between a per-step
    diffusion estimate (``local_ml``) and a constant diffusion with a single
    whole-run estimate applied to the reported covariances afterwards
    (``global_ml``; fixed-step runs only, since the error test requires the
    local estimate).  What no caller tunes is a constant: the controller's
    safety factor and rate limits in :func:`stepcontrol.next_step_size`, and
    here the streak cap ``_MAX_REJECTIONS``, the step cap ``_MAX_STEPS`` and
    the diffuse starts' prior variance ``_DIFFUSE_VARIANCE``.
    """

    q: int = 2
    eps: float = 1e-6
    weighting_tau: float = 0.1
    per_unit_step: bool = False
    h_init: Optional[float] = None
    fixed_step: Optional[float] = None
    init_mode: str = "exact"
    obs_strategy: str = "mean"
    seed: int = 0
    sigma_mode: str = "local_ml"

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.init_mode not in ("exact", "diffuse_filter", "rk_starter"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.obs_strategy not in ("mean", "sampled"):
            raise ValueError(f"unknown obs_strategy {self.obs_strategy!r}")
        if self.sigma_mode not in ("local_ml", "global_ml"):
            raise ValueError(f"unknown sigma_mode {self.sigma_mode!r}")
        for name in ("eps", "weighting_tau", "h_init", "fixed_step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.sigma_mode == "global_ml" and self.fixed_step is None:
            raise ValueError(
                "sigma_mode='global_ml' needs fixed_step: the adaptive error "
                "test is built on the per-step estimate"
            )

    def resolve_h_init(self, problem: IvpProblem) -> float:
        if self.h_init is not None:
            return self.h_init
        if self.fixed_step is not None:
            return self.fixed_step
        return (problem.T - problem.t0) / 100.0


@dataclass(eq=False)
class SolveResult:
    """Everything one solve produced."""

    path: SolutionPath
    sigma2_trace: np.ndarray  # (steps_accepted, dim)
    steps_accepted: int
    steps_rejected: int
    fevals: int
    per_step: list[StepReport]

    @property
    def knots(self) -> np.ndarray:
        return np.asarray(self.path.knots)

    def solution_means(self) -> np.ndarray:
        """Filtered solution values (slot 0 of each block) per knot."""
        q1 = self.path.model.block_size
        return np.asarray([s.mean[0::q1] for s in self.path.filtered])

    def solution_stds(self) -> np.ndarray:
        q1 = self.path.model.block_size
        return np.asarray([s.std()[0::q1] for s in self.path.filtered])


def observe(
    problem: IvpProblem,
    t: float,
    loc: np.ndarray,
    std: np.ndarray | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The derivative observation f(t, y) at a predicted solution value.

    ``loc`` holds the predicted solution means (slot 0 of each block).
    Without a generator ``y = loc``, the ``mean`` strategy.  Given the run's
    generator and the predicted standard deviations ``std``, ``y`` is the
    draw ``loc + std * xi`` from the predicted solution marginal instead,
    the ``sampled`` comparison mode mimicking perturbed-evaluation solvers;
    it degenerates to ``mean`` when ``std`` is zero.  Either way this is
    one evaluation.
    """
    if (std is None) != (rng is None):
        raise ValueError("a sampled observation needs both the predicted std and the run's generator")
    if rng is not None:
        loc = loc + std * rng.standard_normal(problem.dim)
    return problem.eval_rhs(t, loc)


def _starter_path(
    problem: IvpProblem,
    config: SolverConfig,
    model: IwpModel,
    rng: np.random.Generator | None,
) -> SolutionPath:
    """The initialization knots, as the path the solve loop extends.

    ``init_mode`` picks only the prior covariance.  Every mode conditions
    it on y(t0) = y0 and y'(t0) = f(t0, y0); the non-exact modes then
    filter one derivative reading at each further starter knot.  A
    non-finite reading at any knot raises: the start cannot step around it.
    """
    q, q1 = model.q, model.block_size
    exact = config.init_mode == "exact"
    if not exact and q not in _STARTER_KNOTS:
        raise ValueError(f"diffuse start supports q in 1..4, got {q}")
    h0 = config.resolve_h_init(problem)
    if exact:
        slots = np.arange(q1)
        factor = np.zeros((problem.dim, q1, q1))
        factor[:, slots, slots] = np.sqrt(model.sigma2[:, None] * h0 ** (2 * (q - slots) + 1))
    else:
        factor = np.full((problem.dim, 1, 1), np.sqrt(_DIFFUSE_VARIANCE)) * np.eye(q1)
    prior = GaussState(t=problem.t0, mean=np.zeros(model.state_size), factor=factor)

    def reading(state: GaussState, t: float) -> np.ndarray:
        std = state.std()[0::q1] if rng is not None else None
        z = observe(problem, t, state.mean[0::q1], std, rng=rng)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"right-hand side returned non-finite values at starter knot t = {t}")
        return z

    state, _ = update(prior, problem.y0, ObservationModel(derivative_index=0))
    zs = [reading(state, problem.t0)]
    state, _ = update(state, zs[0], _DERIV_OBS)
    path = SolutionPath(model=model)
    path.append(prior, state, None)
    if exact:
        return path

    fractions = _STARTER_KNOTS[q]
    for prev, frac in zip(fractions, fractions[1:]):
        t_next = problem.t0 + frac * h0
        # The step between knot times, not from state.t, which carries the
        # round-off of the summed steps.
        h = t_next - (problem.t0 + prev * h0)
        pred = predict(state, discrete_transition(q, h), model.sigma2)
        zs.append(reading(pred, t_next))
        state, _ = update(pred, zs[-1], _DERIV_OBS)
        path.append(pred, state, h, model.sigma2)
    if config.init_mode == "rk_starter" and q == 4:
        # Replace the numerically-diffuse terminal state with the exact
        # diffuse-limit closed forms evaluated at the gathered observations.
        from .analysis import rk_starter_q4

        u, v = fractions[1], fractions[2]
        # Slot 1 is known exactly (row and column 1 vanish); factor the rest.
        free = np.ix_([0, 2, 3, 4], [0, 2, 3, 4])
        means, factors = [], np.zeros((problem.dim, 5, 5))
        for k in range(problem.dim):
            z_k = [z[k] for z in zs]
            m_k, c_k = rk_starter_q4(u, v, h0, float(model.sigma2[k]), z_k, float(problem.y0[k]))
            means.append(m_k)
            factors[k][free] = np.linalg.cholesky(c_k[free])
        path.filtered[-1] = GaussState(t=state.t, mean=np.concatenate(means), factor=factors)
    return path


def initialize(problem: IvpProblem, config: SolverConfig, model: IwpModel) -> GaussState:
    """State the solve loop starts from (the last initialization knot).

    ``exact`` conditions a zero-mean prior on y(t0) = y0 and y'(t0) =
    f(t0, y0) with zero noise; unconditioned derivative slots keep prior
    variance sigma2 * h_init^(2(q-i)+1).  ``diffuse_filter`` instead runs
    q+1 noise-free observations inside [t0, t0 + h_init] from a
    large-variance prior.  ``rk_starter`` equals the diffuse start for
    q <= 3 and uses closed-form limit expressions for q = 4.
    """
    if config.q != model.q:
        raise ValueError(f"config.q = {config.q} but model.q = {model.q}")
    rng = np.random.default_rng(config.seed) if config.obs_strategy == "sampled" else None
    return _starter_path(problem, config, model, rng).filtered[-1]


def _check_underflow(h: float, t: float, span: float):
    if h < 1e3 * _EPS * max(abs(t), span):
        raise StepSizeUnderflowError(f"step size {h} underflowed at t = {t}")


def solve(
    problem: IvpProblem,
    config: SolverConfig,
    model: IwpModel | None = None,
) -> SolveResult:
    """Solve the IVP, returning the filtered path and step diagnostics.

    Fixed-step mode walks the mesh t0 + n*h and accepts every step; the
    last step is clamped to T, and stretched onto T when it would leave a
    remainder below the resolvable step.  Adaptive mode sizes steps from
    the local error test.
    Execution is deterministic: rerunning with identical inputs reproduces
    the result bit for bit, including the sampled observation strategy under
    a fixed seed.
    """
    if model is None:
        model = make_iwp(config.q, np.ones(problem.dim), problem.dim)
    if model.q != config.q:
        raise ValueError(f"config.q = {config.q} but model.q = {model.q}")
    if model.dim != problem.dim:
        raise ValueError(f"model dim {model.dim} != problem dim {problem.dim}")

    rng = np.random.default_rng(config.seed) if config.obs_strategy == "sampled" else None
    nfev_start = problem.nfev
    span = problem.T - problem.t0
    path = _starter_path(problem, config, model, rng)
    n_start = len(path.step_sigma2)

    state = path.filtered[-1]
    t = state.t
    q1 = model.block_size
    fixed = config.fixed_step is not None
    h = config.fixed_step if fixed else config.resolve_h_init(problem)
    reports: list[StepReport] = []
    streak = 0  # error-test rejections since the last accepted step

    t_end = problem.T
    while t < t_end - _EPS * max(abs(t_end), 1.0):
        if len(reports) >= _MAX_STEPS:
            raise RuntimeError(
                f"gave up at t = {t} after {_MAX_STEPS} attempted steps; "
                "the tolerance forces an unreasonably fine mesh"
            )
        _check_underflow(h, t, span)
        if t + h >= t_end - 1e3 * _EPS * max(abs(t_end), span):
            # Clamp onto T, absorbing a remainder too short to step over.
            h = t_end - t

        base = discrete_transition(model.q, h)
        pred_mean = predict_mean(state, base)
        std = None
        if rng is not None:
            # The draw needs the predictive variance; size it with the most
            # recently accepted diffusion estimate.
            sigma2_last = path.step_sigma2[-1] if path.step_sigma2 else model.sigma2
            std = predict(state, base, sigma2_last).std()[0::q1]
        z = observe(problem, t + h, pred_mean[0::q1], std, rng=rng)

        if np.all(np.isfinite(z)):
            qbar11 = base.q11
            sigma2_local = estimate_sigma2(z - pred_mean[1::q1], qbar11)
            if fixed:
                D, passed, h_next = np.sqrt(sigma2_local * qbar11), True, h
            else:
                ebar = config.eps * h / (1.0 if config.per_unit_step else h)
                D, passed = local_error_test(
                    sigma2_local, qbar11, pred_mean[0::q1], config.weighting_tau, ebar
                )
                h_next = next_step_size(float(np.max(D)), ebar, h, model.q)
            # The residual no longer shrinks with h once the state's
            # derivative slots are inconsistent with the vector field; only
            # an update can repair that, so a long streak forces the step.
            accepted = passed or streak >= _MAX_REJECTIONS
            streak = 0 if accepted else streak + 1
        else:
            # Nothing to score: retry at half the step, outside the streak.
            sigma2_local, D = np.full(problem.dim, np.nan), np.full(problem.dim, np.inf)
            accepted, h_next = False, h / 2.0
        reports.append(
            StepReport(t=t, h=h, sigma2_hat=sigma2_local, D=D, accepted=accepted, h_next=h_next)
        )
        if accepted:
            # A passed error test bounds the estimate; only fixed steps and
            # forced accepts can carry a non-finite one.
            if (fixed or not passed) and not np.isfinite(sigma2_local).all():
                raise RuntimeError(f"solve diverged at t = {t}, h = {h}: the accepted step's "
                                   f"diffusion estimate is {sigma2_local}")
            sigma2_step = sigma2_local if config.sigma_mode == "local_ml" else model.sigma2
            prediction = predict(state, base, sigma2_step)
            state, _ = update(prediction, z, _DERIV_OBS)
            path.append(prediction, state, h, sigma2_step)
            t = t + h
        h = h_next

    n_accepted = len(path.step_sigma2) - n_start
    if config.sigma_mode == "global_ml" and n_accepted > 0:
        sigma2_sum = sum((r.sigma2_hat for r in reports if r.accepted), np.zeros(problem.dim))
        _apply_global_sigma2(path, model, sigma2_sum / n_accepted)
    trace = path.step_sigma2[n_start:]
    return SolveResult(
        path=path,
        sigma2_trace=np.asarray(trace) if trace else np.empty((0, problem.dim)),
        steps_accepted=n_accepted,
        steps_rejected=len(reports) - n_accepted,
        fevals=problem.nfev - nfev_start,
        per_step=reports,
    )


def _apply_global_sigma2(path: SolutionPath, model: IwpModel, sigma2_global: np.ndarray):
    """Rescale the path's covariances to the whole-run diffusion estimate.

    Means are untouched: with a diffusion that is constant across the run,
    the Kalman gains do not depend on its value.
    """
    factors = sigma2_global / model.sigma2
    scale = np.sqrt(factors)[:, None, None]
    path.filtered = [GaussState(s.t, s.mean, s.factor * scale) for s in path.filtered]
    path.predictions = [GaussState(s.t, s.mean, s.factor * scale) for s in path.predictions]
    path.step_sigma2 = [sig * factors for sig in path.step_sigma2]
