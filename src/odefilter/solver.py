"""The IVP solving loop: initialization, model interrogation, predict-update.

One solve is strictly sequential.  An attempted step takes from the per-q
table ``A(h)`` and ``Q(h)^(1/2)``, each in slot order and with the
derivative slot's row first, and ``Q(h)_11``, once per distinct h: a fixed
mesh builds them once.  A step below the resolvable scale of t, a NaN step,
or one whose ``Q(h)_11`` underflows to 0 raises ``StepSizeUnderflowError``
before its reading.  The attempt predicts the
mean, evaluates the right-hand side there, and scores the residual: on
Python floats up to ``_FLOAT_SCORING_DIM`` dimensions, where numpy's cost
per call would outweigh the arithmetic, and in numpy above.  Both forms make
the same IEEE operations in the same order, so they agree bit for bit.  An
accepted step adds its knot by the path's ``_step``: the one QR of
``filtering.predict_update``, written straight into the path's next row.
The diffuse start steps to its knots by the same call, without the
scoring.  A reading that is not finite is a rejection at half the step, or
an error under a fixed step; the final step is clamped to land exactly on T.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isnan, nan, sqrt
from typing import Callable, Optional

import numpy as np

from .filtering import GaussState, SolutionPath, _built, _Columns, _matvec, _Rows, _stacked
from .priors import _check_int, _constants, make_iwp
from .stepcontrol import StepReport, _sigma2, _weighted, next_step_size
# perfbench's traced run wraps these names here, where neither the loop nor the start calls them.
from .filtering import predict, update  # noqa: F401
from .priors import discrete_transition  # noqa: F401
from .stepcontrol import estimate_sigma2, local_error_test  # noqa: F401

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
_MAX_STEPS = 2_000_000  # attempted steps before a solve gives up
# Rejections in a row that force the step through; the controller shrinks h
# at most 10x per rejection, so this trips well before h underflows.
_MAX_REJECTIONS = 8
_DIFFUSE_VARIANCE = 1e12  # prior variance of every slot in the diffuse starts
# Up to this many dimensions an attempt is scored on Python floats, above it in numpy.
_FLOAT_SCORING_DIM = 4

# Derivative-observation knots (fractions of h_init) used by the diffuse
# start; q derivative readings plus the initial value give q+1 conditions.
# At q = 4 these are the knots (0, u, v, 1) of ``analysis.rk_starter_q4``.
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
        _check_int("dim", self.dim)
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.y0.size != self.dim:
            raise ValueError(f"y0 has {self.y0.size} entries but dim = {self.dim}")
        bad = np.flatnonzero(~np.isfinite(self.y0))
        if bad.size:
            raise ValueError(f"y0 must be finite, got y0[{bad[0]}] = {self.y0[bad[0]]}")
        if not (np.isfinite(self.t0) and np.isfinite(self.T)):
            raise ValueError(f"t0 and T must be finite, got [{self.t0}, {self.T}]")
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")

    @property
    def nfev(self) -> int:
        return self._nfev

    def eval_rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """Counted right-hand-side evaluation, converted to a float vector once."""
        self._nfev += 1
        out = np.asarray(self.rhs(t, y), dtype=float)
        if out.shape != (self.dim,):
            if out.shape == () and self.dim == 1:
                return out.reshape(1)
            raise ValueError(
                f"rhs returned shape {out.shape}, expected ({self.dim},) for problem {self.name!r}"
            )
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, the only input of a solve besides the problem.

    ``q`` (an integer >= 1) is the order of the unit-diffusion IWP prior;
    ``seed`` (an integer >= 0) seeds the ``sampled`` ``obs_strategy``.
    ``init_mode`` picks the start: ``exact``, or the diffuse start, which
    ``diffuse_filter`` and ``rk_starter`` both name.
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
        _check_int("q", self.q)
        _check_int("seed", self.seed, low=0)
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
    """Everything one solve produced; ``per_step`` has one report per attempted step."""

    path: SolutionPath
    sigma2_trace: np.ndarray  # (steps_accepted, dim)
    steps_accepted: int
    steps_rejected: int
    fevals: int
    per_step: Sequence[StepReport]

    @property
    def knots(self) -> np.ndarray:
        return self.path.knots

    def solution_means(self) -> np.ndarray:
        """Filtered solution values (slot 0 of each block) per knot, a view."""
        return self.path.columns["mean"][:, 0::self.path.model.block_size]

    def solution_stds(self) -> np.ndarray:
        """Filtered standard deviations of the solution values per knot."""
        return np.linalg.norm(self.path.columns["factor"][:, :, 0, :], axis=-1)


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
    Without a generator ``y = loc``, the ``mean`` strategy, which every
    reading of the start takes.  Given the run's generator and the predicted
    standard deviations ``std``, ``y`` is the draw ``loc + std * xi`` from
    the predicted solution marginal instead, the ``sampled`` comparison mode
    of the loop's steps, mimicking perturbed-evaluation solvers that perturb
    each step but not the initial data; it degenerates to ``mean`` when
    ``std`` is zero.  Either way this is one evaluation.
    """
    if (std is None) != (rng is None):
        raise ValueError("a sampled observation needs both the predicted std and the run's generator")
    if rng is not None:
        loc = loc + std * rng.standard_normal(problem.dim)
    return problem.eval_rhs(t, loc)


def _starter_path(problem: IvpProblem, config: SolverConfig) -> SolutionPath:
    """The initialization knots, as the path the solve loop extends.

    The path's model is the unit-diffusion IWP(config.q) over
    ``problem.dim`` blocks.  ``init_mode`` picks only the prior covariance.
    Knot 0 pins that prior to y(t0) = y0 and y'(t0) = f(t0, y0) in closed
    form, the reading taken at the pinned values; the non-exact modes then
    take one step to each further starter knot the way the loop takes an
    accepted attempt, under unit diffusion, reading f at the predicted mean.
    Neither ``obs_strategy`` nor ``seed`` enters: under the diffuse prior a
    sampled draw would land far off the trajectory.  A non-finite reading at
    any knot raises: the start cannot step around it.
    """
    model = make_iwp(config.q, problem.dim)
    q, q1, unit = model.q, model.block_size, np.ones(problem.dim)
    exact = config.init_mode == "exact"
    if not exact and q not in _STARTER_KNOTS:
        raise ValueError(f"diffuse start supports q in 1..4, got {q}")
    h0 = config.resolve_h_init(problem)
    slots = np.arange(q1)
    factor = np.zeros((problem.dim, q1, q1))
    factor[:, slots, slots] = (np.sqrt(h0 ** (2 * (q - slots) + 1)) if exact
                               else np.sqrt(_DIFFUSE_VARIANCE))

    def reading(t: float, loc: np.ndarray) -> np.ndarray:
        z = observe(problem, t, loc)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"right-hand side returned non-finite values at starter knot t = {t}")
        return z

    # Both priors are diagonal, so exact readings of slots 0 and 1 set those
    # mean slots and zero their rows and columns of the factor, bit for bit
    # what conditioning by QR gives.
    mean = np.zeros(model.state_size)
    mean[0::q1] = problem.y0
    mean[1::q1] = reading(problem.t0, mean[0::q1])
    prior = _built(problem.t0, np.zeros(model.state_size), factor)
    factor = factor * (slots >= 2)
    path = SolutionPath(model=model)
    path.append(prior, _built(problem.t0, mean, factor), None)
    if exact:
        return path

    # The starter knots lie in [t0, t0 + h0]; a span shorter than h0 ends them at T.
    h0 = min(h0, problem.T - problem.t0)
    t, fractions = problem.t0, _STARTER_KNOTS[q]
    for prev, frac in zip(fractions, fractions[1:]):
        t_next = problem.t0 + frac * h0
        # The step between knot times, not from t, which carries the
        # round-off of the summed steps.
        h = t_next - (problem.t0 + prev * h0)
        A, Q_sqrt, _ = _constants(q).transition(h)
        pred_mean = _matvec(A[0], mean)
        z = reading(t_next, pred_mean[0::q1])
        t = t + h
        mean, _ = path._step(t, h, unit, pred_mean, A, Q_sqrt, z - pred_mean[1::q1])
    return path


def initialize(problem: IvpProblem, config: SolverConfig) -> GaussState:
    """State the solve loop starts from (the last initialization knot).

    ``exact`` conditions a zero-mean unit-diffusion prior on y(t0) = y0 and
    y'(t0) = f(t0, y0) with zero noise; unconditioned derivative slots keep
    prior variance h_init^(2(q-i)+1).  ``diffuse_filter`` instead runs
    q+1 noise-free observations inside [t0, t0 + h_init] from a
    large-variance prior.  ``rk_starter`` names the same diffuse start at
    every q; at q = 4 it is the paper's four-evaluation starter, whose
    diffuse-limit closed form is ``analysis.rk_starter_q4``.  Every start
    reads f at its means, so the state depends on neither ``obs_strategy``
    nor ``seed``.
    """
    return _starter_path(problem, config).filtered[-1]


def solve(problem: IvpProblem, config: SolverConfig) -> SolveResult:
    """Solve the IVP, returning the filtered path and step diagnostics.

    The prior is the unit-diffusion IWP(config.q) over ``problem.dim``
    independent blocks; the diffusion is estimated from the residuals, per
    step under ``local_ml`` and once per run under ``global_ml``.

    Fixed-step mode walks the mesh t0 + n*h and accepts every step; the
    last step is clamped to T, and stretched onto T when it would leave a
    remainder below the resolvable step.  Adaptive mode sizes steps from
    the local error test.
    Execution is deterministic: rerunning with identical inputs reproduces
    the result bit for bit, including the sampled observation strategy under
    a fixed seed.
    """
    rng = np.random.default_rng(config.seed) if config.obs_strategy == "sampled" else None
    nfev_start = problem.nfev
    span = problem.T - problem.t0
    path = _starter_path(problem, config)
    model = path.model
    n_start = len(path) - 1

    last = path.filtered[-1]
    t, mean, factor = last.t, last.mean, last.factor
    d, q, q1, unit = problem.dim, model.q, model.block_size, np.ones(problem.dim)
    table = _constants(q)
    fixed, floats = config.fixed_step is not None, d <= _FLOAT_SCORING_DIM
    h = config.fixed_step if fixed else config.resolve_h_init(problem)
    # One row per attempt, named like the StepReport fields that view it.
    attempts = _Columns(t=np.empty(0), h=np.empty(0), sigma2_hat=np.empty((0, d)),
                        D=np.empty((0, d)), accepted=np.empty(0, dtype=bool), h_next=np.empty(0))
    streak = 0  # error-test rejections since the last accepted step
    sigma2_step = unit  # the last accepted step's diffusion, unit before any
    h_prev, tau = None, config.weighting_tau

    # The loop validates nothing again: the underflow check keeps t + h > t, SolverConfig
    # checked tau, and the scores hold d entries with sigma2_hat >= 0 by construction.
    t_end = problem.T
    t_stop = t_end - _EPS * max(abs(t_end), 1.0)
    t_clamp = t_end - 1e3 * _EPS * max(abs(t_end), span)
    while t < t_stop:
        if attempts.n >= _MAX_STEPS:
            raise RuntimeError(
                f"gave up at t = {t} after {_MAX_STEPS} attempted steps; "
                "the tolerance forces an unreasonably fine mesh"
            )
        if not h >= 1e3 * _EPS * max(abs(t), span):  # a NaN h too
            if isnan(h):  # the controller's answer to the last attempt's NaN D
                w = [1.0 / (tau * abs(v) + tau) for v in y.tolist()]
                raise StepSizeUnderflowError(
                    f"step size nan at t = {t}: the attempt at h = {attempts['h'][-1]} scored "
                    f"D = {attempts['D'][-1]}; an infinite D_i times a weight 1/(tau*|y_i| + tau) "
                    f"of 0 is NaN, and the weights were {w} at tau = {tau}")
            raise StepSizeUnderflowError(f"step size {h} underflowed at t = {t}")
        if t + h >= t_clamp:
            # Clamp onto T, absorbing a remainder too short to step over.
            h = t_end - t

        if h != h_prev:  # a fixed mesh repeats h on every step but the clamped last
            A, Q_sqrt, q11 = table.transition(h)
            if q11 == 0.0:  # the residual's variance: no reading can be scored against it
                raise StepSizeUnderflowError(f"step size {h} underflowed at t = {t}: Q(h)_11 is 0")
            h_prev = h
        pred_mean = np.matmul(A[0], mean.reshape(d, q1, 1)).reshape(-1)  # _matvec, inline
        # A sampled draw's std, under the last accepted diffusion since this step's is
        # not known yet: the norm of row 0 of [A F, sqrt(sigma2) Q^(1/2)], no QR needed.
        std = None if rng is None else np.linalg.norm(
            _stacked(factor, A[0, :1], Q_sqrt[0, :1], sigma2_step)[:, 0], axis=1)
        y = pred_mean[0::q1]
        z = observe(problem, t + h, y, std, rng=rng)

        if all(np.isfinite(z).tolist()):  # cheaper than .all() at small d
            residual = z - pred_mean[1::q1]
            if floats:
                # The numpy form's IEEE operations in its order, bit for bit, without
                # numpy's cost per call; r * r overflows to inf where r**2 raises.
                sigma2_local = [r * r / q11 for r in residual.tolist()]
                D = [sqrt(s * q11) for s in sigma2_local]
                if not fixed:
                    D = [Dk * (1.0 / (tau * abs(yk) + tau)) for Dk, yk in zip(D, y.tolist())]
                    D_max = nan if isnan(sum(D)) else max(D)  # max() drops a NaN past D[0]
            else:
                sigma2_local = _sigma2(residual, q11)
                D = np.sqrt(sigma2_local * q11)
                if not fixed:
                    D = _weighted(D, y, tau)
                    D_max = float(D.max())
            if fixed:
                passed, h_next = True, h
            else:
                ebar = config.eps * h / (1.0 if config.per_unit_step else h)
                passed = D_max <= ebar
                h_next = next_step_size(D_max, ebar, h, q)
            # The residual no longer shrinks with h once the state's
            # derivative slots are inconsistent with the vector field; only
            # an update can repair that, so a long streak forces the step.
            accepted = passed or streak >= _MAX_REJECTIONS
            streak = 0 if accepted else streak + 1
        elif fixed:
            # A fixed mesh cannot step around the bad reading.
            raise RuntimeError(f"right-hand side returned {z} at t = {t + h}, reached from "
                               f"t = {t} with fixed step h = {h}")
        else:
            # Nothing to score: retry at half the step, outside the streak.
            sigma2_local, D = np.full(d, np.nan), np.full(d, np.inf)
            accepted, h_next = False, h / 2.0
        k, rec = attempts.add(), attempts.arrays
        rec["t"][k], rec["h"][k], rec["accepted"][k], rec["h_next"][k] = t, h, accepted, h_next
        rec["sigma2_hat"][k], rec["D"][k] = sigma2_local, D
        if accepted:
            sigma2_local = rec["sigma2_hat"][k]  # an array, whatever the scoring's form
            # A passed error test bounds the estimate; only fixed steps and
            # forced accepts can carry a non-finite one.
            if (fixed or not passed) and not np.isfinite(sigma2_local).all():
                raise RuntimeError(f"solve diverged at t = {t}, h = {h}: the accepted step's "
                                   f"diffusion estimate is {sigma2_local}")
            sigma2_step = sigma2_local if config.sigma_mode == "local_ml" else unit
            t = t + h
            mean, factor = path._step(t, h, sigma2_step, pred_mean, A, Q_sqrt, residual)
        h = h_next

    n_accepted = len(path) - 1 - n_start
    col = {name: attempts[name] for name in ("t", "h", "sigma2_hat", "D", "accepted", "h_next")}
    if config.sigma_mode == "global_ml" and n_accepted > 0:
        # Row by row from zero: numpy's pairwise sum(axis=0) would move last bits.
        path._scale_diffusion(sum(col["sigma2_hat"][col["accepted"]], np.zeros(d)) / n_accepted)
    return SolveResult(
        path=path,
        sigma2_trace=path.step_sigma2[n_start:],
        steps_accepted=n_accepted,
        steps_rejected=attempts.n - n_accepted,
        fevals=problem.nfev - nfev_start,
        per_step=_Rows(attempts.n, lambda i: StepReport(
            float(col["t"][i]), float(col["h"][i]), col["sigma2_hat"][i], col["D"][i],
            bool(col["accepted"][i]), float(col["h_next"][i]))),
    )
