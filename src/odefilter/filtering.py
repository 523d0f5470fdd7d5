"""Kalman prediction/update, RTS smoothing, posterior sampling, dense output.

A state stacks ``d`` independent blocks of ``q+1`` entries, one block per ODE
dimension.  The mean is the flat vector ``(y_0, y_0', ..., y_0^(q), y_1, ...)``
of length d(q+1).  The covariance is stored as square-root factors of its d
diagonal blocks, an array ``F`` of shape ``(d, q+1, q+1)`` whose block ``k``
has covariance ``F[k] @ F[k].T``: under the IWP prior the dimensions never
couple, so the off-diagonal blocks are zero and are never formed.  Every
operation acts on all blocks at once through batched small-matrix products
and QRs, so a step costs O(d (q+1)^3) and a state O(d (q+1)^2) memory.

No operation forms a covariance and factors it again, and none inverts one,
so every covariance is positive semidefinite by construction (Krämer &
Hennig, *Stable implementation of probabilistic ODE solvers*, JMLR 2024):
predict re-triangularizes ``[A F, Q^(1/2)]`` by QR, update zeroes one column
of a re-triangularized factor (the solver's ``predict_update`` does both in
one QR), and smoothing, sampling and interpolation read the gain and the
backward-conditional factor off one QR of the joint factor ``[[A F,
Q^(1/2)], [F, 0]]`` and the inverse of its triangular block ``L11``.  Each
QR and inverse calls the LAPACK gufunc behind ``numpy.linalg.qr`` or
``numpy.linalg.inv`` directly (``_triangularize``, ``_inv``): at these block
sizes the wrappers cost more than the factorization.

That backward conditional depends only on the filtered factor, the step and
the diffusion, never on the smoothed successor.  ``smooth`` and
``sample_posterior`` therefore build it for a chunk of intervals at a time
with one batched QR and one batched inverse, in units of each interval's
step (there every transition is ``A(1)``), and keep only the knot-to-knot
recursion in Python, in buffers reused by every knot.  A chunk holds at most
``_CHUNK_BLOCKS`` blocks, so the temporaries do not grow with the path.

A :class:`SolutionPath` keeps one row per knot in shared column arrays and
hands out states as views built on access.  It stores no predicted factor:
one is recomputed from the previous knot when it is asked for.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, nan

import numpy as np
from numpy.linalg._umath_linalg import inv as _inv_raw, qr_r_raw as _qr_r_raw  # numpy >= 2.0

from .priors import _check_int, _constants, _pivot, discrete_transition

__all__ = ["GaussState", "SolutionPath", "predict", "update", "smooth", "sample_posterior",
           "interpolate"]

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)  # tiny: the least normal


@dataclass(frozen=True, eq=False, slots=True)
class GaussState:
    """Gaussian state at one time point.

    ``mean`` is the flat block-interleaved vector of length d(q+1); ``factor`` is the stack of
    the d per-dimension square-root factors, shape ``(d, q+1, q+1)``, of the covariance blocks
    ``factor @ factor^T``.  A factor need not be triangular; ``np.zeros`` and ``np.eye`` are
    their own factors.
    """

    t: float
    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        factor = np.asarray(self.factor, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if (factor.ndim != 3 or factor.shape[1] != factor.shape[2]
                or factor.shape[0] * factor.shape[1] != mean.size):
            raise ValueError(f"factor shape {factor.shape} is not a (d, q+1, q+1) "
                             f"block stack for mean size {mean.size}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", factor)

    @property
    def cov(self) -> np.ndarray:
        """Covariance blocks ``factor @ factor^T``, computed on each access."""
        return self.factor @ self.factor.swapaxes(-1, -2)

    def std(self) -> np.ndarray:
        """Marginal standard deviations (row norms of the factor), flat like ``mean``."""
        return np.linalg.norm(self.factor, axis=2).reshape(-1)


@lru_cache(maxsize=None)
def _lower_mask(n: int) -> np.ndarray:
    return np.tri(n)


def _triangularize(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Lower triangular ``L`` with ``L L^T = M M^T`` for each block of ``M``, in ``out`` if given.

    ``L = R^T`` from the QR decomposition of ``M^T``: LAPACK leaves ``R`` on
    and above the diagonal of ``M^T``, reflector data below.  This is the gufunc
    ``numpy.linalg.qr(M^T, mode="raw")`` calls, on the same float64 copy, so
    ``L`` is the wrapper's bit for bit.  No check is lost: the wrapper raises
    only when LAPACK reports an illegal argument, which a float64 stack of
    valid shape never gives, and on success the gufunc clears the FP status.
    """
    n = M.shape[-2]
    a = M.swapaxes(-1, -2).astype(np.float64)
    _qr_r_raw(a, signature="d->d")
    return np.multiply(a.swapaxes(-1, -2)[..., :n], _lower_mask(n), out=out)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _inv(a: np.ndarray) -> np.ndarray:
    """``numpy.linalg.inv`` of a float64 stack, bit for bit: its LAPACK gufunc under its error state,
    set by a decorator, the cheapest form.  A block whose LU breaks down gets NaNs and the invalid
    flag, which a bare call only warns of; the error state raises ``LinAlgError``."""
    return _inv_raw(a, signature="d->d")


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply one block (or a stack of d blocks) to flat block vectors ``x`` (trailing axis
    d(q+1)); the result has the shape of ``x``."""
    q1 = M.shape[-1]
    return np.matmul(M, x.reshape(x.shape[:-1] + (-1, q1, 1))).reshape(x.shape)


def predict(state: GaussState, h: float, sigma2=None) -> GaussState:
    """Propagate a state through a step ``h``: m -> A m, C -> A C A^T + Q.

    ``A`` and ``Q`` are the unit transition :func:`priors.discrete_transition` of the state's
    order, one block shared by every dimension.  ``sigma2``, if given, holds one diffusion
    scale per dimension and replaces ``Q`` by ``sigma2[k] * Q`` in block ``k``.  The predicted
    factor is the lower triangular factor of ``[A F, Q^(1/2)]`` from one QR.
    """
    d, q1, _ = state.factor.shape
    A, Q_sqrt, _ = discrete_transition(q1 - 1, h)
    sigma2 = np.ones(d) if sigma2 is None else np.asarray(sigma2, dtype=float)
    if sigma2.shape != (d,):
        raise ValueError(f"expected {d} diffusion scales, got shape {sigma2.shape}")
    if not (sigma2.min() >= 0.0 and sigma2.max() < np.inf):
        raise ValueError(f"diffusion scales must be finite and >= 0, got {sigma2}")
    factor = _triangularize(_stacked(state.factor, A, Q_sqrt, sigma2))
    return _built(state.t + float(h), _matvec(A, state.mean), factor)


def update(state: GaussState, z, i: int = 1) -> tuple[GaussState, np.ndarray]:
    """Condition a state on one exact, noise-free reading of slot ``i`` per dimension: 0 for
    the solution itself, 1 (the default) for its derivative, up to the state's order q.

    Returns the updated state and the pre-update residual ``z - H m``.  The factor is
    re-triangularized with the observed slot's row first and conditioned by :func:`_condition`:
    that slot's row becomes exactly 0 and ``H m = z`` to one rounding, and a block with zero
    innovation variance keeps its mean and covariance.
    """
    d, q1, _ = state.factor.shape
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (d,):
        raise ValueError(f"observation of shape {z.shape} does not match {d} state blocks")
    i = _check_int("i", i, low=0)
    if i >= q1:
        raise ValueError(f"slot index {i} outside state order {q1 - 1}")
    residual = z - state.mean[i::q1]
    mean, factor = _condition(_triangularize(state.factor.take(_pivot(q1, i)[0], axis=1)),
                              state.mean, residual, i)
    return _built(state.t, mean, factor), residual


def predict_update(factor: np.ndarray, A: np.ndarray, Q_sqrt: np.ndarray, sigma2: np.ndarray,
                   mean: np.ndarray, residual: np.ndarray, out_mean=None,
                   out_factor=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`predict` then :func:`update` of the derivative slot in one QR, unchecked: the
    filtered mean and factor (to ``out_mean``, ``out_factor`` if given) from the last ``factor``,
    the unit ``A`` and ``Q_sqrt`` in that slot's pivot order (index 1 of the table's
    ``transition``), finite ``sigma2 >= 0``, the predicted ``mean`` and residual ``z - H mean``."""
    return _condition(_triangularize(_stacked(factor, A, Q_sqrt, sigma2)), mean, residual, 1,
                      out_mean, out_factor)


def _stacked(F: np.ndarray, A: np.ndarray, Q_sqrt: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """``[A F, sqrt(sigma2) Q^(1/2)]`` per block: a factor, not triangular, of the
    predicted covariance, with one row per row of ``A`` and ``Q_sqrt``."""
    d, q1, _ = F.shape
    M = np.empty((d, len(A), 2 * q1))
    np.matmul(A, F, out=M[:, :, :q1])
    np.multiply(np.sqrt(sigma2)[:, None, None], Q_sqrt, out=M[:, :, q1:])
    return M


def _condition(L: np.ndarray, mean: np.ndarray, residual: np.ndarray, i: int, out_mean=None,
               out_factor=None) -> tuple[np.ndarray, np.ndarray]:
    """Condition on exact readings of slot ``i`` per block, given a factor ``L`` in
    pivot order, slot ``i``'s row ``(r, 0, ..., 0)`` first: ``r^2`` is the innovation
    variance.  Back in slot order, the gain is the first column over ``r``, exactly
    1 at slot ``i``, so ``H m = z`` to one rounding; the filtered factor is ``L``
    with that column zeroed, which leaves row ``i`` exactly 0.  A block with ``r ==
    0`` already knows the slot and keeps its state: ``col / inf`` is 0.  The results
    go to ``out_mean`` and ``out_factor`` if given."""
    # "clip" for a permutation: the default "raise" copies through a buffer into an out.
    L = L.take(_pivot(L.shape[1], i)[1], axis=1, out=out_factor, mode="clip")
    col = L[:, :, 0]
    r = col[:, i:i + 1]
    live = r.astype(bool)  # r != 0, in one cheap call
    shift = col / np.where(live, r, inf) * residual[:, None]
    np.copyto(col, 0.0, where=live)
    return np.add(mean, shift.reshape(-1), out=out_mean), L


def _built(t: float, mean: np.ndarray, factor: np.ndarray) -> GaussState:
    """A state from arrays this module just built, skipping the re-validation."""
    state = object.__new__(GaussState)
    for name, value in (("t", t), ("mean", mean), ("factor", factor)):
        object.__setattr__(state, name, value)
    return state


class _Columns:
    """Arrays that grow together along their first axis, by half when full.

    Each starts as the empty array given for it, which fixes its row shape and dtype;
    ``self[name]`` is a view of the ``n`` rows in use, ``self.arrays[name]`` the whole
    storage.  Growing by half, not doubling, caps the spare rows at a third of it."""

    def __init__(self, **empty: np.ndarray):
        self.n, self._size, self.arrays = 0, 0, empty

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name][:self.n]

    def add(self) -> int:
        """Count in one more row and return its index, for its values to be written into
        ``self.arrays``, whose arrays growth replaces."""
        n = self.n
        if n == self._size:
            spare = max(n // 2, 16)
            self._size += spare
            for name, a in self.arrays.items():
                self.arrays[name] = np.concatenate([a, np.empty_like(a, shape=(spare,) + a.shape[1:])])
        self.n = n + 1
        return n


class _Rows(Sequence):
    """Read-only sequence of ``n`` items, item ``i`` built by ``at(i)`` on access.  Indices
    and slices act as on a list; a slice gives a list."""

    def __init__(self, n: int, at: Callable[[int], object]):
        self._n, self._at = n, at

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        i = range(self._n)[i]  # a list's negative indices, slices and IndexError
        return [self._at(j) for j in i] if isinstance(i, range) else self._at(i)


class SolutionPath:
    """Filtered (and optionally smoothed) states over an increasing mesh.

    Built from knot 0: the ``prior`` and the ``start`` state conditioned from it, at the same
    finite time and with factors of the same shape ``(d, q+1, q+1)``, q >= 1; ``q`` and ``dim``
    are read off that shape.  Append-only while filtering, written once by smoothing.
    ``columns`` holds one row per knot: time ``t``, filtered ``mean`` and ``factor``, predicted
    mean ``pred_mean``, and the step ``h`` and diffusion scales ``sigma2`` of the interval
    ending there (NaN in row 0).  ``knots``, ``step_sizes`` and ``step_sigma2`` view these
    columns; ``filtered``, ``predictions`` and ``smoothed`` are sequences of
    :class:`GaussState` views built on access.  ``predictions[0]`` is the prior, kept whole.
    Both halves of ``predictions[i]`` come from knot ``i-1``, bit for bit as the solver forms
    them: the mean ``A(h) m``, which :meth:`append` derives (the loop's ``_step`` is handed the
    one it read f at), and the factor, rebuilt on access by the QR of :func:`predict_update`
    observing slot 1.
    """

    def __init__(self, prior: GaussState, start: GaussState):
        t, shape = start.t, start.factor.shape
        if not isfinite(t):
            raise ValueError(f"knot 0: time must be finite, got t={t}")
        if shape[1] < 2:
            raise ValueError(f"knot 0: the prior needs q >= 1, got a factor of shape {shape}")
        if prior.factor.shape != shape or prior.t != t:
            raise ValueError(f"knot 0: the prior (t={prior.t}, factor shape {prior.factor.shape})"
                             f" does not match the start (t={t}, factor shape {shape})")
        d, q1, _ = shape
        self.q, self.dim, self.smoothed, self._prior = q1 - 1, d, None, prior
        self.columns = _Columns(t=np.empty(0), h=np.empty(0), sigma2=np.empty((0, d)),
                                mean=np.empty((0, d * q1)), factor=np.empty((0,) + shape),
                                pred_mean=np.empty((0, d * q1)))
        k, c = self.columns.add(), self.columns.arrays
        c["t"][k], c["h"][k], c["sigma2"][k], c["pred_mean"][k] = t, nan, nan, prior.mean
        c["mean"][k], c["factor"][k] = start.mean, start.factor

    def __len__(self) -> int:
        return self.columns.n

    @property
    def knots(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def step_sizes(self) -> np.ndarray:
        return self.columns["h"][1:]

    @property
    def step_sigma2(self) -> np.ndarray:
        return self.columns["sigma2"][1:]

    @property
    def filtered(self) -> Sequence[GaussState]:
        c = self.columns
        t, mean, factor = c["t"], c["mean"], c["factor"]
        return _Rows(c.n, lambda i: _built(float(t[i]), mean[i], factor[i]))

    @property
    def predictions(self) -> Sequence[GaussState]:
        return _Rows(len(self), self._prediction)

    def _prediction(self, i: int) -> GaussState:
        if i == 0:
            return self._prior
        q, c = self.q, self.columns
        A, Q_sqrt, _ = _constants(q).transition(float(c["h"][i]))
        factor = _triangularize(_stacked(c["factor"][i - 1], A[1], Q_sqrt[1], c["sigma2"][i]))
        return _built(float(c["t"][i]), c["pred_mean"][i], factor.take(_pivot(q + 1, 1)[1], axis=1))

    def append(self, filtered: GaussState, h: float, sigma2):
        """Add the knot ``filtered`` after the last, checked here once, and drop the stale
        smoothed states.  Its ``t`` is finite and follows the last knot's, ``h`` (finite, > 0)
        and ``sigma2`` (one finite scale >= 0 per dimension) describe the incoming interval, and
        the state has the path's shape.  The predicted mean is ``A(h)`` times the last knot's
        mean, derived here as the solver derives it."""
        n, t = len(self), filtered.t
        if not isfinite(t):
            raise ValueError(f"knot {n}: time must be finite, got t={t}")
        if h is None or not 0.0 < h < inf:
            raise ValueError(f"knot {n} (t={t}): step size must be finite and > 0, got {h}")
        t_prev = float(self.knots[-1])
        if t <= t_prev:
            raise ValueError(f"knot {n}: knots must increase: {t} after {t_prev}")
        sigma2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
        if sigma2.shape != (self.dim,) or not np.all((sigma2 >= 0.0) & (sigma2 < np.inf)):
            raise ValueError(f"knot {n} (t={t}): expected {self.dim} "
                             f"finite diffusion scales >= 0, got {sigma2}")
        shape = self.columns.arrays["factor"].shape[1:]
        if filtered.factor.shape != shape:
            raise ValueError(f"knot {n} (t={t}): expected states with a factor of shape {shape}, "
                             f"got {filtered.factor.shape}")
        A = _constants(self.q).transition(h)[0]
        pred_mean = _matvec(A[0], self.columns["mean"][-1])
        self.smoothed = None
        k, c = self.columns.add(), self.columns.arrays
        c["t"][k], c["h"][k], c["sigma2"][k], c["pred_mean"][k] = t, h, sigma2, pred_mean
        c["mean"][k], c["factor"][k] = filtered.mean, filtered.factor

    def _step(self, t: float, h: float, sigma2: np.ndarray, pred_mean: np.ndarray, A: np.ndarray,
              Q_sqrt: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add the knot ``t``, a step ``h`` after the last, unchecked: from the last factor, the
        table's ``transition`` pair ``A``, ``Q_sqrt`` (both orders), the diffusions, predicted
        mean and residual, :func:`predict_update` writes and returns the row's mean and factor."""
        k, c = self.columns.add(), self.columns.arrays
        c["t"][k], c["h"][k], c["sigma2"][k], c["pred_mean"][k] = t, h, sigma2, pred_mean
        return predict_update(c["factor"][k - 1], A[1], Q_sqrt[1], sigma2, pred_mean, residual,
                              c["mean"][k], c["factor"][k])

    def _scale_diffusion(self, sigma2: np.ndarray):
        """Scale every diffusion by ``sigma2`` (one per dimension) and every filtered and
        prior covariance with it.  For a path filtered under one constant diffusion, whose
        gains, and so means, do not depend on its value."""
        scale = np.sqrt(sigma2)[:, None, None]
        self.columns["factor"][...] *= scale
        self.columns["sigma2"][1:] *= sigma2
        prior = self._prior
        self._prior = _built(prior.t, prior.mean, prior.factor * scale)


# A chunk of the backward pass holds at most this many (q+1)-square blocks, ``_CHUNK_BLOCKS
# // d`` intervals: its temporaries take about 1.2 KB per block at q=2, whatever the path's length.
_CHUNK_BLOCKS = 1024


def _chunks(n: int, d: int):
    """Interval ranges ``[lo, hi)`` covering ``n`` intervals of ``d`` blocks, newest first."""
    size = max(1, _CHUNK_BLOCKS // d)
    for hi in range(n, 0, -size):
        yield max(0, hi - size), hi


def _backward(factors: np.ndarray, steps: np.ndarray,
              sigma2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains and conditional factors of x_k (factor ``F``) given x_{k+1}.

    Works on a stack of N knots: ``factors`` of shape ``(N, d, q+1, m)``
    with ``m >= q+1`` (any factor, triangular or not), the ``steps`` h to
    the next knot, shape ``(N,)``, and diffusion scales ``sigma2`` of shape
    ``(N, d)``; both results have shape ``(N, d, q+1, q+1)``.  None of this
    depends on the smoothed successor, so a whole chunk of the path is built
    with one batched QR and one batched inverse.

    Each interval is worked in units of its step, ``S = diag(h^i)``: there
    the transition is ``A(1)`` and the noise factor ``h^(q+1/2) Q(1)^(1/2)``.
    One QR of the joint factor of (S x_{k+1}, S x_k),
    ``[[A(1) S F, sqrt(sigma2) h^(q+1/2) Q(1)^(1/2)], [S F, 0]]``, gives lower
    triangular blocks ``[[L11, 0], [L21, L22]]``: the gain is
    ``S^-1 L21 L11^+ S`` and ``S^-1 L22`` factors the covariance of x_k given
    x_{k+1}.  ``L11`` needs no equilibration in these units; a block with an
    ``|L11_ii|`` at most 1e-12 times row i's norm (no diffusion), or subnormal,
    takes ``pinv``, the rest :func:`_inv`.  An interval's knot-to-knot kernel is :func:`_rts_step`.
    """
    N, d, n, m = factors.shape
    c = _constants(n - 1)
    powers = steps[:, None] ** np.arange(n)
    joint = np.empty((N, d, 2 * n, m + n))
    scaled = np.multiply(powers[:, None, :, None], factors, out=joint[..., n:, :m])
    np.matmul(c.a_unit, scaled, out=joint[..., :n, :m])
    noise = np.sqrt(sigma2) * (powers[:, -1] * np.sqrt(steps))[:, None]  # sqrt(sigma2) h^(q+1/2)
    np.multiply(noise[..., None, None], c.qbar_sqrt, out=joint[..., :n, m:])
    joint[..., n:, m:] = 0.0
    L = _triangularize(joint)
    L11 = L[..., :n, :n]
    # np.linalg.norm(L11, axis=-1) as numpy computes it; a subnormal diagonal takes pinv too.
    bound = np.maximum(1e-12 * np.sqrt(np.add.reduce(L11 * L11, axis=-1)), _TINY)
    flagged = abs(L11.diagonal(0, -2, -1)) <= bound
    if flagged.any():
        singular = flagged.any(axis=-1)
        inv = np.empty_like(L11)
        inv[singular] = np.linalg.pinv(L11[singular])
        inv[~singular] = _inv(L11[~singular])
    else:
        inv = _inv(L11)
    back = (1.0 / powers)[:, None, :, None]
    return back * (L[..., n:, :n] @ inv) * powers[:, None, None, :], back * L[..., n:, n:]


def _backward_chunks(path: SolutionPath):
    """``(lo, G, cond)`` of :func:`_backward` for the intervals ``[lo, lo + len(G))``
    of ``path``, one chunk at a time from the end of the path."""
    steps, sigma2, factors = path.step_sizes, path.step_sigma2, path.columns["factor"]
    for lo, hi in _chunks(len(steps), path.dim):
        yield lo, *_backward(factors[lo:hi], steps[lo:hi], sigma2[lo:hi])


def _rts_step(G: np.ndarray, cond: np.ndarray, mean: np.ndarray, pred_mean_next: np.ndarray,
              mean_next: np.ndarray, factor_next: np.ndarray, out_mean=None, out_factor=None, joint=None):
    """Smoothed mean and factor (to ``out_mean``, ``out_factor`` if given) from the backward gain
    and conditional factor, the filtered or predicted ``mean`` and the smoothed state one interval
    later, means as ``(d, q+1, 1)`` block columns: the factor is the QR of ``[G F_next, cond]``,
    built in ``joint``, a ``(d, q+1, 2(q+1))`` buffer a loop over knots reuses."""
    n = G.shape[-1]
    joint = np.empty(G.shape[:-1] + (2 * n,)) if joint is None else joint
    np.matmul(G, factor_next, out=joint[..., :n])
    joint[..., n:] = cond
    return (np.add(mean, G @ (mean_next - pred_mean_next), out=out_mean),
            _triangularize(joint, out_factor))


def _block_columns(path: SolutionPath, *means: np.ndarray) -> list[np.ndarray]:
    """Views of flat block vectors as ``(..., d, q+1, 1)`` block columns."""
    return [m.reshape(m.shape[:-1] + (path.dim, path.q + 1, 1)) for m in means]


def smooth(path: SolutionPath) -> SolutionPath:
    """Backward RTS pass filling ``path.smoothed``; idempotent, linear cost, and no new
    right-hand-side evaluations.  The smoothed means and factors are two arrays of the path's
    length, written once; the last knot's smoothed state equals its filtered state exactly."""
    if path.smoothed is not None:
        return path
    c = path.columns
    t, mean, factor = c["t"], c["mean"].copy(), c["factor"].copy()
    filt, pred, sm = _block_columns(path, c["mean"], c["pred_mean"], mean)
    joint = np.empty(factor.shape[1:-1] + (2 * factor.shape[-1],))  # reused by every knot
    for lo, G, cond in _backward_chunks(path):
        for i in range(lo + len(G) - 1, lo - 1, -1):
            _rts_step(G[i - lo], cond[i - lo], filt[i], pred[i + 1], sm[i + 1], factor[i + 1],
                      sm[i], factor[i], joint)
    path.smoothed = _Rows(len(t), lambda i: _built(float(t[i]), mean[i], factor[i]))
    return path


def sample_posterior(path: SolutionPath, seed: int, count: int) -> np.ndarray:
    """Joint posterior trajectories over the knots by backward sampling, deterministic for a
    fixed seed (an integer >= 0): an array of shape ``(count, n_knots, state_size)``."""
    count, seed = _check_int("count", count), _check_int("seed", seed, low=0)
    rng = np.random.default_rng(seed)
    out = np.empty((count, len(path), path.dim * (path.q + 1)))
    filt, pred, draws = _block_columns(path, path.columns["mean"], path.columns["pred_mean"], out)
    step, last = np.empty_like(draws[:, 0]), path.filtered[-1]  # = the smoothed last knot
    draws[:, -1] = last.mean.reshape(step.shape[1:]) + last.factor @ rng.standard_normal(step.shape)
    for lo, G, cond in _backward_chunks(path):
        # One draw per chunk, newest knot first: the same stream as one draw per knot.
        offsets = cond[:, None] @ rng.standard_normal((len(G),) + step.shape)[::-1]
        for i in range(lo + len(G) - 1, lo - 1, -1):  # filt + G (draw - pred) + offset, in order
            np.matmul(G[i - lo], draws[:, i + 1] - pred[i + 1], out=step)
            step += filt[i]
            np.add(step, offsets[i - lo], out=draws[:, i])
    return out


def interpolate(path: SolutionPath, t: float, allow_extrapolation: bool = False) -> GaussState:
    """Smoothed posterior at an arbitrary time, on or off the mesh.

    At a knot this returns the smoothed state there.  Inside an interval it
    conditions the prior bridge on the filtered state at the left knot and
    the smoothed state at the right knot, so the result agrees with the knot
    states in the limits and is continuous in ``t``.  The bridge is one
    :func:`_backward` (one QR, one inverse) and one :func:`_rts_step` (one
    QR): the state at ``t`` enters it as its untriangularized factor ``[A F,
    sqrt(sigma2) Q^(1/2)]``, triangularized first in the first interval,
    whose left knot holds the prior's scale.  Times outside the solved span
    raise unless ``allow_extrapolation`` is set, in which case the state is
    predicted forward from the last knot.
    """
    smooth(path)
    knots = path.knots
    t = float(t)
    if not isfinite(t):
        raise ValueError(f"t must be finite, got t={t}")
    tol = 4.0 * _EPS * max(1.0, abs(t))
    right = int(np.searchsorted(knots, t))
    for k in (right - 1, right):
        if 0 <= k < len(knots) and abs(knots[k] - t) <= tol:
            return path.smoothed[k]
    if t < knots[0]:
        raise ValueError(f"t={t} precedes the first knot {knots[0]}")
    if t > knots[-1]:
        if not allow_extrapolation:
            raise ValueError(f"t={t} is past the last knot {knots[-1]}; "
                             "pass allow_extrapolation=True to predict forward")
        sig = path.step_sigma2[-1] if len(path) > 1 else None
        return predict(path.smoothed[-1], t - float(knots[-1]), sig)

    i = right - 1
    c, q = path.columns, path.q
    A, Q_sqrt, _ = _constants(q).transition(t - float(knots[i]))
    A_fwd, sigma2 = A[0], c["sigma2"][i + 1]
    at_t = _stacked(c["factor"][i], A_fwd, Q_sqrt[0], sigma2)
    if i == 0:
        # Knot 0 is the prior conditioned on y(t0) and y'(t0) alone; fed to the
        # backward QR untriangularized, a diffuse prior's 1e6 entries there
        # cost up to four digits.  Later knots lose nothing untriangularized.
        at_t = _triangularize(at_t)
    G, cond = _backward(at_t[None], np.array([float(knots[i + 1]) - t]), sigma2[None])
    after = path.smoothed[i + 1]
    mean, pred_next, mean_next = _block_columns(path, c["mean"][i], c["pred_mean"][i + 1], after.mean)
    mean, factor = _rts_step(G[0], cond[0], A_fwd @ mean, pred_next, mean_next, after.factor)
    return _built(t, mean.reshape(-1), factor)
