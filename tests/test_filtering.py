from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.linalg import block_diag

from odefilter import (
    GaussState,
    IvpProblem,
    SolverConfig,
    discrete_transition,
    get_problem,
    interpolate,
    make_iwp,
    predict,
    sample_posterior,
    smooth,
    solve,
    update,
)
from odefilter import filtering, priors
from odefilter.filtering import SolutionPath
from transition_oracle import loop_q


def _rand_factor(rng, n):
    """Factor stack of one random positive definite block."""
    m = rng.standard_normal((n, n))
    return np.linalg.cholesky(m @ m.T + 1e-10 * np.eye(n))[None]


def _assert_same_state(got, want):
    """The same time and bitwise equal arrays; states are views built on access."""
    assert got.t == want.t
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.factor, want.factor)


def _diag(blocks):
    """Diagonal of a block-stacked covariance, flat like the mean."""
    return np.diagonal(blocks, axis1=1, axis2=2).reshape(-1)


class TestPredict:
    def test_zero_state_gets_q(self):
        out = predict(GaussState(0.0, np.zeros(3), np.zeros((1, 3, 3))), 0.4)
        assert np.array_equal(out.mean, np.zeros(3))
        np.testing.assert_allclose(out.cov[0], loop_q(2, 0.4), atol=1e-16)
        assert out.t == 0.4

    def test_hand_mean_product(self):
        out = predict(GaussState(0.0, np.array([0.1, 0.27]), np.zeros((1, 2, 2))), 0.3)
        np.testing.assert_allclose(out.mean, [0.181, 0.27], rtol=1e-15)

    def test_two_small_steps_equal_one_big(self):
        rng = np.random.default_rng(3)
        state = GaussState(0.0, rng.standard_normal(3), _rand_factor(rng, 3))
        via_two = predict(predict(state, 0.2), 0.2)
        via_one = predict(state, 0.4)
        np.testing.assert_allclose(via_two.mean, via_one.mean, atol=1e-12)
        np.testing.assert_allclose(via_two.cov, via_one.cov, atol=1e-12)

    def test_multidimensional_blocks(self):
        state = GaussState(0.0, np.array([1.0, 0.0, 2.0, 0.0]), np.zeros((2, 2, 2)))
        out = predict(state, 0.5, np.array([1.0, 4.0]))
        np.testing.assert_allclose(out.cov[0], loop_q(1, 0.5))
        np.testing.assert_allclose(out.cov[1], 4.0 * loop_q(1, 0.5))

    @pytest.mark.parametrize("sigma2", [[1.0], [1.0, -1.0], [1.0, np.inf], [1.0, np.nan]])
    def test_diffusion_scales_validated(self, sigma2):
        state = GaussState(0.0, np.zeros(4), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            predict(state, 0.5, sigma2)


class TestUpdate:
    def _predicted(self, h=0.3):
        return predict(GaussState(0.0, np.array([0.1, 0.27]), np.zeros((1, 2, 2))), h)

    def test_zero_residual_keeps_mean_shrinks_cov(self):
        pred = self._predicted()
        out, resid = update(pred, [0.27], 1)
        assert resid[0] == 0.0
        np.testing.assert_allclose(out.mean, pred.mean, atol=1e-16)
        assert out.cov[0, 1, 1] < pred.cov[0, 1, 1]

    def test_logistic_hand_value(self):
        # One step of size 0.3 from the exactly-known start of the logistic
        # problem; updating on z = f(0.181) = 0.444717 lands on the
        # trapezoid value 0.181 + 0.15 * (0.444717 - 0.27).
        pred = self._predicted()
        z = 3 * 0.181 * (1 - 0.181)
        assert z == pytest.approx(0.444717, abs=1e-9)
        out, _ = update(pred, [z], 1)
        assert out.mean[0] == pytest.approx(0.20720755, abs=1e-10)
        assert out.cov[0, 0, 0] == pytest.approx(0.3**3 / 12, rel=1e-12)

    def test_exact_observation_is_interpolated(self):
        rng = np.random.default_rng(7)
        state = GaussState(0.0, rng.standard_normal(3), _rand_factor(rng, 3))
        out, _ = update(state, [1.23], 1)
        assert out.mean[1] == pytest.approx(1.23, abs=1e-14)
        assert abs(out.cov[0, 1, 1]) <= 1e-12 * np.max(np.abs(state.cov))

    def test_repeated_update_idempotent(self):
        rng = np.random.default_rng(11)
        state = GaussState(0.0, rng.standard_normal(3), _rand_factor(rng, 3))
        once, _ = update(state, [0.5], 1)
        twice, _ = update(once, [0.5], 1)
        np.testing.assert_allclose(twice.mean, once.mean, atol=1e-12)
        np.testing.assert_allclose(twice.cov, once.cov, atol=1e-12)

    def test_degenerate_direction_skipped(self):
        # Fully-known state: no innovation variance, update is a no-op.
        state = GaussState(0.0, np.array([1.0, 2.0]), np.zeros((1, 2, 2)))
        out, resid = update(state, [5.0], 1)
        np.testing.assert_array_equal(out.mean, state.mean)
        assert resid[0] == 3.0

    def test_tiny_scale_block_is_not_degenerate(self):
        # Only an exactly zero innovation variance is degenerate, so a block
        # whose variances all sit far below 1 is still conditioned.
        cov = np.array([[[4e-17, 0.0], [0.0, 1e-18]], [[1.0, 0.0], [0.0, 1.0]]])
        state = GaussState(0.0, np.zeros(4), np.sqrt(cov))
        out, _ = update(state, [0.1, 0.2], 0)
        np.testing.assert_array_equal(out.mean, [0.1, 0.0, 0.2, 0.0])
        assert out.cov[0, 0, 0] == 0.0 and out.cov[0, 1, 1] == 1e-18

    def test_dimension_checks(self):
        state = GaussState(0.0, np.zeros(3), np.zeros((1, 3, 3)))
        with pytest.raises(ValueError):
            update(state, [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            update(state, [1.0], 5)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_dense_reference_at_every_slot(self, q, d):
        # The dense update of the oracle tests below.  update() pivots the read slot's
        # row first and back; slot 1's pivot undoes itself, so only a slot of 2 or more
        # shows an un-pivot written as the pivot.
        q1 = q + 1
        rng = np.random.default_rng(100 * q + d)
        for i in range(q1):
            factor, _ = _update_blocks(rng, q1, d)
            if d == 3:
                factor[2, i] = 0.0  # block 2 already knows slot i: innovation variance 0
            state = GaussState(0.3, rng.standard_normal(d * q1), factor)
            z = rng.standard_normal(d)
            filt, residual = update(state, z, i)
            assert np.array_equal(residual, z - state.mean[i::q1])
            m_ref, c_ref = _dense_update(state.mean, block_diag(*state.cov), z, q1, i)
            _assert_rel(filt.mean, m_ref)
            _assert_rel(block_diag(*filt.cov), c_ref)
            # The state as update re-triangularizes it, rows back in slot order.
            order, back = priors._pivot(q1, i)
            kept = GaussState(0.3, state.mean,
                              filtering._triangularize(factor.take(order, axis=1)).take(back, axis=1))
            _assert_conditioned(filt, kept, z, i, known={2} if d == 3 else set())


def _logistic_path(h=0.3, q=2):
    problem = get_problem("logistic")
    cfg = SolverConfig(q=q, fixed_step=h, sigma_mode="global_ml")
    return solve(problem, cfg).path


class TestSolutionPath:
    def _one_knot(self):
        path = SolutionPath(model=make_iwp(1, 1))
        state = GaussState(0.5, np.array([1.0, 0.0]), np.eye(2)[None])
        path.append(state, state, None)
        return path, state

    def test_interior_knot_needs_step(self):
        path, state = self._one_knot()
        later = GaussState(1.0, state.mean, state.factor)
        with pytest.raises(ValueError, match="incoming step size"):
            path.append(later, later, None, [1.0])
        assert len(path) == 1

    @pytest.mark.parametrize("t", [0.5, 0.25])
    def test_knots_must_increase(self, t):
        path, state = self._one_knot()
        other = GaussState(t, state.mean, state.factor)
        with pytest.raises(ValueError, match="knots must increase"):
            path.append(other, other, 0.5, [1.0])
        assert len(path) == 1

    @pytest.mark.parametrize("h", [-0.5, np.nan, np.inf])
    def test_bad_step_names_the_knot(self, h):
        path = SolutionPath(model=make_iwp(1, 1))
        state = GaussState(0.5, np.array([1.0, 0.0]), np.eye(2)[None])
        with pytest.raises(ValueError, match=r"knot 0 \(t=0.5\): step size"):
            path.append(state, state, h)
        path.append(state, state, None)
        later = GaussState(1.0, state.mean, state.factor)
        with pytest.raises(ValueError, match=r"knot 1 \(t=1.0\): step size"):
            path.append(later, later, h, [1.0])
        assert len(path) == 1

    def test_non_finite_time_names_the_knot(self):
        path = SolutionPath(model=make_iwp(1, 1))
        state = GaussState(np.nan, np.array([1.0, 0.0]), np.eye(2)[None])
        with pytest.raises(ValueError, match="knot 0: time must be finite"):
            path.append(state, state, None)
        path, first = self._one_knot()
        later = GaussState(np.nan, first.mean, first.factor)
        with pytest.raises(ValueError, match="knot 1: time must be finite"):
            path.append(later, later, 0.5, [1.0])
        assert len(path) == 1


class TestPathViews:
    @pytest.mark.parametrize("config", [SolverConfig(q=2, eps=1e-3),
                                        SolverConfig(q=3, eps=1e-3, init_mode="diffuse_filter")])
    def test_predictions_bitwise_equal_to_the_kernels(self, config):
        # No predicted factor is stored.  An accepted step conditions the
        # predicted factor, whose derivative row is (r, 0, ..., 0), by
        # zeroing its first column and adding that column over r times the
        # residual to the mean; the rebuilt predictions must reproduce both
        # knots' numbers bit for bit.
        problem = get_problem("vdp")  # autonomous: the reading needs no time
        path, q1 = solve(problem, config).path, config.q + 1
        assert len(path.predictions) == len(path) > 10
        for filt, pred in zip(path.filtered[1:], path.predictions[1:]):
            assert pred.t == filt.t
            assert np.all(pred.factor[:, 1, 1:] == 0.0) and np.all(pred.factor[:, 1, 0] != 0.0)
            zeroed = pred.factor.copy()
            zeroed[:, :, 0] = 0.0
            assert filt.factor.tobytes() == zeroed.tobytes()
            residual = problem.rhs(pred.t, pred.mean[0::q1]) - pred.mean[1::q1]
            gain = pred.factor[:, :, 0] / pred.factor[:, 1, :1]
            gain[:, 1] = 1.0
            want = pred.mean.reshape(-1, q1) + gain * residual[:, None]
            assert filt.mean.tobytes() == want.reshape(-1).tobytes()

    def test_global_ml_predictions_are_the_scaled_unit_ones(self, monkeypatch):
        # Under global_ml the loop filters with unit diffusion; the whole-run
        # estimate then scales the filtered factors and the diffusions the
        # predictions are rebuilt from.  The reference is each accepted
        # step's unit-diffusion factors, recorded as the kernel returns them.
        recorded, kernel = [], filtering.predict_update

        def recording(factor, *args):
            mean, filtered = kernel(factor, *args)
            recorded.append((factor.copy(), filtered.copy()))
            return mean, filtered

        monkeypatch.setattr(filtering, "predict_update", recording)
        config = SolverConfig(q=2, fixed_step=0.02, sigma_mode="global_ml")
        result = solve(get_problem("vdp"), config)
        path, sigma2 = result.path, result.sigma2_trace[0]
        assert np.all(result.sigma2_trace == sigma2) and np.all(sigma2 != 1.0)
        assert len(recorded) == len(path) - 1 > 10
        scale = np.sqrt(sigma2)[:, None, None]
        for i, (unit_before, unit_after) in enumerate(recorded, start=1):
            assert np.array_equal(path.filtered[i].factor, scale * unit_after)
            before = GaussState(path.knots[i - 1], path.filtered[i - 1].mean, unit_before)
            want = sigma2[:, None, None] * predict(before, path.step_sizes[i - 1]).cov
            got = path.predictions[i]
            assert np.array_equal(got.mean, path.columns["pred_mean"][i])
            assert np.max(np.abs(got.cov - want)) <= 1e-14 * np.max(np.abs(want))

    def test_indexing_slicing_and_iteration(self):
        path = smooth(_logistic_path())
        n = len(path)
        views = {"filtered": path.filtered, "predictions": path.predictions,
                 "smoothed": path.smoothed}
        for name, view in views.items():
            assert len(view) == n, name
            items = list(view)
            assert len(items) == n
            for i in (0, 1, n - 1, -1, -n):
                _assert_same_state(view[i], items[i])
            for got, want in zip(view[1:-1:2], items[1:-1:2]):
                _assert_same_state(got, want)
            assert len(view[1:-1:2]) == len(items[1:-1:2]) > 0
            assert len(view + [None]) == n + 1
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[i]
        assert np.array_equal(path.knots, [s.t for s in path.filtered])
        assert path.step_sizes.shape == (n - 1,) and path.step_sigma2.shape == (n - 1, 1)
        np.testing.assert_allclose(path.step_sizes, np.diff(path.knots), rtol=1e-14)

    def test_states_view_the_columns(self):
        # Cheap views, not copies: a state reads the path's own rows.
        path = smooth(_logistic_path())
        state = path.filtered[3]
        assert np.shares_memory(state.mean, path.columns["mean"])
        assert np.shares_memory(state.factor, path.columns["factor"])
        assert path.smoothed[3].factor.base is path.smoothed[4].factor.base is not None


def _wrapper_triangularize(M):
    """``_triangularize`` through numpy's ``linalg.qr`` wrapper, the form it calls around."""
    n = M.shape[-2]
    return np.linalg.qr(M.swapaxes(-1, -2), mode="raw")[0][..., :n] * np.tri(n)


class TestTriangularize:
    """The direct LAPACK call equals numpy's QR wrapper bit for bit, so a numpy
    release that changes the gufunc fails here instead of drifting silently."""

    @staticmethod
    def _assert_wrapper_bits(M):
        before = M.copy()
        got, want = filtering._triangularize(M), _wrapper_triangularize(M)
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert M.tobytes() == before.tobytes()  # the input is left as it was

    @pytest.mark.parametrize("d", [1, 2, 128])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_step_stacks(self, q, d):
        # [A F, sqrt(sigma2) Q^(1/2)] of an accepted step: (d, q+1, 2(q+1)).
        self._assert_wrapper_bits(np.random.default_rng(q * d).standard_normal((d, q + 1, 2 * q + 2)))

    def test_backward_joint(self):
        # _backward's 4-D joint (N, d, 2n, m + n), with its zero block.
        joint = np.random.default_rng(1).standard_normal((5, 2, 6, 6))
        joint[..., 3:, 3:] = 0.0
        self._assert_wrapper_bits(joint)

    def test_non_contiguous_inputs(self):
        M = np.random.default_rng(2).standard_normal((4, 3, 8))
        taken = M.take([1, 0, 2], axis=1)
        sliced = M[::2, :, 1:7]
        assert not sliced.flags.c_contiguous
        self._assert_wrapper_bits(taken)
        self._assert_wrapper_bits(sliced)
        self._assert_wrapper_bits(M[..., :3].swapaxes(-1, -2))

    def test_zero_block_and_huge_entries(self):
        # A block exactly 0 (the r == 0 dead block) next to a live one, and
        # entries near 1e150, whose squares LAPACK's scaled norms absorb.
        M = np.random.default_rng(3).standard_normal((3, 3, 6))
        M[0] = 0.0
        M[2] *= 1e150
        self._assert_wrapper_bits(M)
        assert not filtering._triangularize(M)[0].any()


def _norm_flags(L11):
    """Per-block singular flags of ``L11`` in the ``np.linalg.norm`` form."""
    diag = np.abs(np.diagonal(L11, axis1=-2, axis2=-1))
    return np.any(diag <= 1e-12 * np.linalg.norm(L11, axis=-1), axis=-1)


def _wrapper_backward(factors, steps, sigma2):
    """``_backward`` with numpy's ``linalg.inv`` and ``linalg.norm`` wrappers and its joint
    built by ``np.zeros`` and temporaries: the form the kernel equals bit for bit."""
    N, d, n, m = factors.shape
    c = priors._constants(n - 1)
    powers = steps[:, None] ** np.arange(n)
    scaled = powers[:, None, :, None] * factors
    joint = np.zeros((N, d, 2 * n, m + n))
    joint[..., :n, :m] = c.a_unit @ scaled
    noise = np.sqrt(sigma2) * (powers[:, -1] * np.sqrt(steps))[:, None]
    joint[..., :n, m:] = noise[..., None, None] * c.qbar_sqrt
    joint[..., n:, :m] = scaled
    L = filtering._triangularize(joint)
    L11 = L[..., :n, :n]
    singular = _norm_flags(L11)
    if singular.any():
        inv = np.empty_like(L11)
        inv[singular] = np.linalg.pinv(L11[singular])
        inv[~singular] = np.linalg.inv(L11[~singular])
    else:
        inv = np.linalg.inv(L11)
    back = (1.0 / powers)[:, None, :, None]
    return back * (L[..., n:, :n] @ inv) * powers[:, None, None, :], back * L[..., n:, n:]


def _backward_inputs(rng, N, d, q, m):
    """Factors ``(N, d, q+1, m)``, steps and diffusion scales spread over decades."""
    factors = rng.standard_normal((N, d, q + 1, m))
    return factors, 10.0 ** rng.uniform(-4, 0, N), 10.0 ** rng.uniform(-6, 2, (N, d))


class TestBackwardInverse:
    """``_backward`` calls the inverse gufunc without numpy's wrapper and tests for
    singular blocks without ``np.linalg.norm``: the same bits, the same ``pinv``
    routing, and the wrapper's ``LinAlgError`` where LU breaks down."""

    @staticmethod
    def _assert_wrapper_bits(factors, steps, sigma2):
        got = filtering._backward(factors, steps, sigma2)
        for g, w in zip(got, _wrapper_backward(factors, steps, sigma2)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("N", [1, 512])
    @pytest.mark.parametrize("d", [1, 2, 64])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_equals_the_wrapper_form(self, q, d, N):
        # N=1 is an interpolate call, whose factor is [A F, Q^(1/2)] (m = 2(q+1));
        # N=512 a smoothing chunk of filtered factors (m = q+1).
        rng = np.random.default_rng(1000 * q + 10 * d + N)
        self._assert_wrapper_bits(*_backward_inputs(rng, N, d, q, 2 * q + 2 if N == 1 else q + 1))

    @staticmethod
    def _pinv_inputs(monkeypatch) -> list:
        seen, pinv = [], np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: seen.append(a.copy()) or pinv(a))
        return seen

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_mixed_and_fully_singular_stacks(self, q, monkeypatch):
        # Zero-diffusion blocks next to live ones: with a zero factor, L11 is 0 and takes
        # pinv; with the observed row lost, L11 is singular up to rounding and the 1e-12
        # test routes it.  Then a stack of zero blocks only, which leaves inv none.
        factors, steps, sigma2 = _backward_inputs(np.random.default_rng(q), 16, 3, q, q + 1)
        zero, lost = np.zeros((2, 16, 3), dtype=bool)
        zero[::3, 1] = lost[5, :] = True
        factors[zero] = 0.0
        factors[lost, 1] = 0.0
        sigma2[zero | lost] = 0.0
        seen = self._pinv_inputs(monkeypatch)
        self._assert_wrapper_bits(factors, steps, sigma2)
        self._assert_wrapper_bits(np.zeros_like(factors), steps, np.zeros_like(sigma2))
        # The kernel (first) and the wrapper form hand pinv the same blocks.
        assert len(seen) == 4 and seen[0].tobytes() == seen[1].tobytes()
        assert zero.sum() <= len(seen[0]) < zero.size
        assert len(seen[2]) == len(seen[3]) == zero.size

    @staticmethod
    def _routed(monkeypatch, L, seen):
        """The L11 blocks ``_backward`` hands to ``pinv`` when its QR gives ``L``."""
        N, d, n2, _ = L.shape
        monkeypatch.setattr(filtering, "_triangularize", lambda M: L)
        filtering._backward(np.zeros((N, d, n2 // 2, n2 // 2)), np.ones(N), np.ones((N, d)))
        return seen[-1] if seen else None

    def _assert_norm_routing(self, monkeypatch, L):
        seen = self._pinv_inputs(monkeypatch)
        L11 = L[..., : L.shape[-1] // 2, : L.shape[-1] // 2]
        flags = _norm_flags(L11)
        got = self._routed(monkeypatch, L, seen)
        if flags.any():
            assert len(seen) == 1 and got.tobytes() == L11[flags].tobytes()
        else:
            assert not seen

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_test_flags_random_blocks_as_the_norm_form(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        L = np.tril(rng.standard_normal((64, 2, 6, 6)))
        shrink = rng.random((64, 2, 6)) < 0.1  # some diagonal entries near or past 1e-12
        idx = np.nonzero(shrink)
        L[idx + (idx[2],)] *= 10.0 ** -rng.uniform(8, 16, len(idx[0]))
        assert 0 < _norm_flags(L[..., :3, :3]).sum() < 128  # both routes
        self._assert_norm_routing(monkeypatch, L)

    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_singular_test_flags_boundary_blocks_as_the_norm_form(self, ulps, monkeypatch):
        # Row i's diagonal set to 1e-12 times its row norm, then moved by a few ulps:
        # both forms must put every such block on the same side.  (Row 0's norm is its
        # diagonal's size, so only an exact 0 flags it.)
        rng = np.random.default_rng(7)
        L = np.tril(rng.standard_normal((40, 1, 6, 6)))
        for k in range(40):
            i = 1 + k % 2
            row = L[k, 0, i, :3]
            row[i] = 1e-12 * np.linalg.norm(row[:i])
            row[i] = 1e-12 * np.linalg.norm(row)
            for _ in range(abs(ulps)):
                row[i] = np.nextafter(row[i], np.inf if ulps > 0 else 0.0)
            row[i] *= -1.0 if k % 2 else 1.0
        assert _norm_flags(L[..., :3, :3]).sum() == (40 if ulps <= 0 else 0)
        self._assert_norm_routing(monkeypatch, L)

    def test_lu_breakdown_raises_linalg_error(self, monkeypatch):
        # LU underflows on this block: the wrapper raises, the bare gufunc only warns.
        # It passes the 1e-12 test alone (its row-0 threshold underflows to 0), so
        # _backward's floor at the smallest normal float routes it to pinv instead.
        block = np.array([[1e-320, 0.0, 0.0], [1.0, 1e-5, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(block)
        with pytest.warns(RuntimeWarning):
            filtering._inv_raw(block, signature="d->d")
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            filtering._inv(block[None])
        L = np.zeros((1, 1, 6, 6))
        L[0, 0, :3, :3] = block
        assert not _norm_flags(L[..., :3, :3]).any()
        seen = self._pinv_inputs(monkeypatch)
        assert self._routed(monkeypatch, L, seen).tobytes() == block[None].tobytes()
        assert np.geterr() == before

    @pytest.mark.parametrize("block", [
        [[5e-324, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
        [[1e-320, 0.0, 0.0], [1.0, 1e-5, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [1e-300, 1e-310, 0.0], [0.0, 1.0, 1.0]],
    ], ids=["row0", "lu_breakdown", "row1"])
    def test_subnormal_diagonal_takes_pinv(self, block, monkeypatch):
        # A row whose squares underflow has a norm of 0, so 1e-12 times it flags no
        # subnormal diagonal; the floor at the smallest normal float sends each such
        # block, and only it, to pinv, and the gain and conditional factor are finite.
        L = np.tril(np.random.default_rng(5).standard_normal((1, 2, 6, 6)))
        L[0, 0, :3, :3] = block
        seen = self._pinv_inputs(monkeypatch)
        monkeypatch.setattr(filtering, "_triangularize", lambda M: L)
        G, cond = filtering._backward(np.zeros((1, 2, 3, 3)), np.ones(1), np.ones((1, 2)))
        assert len(seen) == 1 and seen[0].tobytes() == np.array([block]).tobytes()
        assert np.isfinite(G).all() and np.isfinite(cond).all()


class TestPosteriorQrCounts:
    """Every QR of the posterior reads goes through ``_triangularize``: a smoothed knot
    takes one, a chunk of the backward pass one, an off-mesh interpolate two."""

    @staticmethod
    def _count_qr(monkeypatch) -> dict:
        counts, qr = {"qr": 0}, filtering._triangularize

        def counting_qr(*args, **kwargs):
            counts["qr"] += 1
            return qr(*args, **kwargs)

        monkeypatch.setattr(filtering, "_triangularize", counting_qr)
        return counts

    @pytest.fixture
    def chunked(self, monkeypatch):
        # A vdp path (d=2) cut into chunks of 4 intervals, and its chunk count.
        monkeypatch.setattr(filtering, "_CHUNK_BLOCKS", 8)
        path = solve(get_problem("vdp"), SolverConfig(q=2, eps=1e-2)).path
        n = len(path.step_sizes)
        chunks = len(list(filtering._chunks(n, path.model.dim)))
        assert chunks > 10
        return path, n, chunks

    def test_smooth_one_qr_per_interval_and_per_chunk(self, chunked, monkeypatch):
        path, n, chunks = chunked
        counts = self._count_qr(monkeypatch)
        smooth(path)
        assert counts["qr"] == n + chunks

    def test_sample_posterior_one_qr_per_chunk(self, chunked, monkeypatch):
        path, n, chunks = chunked
        smooth(path)
        counts = self._count_qr(monkeypatch)
        sample_posterior(path, seed=0, count=3)
        assert counts["qr"] == chunks

    def test_interpolate_two_qrs_three_in_interval_zero(self, chunked, monkeypatch):
        path, n, chunks = chunked
        smooth(path)
        counts = self._count_qr(monkeypatch)
        knots = path.knots
        for i, want in ((0, 3), (1, 2), (n // 2, 2), (n - 1, 2)):
            counts["qr"] = 0
            interpolate(path, 0.5 * (knots[i] + knots[i + 1]))
            assert counts["qr"] == want, i
        counts["qr"] = 0
        interpolate(path, knots[3])  # a knot: the stored smoothed state, no QR
        assert counts["qr"] == 0


class TestDeadBlocks:
    """A block whose innovation variance is exactly 0 inside a solve: the kernel
    guards it on every step, next to a live block, with no second code path."""

    @staticmethod
    def _problem():
        # y1' = 1 with y1(0) = 0: the pinned slope makes every residual 0, so
        # block 0's diffusion is 0 and, once its derivative is read, it is known.
        return IvpProblem("dead_and_live", 2, 0.0, 2.0, np.array([0.0, 1.0]),
                          lambda t, y: np.array([1.0, -y[1]]))

    @pytest.mark.parametrize("config", [SolverConfig(q=1, fixed_step=0.05),
                                        SolverConfig(q=2, eps=1e-4)], ids=["q1_fixed", "q2_adaptive"])
    def test_dead_block_keeps_its_prediction_and_live_block_is_conditioned(self, config):
        problem = self._problem()
        result = solve(problem, config)
        path, q1 = result.path, config.q + 1
        assert len(path) > 10 and result.steps_accepted == len(path) - 1
        assert np.all(result.sigma2_trace[:, 0] == 0.0) and np.all(result.sigma2_trace[:, 1] > 0.0)
        # Block 0's factor is exactly 0 from knot 0 at q=1.  At q=2 the first
        # step's QR leaves round-off of 1e-17 in it, which the second clears.
        known = [not f.factor[0].any() for f in path.filtered]
        dead_from = known.index(True) + 1
        assert dead_from == (1 if config.q == 1 else 3) and all(known[dead_from - 1:])
        for i in range(1, len(path)):
            pred, filt = path.predictions[i], path.filtered[i]
            if i >= dead_from:
                # Block 0: its derivative row (r, 0, ..., 0) has r == 0, and the
                # update leaves the block as it was predicted, bit for bit.
                assert not pred.factor[0].any()
                assert filt.factor[0].tobytes() == pred.factor[0].tobytes()
                assert filt.mean[:q1].tobytes() == pred.mean[:q1].tobytes()
            # Block 1 is live: conditioned by hand as in TestPathViews, bit for bit.
            r = pred.factor[1, 1, 0]
            assert r != 0.0 and np.all(pred.factor[1, 1, 1:] == 0.0)
            zeroed = pred.factor[1].copy()
            zeroed[:, 0] = 0.0
            assert filt.factor[1].tobytes() == zeroed.tobytes()
            residual = problem.rhs(pred.t, pred.mean[0::q1])[1] - pred.mean[q1 + 1]
            gain = pred.factor[1, :, 0] / r
            gain[1] = 1.0
            assert filt.mean[q1:].tobytes() == (pred.mean[q1:] + gain * residual).tobytes()


class TestColumns:
    @staticmethod
    def _columns():
        return filtering._Columns(t=np.empty(0), v=np.empty((0, 2)), m=np.empty((0, 2, 3)),
                                  ok=np.empty(0, dtype=bool))

    @staticmethod
    def _row(k):
        return dict(t=k / 7.0, v=np.array([k, -k / 3.0]), m=np.arange(6.0).reshape(2, 3) * k / 11.0,
                    ok=k % 3 == 0)

    @classmethod
    def _add(cls, cols, k):
        """Count in a row, then write row ``k``'s values into it by index."""
        n = cols.add()
        for name, value in cls._row(k).items():
            cols.arrays[name][n] = value

    def test_growth_keeps_every_earlier_row(self):
        # Capacity 16, then growth by half: 24, 36, 54, 81.  Every boundary is
        # crossed, and every row written before it survives bit for bit.
        cols = self._columns()
        for n in range(1, 83):
            self._add(cols, n - 1)
            assert cols.n == n
            if n in (15, 16, 17, 24, 25, 36, 37, 54, 55, 81, 82):
                for k in range(n):
                    row = self._row(k)
                    for name in ("t", "v", "m"):
                        assert cols[name][k].tobytes() == np.asarray(row[name], float).tobytes()
                    assert cols["ok"][k] == row["ok"]

    def test_views_have_n_rows_of_their_dtype_and_shape(self):
        cols = self._columns()
        for n in range(20):
            want = {"t": ((n,), float), "v": ((n, 2), float), "m": ((n, 2, 3), float),
                    "ok": ((n,), bool)}
            for name, (shape, dtype) in want.items():
                assert cols[name].shape == shape and cols[name].dtype == dtype, name
            self._add(cols, n)
        assert cols["ok"].tolist() == [k % 3 == 0 for k in range(20)]


class TestSmooth:
    def test_single_knot_path(self):
        m = make_iwp(1, 1)
        path = SolutionPath(model=m)
        state = GaussState(0.0, np.array([1.0, 0.0]), np.eye(2)[None])
        path.append(state, state, None)
        smooth(path)
        _assert_same_state(path.smoothed[0], state)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            smooth(SolutionPath(model=make_iwp(1, 1)))

    @pytest.mark.parametrize("sigma2", [[1.0, -1.0], [np.nan, 1.0], [1.0, 1.0, 1.0], 1.0])
    def test_bad_diffusion_scales_name_the_knot(self, sigma2):
        m = make_iwp(1, 2)
        s0 = GaussState(0.0, np.zeros(4), np.eye(2)[None].repeat(2, axis=0))
        path = SolutionPath(model=m)
        path.append(s0, s0, None)
        s1 = predict(s0, 0.5)
        path.append(s1, s1, 0.5, np.ones(m.dim))
        s2 = predict(s1, 0.5)
        # A wrong shape or value fails on append, before the path holds it.
        with pytest.raises(ValueError, match=r"knot 2 \(t=1.0\)"):
            path.append(s2, s2, 0.5, sigma2)
        assert len(path) == 2

    def test_knot_appended_to_smoothed_path_is_smoothed(self):
        # A new knot drops the stale smoothed states, so the next reader
        # smooths the whole path again, the new last interval included.
        m = make_iwp(1, 1)
        path = SolutionPath(model=m)
        s0 = GaussState(0.0, np.array([1.0, 1.0]), np.eye(2)[None])
        path.append(s0, s0, None)
        s1 = predict(s0, 0.5)
        path.append(s1, s1, 0.5, np.ones(1))
        smooth(path)
        s2 = GaussState(1.0, np.array([1.5, 1.0]), np.zeros((1, 2, 2)))
        path.append(predict(s1, 0.5), s2, 0.5, np.ones(1))
        assert path.smoothed is None
        np.testing.assert_allclose(interpolate(path, 1.0 - 1e-9).mean, s2.mean, atol=1e-6)
        _assert_same_state(path.smoothed[2], s2)
        draws = sample_posterior(path, seed=0, count=8)
        assert np.all(draws[:, 2] == s2.mean)

    def test_zero_covariance_means_unchanged(self):
        m = make_iwp(1, 1)
        path = SolutionPath(model=m)
        s0 = GaussState(0.0, np.array([1.0, 2.0]), np.zeros((1, 2, 2)))
        path.append(s0, s0, None)
        pred = predict(s0, 0.5)
        s1 = GaussState(0.5, np.array([2.5, 3.0]), np.zeros((1, 2, 2)))
        path.append(pred, s1, 0.5, np.ones(m.dim))
        smooth(path)
        np.testing.assert_array_equal(path.smoothed[0].mean, s0.mean)
        np.testing.assert_array_equal(path.smoothed[1].mean, s1.mean)

    def test_last_knot_identical_and_idempotent(self):
        path = _logistic_path()
        smooth(path)
        _assert_same_state(path.smoothed[-1], path.filtered[-1])
        before = path.smoothed
        smooth(path)
        assert path.smoothed is before

    def test_smoothed_covariances_psd_and_no_larger(self):
        path = smooth(_logistic_path())
        for filt, sm in zip(path.filtered, path.smoothed):
            scale = max(np.max(np.abs(filt.cov)), 1e-30)
            assert np.linalg.eigvalsh(sm.cov).min() >= -1e-10 * scale
            assert np.all(_diag(sm.cov) <= _diag(filt.cov) + 1e-10 * scale)

    def test_smoothed_interpolant_continuous_across_knots(self):
        path = smooth(_logistic_path())
        delta = 1e-12
        for i in range(1, len(path.knots) - 1):
            t = path.knots[i]
            lo = interpolate(path, t - delta)
            hi = interpolate(path, t + delta)
            assert np.max(np.abs(lo.mean - hi.mean)) < 1e-10

    @pytest.mark.parametrize("q", [2, 3])
    def test_no_diffusion_path(self, q):
        # y' = 0: every residual and so every diffusion estimate is 0, and
        # the smoother's predicted factors are singular.
        res = solve(get_problem("linear(0)"), SolverConfig(q=q, fixed_step=0.25))
        path = smooth(res.path)
        for filt, sm in zip(path.filtered, path.smoothed):
            np.testing.assert_array_equal(sm.mean, filt.mean)
        draws = sample_posterior(path, seed=0, count=3)
        assert np.max(np.abs(draws - np.array([s.mean for s in path.smoothed]))) < 1e-12
        np.testing.assert_allclose(interpolate(path, 0.3).mean, np.eye(q + 1)[0], atol=1e-12)

    def test_exact_polynomial_reproduced(self):
        # Polynomial of degree within the prior order, conditioned on exact
        # derivative readings from an exactly-known start: filtering and
        # smoothing keep every knot exact.
        q = 3
        m = make_iwp(q, 1)
        coef = np.array([1.0, 2.0, 3.0, 0.5])  # p(t) = 1 + 2t + 3t^2 + t^3/2

        def taylor(t):
            p = np.polynomial.polynomial
            return np.array([p.polyval(t, p.polyder(coef, k)) for k in range(q + 1)])

        h = 0.25
        path = SolutionPath(model=m)
        state = GaussState(0.0, taylor(0.0), np.zeros((1, q + 1, q + 1)))
        path.append(state, state, None)
        for n in range(1, 7):
            pred = predict(state, h)
            z = taylor(n * h)[1]
            state, resid = update(pred, [z], 1)
            path.append(pred, state, h, np.ones(m.dim))
            assert abs(resid[0]) < 1e-10
        smooth(path)
        for n, sm in enumerate(path.smoothed):
            np.testing.assert_allclose(sm.mean, taylor(n * h), rtol=0, atol=1e-10)


class TestSamplePosterior:
    def test_zero_covariance_samples_equal_mean(self):
        m = make_iwp(1, 1)
        path = SolutionPath(model=m)
        s0 = GaussState(0.0, np.array([1.0, 2.0]), np.zeros((1, 2, 2)))
        path.append(s0, s0, None)
        pred = predict(s0, 0.5)
        s1 = GaussState(0.5, np.array([2.0, 2.0]), np.zeros((1, 2, 2)))
        path.append(pred, s1, 0.5, np.ones(m.dim))
        smooth(path)
        draws = sample_posterior(path, seed=0, count=4)
        for j in range(4):
            np.testing.assert_allclose(draws[j, 0], s0.mean, atol=1e-12)
            np.testing.assert_allclose(draws[j, 1], s1.mean, atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        path = smooth(_logistic_path())
        a = sample_posterior(path, seed=123, count=5)
        b = sample_posterior(path, seed=123, count=5)
        assert np.array_equal(a, b)

    def test_single_knot_monte_carlo_covariance(self):
        m = make_iwp(1, 1)
        path = SolutionPath(model=m)
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        state = GaussState(0.0, np.array([1.0, -1.0]), np.linalg.cholesky(cov)[None])
        path.append(state, state, None)
        smooth(path)
        draws = sample_posterior(path, seed=2024, count=10_000)[:, 0, :]
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - cov)) <= 0.05 * np.max(np.abs(cov))

    def test_requires_smoothing_and_positive_count(self):
        path = _logistic_path()
        with pytest.raises(ValueError):
            sample_posterior(path, seed=0, count=0)
        path.smoothed = None
        with pytest.raises(ValueError):
            sample_posterior(path, seed=0, count=1)

    @pytest.mark.parametrize("count", [2.5, True, "3", None])
    def test_count_must_be_an_integer(self, count):
        # Checked before the generator is built: the bad seed is never reached.
        path = smooth(_logistic_path())
        with pytest.raises(TypeError, match="count must be an integer"):
            sample_posterior(path, seed="not a seed", count=count)

    @pytest.mark.parametrize("count", [0, -1, np.int64(0)])
    def test_count_below_one_message(self, count):
        path = smooth(_logistic_path())
        with pytest.raises(ValueError, match=rf"^count must be >= 1, got {count}$"):
            sample_posterior(path, seed=0, count=count)

    @pytest.mark.parametrize("seed, error", [(None, TypeError), (True, TypeError),
                                             (2.0, TypeError), (-1, ValueError)])
    def test_seed_must_be_a_nonnegative_integer(self, seed, error):
        # None drew fresh OS entropy, so two calls differed; True ran as seed 1;
        # -1 failed only inside numpy.
        path = smooth(_logistic_path())
        with pytest.raises(error, match="seed must be"):
            sample_posterior(path, seed=seed, count=2)

    def test_numpy_integer_count(self):
        path = smooth(_logistic_path())
        draws = sample_posterior(path, seed=4, count=np.int64(3))
        assert draws.shape == (3, len(path), path.model.state_size)
        assert np.array_equal(draws, sample_posterior(path, seed=4, count=3))

    def test_sample_mean_approaches_smoothed_mean(self):
        path = smooth(_logistic_path())
        draws = sample_posterior(path, seed=5, count=4000)
        sm = np.array([s.mean for s in path.smoothed])
        stds = np.array([np.sqrt(np.clip(_diag(s.cov), 1e-30, None)) for s in path.smoothed])
        err = np.abs(draws.mean(axis=0) - sm)
        assert np.all(err <= 5 * stds / np.sqrt(4000) + 1e-12)


class TestInterpolate:
    def test_at_knot_returns_stored_state(self):
        path = smooth(_logistic_path())
        for i, t in enumerate(path.knots):
            _assert_same_state(interpolate(path, t), path.smoothed[i])
            # Within the hit tolerance on either side, but not equal.
            for near in (np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
                assert near != t
                _assert_same_state(interpolate(path, near), path.smoothed[i])

    def test_outside_domain(self):
        path = smooth(_logistic_path())
        with pytest.raises(ValueError):
            interpolate(path, -0.5)
        with pytest.raises(ValueError):
            interpolate(path, 2.0)
        out = interpolate(path, 2.0, allow_extrapolation=True)
        assert out.t == 2.0 and np.isfinite(out.mean).all()

    @pytest.mark.parametrize("allow", [False, True])
    def test_empty_path_rejected(self, allow):
        with pytest.raises(ValueError, match="empty path"):
            interpolate(SolutionPath(model=make_iwp(1, 1)), 0.0, allow_extrapolation=allow)

    @pytest.mark.parametrize("allow", [False, True])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t, allow):
        # An infinite t used to hit the end knots through an infinite knot
        # tolerance, and nan failed with a step-size error.
        path = smooth(_logistic_path())
        with pytest.raises(ValueError, match="t=") as err:
            interpolate(path, t, allow_extrapolation=allow)
        assert "step size" not in str(err.value)

    def test_conditional_bridge_oracle(self):
        # Zero covariance at both knots: the interpolant must match the
        # prior bridge conditioned on both endpoint states, computed here
        # by explicit joint-Gaussian conditioning.
        q = 2
        m = make_iwp(q, 1)
        h = 0.8
        x0 = np.array([1.0, -0.5, 0.2])
        x1 = np.array([0.7, 0.1, -0.3])
        path = SolutionPath(model=m)
        s0 = GaussState(0.0, x0, np.zeros((1, 3, 3)))
        path.append(s0, s0, None)
        pred = predict(s0, h)
        path.append(pred, GaussState(h, x1, np.zeros((1, 3, 3))), h, np.ones(m.dim))
        smooth(path)

        t = 0.3
        got = interpolate(path, t)
        a1, _, _ = discrete_transition(q, t)
        a2, _, _ = discrete_transition(q, h - t)
        mid_mean = a1 @ x0
        mid_cov = loop_q(q, t)
        cross = mid_cov @ a2.T
        end_cov = a2 @ mid_cov @ a2.T + loop_q(q, h - t)
        gain = cross @ np.linalg.inv(end_cov)
        want_mean = mid_mean + gain @ (x1 - a2 @ mid_mean)
        want_cov = mid_cov - gain @ cross.T
        np.testing.assert_allclose(got.mean, want_mean, atol=1e-10)
        np.testing.assert_allclose(got.cov[0], want_cov, atol=1e-10)

    def test_diffuse_start_interval_against_mp_bridge(self):
        # The first interval of a diffuse start: the left knot's factor
        # holds 1e6 entries.  Conditioning the state at t on the smoothed
        # right knot, redone in 100-digit arithmetic from the float
        # prediction at t, agrees to 1e-6 relative to sqrt(C_ii C_jj); fed
        # to the backward QR untriangularized, the state at t reached 5.9e-4.
        # From the filtered left knot itself, the float prediction across
        # the 1e6 entries limits the agreement to about 1e-5 (6.0e-4 then).
        q, t = 4, 0.0018
        path = smooth(solve(get_problem("logistic"),
                            SolverConfig(q=q, eps=1e-4, init_mode="rk_starter")).path)
        left, right, s = path.filtered[0], path.smoothed[1], float(path.step_sigma2[0, 0])
        assert left.t < t < right.t and np.max(left.factor) == 1e6
        at_t = predict(left, t - left.t, path.step_sigma2[0])
        got = interpolate(path, t).cov[0]

        def mp_cov(F):
            F = mpmath.matrix(F.tolist())
            return F * F.T

        with mpmath.workdps(100):
            A1, Q1 = _mp_iwp(q, mpmath.mpf(t) - mpmath.mpf(left.t))
            A2, Q2 = _mp_iwp(q, mpmath.mpf(right.t) - mpmath.mpf(t))
            from_knot = A1 * mp_cov(left.factor[0]) * A1.T + s * Q1
            for C, bound in ((mp_cov(at_t.factor[0]), 1e-6), (from_knot, 2e-5)):
                P = A2 * C * A2.T + s * Q2
                G = C * A2.T * mpmath.inverse(P)
                want = C + G * (mp_cov(right.factor[0]) - P) * G.T
                want = np.array(want.tolist(), dtype=float)
                scale = np.sqrt(np.diag(want))
                assert np.max(np.abs(got - want) / np.outer(scale, scale)) <= bound

    def test_mean_continuous_in_time(self):
        path = smooth(_logistic_path())
        t = 0.45
        base = interpolate(path, t).mean
        for delta in (1e-6, 1e-8):
            drift = np.max(np.abs(interpolate(path, t + delta).mean - base))
            assert drift <= 50.0 * delta + 1e-12


# Dense reference for predict and update: the d(q+1)-square representation,
# with kron-built transitions and a per-dimension loop of rank-1 Joseph
# updates.  The block path must reproduce it to round-off.
def _dense_predict(mean, cov, A, Q, sigma2):
    A_full = np.kron(np.eye(sigma2.size), A)
    return A_full @ mean, A_full @ cov @ A_full.T + np.kron(np.diag(sigma2), Q)


def _dense_update(mean, cov, z, q1, slot=1):
    mean, cov = mean.copy(), cov.copy()
    for k, z_k in enumerate(z):
        idx = k * q1 + slot
        s = cov[idx, idx]
        if s == 0.0:
            continue
        gain = cov[:, idx] / s
        mean = mean + gain * (z_k - mean[idx])
        c1 = cov - np.outer(gain, cov[idx, :])
        cov = c1 - np.outer(c1[:, idx], gain)
        cov = 0.5 * (cov + cov.T)
    return mean, cov


def _mp_smooth_block(filt, pred_next, smoothed_next, A, Q, sigma2, k):
    """One RTS step for block k in 50-digit arithmetic from the float inputs.

    Predicted blocks reach condition numbers of 1e26 at tight tolerances, so
    a double-precision inverse of them is no reference.
    """
    q1 = A.shape[0]
    sl = slice(k * q1, (k + 1) * q1)

    def mp(a):
        return mpmath.matrix(np.atleast_2d(a).tolist())

    with mpmath.workdps(50):
        A, F, F_next = mp(A), mp(filt.factor[k]), mp(smoothed_next.factor[k])
        C = F * F.T
        P = A * C * A.T + mpmath.mpf(float(sigma2[k])) * mp(Q)
        G = C * A.T * mpmath.inverse(P)
        diff = mp(smoothed_next.mean[sl]).T - mp(pred_next.mean[sl]).T
        mean = mp(filt.mean[sl]).T + G * diff
        cov = C + G * (F_next * F_next.T - P) * G.T
        return (np.array(mean.tolist(), dtype=float).reshape(-1),
                np.array(cov.tolist(), dtype=float))


def _mp_iwp(q, h):
    """The unit IWP(q) transition ``A(h)`` and noise ``Q(h)`` in mpmath, from their closed forms."""
    A, Q, f = mpmath.matrix(q + 1, q + 1), mpmath.matrix(q + 1, q + 1), mpmath.factorial
    for i in range(q + 1):
        for j in range(q + 1):
            A[i, j] = h ** (j - i) / f(j - i) if j >= i else 0
            Q[i, j] = h ** (2 * q + 1 - i - j) / ((2 * q + 1 - i - j) * f(q - i) * f(q - j))
    return A, Q


def _seeded_linear(d=8, seed=20161017):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    M = (g - g.T) / np.sqrt(2 * d) - np.diag(rng.uniform(0.5, 1.5, d))
    return IvpProblem(name=f"linear{d}", dim=d, t0=0.0, T=1.0,
                      y0=rng.standard_normal(d), rhs=lambda t, y: M @ y)


def _assert_rel(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


@lru_cache(maxsize=None)
def _solved(case):
    """Problem and unsmoothed solve result, shared between tests; smooth a
    ``replace(result.path, smoothed=None)`` copy, never the path itself."""
    if case == "linear8":
        problem, cfg = _seeded_linear(), SolverConfig(q=2, fixed_step=0.02)
    else:
        problem, cfg = get_problem(case), SolverConfig(q=2, eps=1e-4, weighting_tau=0.1)
    return problem, solve(problem, cfg)


class TestDenseOracle:
    @pytest.mark.parametrize("case", ["brusselator", "vdp", "linear8"])
    def test_block_steps_match_dense(self, case):
        problem, result = _solved(case)
        path = smooth(replace(result.path, smoothed=None))
        d, q = problem.dim, path.model.q
        q1 = q + 1
        n = len(path.step_sizes)
        # Every 40th knot, and the knots on each side of a chunk boundary
        # of the backward pass.
        sampled = set(range(0, n, max(1, n // 40)))
        sampled.update(k for lo, _ in filtering._chunks(n, d) if lo > 0 for k in (lo - 1, lo))
        for i in sorted(sampled):
            filt, sigma2 = path.filtered[i], path.step_sigma2[i]
            h = path.step_sizes[i]
            (A, _, _), Q = discrete_transition(q, h), loop_q(q, h)
            pred = predict(filt, h, sigma2)
            m_ref, c_ref = _dense_predict(filt.mean, block_diag(*filt.cov), A, Q, sigma2)
            _assert_rel(pred.mean, m_ref)
            _assert_rel(block_diag(*pred.cov), c_ref)

            z = problem.rhs(pred.t, pred.mean[0::q1])
            upd, _ = update(pred, z, 1)
            m_ref, c_ref = _dense_update(pred.mean, block_diag(*pred.cov), z, q1)
            _assert_rel(upd.mean, m_ref)
            _assert_rel(block_diag(*upd.cov), c_ref)

            sm = path.smoothed[i]
            for k in range(d):
                m_ref, c_ref = _mp_smooth_block(filt, path.predictions[i + 1],
                                                path.smoothed[i + 1], A, Q, sigma2, k)
                _assert_rel(sm.mean[k * q1:(k + 1) * q1], m_ref, rel=1e-10)
                _assert_rel(sm.cov[k], c_ref, rel=1e-10)

    @pytest.mark.parametrize("name, bound", [("logistic", 1e-4), ("vdp", 1e-7)])
    def test_diffuse_starter_intervals_match_mp(self, name, bound):
        # The first interval's left knot holds the diffuse prior's 1e6 entries.
        # Built in natural units with row-equilibrated gains, the smoothed
        # covariance there was off by 2.1e-4 (logistic) and 2.7e-7 (vdp) of
        # the block's largest entry; in units of each step, 2.3e-5 and 4.3e-8.
        path = smooth(solve(get_problem(name), SolverConfig(q=4, eps=1e-3,
                                                            init_mode="diffuse_filter")).path)
        q1 = path.model.block_size
        for i in range(5):
            filt, sigma2, h = path.filtered[i], path.step_sigma2[i], path.step_sizes[i]
            A, Q = discrete_transition(4, h)[0], loop_q(4, h)
            for k in range(path.model.dim):
                m_ref, c_ref = _mp_smooth_block(filt, path.predictions[i + 1], path.smoothed[i + 1],
                                                A, Q, sigma2, k)
                _assert_rel(path.smoothed[i].mean[k * q1:(k + 1) * q1], m_ref, rel=1e-10)
                _assert_rel(path.smoothed[i].cov[k], c_ref, rel=bound)

    @pytest.mark.parametrize("case", ["vdp", "linear8"])
    def test_chunking_bit_identical(self, case, monkeypatch):
        problem, result = _solved(case)

        def outputs():
            path = smooth(replace(result.path, smoothed=None))
            ts = np.random.default_rng(5).uniform(path.knots[0], path.knots[-1], 50)
            states = path.smoothed + [interpolate(path, t) for t in ts]
            return (np.array([s.mean for s in states]), np.array([s.factor for s in states]),
                    sample_posterior(path, seed=11, count=3))

        default = outputs()
        monkeypatch.setattr(filtering, "_CHUNK_BLOCKS", 5)
        assert len(list(filtering._chunks(len(result.path.step_sizes), problem.dim))) > 20
        for got, want in zip(outputs(), default):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("cov_shape", [(3, 3), (2, 3, 3), (1, 3, 2), (3,)])
    def test_cov_shape_must_match_mean(self, cov_shape):
        with pytest.raises(ValueError, match="factor shape"):
            GaussState(0.0, np.zeros(3), np.zeros(cov_shape))


def _update_blocks(rng, q1, d):
    """Factor and diffusion scales of ``d`` blocks.  At d = 3: a block with diffusion, one
    without, and one that already knows its derivative slot (only slot 0 uncertain, no
    diffusion), whose innovation variance is exactly 0."""
    factor = np.concatenate([_rand_factor(rng, q1) for _ in range(d)])
    sigma2 = rng.uniform(0.5, 2.0, d)
    if d == 3:
        sigma2[1:] = 0.0
        factor[2, 1:] = 0.0
    return factor, sigma2


def _assert_conditioned(filt, pred, z, i, known):
    """Slot ``i`` read as ``z``: a live block's row ``i`` is exactly 0 and ``H m == z`` up to
    the rounding of ``m + (z - m)``; a block in ``known`` keeps its prediction bit for bit."""
    q1, eps = filt.factor.shape[1], np.finfo(float).eps
    for k in range(len(z)):
        m, got = pred.mean[k * q1 + i], filt.mean[k * q1 + i]
        if k in known:
            assert not pred.factor[k, i].any()
            assert np.array_equal(filt.factor[k], pred.factor[k])
            assert np.array_equal(filt.mean[k * q1:(k + 1) * q1], pred.mean[k * q1:(k + 1) * q1])
        else:
            assert np.all(filt.factor[k, i] == 0.0)
            assert abs(got - z[k]) <= eps * (abs(z[k]) + abs(z[k] - m))


class TestPredictUpdate:
    """The fused kernel against the dense ``kron`` predict and update above."""

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_dense_reference(self, q, d, steps):
        # The kernel reads slot 1, as the solver does.  A second step starts from the
        # first one's filtered factor, whose zeroed column leaves it untriangular, as
        # every step of the solve loop does.
        q1 = q + 1
        rng = np.random.default_rng(100 * q + 10 * steps + d)
        factor, sigma2 = _update_blocks(rng, q1, d)
        state = GaussState(0.3, rng.standard_normal(d * q1), factor)
        (A_slot, _, _), Q = discrete_transition(q, 0.37), loop_q(q, 0.37)
        A, Q_sqrt, _ = priors._constants(q).transition(0.37)
        for _ in range(steps):
            z = rng.standard_normal(d)
            mean = filtering._matvec(A_slot, state.mean)
            filt = GaussState(state.t + 0.37, *filtering.predict_update(
                state.factor, A[1], Q_sqrt[1], sigma2, mean, z - mean[1::q1]))
            # The kernel's predicted factor, rows back in slot order.
            pred = GaussState(filt.t, mean, filtering._triangularize(filtering._stacked(
                state.factor, A[1], Q_sqrt[1], sigma2)).take(priors._pivot(q1, 1)[1], axis=1))

            m_ref, c_ref = _dense_predict(state.mean, block_diag(*state.cov), A_slot, Q, sigma2)
            _assert_rel(pred.mean, m_ref)
            _assert_rel(block_diag(*pred.cov), c_ref)
            m_ref, c_ref = _dense_update(m_ref, c_ref, z, q1)
            _assert_rel(filt.mean, m_ref)
            _assert_rel(block_diag(*filt.cov), c_ref)
            known = {k for k in range(d) if not pred.factor[k, 1].any()}
            assert (2 in known) == (d == 3)  # the block that knows its derivative
            _assert_conditioned(filt, pred, z, 1, known)
            state = filt
