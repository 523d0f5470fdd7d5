import warnings
from dataclasses import fields

import numpy as np
import pytest

from odefilter import solver, stepcontrol
from odefilter import (
    IvpProblem,
    SolverConfig,
    StepSizeUnderflowError,
    discrete_transition,
    get_problem,
    initialize,
    observe,
    predict,
    reference_solution,
    smooth,
    solve,
    update,
)


class TestIvpProblem:
    @pytest.mark.parametrize(
        "dim,y0,error",
        [(1.0, [1.0], TypeError), (True, [1.0], TypeError), (0, [], ValueError)],
    )
    def test_rejects_bad_dim(self, dim, y0, error):
        # Refused at construction, not later inside the solve.
        with pytest.raises(error, match="dim must be"):
            IvpProblem("x", dim, 0.0, 1.0, y0, lambda t, y: y)

    def test_numpy_integer_dim_accepted(self):
        assert IvpProblem("x", np.int64(2), 0.0, 1.0, [1.0, 2.0], lambda t, y: y).dim == 2

    @pytest.mark.parametrize("t0, T", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0)])
    def test_rejects_nonfinite_times(self, t0, T):
        # An infinite T was accepted, and a solve returned the one knot at t0
        # after 0 steps, with a RuntimeWarning.
        with pytest.raises(ValueError, match="t0 and T must be finite"):
            IvpProblem("x", 1, t0, T, [1.0], lambda t, y: y)

    @pytest.mark.parametrize("y0, entry", [([1.0, np.nan], r"y0\[1\] = nan"),
                                           ([np.inf, 2.0], r"y0\[0\] = inf"),
                                           ([-np.inf, np.nan], r"y0\[0\] = -inf")],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_nonfinite_y0(self, y0, entry):
        # A NaN y0 was accepted, and the solve ran NaN states until "solve
        # diverged at t = 0.0, h = nan", which named neither y0 nor its entry.
        with pytest.raises(ValueError, match=rf"^y0 must be finite, got {entry}$"):
            IvpProblem("x", 2, 0.0, 1.0, y0, lambda t, y: np.ones(2))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 0},
            {"eps": 0.0},
            {"weighting_tau": -1.0},
            {"init_mode": "magic"},
            {"obs_strategy": "oracle"},
            {"fixed_step": -0.1},
            {"sigma_mode": "global_ml"},  # needs fixed_step
            {"h_init": np.inf},
            {"h_init": 0.0},
            {"h_init": -1.0},
            {"h_init": np.nan},
            {"fixed_step": np.inf},
            {"fixed_step": np.nan},
            {"eps": np.nan},
            {"eps": np.inf},  # was accepted; a logistic solve then ended 0.7 off in 4 steps
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("weighting_tau", np.nan),  # failed only at the first error test
            ("weighting_tau", np.inf),
        ],
    )
    def test_rejects_setting_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("q", [2.5, 2.0, True])
    def test_q_must_be_an_integer(self, q):
        # These used to construct and fail only later, inside the solve.
        with pytest.raises(TypeError, match="q must be an integer"):
            SolverConfig(q=q)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        # None drew OS entropy under obs_strategy="sampled", so reruns differed;
        # True ran as seed 1, and 2.5 or "3" failed inside numpy at solve time.
        with pytest.raises(TypeError, match="seed must be an integer"):
            SolverConfig(seed=seed)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SolverConfig(seed=-1)

    def test_numpy_integer_seed_is_the_int_seed(self):
        p = get_problem("logistic")
        means = [solve(p, SolverConfig(q=2, eps=1e-3, obs_strategy="sampled", seed=seed))
                 .solution_means().tobytes() for seed in (np.int64(3), 3)]
        assert means[0] == means[1]
        assert SolverConfig(seed=np.uint8(0)).seed == 0

    def test_numpy_integer_q_accepted(self):
        assert solve(get_problem("logistic"), SolverConfig(q=np.int64(1), fixed_step=0.5)).steps_accepted == 3

    def test_default_h_init_is_span_fraction(self):
        p = get_problem("logistic")
        assert SolverConfig().resolve_h_init(p) == pytest.approx(1.5 / 100)

    def test_fixed_step_sets_h_init(self):
        p = get_problem("logistic")
        assert SolverConfig(fixed_step=0.3).resolve_h_init(p) == 0.3


class TestInitialize:
    def test_exact_logistic(self):
        p = get_problem("logistic")
        st = initialize(p, SolverConfig(q=2))
        np.testing.assert_allclose(st.mean, [0.1, 0.27, 0.0], atol=1e-15)
        assert np.max(np.abs(st.cov[0, [0, 1], :])) == 0.0
        assert np.max(np.abs(st.cov[0, :, [0, 1]])) == 0.0
        assert st.cov[0, 2, 2] > 0.0

    def test_exact_conditions_value_for_any_problem(self):
        p = get_problem("brusselator")
        st = initialize(p, SolverConfig(q=2))
        np.testing.assert_allclose(st.mean[0::3], p.y0, atol=1e-15)
        assert st.cov[0, 0, 0] == 0.0 and st.cov[1, 0, 0] == 0.0

    def test_exact_q4_conditions_tiny_prior_variance(self):
        # The y slot's prior variance is h_init^9 ~ 4e-17 at q = 4; an update
        # that judged degeneracy on an absolute scale skipped the y0
        # observation and started from the zero solution.
        p = get_problem("logistic")
        st = initialize(p, SolverConfig(q=4))
        assert st.mean[0] == 0.1
        assert st.mean[1] == pytest.approx(0.27, rel=1e-14)
        assert st.cov[0, 0, 0] == 0.0

    def test_exact_q4_conditions_prior_variances_below_eps(self):
        # At h_init = 7.5e-4 the prior variances h^(2(q-i)+1) span 26 orders
        # of magnitude; an update that judged degeneracy relative to the
        # block's largest variance skipped both y0 and f(y0).
        p = get_problem("logistic")
        st = initialize(p, SolverConfig(q=4, h_init=0.00075))
        assert st.mean[0] == 0.1
        assert st.mean[1] == pytest.approx(0.27, rel=1e-14)
        assert np.max(np.abs(st.factor[0, :2])) == 0.0

    def test_diffuse_variance_insensitive_means(self, monkeypatch):
        cfg = SolverConfig(q=2, h_init=0.1, init_mode="diffuse_filter")
        means = []
        for v in (1e12, 1e14):
            monkeypatch.setattr(solver, "_DIFFUSE_VARIANCE", v)
            means.append(initialize(get_problem("logistic"), cfg).mean)
        rel = np.abs(means[0] - means[1]) / np.maximum(np.abs(means[1]), 1e-12)
        assert np.max(rel) < 1e-6

    @pytest.mark.parametrize("mode", ["diffuse_filter", "rk_starter"])
    def test_diffuse_start_rejects_q_above_four(self, mode):
        with pytest.raises(ValueError, match="diffuse start supports q in 1..4, got 5"):
            initialize(get_problem("logistic"), SolverConfig(q=5, init_mode=mode))

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("kwargs", [dict(h_init=10.0, eps=1e-3), dict(fixed_step=3.0)])
    def test_diffuse_start_longer_than_the_span_ends_at_T(self, q, kwargs):
        problem = get_problem("logistic")
        knots = solve(problem, SolverConfig(q=q, init_mode="diffuse_filter", **kwargs)).knots
        assert np.all((knots >= problem.t0) & (knots <= problem.T))
        assert knots[-1] == problem.T

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_start_depends_on_neither_obs_strategy_nor_seed(self, q, seed):
        # The start reads f at its means: a sampled draw under the diffuse
        # prior (std 112.5 on logistic) landed far off the trajectory.
        cfg = SolverConfig(q=q, eps=1e-3, init_mode="diffuse_filter")
        mean = initialize(get_problem("vdp"), cfg)
        sampled = initialize(get_problem("vdp"), SolverConfig(
            q=q, eps=1e-3, init_mode="diffuse_filter", obs_strategy="sampled", seed=seed))
        assert sampled.mean.tobytes() == mean.mean.tobytes()
        assert sampled.factor.tobytes() == mean.factor.tobytes()

    def test_diffuse_counts_q_evaluations(self):
        p = get_problem("logistic")
        cfg = SolverConfig(q=3, h_init=0.1, init_mode="diffuse_filter")
        initialize(p, cfg)
        assert p.nfev == 3


class TestObserve:
    def test_logistic_at_start(self):
        p = get_problem("logistic")
        z = observe(p, 0.0, np.array([0.1]))
        assert z[0] == pytest.approx(0.27, rel=1e-14)
        assert p.nfev == 1

    def test_brusselator_value(self):
        p = get_problem("brusselator")
        np.testing.assert_allclose(observe(p, 0.0, np.array([1.5, 3.0])), [1.75, -2.25], rtol=1e-14)

    def test_sampled_degenerates_to_mean(self):
        p1, p2 = get_problem("logistic"), get_problem("logistic")
        loc = np.array([0.1])
        z_mean = observe(p1, 0.0, loc)
        z_samp = observe(p2, 0.0, loc, np.zeros(1), rng=np.random.default_rng(0))
        assert np.array_equal(z_mean, z_samp)

    def test_sampled_needs_rng(self):
        p = get_problem("logistic")
        with pytest.raises(ValueError, match="generator"):
            observe(p, 0.0, np.zeros(1), np.ones(1))
        assert p.nfev == 0

    def test_sampled_needs_std(self):
        p = get_problem("logistic")
        with pytest.raises(ValueError, match="std"):
            observe(p, 0.0, np.zeros(1), rng=np.random.default_rng(0))
        assert p.nfev == 0


class TestSolveFixedStep:
    def test_logistic_five_steps_band(self):
        p = get_problem("logistic")
        cfg = SolverConfig(q=2, fixed_step=0.3, sigma_mode="global_ml")
        res = solve(p, cfg)
        assert res.steps_accepted == 5
        np.testing.assert_allclose(res.knots, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5], atol=1e-12)
        err = abs(res.solution_means()[-1][0] - p.exact(1.5)[0])
        assert p.exact(1.5)[0] == pytest.approx(0.90910, abs=1e-4)
        assert err <= 2.0 * res.solution_stds()[-1][0]

    def test_constant_problem_is_fixed_point(self):
        p = get_problem("linear(0)")
        res = solve(p, SolverConfig(q=2, fixed_step=0.25))
        np.testing.assert_array_equal(res.solution_means(), np.ones((9, 1)))
        for state in res.path.filtered:
            assert state.mean[1] == 0.0

    def test_feval_accounting(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, fixed_step=0.3))
        # one evaluation per step plus one for the exact start
        assert res.fevals == res.steps_accepted + res.steps_rejected + 1
        assert res.fevals == p.nfev

    def test_final_knot_lands_on_T(self):
        p = get_problem("brusselator")
        res = solve(p, SolverConfig(q=2, fixed_step=0.0834))
        assert res.knots[-1] == p.T
        assert res.steps_accepted == 120

    def test_final_sliver_absorbed(self):
        # 60 steps of 0.025 sum to 1.5 - 1.3e-15; the remainder is stretched
        # into the last step instead of being stepped over on its own.
        res = solve(get_problem("logistic"), SolverConfig(q=2, fixed_step=0.025))
        assert res.steps_accepted == 60 and res.knots[-1] == 1.5
        assert min(res.path.step_sizes) > 0.024

    @pytest.mark.parametrize("name", ["logistic", "vdp"])
    def test_q4_small_steps_stay_accurate(self, name):
        # The covariance form lost PSD here: the 20th logistic step saw a
        # negative innovation variance.
        p = get_problem(name)
        h = 0.00075 if name == "logistic" else (p.T - p.t0) / 2000
        res = solve(p, SolverConfig(q=4, fixed_step=h))
        ref = np.atleast_1d(reference_solution(get_problem(name), p.T))
        err = np.max(np.abs(res.solution_means()[-1] - ref))
        assert err <= 1e-5 * np.max(np.abs(ref))

    def test_linear_problem_error_bound(self):
        # terminal error consistent with an accumulated local error of
        # order q+1: fit the constant at one step size, check at another
        lam, T = -0.5, 2.0
        errs = {}
        for h in (0.1, 0.05):
            p = get_problem(f"linear({lam})")
            cfg = SolverConfig(q=2, fixed_step=h, sigma_mode="global_ml", init_mode="diffuse_filter")
            res = solve(p, cfg)
            errs[h] = abs(res.solution_means()[-1][0] - np.exp(lam * T))
        c_fit = errs[0.1] / 0.1**2
        assert errs[0.05] <= 10.0 * c_fit * 0.05**2

    def test_bitwise_deterministic_rerun(self):
        runs = []
        for _ in range(2):
            p = get_problem("brusselator")
            res = solve(p, SolverConfig(q=2, fixed_step=0.1))
            runs.append(res)
        a, b = runs
        assert np.array_equal(a.knots, b.knots)
        assert np.array_equal(a.sigma2_trace, b.sigma2_trace)
        for sa, sb in zip(a.path.filtered, b.path.filtered):
            assert np.array_equal(sa.mean, sb.mean)
            assert np.array_equal(sa.cov, sb.cov)


class TestSolveAdaptive:
    def test_adaptive_reaches_T_and_reports(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-3))
        assert res.knots[-1] == p.T
        assert res.steps_accepted >= 10
        assert len(res.per_step) == res.steps_accepted + res.steps_rejected
        assert res.sigma2_trace.shape == (res.steps_accepted, 1)
        for report in res.per_step:
            assert np.all(report.D >= 0.0)

    def test_one_eval_per_attempt(self):
        p = get_problem("vdp")
        res = solve(p, SolverConfig(q=2, eps=1e-2))
        assert res.fevals == res.steps_accepted + res.steps_rejected + 1

    @pytest.mark.parametrize("name, q", [("logistic", 2), ("logistic", 3), ("logistic", 4),
                                         ("vdp", 3), ("vdp", 4)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampled_diffuse_solves_finish(self, name, q, seed):
        # Each underflowed right after a start that read f at sampled draws.
        problem = get_problem(name)
        cfg = SolverConfig(q=q, eps=1e-3, init_mode="diffuse_filter", obs_strategy="sampled",
                           seed=seed)
        assert solve(problem, cfg).knots[-1] == problem.T

    def test_sampled_strategy_deterministic_per_seed(self):
        outs = []
        for seed in (7, 7, 8):
            p = get_problem("logistic")
            cfg = SolverConfig(q=2, eps=1e-3, obs_strategy="sampled", seed=seed)
            outs.append(solve(p, cfg).solution_means())
        assert np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[0], outs[2])

    def test_rate_limits_hold_on_every_step(self):
        p = get_problem("brusselator")
        cfg = SolverConfig(q=2, eps=1.0, weighting_tau=0.1, h_init=0.01)
        res = solve(p, cfg)
        for report in res.per_step:
            ratio = report.h_next / report.h
            assert stepcontrol._ETA_MIN - 1e-12 <= ratio <= stepcontrol._ETA_MAX + 1e-12

    @pytest.mark.parametrize("per_unit_step", [True, False])
    def test_error_bound_follows_per_unit_step(self, per_unit_step):
        # The bound is eps*h per unit step and eps per step; every attempt's
        # decision and proposed step must use the one the setting names.
        # Default tolerances underflow per unit step (see ROADMAP item 4).
        p = get_problem("logistic")
        cfg = SolverConfig(q=2, eps=1.0, per_unit_step=per_unit_step)
        res = solve(p, cfg)
        streak = discriminating = 0
        for r in res.per_step:
            D = float(np.max(r.D))
            ebar = cfg.eps * r.h if per_unit_step else cfg.eps
            assert r.accepted == (D <= ebar or streak == solver._MAX_REJECTIONS)
            assert r.h_next == pytest.approx(stepcontrol.next_step_size(D, ebar, r.h, cfg.q), rel=1e-12)
            streak = 0 if r.accepted else streak + 1
            discriminating += cfg.eps * r.h < D <= cfg.eps
        # Attempts the two bounds decide differently exist, so a swapped or
        # ignored setting changes a decision above.
        assert discriminating > 0
        other = solve(p, SolverConfig(q=2, eps=1.0, per_unit_step=not per_unit_step))
        assert [r.h for r in other.per_step] != [r.h for r in res.per_step]

    def test_nonfinite_rhs_rejects_then_underflows(self):
        calls = {"n": 0}

        def bad_after_start(t, y):
            calls["n"] += 1
            return np.array([1.0]) if calls["n"] == 1 else np.array([np.nan])

        p = IvpProblem(name="nan", dim=1, t0=0.0, T=1.0, y0=np.array([1.0]), rhs=bad_after_start)
        with pytest.raises(StepSizeUnderflowError, match="at t ="):
            solve(p, SolverConfig(q=2, eps=1e-3))

    def test_rhs_exception_propagates(self):
        def broken(t, y):
            raise RuntimeError("boom at t0")

        p = IvpProblem(name="broken", dim=1, t0=0.0, T=1.0, y0=np.array([1.0]), rhs=broken)
        with pytest.raises(RuntimeError, match="boom"):
            solve(p, SolverConfig(q=2, eps=1e-3))

    def test_nonfinite_rejections_halve_step(self):
        calls = {"n": 0}

        def flaky(t, y):
            calls["n"] += 1
            if 2 <= calls["n"] <= 3:  # poison the first step attempts, not t0
                return np.array([np.inf])
            return 3 * y * (1 - y)

        p = IvpProblem(name="flaky", dim=1, t0=0.0, T=1.0, y0=np.array([0.1]), rhs=flaky)
        res = solve(p, SolverConfig(q=2, eps=1e-2, h_init=0.01))
        assert res.steps_rejected >= 2
        assert res.per_step[0].h_next == pytest.approx(res.per_step[0].h / 2)
        assert res.knots[-1] == 1.0

    def test_fixed_step_names_a_nonfinite_reading(self):
        # A fixed mesh cannot step around a bad reading; halving the step as
        # an adaptive solve does ended in StepSizeUnderflowError instead.
        p = IvpProblem(name="blowup", dim=1, t0=0.0, T=1.0, y0=np.array([1.0]),
                       rhs=lambda t, y: np.array([np.inf]) if t > 0.25 else -y)
        with pytest.raises(RuntimeError, match=r"returned \[inf\] at t = 0\.3\d*, reached "
                                               r"from t = 0\.2\d* with fixed step h = 0\.1$") as info:
            solve(p, SolverConfig(q=2, fixed_step=0.1))
        assert not isinstance(info.value, StepSizeUnderflowError)

    def test_nonfinite_at_t0_raises(self):
        p = IvpProblem(
            name="bad0", dim=1, t0=0.0, T=1.0, y0=np.array([1.0]),
            rhs=lambda t, y: np.array([np.inf]),
        )
        with pytest.raises(ValueError, match="non-finite"):
            solve(p, SolverConfig(q=2, eps=1e-3))

    def test_nonfinite_at_later_starter_knot_raises(self):
        p = IvpProblem(
            name="bad_later", dim=1, t0=0.0, T=1.0, y0=np.array([1.0]),
            rhs=lambda t, y: -y if t == 0.0 else np.array([np.nan]),
        )
        cfg = SolverConfig(q=2, eps=1e-3, init_mode="diffuse_filter")
        with pytest.raises(ValueError, match="non-finite values at starter knot t = 0.01"):
            initialize(p, cfg)
        with pytest.raises(ValueError, match="non-finite"):
            solve(p, cfg)

    def test_zero_residual_steps_always_accepted(self):
        p = get_problem("linear(0)")
        res = solve(p, SolverConfig(q=2, eps=1e-12))
        assert res.steps_rejected == 0
        assert np.all(res.sigma2_trace == 0.0)

    def test_knot_count_bookkeeping(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-3))
        assert len(res.path.knots) == res.steps_accepted + 1
        p2 = get_problem("logistic")
        cfg = SolverConfig(q=2, eps=1e-3, init_mode="diffuse_filter", h_init=0.01)
        res2 = solve(p2, cfg)
        init_knots = 2  # q = 2 start observes the slope at both ends of h_init
        assert len(res2.path.knots) == res2.steps_accepted + init_knots

    def test_posterior_band_covers_most_local_errors(self):
        from odefilter import local_errors

        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-4))
        xi = local_errors(p, res)
        bands = 2.0 * res.solution_stds()[1:, 0]
        assert np.mean(xi > bands) < 0.20


# _FLOAT_SCORING_DIM values that score every solve on Python floats or every one in numpy.
_SCORING_FORMS = {10**9: "floats", 0: "numpy"}


def _form_problem(name: str) -> IvpProblem:
    if name == "linear8":
        rng = np.random.default_rng(8)
        g = rng.standard_normal((8, 8))
        M = (g - g.T) / 4.0 - np.diag(rng.uniform(0.5, 1.5, 8))
        return IvpProblem(name, 8, 0.0, 1.0, rng.standard_normal(8), lambda t, y: M @ y)
    if name == "nan_D":  # finite inputs, whose D is [0, inf * 0] = [0, nan] at the first attempt
        return IvpProblem(name, 2, 0.0, 1.0, [1.0, 1e10], lambda t, y: np.array([1.0, 1e200 * t]))
    if name == "tiny_span":
        p = get_problem("logistic")
        return IvpProblem(name, 1, 0.0, 1e-15, p.y0, p.rhs)
    return get_problem(name)


def _solve_outcome(name: str, config: SolverConfig):
    """The bytes of the attempt record and the path's columns and the evaluation
    count of a solve, or the type and message of what it raised; a warning raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(_form_problem(name), config)
    except Exception as exc:
        return type(exc), str(exc)
    record = [np.array([getattr(r, f.name) for r in res.per_step]).tobytes()
              for f in fields(stepcontrol.StepReport)]
    columns = res.path.columns
    return record, [columns[col].tobytes() for col in columns.arrays], res.fevals


class TestScoringForms:
    # Up to _FLOAT_SCORING_DIM dimensions an attempt is scored on Python floats,
    # above it in numpy; the two forms make the same IEEE operations in the same
    # order, so every solve must come out bit for bit the same under both.
    @pytest.mark.parametrize("name, kwargs", [
        *[(name, {"q": q, "eps": 1e-3, "init_mode": init})
          for name in ("logistic", "brusselator", "vdp") for q in (2, 3, 4)
          for init in ("exact", "diffuse_filter")],
        ("vdp", {"q": 2, "eps": 1e-3, "obs_strategy": "sampled", "seed": 3}),
        ("brusselator", {"q": 2, "fixed_step": 0.05, "sigma_mode": "global_ml"}),
        ("linear8", {"q": 2, "eps": 1e-3}),
        ("linear8", {"q": 2, "fixed_step": 0.02}),
        ("nan_D", {"q": 2, "eps": 1e-3, "weighting_tau": 1e300}),  # max() alone would pass the NaN
        # Q(h)_11, of order h^13, underflows to 0: both raise before scoring.
        ("tiny_span", {"q": 7, "eps": 1e-3, "h_init": 1e-27}),
    ])
    def test_forms_agree_bit_for_bit(self, name, kwargs, monkeypatch):
        config, outcomes = SolverConfig(**kwargs), []
        for bound in _SCORING_FORMS:
            monkeypatch.setattr(solver, "_FLOAT_SCORING_DIM", bound)
            outcomes.append(_solve_outcome(name, config))
        assert outcomes[0] == outcomes[1]
        if name in ("nan_D", "tiny_span"):
            assert isinstance(outcomes[0][1], str)  # both raised


class TestLoopBranches:
    def test_forced_accept_after_max_rejections(self):
        p = get_problem("logistic")
        cfg = SolverConfig(q=4, eps=1e-3)
        res = solve(p, cfg)
        assert (res.steps_accepted, res.steps_rejected, res.fevals) == (52, 61, 114)
        streak = res.per_step[: solver._MAX_REJECTIONS]
        assert not any(r.accepted for r in streak)
        assert all(np.isfinite(r.sigma2_hat).all() for r in streak)
        forced = res.per_step[solver._MAX_REJECTIONS]
        assert forced.accepted and np.max(forced.D) == pytest.approx(1.7146e-3, rel=1e-4)
        assert np.max(forced.D) > cfg.eps

    @pytest.mark.parametrize("name, kwargs, message, nfev", [
        # Q(h)_11 = h^13 / q11_den underflowed to 0 while h passed the underflow
        # check; the residual's 0/0 made D and the next h NaN, which no check
        # caught, and the loop spun to _MAX_STEPS and blamed the tolerance.
        ("tiny_span", {"q": 7, "eps": 1e-3, "h_init": 1e-27},
         r"^step size 1e-27 underflowed at t = 0\.0: Q\(h\)_11 is 0$", 1),
        # A NaN D makes the next h NaN, which "h < bound" let through.  The message
        # names the attempt, its D and the weight of 0 that made D_1 NaN.
        ("nan_D", {"q": 2, "eps": 1e-3, "weighting_tau": 1e300},
         r"^step size nan at t = 0\.0: the attempt at h = 0\.01 scored D = \[ 0\. nan\]; "
         r".*weights were \[[^],]+, 0\.0\] at tau = 1e\+300$", 2),
    ], ids=["q11_zero", "nan_step"])
    @pytest.mark.parametrize("bound", _SCORING_FORMS, ids=list(_SCORING_FORMS.values()))
    def test_underflow_raises_at_once(self, name, kwargs, message, nfev, bound, monkeypatch):
        monkeypatch.setattr(solver, "_FLOAT_SCORING_DIM", bound)
        problem = _form_problem(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeUnderflowError, match=message):
                solve(problem, SolverConfig(**kwargs))
        assert problem.nfev == nfev  # the start's reading, then at most one attempt's

    def test_max_steps_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 10)
        with pytest.raises(RuntimeError, match="after 10 attempted steps"):
            solve(get_problem("logistic"), SolverConfig(q=2, eps=1e-3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fixed_step": 10.0 / 300},
            # adaptive: forced through at the end of a streak of inf estimates, from
            # readings past t0 that are finite but whose squared residuals overflow
            {"eps": 1e-3, "rhs": lambda t, y: np.full(2, 1e200) if t > 0.0 else y},
        ],
    )
    @pytest.mark.parametrize("bound", _SCORING_FORMS, ids=list(_SCORING_FORMS.values()))
    def test_diverged_step_raises_runtime_error(self, kwargs, bound, monkeypatch):
        # The estimate overflowed with a warning and reached predict, whose
        # bare ValueError the CLI reported as a usage error.  Either scoring
        # form overflows to inf without a warning.
        monkeypatch.setattr(solver, "_FLOAT_SCORING_DIM", bound)
        kwargs, p = dict(kwargs), get_problem("brusselator")
        problem = IvpProblem(p.name, p.dim, p.t0, p.T, p.y0, kwargs.pop("rhs", p.rhs))
        with pytest.raises(RuntimeError, match=r"diverged at t = \S+, h = \S+: .* is \[inf inf\]"):
            solve(problem, SolverConfig(q=4, **kwargs))

    def test_global_ml_run_stops_at_an_inf_estimate(self):
        # global_ml averages the accepted estimates into the run's diffusion,
        # so one inf estimate would leave every covariance non-finite.
        p = get_problem("brusselator")
        cfg = SolverConfig(q=1, fixed_step=(p.T - p.t0) / 5, sigma_mode="global_ml")
        with pytest.raises(RuntimeError, match=r"diverged at t = \S+, h = 2.0: .* is \[inf inf\]"):
            solve(p, cfg)

    @pytest.mark.parametrize("bound", _SCORING_FORMS, ids=list(_SCORING_FORMS.values()))
    def test_nonfinite_rejections_do_not_extend_streak(self, bound, monkeypatch):
        monkeypatch.setattr(solver, "_FLOAT_SCORING_DIM", bound)
        calls = {"n": 0}

        def flaky(t, y):
            calls["n"] += 1
            if 2 <= calls["n"] <= 3:  # poison the first two step attempts
                return np.array([np.nan])
            return 3 * y * (1 - y)

        p = IvpProblem(name="flaky", dim=1, t0=0.0, T=1.5, y0=np.array([0.1]), rhs=flaky)
        monkeypatch.setattr(solver, "_MAX_REJECTIONS", 1)
        res = solve(p, SolverConfig(q=4, eps=1e-3))
        first = res.per_step[:4]
        assert [np.isnan(r.sigma2_hat).all() for r in first] == [True, True, False, False]
        # Counted, the two non-finite rejections would force attempt 2 through.
        assert [r.accepted for r in first] == [False, False, False, True]
        assert np.max(first[3].D) > 1e-3

    @pytest.mark.parametrize(
        "kwargs, n_start",
        [
            ({"eps": 1e-3}, 0),
            ({"eps": 1e-3, "init_mode": "diffuse_filter"}, 1),
            ({"eps": 1e-3, "obs_strategy": "sampled", "seed": 3}, 0),
            ({"fixed_step": 0.1, "sigma_mode": "global_ml"}, 0),
            ({"fixed_step": 0.1, "sigma_mode": "global_ml", "init_mode": "diffuse_filter"}, 1),
        ],
    )
    def test_sigma2_trace_is_accepted_step_sigma2(self, kwargs, n_start):
        res = solve(get_problem("logistic"), SolverConfig(q=2, **kwargs))
        accepted = res.path.step_sigma2[n_start:]
        assert res.steps_accepted == len(accepted) > 0
        assert res.steps_rejected == len(res.per_step) - len(accepted)
        assert np.array_equal(res.sigma2_trace, np.asarray(accepted))


class TestStepRecord:
    def test_rows_hold_each_attempts_values(self):
        # The columns keep what the loop scored, bit for bit: each attempt's
        # residual, rebuilt from the knot it started at, gives the same
        # sigma2_hat, D and h_next through the public step-control functions.
        # The reports carry the scalar types they always had.
        problem, config = get_problem("brusselator"), SolverConfig(q=2, eps=1e-3)
        res = solve(problem, config)
        reports, path, q1 = res.per_step, res.path, config.q + 1
        assert len(reports) == res.steps_accepted + res.steps_rejected
        knot = {t: i for i, t in enumerate(path.knots.tolist())}
        for r in reports:
            q11 = discrete_transition(config.q, r.h)[2]
            pred_mean = predict(path.filtered[knot[r.t]], r.h).mean
            residual = problem.rhs(r.t + r.h, pred_mean[0::q1]) - pred_mean[1::q1]
            sigma2 = stepcontrol.estimate_sigma2(residual, q11)
            ebar = config.eps * r.h / r.h
            D, passed = stepcontrol.local_error_test(sigma2, q11, pred_mean[0::q1],
                                                     config.weighting_tau, ebar)
            assert r.sigma2_hat.tobytes() == sigma2.tobytes() and r.D.tobytes() == D.tobytes()
            assert r.h_next == stepcontrol.next_step_size(float(D.max()), ebar, r.h, config.q)
            if r.accepted:
                assert path.knots[knot[r.t] + 1] == r.t + r.h
        assert sum(r.accepted for r in reports) == res.steps_accepted
        for r in reports[::50]:
            assert type(r.t) is type(r.h) is type(r.h_next) is float and type(r.accepted) is bool
        assert reports[-1].t + reports[-1].h == res.knots[-1] == get_problem("brusselator").T
        assert [r.h for r in reports[-3:]] == [reports[i].h for i in (-3, -2, -1)]

    @pytest.mark.parametrize("sigma_mode", ["local_ml", "global_ml"])
    def test_fixed_step_D_is_unweighted(self, sigma_mode):
        # A fixed step makes no error test, so its D is sqrt(sigma2_hat * Q(h)_11)
        # without the weights w_i, bit for bit; sigma2_hat is the step's own
        # estimate under global_ml too.  perfbench's linear_nd_sweep reads this D.
        problem = get_problem("brusselator")
        config = SolverConfig(q=2, fixed_step=0.05, sigma_mode=sigma_mode)
        res = solve(problem, config)
        assert res.steps_rejected == 0 and len(res.per_step) == len(res.knots) - 1
        weighted = []
        for r, pred_mean in zip(res.per_step, res.path.columns["pred_mean"][1:]):
            q11 = discrete_transition(config.q, r.h)[2]
            residual = problem.rhs(r.t + r.h, pred_mean[0::3]) - pred_mean[1::3]
            sigma2 = stepcontrol.estimate_sigma2(residual, q11)
            assert r.sigma2_hat.tobytes() == sigma2.tobytes()
            assert r.D.tobytes() == np.sqrt(sigma2 * q11).tobytes()
            assert r.accepted and r.h_next == r.h
            weighted.append(stepcontrol.local_error_test(sigma2, q11, pred_mean[0::3],
                                                         config.weighting_tau, 1.0)[0])
        assert not np.array_equal([r.D for r in res.per_step], weighted)

    def test_retained_bytes_per_knot(self):
        # A knot keeps its state in shared columns: 272 bytes of arrays at
        # d=2, q=2, and the attempt record 57 bytes per attempt.  Stored as
        # objects they took 1.9 KB per knot, and smoothing added 552 bytes.
        import gc
        import tracemalloc

        problem, config = get_problem("vdp"), SolverConfig(q=2, eps=1e-3)
        solve(problem, SolverConfig(q=2, eps=1e-1))  # caches and lazy set-up
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = solve(problem, config)
            gc.collect()
            solved = tracemalloc.get_traced_memory()[0]
            smooth(res.path)
            gc.collect()
            smoothed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n = len(res.knots)
        assert n > 1000
        assert (solved - start) / n < 1883 / 3
        assert (smoothed - solved) / n <= 200


def _count_qr_and_transitions(monkeypatch) -> dict:
    """Counts of QRs (``filtering._triangularize`` calls) and of checked
    transitions (``discrete_transition`` calls, through any module) from here on."""
    from odefilter import filtering, priors

    counts = {"qr": 0, "transition": 0}
    qr, checked = filtering._triangularize, priors.discrete_transition

    def counting_qr(*args, **kwargs):
        counts["qr"] += 1
        return qr(*args, **kwargs)

    def counting_transition(*args, **kwargs):
        counts["transition"] += 1
        return checked(*args, **kwargs)

    monkeypatch.setattr(filtering, "_triangularize", counting_qr)
    for module in (priors, filtering, solver):
        monkeypatch.setattr(module, "discrete_transition", counting_transition)
    return counts


class TestAcceptedStepCost:
    @pytest.mark.parametrize("name", ["logistic", "vdp"])
    def test_one_qr_per_accepted_step_and_no_transition_object(self, name, monkeypatch):
        # After the start, an accepted step takes exactly one QR, a rejected
        # attempt none, and no step calls the checked discrete_transition: the reading
        # of attempt k comes after all of attempt k-1's work.
        counts = _count_qr_and_transitions(monkeypatch)
        problem, config = get_problem(name), SolverConfig(q=2, eps=1e-3)
        initialize(problem, config)
        start = dict(counts)
        problem = get_problem(name)
        rhs, at_reading = problem.rhs, []

        def reading(t, y):
            at_reading.append(counts["qr"])
            return rhs(t, y)

        problem.rhs = reading
        counts.update(qr=0, transition=0)
        res = solve(problem, config)
        assert res.steps_rejected > 0
        # The start's readings, then one per attempt, then the end of the solve.
        marks = np.array(at_reading[res.fevals - len(res.per_step):] + [counts["qr"]])
        accepted = np.array([r.accepted for r in res.per_step], dtype=int)
        assert marks[0] == start["qr"] and np.array_equal(np.diff(marks), accepted)
        assert counts["transition"] == start["transition"]


class TestStartCost:
    @pytest.mark.parametrize("strategy", ["mean", "sampled"])
    def test_diffuse_start_takes_one_qr_per_step_and_no_transition_object(self, strategy,
                                                                          monkeypatch):
        # Knot 0 is pinned without a QR, then one QR per starter step, as in the
        # loop: a sampled draw is sized from the unfactored predicted factor.
        counts = _count_qr_and_transitions(monkeypatch)
        config = SolverConfig(q=4, init_mode="diffuse_filter", obs_strategy=strategy, seed=3)
        initialize(get_problem("vdp"), config)
        assert counts == {"qr": 3, "transition": 0}  # steps to t0 + (1/3, 1/2, 1) h_init

    @pytest.mark.parametrize("strategy", ["mean", "sampled"])
    def test_exact_start_takes_no_qr(self, strategy, monkeypatch):
        counts = _count_qr_and_transitions(monkeypatch)
        initialize(get_problem("vdp"), SolverConfig(q=4, obs_strategy=strategy, seed=3))
        assert counts == {"qr": 0, "transition": 0}

    @pytest.mark.parametrize("name", ["logistic", "brusselator", "vdp", "linear(-2)"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("init_mode", ["exact", "diffuse_filter"])
    def test_pinned_knot_0_is_two_updates_bit_for_bit(self, name, q, init_mode):
        # The closed form of conditioning the diagonal prior on y(t0) and y'(t0).
        problem = get_problem(name)
        path = solver._starter_path(problem, SolverConfig(q=q, init_mode=init_mode))
        state, _ = update(path.predictions[0], problem.y0, 0)
        slope = problem.eval_rhs(problem.t0, problem.y0)
        state, _ = update(state, slope, 1)
        pinned = path.filtered[0]
        assert pinned.mean.tobytes() == state.mean.tobytes()
        assert pinned.factor.tobytes() == state.factor.tobytes()


class TestStarterModes:
    def test_rk_starter_q4_runs_and_matches_closed_form(self):
        from odefilter import rk_starter_q4

        for name in ("logistic", "vdp", "brusselator"):
            p = get_problem(name)
            readings = []

            def recording_rhs(t, y, f=p.rhs):
                readings.append(np.atleast_1d(f(t, y)))
                return readings[-1]

            rec = IvpProblem(p.name, p.dim, p.t0, p.T, p.y0, recording_rhs)
            st = initialize(rec, SolverConfig(q=4, init_mode="rk_starter"))
            h = (p.T - p.t0) / 100  # the default h_init
            assert len(readings) == 4  # at t0 + (0, 1/3, 1/2, 1) h
            for k in range(p.dim):
                z_k = [z[k] for z in readings]
                mean, cov = rk_starter_q4(1 / 3, 1 / 2, h, 1.0, z_k, float(p.y0[k]))
                got_mean, got_cov = st.mean[5 * k : 5 * k + 5], st.cov[k]
                assert np.max(np.abs(got_mean - mean)) <= 1e-9 * np.max(np.abs(mean)), name
                assert np.max(np.abs(got_cov - cov)) <= 1e-9 * np.max(np.abs(cov)), name

        p = get_problem("logistic")
        # the q = 4 stability region is tiny; keep h*|f'| well inside it
        res = solve(p, SolverConfig(q=4, fixed_step=0.025, init_mode="rk_starter"))
        assert res.knots[-1] == p.T
        err = abs(res.solution_means()[-1][0] - p.exact(p.T)[0])
        assert err < 1e-5

    def test_rk_starter_low_order_equals_diffuse(self):
        # rk_starter is another name for the diffuse start, at q = 4 too.
        for q, step in ((2, 0.1), (4, 0.025)):
            outs = []
            for mode in ("rk_starter", "diffuse_filter"):
                res = solve(get_problem("logistic"), SolverConfig(q=q, fixed_step=step, init_mode=mode))
                outs.append((res.solution_means(), res.solution_stds()))
            assert np.array_equal(outs[0][0], outs[1][0]), q
            assert np.array_equal(outs[0][1], outs[1][1]), q
