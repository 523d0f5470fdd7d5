import numpy as np
import pytest

from odefilter import (
    BenchRecord,
    SolverConfig,
    emit,
    error_calibration,
    get_problem,
    local_errors,
    run_benchmark,
    solve,
)
from odefilter.bench import (
    chi1_cdf,
    deceived_fraction,
    max_error_per_unit_step,
    read_back,
)


class TestMetricDefinitions:
    def test_componentwise_definitions(self):
        h, eps = 0.2, 1e-3
        hs = np.full(3, h)
        xi = np.array([0.5, 2.0, 0.5]) * h * eps
        assert deceived_fraction(xi, hs, eps) == pytest.approx(1 / 3)
        assert max_error_per_unit_step(xi, hs, eps) == pytest.approx(2.0)

    def test_empty_mesh(self):
        empty = np.empty(0)
        assert deceived_fraction(empty, empty, 1e-3) == 0.0
        assert max_error_per_unit_step(empty, empty, 1e-3) == 0.0


class TestRunBenchmark:
    def test_empty_eps_list(self):
        assert run_benchmark(["logistic"], []) == []

    def test_cost_grows_as_tolerance_shrinks(self):
        records = run_benchmark(["logistic"], [1e-3, 1e-6], SolverConfig(q=2))
        assert [r.eps for r in records] == [1e-3, 1e-6]
        assert records[1].fevals > records[0].fevals
        assert all(r.status == "ok" for r in records)

    def test_failures_recorded_not_raised(self):
        records = run_benchmark(["logistic", "does-not-exist"], [1e-3])
        assert len(records) == 2
        assert records[0].status == "ok"
        assert records[1].status.startswith("failed")
        assert np.isnan(records[1].deceived_fraction)

    def test_summary_matches_recomputation(self):
        cfg = SolverConfig(q=2)
        [record] = run_benchmark(["logistic"], [1e-4], cfg)
        p = get_problem("logistic")
        from dataclasses import replace

        res = solve(p, replace(cfg, eps=1e-4))
        xi = local_errors(p, res)
        hs = np.diff(res.knots)
        assert record.steps == res.steps_accepted
        assert record.fevals == res.fevals
        assert record.deceived_fraction == deceived_fraction(xi, hs, 1e-4)
        assert record.max_error_per_unit_step == pytest.approx(
            max_error_per_unit_step(xi, hs, 1e-4), rel=1e-12
        )


class TestCalibration:
    def test_all_zero_errors(self):
        p = get_problem("linear(0)")
        res = solve(p, SolverConfig(q=2, fixed_step=0.25))
        xi = np.zeros(res.steps_accepted)
        table = error_calibration(res, xi)
        assert table.ecdf_at(0.0) == 1.0
        assert table.infinite_count == 0

    def test_chi1_reference_values(self):
        assert chi1_cdf(1.0) == pytest.approx(0.6827, abs=1e-4)
        assert chi1_cdf(0.0) == 0.0

    def test_infinite_bucket(self):
        p = get_problem("linear(0)")
        res = solve(p, SolverConfig(q=2, fixed_step=0.25))
        xi = np.ones(res.steps_accepted)  # nonzero error but zero estimate
        table = error_calibration(res, xi)
        assert table.infinite_count == res.steps_accepted
        assert table.ecdf_at(1e12) < 1.0

    def test_logistic_run_is_conservative(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-4))
        xi = local_errors(p, res)
        table = error_calibration(res, xi)
        assert table.ecdf_at(1.0) >= chi1_cdf(1.0)
        assert table.overestimated_fraction > 0.5

    def test_diffuse_start_drops_starter_intervals(self):
        # The diffuse q=2 start adds one interval before the 140 solver steps.
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, eps=1e-3, init_mode="diffuse_filter"))
        xi = local_errors(p, res)
        assert (res.steps_accepted, xi.size) == (140, 141)
        table = error_calibration(res, xi)
        steps_only = error_calibration(res, xi[1:])
        assert np.array_equal(table.ratios, steps_only.ratios)
        assert table.ratios.size + table.infinite_count == 140

    @pytest.mark.parametrize("q", [2, 3])
    def test_start_spanning_the_whole_run(self, q):
        # With h_init = T - t0 the start reaches T, so no solver step is
        # taken; slicing the last 0 errors used to keep all q-1 of them.
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=q, eps=1e-3, init_mode="diffuse_filter", h_init=1.5))
        xi = local_errors(p, res)
        assert (res.steps_accepted, xi.size) == (0, q - 1)
        table = error_calibration(res, xi)
        assert table.ratios.size == 0 and table.infinite_count == 0
        assert table.overestimated_fraction == 0.0

    def test_length_mismatch_rejected(self):
        p = get_problem("logistic")
        res = solve(p, SolverConfig(q=2, fixed_step=0.3))
        with pytest.raises(ValueError):
            error_calibration(res, np.zeros(2))


class TestEmit:
    def _records(self):
        return [
            BenchRecord("logistic", 1e-3, 12, 10, 0.1, 1.5, 0.123),
            BenchRecord("vdp", 1e-6, 3000, 2900, 0.0, 0.8, 4.5),
        ]

    def test_empty_csv_has_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], "csv", out)
        lines = out.read_text().splitlines()
        assert lines == ["problem,eps,fevals,steps,deceived_fraction,max_error_per_unit_step,status"]

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        emit(self._records(), "csv", out)
        rows = read_back(out, "csv")
        assert rows[0]["problem"] == "logistic"
        assert float(rows[0]["eps"]) == 1e-3
        assert float(rows[1]["max_error_per_unit_step"]) == 0.8
        assert "runtime" not in rows[0]

    def test_runtime_column_opt_in(self, tmp_path):
        out = tmp_path / "t.csv"
        emit(self._records(), "csv", out, include_runtime=True)
        assert "runtime" in out.read_text().splitlines()[0]

    def test_json_schema_and_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        emit(self._records(), "json", out)
        import json

        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        rows = doc["records"]
        assert rows[0]["eps"] == 1e-3
        assert rows[1]["fevals"] == 3000

    def test_json_takes_numpy_scalars_and_nothing_else(self, tmp_path):
        out = tmp_path / "n.json"
        emit([{"n": np.int64(3), "x": np.float32(0.5), "y": np.float64(0.1)}], "json", out)
        assert read_back(out, "json") == [{"n": 3, "x": 0.5, "y": 0.1}]
        with pytest.raises(TypeError, match="ndarray"):
            emit([{"a": np.zeros(2)}], "json", tmp_path / "a.json")

    def test_seventeen_digit_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        out = tmp_path / "p.csv"
        emit([{"x": value}], "csv", out)
        got = float(read_back(out, "csv")[0]["x"])
        assert got == value

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self._records(), "xml", tmp_path / "x")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        records = run_benchmark(["logistic"], [1e-3, 1e-4])
        emit(records, "csv", a)
        records2 = run_benchmark(["logistic"], [1e-3, 1e-4])
        emit(records2, "csv", b)
        assert a.read_bytes() == b.read_bytes()
