from dataclasses import replace

import numpy as np
import pytest

from odefilter import (
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
        res = solve(p, replace(cfg, eps=1e-4))
        xi = local_errors(p, res)
        hs = np.diff(res.knots)
        assert record.steps == res.steps_accepted
        assert record.fevals == res.fevals
        assert record.deceived_fraction == deceived_fraction(xi, hs, 1e-4)
        assert record.max_error_per_unit_step == pytest.approx(
            max_error_per_unit_step(xi, hs, 1e-4), rel=1e-12
        )


    def test_start_intervals_not_scored(self):
        # The diffuse start's interval is no accepted step: the error test never bounded it.
        cfg = SolverConfig(q=2, init_mode="diffuse_filter")
        [record] = run_benchmark(["vdp"], [1e-3], cfg)
        p = get_problem("vdp")
        res = solve(p, replace(cfg, eps=1e-3))
        xi, hs = local_errors(p, res), np.diff(res.knots)
        n = res.steps_accepted
        assert record.steps == n < len(xi)
        assert record.deceived_fraction == deceived_fraction(xi[-n:], hs[-n:], 1e-3)
        assert record.max_error_per_unit_step == max_error_per_unit_step(xi[-n:], hs[-n:], 1e-3)


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
    HEADER = "problem,eps,fevals,steps,deceived_fraction,max_error_per_unit_step,status"

    def _columns(self):
        return {"problem": ["logistic", "vdp"], "eps": [1e-3, 1e-6], "fevals": [12, 3000],
                "steps": [10, 2900], "deceived_fraction": [0.1, 0.0],
                "max_error_per_unit_step": np.array([1.5, 0.8]), "status": ["ok", "ok"]}

    def test_empty_csv_has_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit({name: [] for name in self._columns()}, "csv", out)
        lines = out.read_text().splitlines()
        assert lines == [self.HEADER]

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        emit(self._columns(), "csv", out)
        assert out.read_text().splitlines()[0] == self.HEADER
        rows = read_back(out, "csv")
        assert rows[0]["problem"] == "logistic"
        assert float(rows[0]["eps"]) == 1e-3
        assert float(rows[1]["max_error_per_unit_step"]) == 0.8

    def test_json_schema_and_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        emit(self._columns(), "json", out)
        import json

        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        rows = doc["records"]
        assert ",".join(rows[0]) == self.HEADER
        assert rows[0]["eps"] == 1e-3
        assert rows[1]["fevals"] == 3000
        assert rows[1]["max_error_per_unit_step"] == 0.8

    def test_json_takes_numpy_scalars_and_nothing_else(self, tmp_path):
        out = tmp_path / "n.json"
        emit({"n": [np.int64(3)], "x": [np.float32(0.5)], "y": [np.float64(0.1)]}, "json", out)
        assert read_back(out, "json") == [{"n": 3, "x": 0.5, "y": 0.1}]
        with pytest.raises(TypeError, match="ndarray"):
            emit({"a": [np.zeros(2)]}, "json", tmp_path / "a.json")

    def test_seventeen_digit_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        out = tmp_path / "p.csv"
        emit({"x": [value]}, "csv", out)
        got = float(read_back(out, "csv")[0]["x"])
        assert got == value

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self._columns(), "xml", tmp_path / "x")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_raise_before_writing(self, tmp_path, fmt):
        out = tmp_path / f"u.{fmt}"
        with pytest.raises(ValueError, match="column 'b' has 1 values, the first column has 2"):
            emit({"a": [1, 2], "b": [3], "c": [4, 5, 6]}, fmt, out)
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        def table():
            records = run_benchmark(["logistic"], [1e-3, 1e-4])
            return {name: [getattr(r, name) for r in records] for name in self.HEADER.split(",")}

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(table(), "csv", a)
        emit(table(), "csv", b)
        assert a.read_bytes() == b.read_bytes()
