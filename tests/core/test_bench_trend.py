"""Benchmark trend-diff logic (the CI regression gate)."""

from __future__ import annotations

import json

from benchmarks.check_bench_trend import (
    check_directories,
    compare_artifacts,
    flatten_metrics,
)


class TestFlatten:
    def test_nested_numeric_leaves(self):
        payload = {
            "results": {
                "sq8": {"mean_latency_ms": 1.5, "scan_mode": "sq8"},
                "none": {"bytes_read_per_query": 2048},
            },
            "ok": True,
        }
        flat = flatten_metrics(payload)
        assert flat == {
            "results.sq8.mean_latency_ms": 1.5,
            "results.none.bytes_read_per_query": 2048.0,
        }

    def test_lists_are_indexed(self):
        flat = flatten_metrics({"series": [{"p50_ms": 3.0}]})
        assert flat == {"series[0].p50_ms": 3.0}


class TestCompare:
    def test_within_threshold_is_quiet(self):
        base = {"a.cold_p50_ms": 10.0, "a.bytes_read_per_query": 1000.0}
        cur = {"a.cold_p50_ms": 11.9, "a.bytes_read_per_query": 1100.0}
        failures, warnings = compare_artifacts(base, cur)
        assert failures == []
        assert warnings == []

    def test_bytes_regression_fails(self):
        base = {"r.bytes_read_per_query": 1000.0}
        cur = {"r.bytes_read_per_query": 1300.0}
        failures, warnings = compare_artifacts(base, cur)
        assert len(failures) == 1
        assert "+30%" in failures[0]
        assert warnings == []

    def test_latency_regression_warns(self):
        base = {"r.mean_latency_ms": 10.0, "r.cold_p95_ms": 5.0}
        cur = {"r.mean_latency_ms": 14.0, "r.cold_p95_ms": 5.1}
        failures, warnings = compare_artifacts(base, cur)
        assert failures == []
        assert len(warnings) == 1
        assert "mean_latency_ms" in warnings[0]

    def test_improvements_and_new_metrics_ignored(self):
        base = {"r.mean_latency_ms": 10.0}
        cur = {"r.mean_latency_ms": 2.0, "r.bytes_read_per_query": 9e9}
        failures, warnings = compare_artifacts(base, cur)
        assert failures == [] and warnings == []

    def test_diagnostic_timings_not_gated(self):
        base = {"r.io_time_ms": 1.0, "r.compute_time_ms": 1.0}
        cur = {"r.io_time_ms": 99.0, "r.compute_time_ms": 99.0}
        failures, warnings = compare_artifacts(base, cur)
        assert failures == [] and warnings == []

    def test_higher_is_better_keys_never_flag(self):
        # Growth of a speedup/recall/reduction metric is an
        # improvement, even when the key embeds a percentile name.
        base = {
            "cold_p50_speedup": 1.4,
            "recall_at_k": 0.9,
            "io_reduction_factor": 3.0,
        }
        cur = {
            "cold_p50_speedup": 1.9,
            "recall_at_k": 1.0,
            "io_reduction_factor": 4.2,
        }
        failures, warnings = compare_artifacts(base, cur)
        assert failures == [] and warnings == []

    def test_zero_baseline_skipped(self):
        failures, warnings = compare_artifacts(
            {"r.cold_p50_ms": 0.0}, {"r.cold_p50_ms": 5.0}
        )
        assert failures == [] and warnings == []

    def test_missing_bytes_gate_fails_hard(self):
        # A gated metric vanishing from the current run must not read
        # as "no regression" — a renamed key would silently disable
        # the gate forever.
        base = {"r.bytes_read_per_query": 1000.0}
        failures, warnings = compare_artifacts(base, {})
        assert len(failures) == 1
        assert "missing" in failures[0]
        assert warnings == []

    def test_missing_latency_key_warns(self):
        base = {"r.cold_p50_ms": 10.0}
        failures, warnings = compare_artifacts(base, {})
        assert failures == []
        assert len(warnings) == 1
        assert "missing" in warnings[0]

    def test_missing_ungated_key_ignored(self):
        base = {"r.scan_sharing": 2.0, "r.io_time_ms": 1.0}
        failures, warnings = compare_artifacts(base, {})
        assert failures == [] and warnings == []


class TestDirectories:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))

    def test_missing_baseline_passes(self, tmp_path):
        current = tmp_path / "current"
        current.mkdir()
        self._write(current / "x.json", {"p50_ms": 1.0})
        assert check_directories(tmp_path / "absent", current) == 0

    def test_regressed_bytes_fail_run(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        self._write(baseline / "x.json", {"bytes_read_per_query": 100})
        self._write(current / "x.json", {"bytes_read_per_query": 200})
        assert check_directories(baseline, current) == 1
        assert "::error::" in capsys.readouterr().out

    def test_latency_drift_passes_with_warning(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        self._write(baseline / "x.json", {"cold_p50_ms": 10.0})
        self._write(current / "x.json", {"cold_p50_ms": 20.0})
        assert check_directories(baseline, current) == 0
        assert "::warning::" in capsys.readouterr().out

    def test_unreadable_artifact_warns_but_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        (baseline / "x.json").write_text("{not json")
        (current / "x.json").write_text("{}")
        assert check_directories(baseline, current) == 0
        assert "::warning::" in capsys.readouterr().out


class TestWarmClosedLoopRows:
    """``bench_concurrent.py``'s warm closed-loop rows: wall-clock on
    a shared runner, so a regression warns and never fails."""

    @staticmethod
    def artifact(p50: float, ratio: float) -> dict[str, float]:
        return flatten_metrics(
            {
                "warm_closed_loop": {
                    "2": {
                        "served": {"p50_ms": p50, "p95_ms": 2 * p50},
                        "floor": {"p50_ms": 1.2, "p95_ms": 1.6},
                        "served_over_floor_p50": ratio,
                    }
                }
            }
        )

    def test_latency_and_ratio_growth_warn_only(self):
        failures, warnings = compare_artifacts(
            self.artifact(1.3, 1.1), self.artifact(3.9, 3.2)
        )
        assert failures == []
        flagged = {w.split(":")[0] for w in warnings}
        assert flagged == {
            "warm_closed_loop.2.served.p50_ms",
            "warm_closed_loop.2.served.p95_ms",
            "warm_closed_loop.2.served_over_floor_p50",
        }

    def test_rows_new_to_the_baseline_are_quiet(self):
        failures, warnings = compare_artifacts(
            {"results.16.scheduled_cold.bytes_read": 5.0e6},
            {
                "results.16.scheduled_cold.bytes_read": 5.0e6,
                **self.artifact(1.3, 1.1),
            },
        )
        assert (failures, warnings) == ([], [])
