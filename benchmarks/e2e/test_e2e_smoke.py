"""Smoke test of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` stays ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import compare, layer_that_moved, verdict
from benchmarks.e2e.harness import median_iqr, smallest_reaching

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declaration_is_within_the_contract():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), summary


def test_smoke_emits_exactly_what_is_declared(smoke):
    record, summary = smoke
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["correct"] and summary["failed"] == 0
    assert record["machine"]["non_standard"]
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in record["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in entry[kind].items()}
            assert got == want, (name, kind)
        for metric, value in entry["end_to_end"].items():
            assert value["value"] > 0, (name, metric)
        assert entry["correct"], (name, entry["fail_reasons"])
        assert entry["layers_unavailable"] == []


def test_smoke_contrasts_the_cache_regimes(smoke):
    record, _ = smoke
    warm = record["workloads"]["warm_ann"]["per_layer"]
    tight = record["workloads"]["constrained_ann"]["per_layer"]
    assert warm["storage.cache_hit_ratio"]["value"] >= 0.99
    assert tight["storage.cache_hit_ratio"]["value"] < 0.6
    assert warm["storage.bytes_read_per_query"]["value"] == 0
    assert tight["storage.bytes_read_per_query"]["value"] > 0


def test_one_workload_prints_the_contract_line():
    done = subprocess.run(
        RUN
        + ["--smoke", "--workload", "warm_ann", "--seed", "4"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}


def test_median_and_iqr():
    assert median_iqr([3.0]) == (3.0, 0.0)
    median, iqr = median_iqr([1.0, 2.0, 3.0, 4.0, 100.0])
    assert median == 3.0
    assert iqr == pytest.approx(52.0 - 1.5)  # statistics.quantiles, n=4


def test_smallest_reaching_bisects():
    calls = []

    def measure(n):
        calls.append(n)
        return n / 10

    assert smallest_reaching(measure, 0.7) == 7
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "a, b, iqr_a, iqr_b, better, bound, want",
    [
        (10.0, 10.5, 0.1, 0.1, "lower", 0.10, "unchanged"),
        (10.0, 11.5, 0.1, 0.1, "lower", 0.10, "regressed"),
        (10.0, 8.5, 0.1, 0.1, "lower", 0.10, "improved"),
        (10.0, 8.5, 0.1, 0.1, "higher", 0.10, "regressed"),
        (10.0, 11.5, 0.1, 0.1, "higher", 0.10, "improved"),
        (10.0, 11.5, 1.5, 0.1, "lower", 0.10, "unresolved"),
        (10.0, 10.0, 0.1, 1.5, "lower", 0.10, "unresolved"),
    ],
)
def test_verdict(a, b, iqr_a, iqr_b, better, bound, want):
    assert verdict(a, b, iqr_a, iqr_b, better, bound) == want


def _record(p50: float, topk: float) -> dict:
    end_to_end = {
        m["name"]: {"value": 1.0, "iqr": 0.0, "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    end_to_end["search_p50_ms"] = {"value": p50, "iqr": 0.01, "unit": "ms"}
    per_layer = {
        "query.topk_us_per_query": {"value": topk, "unit": "us"},
        "query.kernel_us_per_query": {"value": 90.0, "unit": "us"},
        "shard.merge_us": {"value": 0.0, "unit": "us"},
    }
    return {
        "workloads": {
            "warm_ann": {
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "not_exercised": ["shard.merge_us"],
            }
        }
    }


def test_compare_names_the_layer_that_moved():
    a, b = _record(1.0, 400.0), _record(0.7, 150.0)
    rows = compare(a, b, SPEC)
    assert len(rows) == len(SPEC["end_to_end"])
    moved = [r for r in rows if r["verdict"] != "unchanged"]
    assert [r["metric"] for r in moved] == ["search_p50_ms"]
    assert moved[0]["verdict"] == "improved"
    assert moved[0]["ratio"] == pytest.approx(0.7)
    assert moved[0]["layer"] == ("query.topk_us_per_query", 400.0, 150.0)
    side = a["workloads"]["warm_ann"]
    assert layer_that_moved(side, side)[0] in side["per_layer"]
