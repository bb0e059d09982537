"""Metrics registry: instruments, exposition, merge, concurrency."""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig, merge_snapshots
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_labels_and_sum(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Hits.", labels=("kind",))
        c.inc(kind="a")
        c.inc(2.0, kind="a")
        c.inc(kind="b")
        snap = reg.snapshot()
        assert snap.value("hits_total", {"kind": "a"}) == 3.0
        assert snap.value("hits_total") == 4.0

    def test_bound_counter_is_inc_with_the_key_resolved_once(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Hits.", labels=("kind", "temp"))
        hot = c.bound(kind="a", temp="hot")
        hot()
        hot(2.0)
        c.inc(kind="a", temp="hot")
        assert reg.snapshot().value("hits_total", {"temp": "hot"}) == 4.0
        assert len(reg.snapshot().family("hits_total").samples) == 1
        with pytest.raises(ValueError):
            c.bound(kind="a")  # label mistakes surface at bind time
        off = MetricsRegistry(enabled=False).counter("z_total")
        off.bound()()
        assert off._snapshot_samples() == ()

    def test_gauge_set_add_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "Depth.", labels=("pool",))
        g.set(5.0, pool="x")
        g.add(2.0, pool="x")
        g.set_fn(lambda: 7.0, pool="y")
        snap = reg.snapshot()
        assert snap.value("depth", {"pool": "x"}) == 7.0
        assert snap.value("depth", {"pool": "y"}) == 7.0

    def test_gauge_callback_errors_are_dropped(self):
        reg = MetricsRegistry()
        g = reg.gauge("flaky", "Flaky.")

        def boom() -> float:
            raise RuntimeError("down")

        g.set_fn(boom)
        assert reg.snapshot().value("flaky") == 0.0

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "Latency.", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 100.0):
            h.observe(v)
        hist = reg.snapshot().histogram("lat")
        assert hist.counts == (2, 3, 4)
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.1)

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "X.", labels=("l",))
        b = reg.counter("x_total", "other help", labels=("l",))
        assert a is b

    def test_registration_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("other",))

    def test_wrong_labels_raise(self):
        reg = MetricsRegistry()
        c = reg.counter("y_total", labels=("kind",))
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            c.inc(kind="a", extra="b")

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("z_total")
        h = reg.histogram("z_lat", buckets=LATENCY_BUCKETS_S)
        c.inc()
        h.observe(0.5)
        snap = reg.snapshot()
        assert snap.value("z_total") == 0.0
        assert snap.histogram_count("z_lat") == 0


class TestExposition:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter(
            "app_requests_total", "Requests.", labels=("code",)
        ).inc(code="200")
        reg.gauge("app_temp", "Temperature.").set(36.6)
        h = reg.histogram("app_wait", "Wait.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_prometheus_text_structure(self):
        text = self._registry().snapshot().to_prometheus()
        assert "# HELP app_requests_total Requests.\n" in text
        assert "# TYPE app_requests_total counter\n" in text
        assert 'app_requests_total{code="200"} 1\n' in text
        assert "# TYPE app_wait histogram\n" in text
        assert 'app_wait_bucket{le="0.1"} 1\n' in text
        assert 'app_wait_bucket{le="1"} 1\n' in text
        assert 'app_wait_bucket{le="+Inf"} 2\n' in text
        assert "app_wait_sum 5.05" in text
        assert "app_wait_count 2\n" in text

    def test_prometheus_text_parses(self):
        """Every non-comment line must be `name{labels} value`."""
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" -?[0-9.e+-]+$"
        )
        text = self._registry().snapshot().to_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert line_re.match(line), line

    def test_json_round_trips(self):
        payload = json.loads(self._registry().snapshot().to_json())
        names = {f["name"] for f in payload["families"]}
        assert {"app_requests_total", "app_temp", "app_wait"} <= names

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", labels=("v",)).inc(v='a"b\\c\nd')
        text = reg.snapshot().to_prometheus()
        assert 'v="a\\"b\\\\c\\nd"' in text


class TestMerge:
    def test_merge_prepends_labels_and_sums(self):
        regs = [MetricsRegistry(), MetricsRegistry()]
        for i, reg in enumerate(regs):
            reg.counter("q_total").inc(float(i + 1))
            reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        merged = merge_snapshots(
            [r.snapshot() for r in regs],
            extra_labels=[{"shard": "0"}, {"shard": "1"}],
        )
        assert merged.value("q_total") == 3.0
        assert merged.value("q_total", {"shard": "1"}) == 2.0
        assert merged.histogram_count("lat") == 2

    def test_merge_without_labels_collides_to_sum(self):
        regs = [MetricsRegistry(), MetricsRegistry()]
        for reg in regs:
            reg.counter("q_total").inc()
        merged = merge_snapshots([r.snapshot() for r in regs])
        assert merged.value("q_total") == 2.0


@pytest.fixture
def built_db(rng):
    config = MicroNNConfig(
        dim=16, target_cluster_size=20, default_nprobe=4
    )
    with MicroNN.open(config=config) as db:
        vectors = rng.normal(size=(400, 16)).astype(np.float32)
        db.upsert_batch(
            (f"v-{i:04d}", vectors[i]) for i in range(400)
        )
        db.build_index()
        yield db, vectors


class TestQueryMetrics:
    def test_counters_reconcile_with_query_stats(self, built_db):
        db, vectors = built_db
        before = db.metrics()
        stats = [db.search(vectors[i], k=5).stats for i in range(10)]
        snap = db.metrics()

        def delta(name, labels=None):
            return snap.value(name, labels) - before.value(name, labels)

        assert delta("micronn_queries_total") == 10
        assert delta("micronn_query_vectors_scanned_total") == sum(
            s.vectors_scanned for s in stats
        )
        assert delta("micronn_query_partitions_scanned_total") == sum(
            s.partitions_scanned for s in stats
        )

    def test_multithreaded_hammer_totals_are_exact(self, built_db):
        """N threads x M searches: no update is lost, and the counter
        totals equal the per-query QueryStats sums."""
        db, vectors = built_db
        threads, per_thread = 8, 12
        before = db.metrics()
        collected: list[list] = [[] for _ in range(threads)]

        def worker(t: int) -> None:
            for j in range(per_thread):
                q = vectors[(t * per_thread + j) % len(vectors)]
                collected[t].append(db.search(q, k=5).stats)

        pool = [
            threading.Thread(target=worker, args=(t,))
            for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = [s for bucket in collected for s in bucket]
        assert len(stats) == threads * per_thread
        snap = db.metrics()
        assert (
            snap.value("micronn_queries_total")
            - before.value("micronn_queries_total")
        ) == len(stats)
        assert (
            snap.value("micronn_query_vectors_scanned_total")
            - before.value("micronn_query_vectors_scanned_total")
        ) == sum(s.vectors_scanned for s in stats)
        assert (
            snap.histogram_count("micronn_query_latency_seconds")
            - before.histogram_count("micronn_query_latency_seconds")
        ) == len(stats)
        assert (
            snap.histogram_count("micronn_query_bytes_read")
            - before.histogram_count("micronn_query_bytes_read")
        ) == len(stats)

    def test_partition_load_temperature_labels(self, built_db):
        db, vectors = built_db
        db.purge_caches()
        before = db.metrics()
        db.search(vectors[0], k=5)
        db.search(vectors[0], k=5)
        snap = db.metrics()

        def delta(labels):
            name = "micronn_partition_loads_total"
            return snap.value(name, labels) - before.value(name, labels)

        assert delta({"temperature": "cold"}) > 0
        assert delta({"temperature": "hot"}) > 0

    def test_cache_gauges_present(self, built_db):
        db, vectors = built_db
        db.search(vectors[0], k=5)
        snap = db.metrics()
        assert (
            snap.value(
                "micronn_cache_bytes",
                {"pool": "float", "stat": "budget"},
            )
            > 0
        )

    def test_index_stats_surface_telemetry(self, built_db):
        db, _ = built_db
        stats = db.index_stats()
        assert stats.telemetry_enabled is True
        assert stats.quarantined_partitions == 0
        assert stats.slow_queries == 0

    def test_disabled_telemetry_is_empty_but_valid(self, rng):
        config = MicroNNConfig(
            dim=8, target_cluster_size=10, telemetry_enabled=False
        )
        with MicroNN.open(config=config) as db:
            vecs = rng.normal(size=(50, 8)).astype(np.float32)
            db.upsert_batch((f"d-{i}", vecs[i]) for i in range(50))
            db.build_index()
            db.search(vecs[0], k=3)
            snap = db.metrics()
            assert snap.value("micronn_queries_total") == 0.0
            assert isinstance(snap.to_prometheus(), str)
            assert db.index_stats().telemetry_enabled is False

    def test_served_queries_flow_through_same_funnel(self, built_db):
        db, vectors = built_db
        before = db.metrics()
        futures = [db.search_async(vectors[i], k=5) for i in range(6)]
        stats = [f.result().stats for f in futures]
        snap = db.metrics()
        assert (
            snap.value("micronn_queries_total")
            - before.value("micronn_queries_total")
        ) == len(stats)
        assert (
            snap.value("micronn_serve_submitted_total")
            - before.value("micronn_serve_submitted_total")
        ) == len(stats)
        assert (
            snap.value(
                "micronn_serve_resolved_total",
                {"outcome": "completed"},
            )
            - before.value(
                "micronn_serve_resolved_total",
                {"outcome": "completed"},
            )
        ) == len(stats)
        assert (
            snap.histogram_count("micronn_serve_queue_wait_ms")
            - before.histogram_count("micronn_serve_queue_wait_ms")
        ) == len(stats)
