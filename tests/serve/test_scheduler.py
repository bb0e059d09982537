"""Scheduler mechanics: admission, coalescing, errors, shutdown."""

import threading
import time

import numpy as np
import pytest

from repro import (
    DatabaseClosedError,
    DeviceProfile,
    IOCostModel,
    MicroNN,
    MicroNNConfig,
)
from repro.core.errors import FilterError, StorageError
from repro.query.executor import _PARALLEL_SCAN_ELEMENTS
from repro.serve import scheduler as scheduler_module


def make_db(tmp_path, rng, count=300, **config_kwargs):
    config_kwargs.setdefault("dim", 8)
    config_kwargs.setdefault("target_cluster_size", 15)
    config_kwargs.setdefault("default_nprobe", 4)
    config_kwargs.setdefault("kmeans_iterations", 10)
    db = MicroNN.open(tmp_path / "serve.db", MicroNNConfig(**config_kwargs))
    vecs = rng.normal(size=(count, config_kwargs["dim"])).astype(np.float32)
    db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(count))
    db.build_index()
    return db, vecs


#: A device with zero partition cache (every load is a real read) and a
#: visible injected seek cost, so queries stay in flight long enough
#: for admission and coalescing behavior to be observable.
def slow_cold_device(seek_s=0.003):
    return DeviceProfile(
        name="serve-test",
        worker_threads=4,
        partition_cache_bytes=0,
        sqlite_cache_bytes=256 * 1024,
        scratch_buffer_bytes=4 * 1024 * 1024,
        io_model=IOCostModel(seek_latency_s=seek_s),
    )


class TestAdmissionControl:
    def test_inflight_never_exceeds_bound(self, tmp_path, rng):
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=2,
            device=slow_cold_device(),
        )
        try:
            db.purge_caches()
            scheduler = db._get_scheduler()
            queries = rng.normal(size=(10, 8)).astype(np.float32)
            futures = [db.search_async(q, k=5) for q in queries]
            peak = 0
            while any(not f.done() for f in futures):
                peak = max(peak, scheduler.inflight)
                assert scheduler.inflight <= 2
                time.sleep(0.001)
            results = [f.result() for f in futures]
            assert peak >= 1
            # Later submissions waited for a slot and say so.
            assert max(r.stats.queue_wait_ms for r in results) > 0.0
        finally:
            db.close()

    def test_memory_backpressure_never_starves(self, tmp_path, rng):
        # A zero scratch budget always reports headroom (pooling off,
        # serving on), and an idle scheduler admits regardless — both
        # liveness properties, exercised with a burst of cold queries.
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=4,
            device=DeviceProfile(
                name="no-scratch",
                worker_threads=2,
                partition_cache_bytes=0,
                sqlite_cache_bytes=256 * 1024,
                scratch_buffer_bytes=0,
            ),
        )
        try:
            db.purge_caches()
            queries = rng.normal(size=(12, 8)).astype(np.float32)
            futures = [db.search_async(q, k=3) for q in queries]
            for f in futures:
                assert len(f.result(timeout=30)) == 3
        finally:
            db.close()


class TestCoalescing:
    def test_overlapping_queries_share_reads(self, tmp_path, rng):
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=16,
            device=slow_cold_device(),
        )
        try:
            query = rng.normal(size=8).astype(np.float32)
            # Baseline: one cold query's bytes.
            db.purge_caches()
            before = db.io()
            db.search(query, k=5)
            single_bytes = db.io().bytes_read - before.bytes_read
            # 6 identical queries submitted together, cold: their probe
            # sets coincide, so loads must coalesce.
            db.purge_caches()
            before = db.io()
            futures = [db.search_async(query, k=5) for _ in range(6)]
            results = [f.result(timeout=30) for f in futures]
            burst_bytes = db.io().bytes_read - before.bytes_read
            assert sum(r.stats.io_shared_hits for r in results) > 0
            assert burst_bytes < 6 * single_bytes
            # Fair attribution: per-query byte shares sum to roughly
            # the physical bytes (each physical load split between its
            # sharers; the centroid read is global, hence <=).
            attributed = sum(r.stats.bytes_read for r in results)
            assert attributed <= burst_bytes
        finally:
            db.close()

    def test_warm_loads_attribute_no_bytes(self, tmp_path, rng):
        """Cache-hit loads record no bytes, exactly like the serial
        path's accounting — warm serving must not report phantom I/O."""
        db, _ = make_db(tmp_path, rng)  # default device: roomy cache
        try:
            q = rng.normal(size=8).astype(np.float32)
            db.search(q, k=5)  # warm every probed partition
            warm_serial = db.search(q, k=5)
            assert warm_serial.stats.bytes_read == 0
            warm_async = db.search_async(q, k=5).result(timeout=30)
            assert warm_async.neighbors == warm_serial.neighbors
            assert warm_async.stats.bytes_read == 0
            assert warm_async.stats.cache_hits > 0
            assert warm_async.stats.cache_misses == 0
        finally:
            db.close()

    def test_identical_results_under_coalescing(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng, max_inflight_queries=8)
        try:
            queries = rng.normal(size=(8, 8)).astype(np.float32)
            serial = [db.search(q, k=5) for q in queries]
            db.purge_caches()
            futures = [db.search_async(q, k=5) for q in queries]
            for expected, future in zip(serial, futures):
                assert future.result(timeout=30).neighbors == (
                    expected.neighbors
                )
        finally:
            db.close()


class TestErrorIsolation:
    def test_load_failure_does_not_poison_stage(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng)
        try:
            engine = db.engine
            query = rng.normal(size=8).astype(np.float32)
            original = engine.load_scan_entry

            def exploding(*args, **kwargs):
                raise StorageError("injected load failure")

            db.purge_caches()
            engine.load_scan_entry = exploding
            try:
                failing = db.search_async(query, k=5)
                with pytest.raises(StorageError, match="injected"):
                    failing.result(timeout=30)
            finally:
                engine.load_scan_entry = original
            # The shared stage survived: later queries run normally.
            ok = db.search_async(query, k=5).result(timeout=30)
            assert len(ok) == 5
            assert ok.neighbors == db.search(query, k=5).neighbors
            _, completed, failed = db._get_scheduler().counters()
            assert failed == 1
            assert completed >= 1
        finally:
            db.close()

    def test_invalid_inputs_raise_synchronously(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng)
        try:
            with pytest.raises(FilterError):
                db.search_async(np.zeros(3, dtype=np.float32), k=5)
            with pytest.raises(ValueError):
                db.search_async(
                    np.zeros(8, dtype=np.float32), k=0, exact=True
                )
        finally:
            db.close()


class TestDeterministicShutdown:
    def test_close_completes_inflight_and_cancels_queued(
        self, tmp_path, rng
    ):
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=1,
            device=slow_cold_device(seek_s=0.01),
        )
        try:
            db.purge_caches()
            queries = rng.normal(size=(6, 8)).astype(np.float32)
            futures = [db.search_async(q, k=3) for q in queries]
        finally:
            db.close()
        resolved = cancelled = 0
        for future in futures:
            assert future.done()
            if future.cancelled():
                cancelled += 1
            else:
                assert len(future.result()) == 3
                resolved += 1
        # The single admitted query completed; with a 1-query bound and
        # slow cold loads, at least one queued query was cancelled.
        assert resolved >= 1
        assert cancelled >= 1

    def test_cancelled_queued_future_does_not_wedge_drain(
        self, tmp_path, rng
    ):
        """A future cancelled while waiting for admission is an
        _active shrink like any other: drain()/close() must wake."""
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=1,
            device=slow_cold_device(seek_s=0.01),
        )
        try:
            db.purge_caches()
            running = db.search_async(
                rng.normal(size=8).astype(np.float32), k=3
            )
            queued = db.search_async(
                rng.normal(size=8).astype(np.float32), k=3
            )
            assert queued.cancel()
            scheduler = db._get_scheduler()
            drained = threading.Event()

            def drain():
                scheduler.drain()
                drained.set()

            thread = threading.Thread(target=drain)
            thread.start()
            assert drained.wait(timeout=30), "drain() wedged"
            thread.join(timeout=10)
            assert len(running.result(timeout=30)) == 3
            assert queued.cancelled()
        finally:
            db.close()

    def test_submit_after_close_raises(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng)
        query = np.zeros(8, dtype=np.float32)
        db.search_async(query, k=3).result(timeout=30)
        db.close()
        with pytest.raises(DatabaseClosedError):
            db.search_async(query, k=3)

    def test_no_leaked_threads_after_close(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng)
        db.search_async(np.zeros(8, dtype=np.float32), k=3).result(
            timeout=30
        )
        db.close()
        leftovers = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("micronn-serve")
        ]
        assert leftovers == []

    def test_close_idempotent_without_scheduler(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng)
        db.close()
        db.close()


def record_load_threads(monkeypatch, engine) -> list[str]:
    """Wrap ``engine.load_scan_entry`` to log the loading thread's name
    per call; returns the (live) log."""
    names: list[str] = []
    original = engine.load_scan_entry

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "load_scan_entry", recording)
    return names


class TestPlacement:
    """Who pays a thread hand-off: cached partitions are scored where
    the query launches (the scan lane for small plain scans), only
    cache misses reach the shared I/O stage."""

    def test_warm_burst_stays_on_the_lane(
        self, tmp_path, rng, monkeypatch
    ):
        db, _ = make_db(tmp_path, rng, max_inflight_queries=8)
        try:
            queries = rng.normal(size=(12, 8)).astype(np.float32)
            serial = [db.search(q, k=5) for q in queries]  # warms too
            names = record_load_threads(monkeypatch, db.engine)
            jobs = []
            monkeypatch.setattr(
                scheduler_module,
                "_LoadJob",
                lambda *args: jobs.append(args) or pytest.fail("load job"),
            )
            futures = [db.search_async(q, k=5) for q in queries]
            for expected, future in zip(serial, futures):
                result = future.result(timeout=30)
                assert result.neighbors == expected.neighbors
                assert result.stats.cache_misses == 0
                assert result.stats.io_shared_hits == 0
                assert result.stats.cache_hits == (
                    result.stats.partitions_scanned
                )
            assert jobs == []
            assert names
            assert all(n.startswith("micronn-serve-lane") for n in names)
        finally:
            db.close()

    def test_warm_quantized_rerank_reads_stay_off_the_lane(
        self, tmp_path, rng, monkeypatch
    ):
        # A warm SQ8 query scores its codes on the lane, but its rerank
        # is a blocking point read: on the one lane thread those would
        # run one query at a time (1/seek QPS on slow storage).
        db, _ = make_db(
            tmp_path,
            rng,
            quantization="sq8",
            max_inflight_queries=8,
            device=DeviceProfile(
                name="slow-rerank",
                worker_threads=4,
                io_model=IOCostModel(seek_latency_s=0.005),
            ),
        )
        try:
            engine = db.engine
            queries = rng.normal(size=(8, 8)).astype(np.float32)
            serial = [db.search(q, k=5) for q in queries]  # warms too
            loads = record_load_threads(monkeypatch, engine)
            fetch = engine.fetch_vectors_by_asset_ids
            lock = threading.Lock()
            fetchers: list[str] = []
            running = peak = 0

            def recording_fetch(asset_ids):
                nonlocal running, peak
                with lock:
                    fetchers.append(threading.current_thread().name)
                    running += 1
                    peak = max(peak, running)
                try:
                    return fetch(asset_ids)
                finally:
                    with lock:
                        running -= 1

            monkeypatch.setattr(
                engine, "fetch_vectors_by_asset_ids", recording_fetch
            )
            futures = [db.search_async(q, k=5) for q in queries]
            for expected, future in zip(serial, futures):
                result = future.result(timeout=30)
                assert result.neighbors == expected.neighbors
                assert result.stats.scan_mode == "sq8"
                assert result.stats.candidates_reranked > 0
            assert loads
            assert all(n.startswith("micronn-serve-lane") for n in loads)
            assert len(fetchers) == len(queries)
            assert all(n.startswith("micronn-serve_") for n in fetchers)
            assert peak > 1, "rerank reads ran one query at a time"
        finally:
            db.close()

    def test_half_warm_query_mixes_inline_and_shared(
        self, tmp_path, rng, monkeypatch
    ):
        # Roomy cache, visible seek cost: a partition warmed by hand is
        # an inline hit, a purged one a blocking shared-stage read.
        db, _ = make_db(
            tmp_path,
            rng,
            max_inflight_queries=16,
            device=DeviceProfile(
                name="half-warm",
                worker_threads=4,
                io_model=IOCostModel(seek_latency_s=0.003),
            ),
        )
        try:
            engine = db.engine
            query = rng.normal(size=8).astype(np.float32)
            expected = db.search(query, k=5)
            probes = [
                pid
                for pid, _ in db._executor.select_partitions(query, 4)
            ]

            def half_warm() -> int:
                db.purge_caches()
                for pid in probes[::2]:
                    engine.load_partition(pid)
                return sum(pid in engine.cache for pid in probes)

            warm = half_warm()
            assert 0 < warm < len(probes)
            names = record_load_threads(monkeypatch, engine)
            one = db.search_async(query, k=5).result(timeout=30)
            assert one.neighbors == expected.neighbors
            assert one.stats.cache_hits == warm
            assert one.stats.cache_misses == len(probes) - warm
            assert one.stats.bytes_read > 0
            lane = [n for n in names if n.startswith("micronn-serve-lane")]
            io = [n for n in names if n.startswith("micronn-serve-io")]
            assert (len(lane), len(io)) == (warm, len(probes) - warm)

            # Six identical half-warm queries: the misses still coalesce
            # and attribution still never exceeds the physical bytes.
            half_warm()
            before = db.io()
            futures = [db.search_async(query, k=5) for _ in range(6)]
            results = [f.result(timeout=30) for f in futures]
            burst_bytes = db.io().bytes_read - before.bytes_read
            assert all(r.neighbors == expected.neighbors for r in results)
            assert sum(r.stats.io_shared_hits for r in results) > 0
            assert sum(r.stats.bytes_read for r in results) <= burst_bytes
        finally:
            db.close()

    def test_eviction_between_check_and_load(
        self, tmp_path, rng, monkeypatch
    ):
        db, _ = make_db(tmp_path, rng)
        try:
            query = rng.normal(size=8).astype(np.float32)
            expected = db.search(query, k=5)  # warms the probe set
            cache = db.engine.cache
            original = cache.get
            evicted = []

            def evicting_get(pid):
                if not evicted and pid in cache:
                    evicted.append(pid)
                    cache.invalidate(pid)
                return original(pid)

            monkeypatch.setattr(cache, "get", evicting_get)
            names = record_load_threads(monkeypatch, db.engine)
            before = db.io()
            result = db.search_async(query, k=5).result(timeout=30)
            assert evicted
            # Re-read on the launching thread, like the serial scan...
            assert db.io().cache_misses - before.cache_misses == 1
            assert all(n.startswith("micronn-serve-lane") for n in names)
            # ...and the answer is the serial one.
            assert result.neighbors == expected.neighbors
            assert result.stats.vectors_scanned == (
                expected.stats.vectors_scanned
            )
        finally:
            db.close()

    def test_large_scan_launches_on_the_compute_pool(
        self, tmp_path, rng, monkeypatch
    ):
        db, _ = make_db(tmp_path, rng)
        try:
            query = rng.normal(size=8).astype(np.float32)
            # nprobe x target_cluster_size x dim crosses the executor's
            # fan-out gate (selection clamps the probe set itself).
            nprobe = _PARALLEL_SCAN_ELEMENTS // (15 * 8) + 1
            expected = db.search(query, k=5, nprobe=nprobe)
            names = record_load_threads(monkeypatch, db.engine)
            result = db.search_async(query, k=5, nprobe=nprobe).result(
                timeout=30
            )
            assert result.neighbors == expected.neighbors
            assert names
            assert all(n.startswith("micronn-serve_") for n in names)
        finally:
            db.close()

    def test_drain_and_close_with_parked_io_threads(self, tmp_path, rng):
        db, _ = make_db(tmp_path, rng, max_inflight_queries=4)
        queries = rng.normal(size=(20, 8)).astype(np.float32)
        for q in queries:
            db.search(q, k=3)  # warm: no load job will ever be pushed
        scheduler = db._get_scheduler()

        def returns(fn) -> bool:
            thread = threading.Thread(target=fn)
            thread.start()
            thread.join(timeout=30)
            return not thread.is_alive()

        assert returns(scheduler.drain), "drain() wedged while idle"
        futures = [db.search_async(q, k=3) for q in queries]
        assert returns(scheduler.drain), "drain() missed a wake-up"
        assert all(f.done() for f in futures)
        assert returns(db.close), "close() wedged on parked I/O threads"
        assert [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("micronn-serve")
        ] == []
