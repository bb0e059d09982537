"""Pipelined partition scans: parity with serial scans + observability.

The contract the bench relies on: for any query, the two-stage
I/O–compute pipeline returns byte-identical results to the serial scan
— same neighbors, same distances — for float32, SQ8, filtered and batch
queries. Only the wall-clock shape may differ.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from repro import DeviceProfile, Eq, IOCostModel, MicroNN, MicroNNConfig
from repro.core.errors import ConfigError
from repro.core.types import PlanKind
from tests.conftest import requires_row_layout


def clustered(rng, n, dim, components=8, spread=6.0):
    centers = rng.normal(size=(components, dim)) * spread
    counts = np.full(components, n // components)
    counts[: n % components] += 1
    parts = [
        centers[i] + rng.normal(size=(int(c), dim))
        for i, c in enumerate(counts)
    ]
    return np.concatenate(parts).astype(np.float32)


def make_config(quantization: str, pipeline_depth: int) -> MicroNNConfig:
    return MicroNNConfig(
        dim=16,
        target_cluster_size=25,
        default_nprobe=4,
        kmeans_iterations=10,
        quantization=quantization,
        pipeline_depth=pipeline_depth,
        attributes={"color": "TEXT"},
        device=DeviceProfile(
            name="pipe-test",
            worker_threads=4,
            # Zero partition cache: every scan is cold, so the
            # pipeline engages on every query.
            partition_cache_bytes=0,
            sqlite_cache_bytes=1 << 20,
            scratch_buffer_bytes=1 << 22,
        ),
    )


def populate(db: MicroNN, vectors: np.ndarray) -> None:
    db.upsert_batch(
        (f"a{i:04d}", vectors[i], {"color": ["red", "blue"][i % 2]})
        for i in range(len(vectors))
    )
    db.build_index()


@pytest.fixture(params=["none", "sq8"])
def db_pair(request, tmp_path, rng, force_pipeline):
    """(pipelined db, serial db) over identical data; the pipelined one
    is forced to engage (see ``force_pipeline``)."""
    vectors = clustered(rng, 400, 16)
    pipelined = MicroNN.open(
        tmp_path / "pipelined.db", make_config(request.param, 2)
    )
    serial = MicroNN.open(
        tmp_path / "serial.db", make_config(request.param, 0)
    )
    populate(pipelined, vectors)
    populate(serial, vectors)
    yield pipelined, serial, vectors
    pipelined.close()
    serial.close()


class TestParity:
    def test_ann_results_identical(self, db_pair, rng):
        pipelined, serial, vectors = db_pair
        queries = vectors[rng.choice(len(vectors), 15, replace=False)]
        for q in queries:
            a = pipelined.search(q, k=10, nprobe=6)
            b = serial.search(q, k=10, nprobe=6)
            assert a.asset_ids == b.asset_ids
            assert a.distances == b.distances
            assert a.stats.scan_pipelined
            assert not b.stats.scan_pipelined

    def test_counters_identical(self, db_pair):
        pipelined, serial, vectors = db_pair
        a = pipelined.search(vectors[0], k=10, nprobe=6).stats
        b = serial.search(vectors[0], k=10, nprobe=6).stats
        for field in (
            "vectors_scanned",
            "distance_computations",
            "rows_filtered",
            "partitions_scanned",
            "bytes_read",
            "scan_mode",
            "candidates_reranked",
        ):
            assert getattr(a, field) == getattr(b, field), field

    def test_filtered_results_identical(self, db_pair):
        pipelined, serial, vectors = db_pair
        for q in vectors[:8]:
            a = pipelined.search(
                q, k=8, filters=Eq("color", "red"),
                plan=PlanKind.POST_FILTER,
            )
            b = serial.search(
                q, k=8, filters=Eq("color", "red"),
                plan=PlanKind.POST_FILTER,
            )
            assert a.asset_ids == b.asset_ids
            assert a.distances == b.distances
            assert all(int(aid[1:]) % 2 == 0 for aid in a.asset_ids)

    def test_batch_results_identical(self, db_pair):
        pipelined, serial, vectors = db_pair
        queries = vectors[:10]
        a = pipelined.search_batch(queries, k=5, nprobe=6)
        b = serial.search_batch(queries, k=5, nprobe=6)
        assert a.stats.scan_pipelined
        assert not b.stats.scan_pipelined
        for x, y in zip(a.results, b.results):
            assert x.asset_ids == y.asset_ids
            assert x.distances == y.distances

    def test_delta_upserts_visible_through_pipeline(self, db_pair):
        pipelined, serial, vectors = db_pair
        fresh = vectors[0] + 1e-4
        pipelined.upsert("fresh", fresh)
        serial.upsert("fresh", fresh)
        a = pipelined.search(fresh, k=3)
        b = serial.search(fresh, k=3)
        assert "fresh" in a.asset_ids
        assert a.asset_ids == b.asset_ids
        assert a.distances == b.distances


class TestObservability:
    def test_stage_times_populated(self, db_pair):
        pipelined, serial, vectors = db_pair
        stats = pipelined.search(vectors[0], k=5, nprobe=6).stats
        assert stats.scan_pipelined
        assert stats.io_time_ms > 0.0
        assert stats.compute_time_ms > 0.0
        stats = serial.search(vectors[0], k=5, nprobe=6).stats
        assert not stats.scan_pipelined
        assert stats.io_time_ms > 0.0
        assert stats.compute_time_ms >= 0.0

    def test_explain_reports_pipeline(self, db_pair):
        pipelined, serial, _ = db_pair
        assert "I/O–compute overlap" in pipelined.explain(
            Eq("color", "red")
        )
        assert "pipeline_depth=0" in serial.explain(Eq("color", "red"))

    @requires_row_layout
    def test_codeless_sq8_scans_stay_pipelined(
        self, tmp_path, rng, force_pipeline
    ):
        # A trained quantizer with code-less partitions (mid-build, or
        # a crash between assignment and re-encode) falls back to cold
        # float32 reads; the cached *empty* codes entries that fallback
        # leaves behind must not fool the coldness heuristic into
        # dropping the pipeline after the first query.
        vectors = clustered(rng, 300, 16)
        db = MicroNN.open(tmp_path / "codeless.db", make_config("sq8", 2))
        try:
            db.upsert_batch(
                (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
            )
            db.build_index()
            with db.engine.write_transaction() as conn:
                conn.execute("DELETE FROM vector_codes")
            db.purge_caches()
            assert db.scan_mode() == "sq8"  # quantizer still trained
            first = db.search(vectors[0], k=5, nprobe=4)
            second = db.search(vectors[0], k=5, nprobe=4)
            assert first.stats.scan_mode == "sq8"
            assert first.stats.scan_pipelined
            assert second.stats.scan_pipelined
            assert first.asset_ids == second.asset_ids
        finally:
            db.close()

    def test_warm_scans_skip_pipeline(self, tmp_path, rng, force_pipeline):
        # A default (large) cache holds every partition after warm-up;
        # fully-warm scans keep the serial fast path.
        vectors = clustered(rng, 300, 16)
        config = MicroNNConfig(
            dim=16,
            target_cluster_size=25,
            kmeans_iterations=10,
            pipeline_depth=2,
        )
        with MicroNN.open(tmp_path / "warm.db", config) as db:
            db.upsert_batch(
                (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
            )
            db.build_index()
            db.purge_caches()
            cold = db.search(vectors[0], k=5, nprobe=4)
            assert cold.stats.scan_pipelined
            warm = db.search(vectors[0], k=5, nprobe=4)
            assert not warm.stats.scan_pipelined
            assert warm.asset_ids == cold.asset_ids


def blocking(config: MicroNNConfig) -> MicroNNConfig:
    """The same config on storage whose uncached reads block 3 ms."""
    device = dataclasses.replace(
        config.device, io_model=IOCostModel(seek_latency_s=0.003)
    )
    return dataclasses.replace(config, device=device)


class TestEngagement:
    """The pipeline runs only where the engine sees loads block
    (``repro.query.pipeline.pipeline_engages``) — nothing here forces
    it."""

    def test_cold_scan_at_page_cache_speed_is_serial(self, tmp_path, rng):
        vectors = clustered(rng, 400, 16)
        default = MicroNN.open(tmp_path / "a.db", make_config("none", 2))
        off = MicroNN.open(tmp_path / "b.db", make_config("none", 0))
        try:
            populate(default, vectors)
            populate(off, vectors)
            for q in vectors[:10]:
                a = default.search(q, k=10, nprobe=6)
                b = off.search(q, k=10, nprobe=6)
                assert a.stats.cache_misses >= 6  # cold all right
                assert not a.stats.scan_pipelined
                assert a.asset_ids == b.asset_ids
                assert a.distances == b.distances
            batch = default.search_batch(vectors[:6], k=5, nprobe=6)
            assert not batch.stats.scan_pipelined
            assert "standing by" in default.pipeline_description()
            assert default.engine.cold_load_seconds < 0.001
        finally:
            default.close()
            off.close()

    @pytest.mark.parametrize("quantization", ["none", "sq8"])
    def test_blocking_loads_engage_once_observed(
        self, tmp_path, rng, quantization
    ):
        vectors = clustered(rng, 400, 16)
        path = tmp_path / "latency.db"
        with MicroNN.open(path, make_config(quantization, 0)) as db:
            populate(db, vectors)
            want = [db.search(q, k=10, nprobe=6) for q in vectors[:4]]
        queries = vectors[:4]
        with MicroNN.open(
            path, blocking(make_config(quantization, 2))
        ) as db:
            assert db.engine.cold_load_seconds is None
            assert "no cold partition load observed" in (
                db.pipeline_description()
            )
            first = db.search(queries[0], k=10, nprobe=6)
            assert not first.stats.scan_pipelined  # nothing observed yet
            assert db.engine.cold_load_seconds >= 0.003
            assert "I/O–compute overlap" in db.pipeline_description()
            for q, expected in zip(queries, want):
                db.purge_caches()  # reads block again
                got = db.search(q, k=10, nprobe=6)
                assert got.stats.scan_pipelined
                assert got.asset_ids == expected.asset_ids
                assert got.distances == expected.distances
            db.purge_caches()
            batch = db.search_batch(queries, k=10, nprobe=6)
            assert batch.stats.scan_pipelined  # same rule, same answer
            # No purge: the simulated OS cache now serves every read,
            # loads stop blocking, and scans return to this thread.
            for _ in range(12):
                last = db.search(queries[0], k=10, nprobe=6)
            assert last.stats.cache_misses >= 6
            assert not last.stats.scan_pipelined
            assert last.asset_ids == want[0].asset_ids
        with MicroNN.open(
            path, blocking(make_config(quantization, 0))
        ) as db:
            for q in queries[:2]:
                db.purge_caches()
                assert not db.search(q, k=10, nprobe=6).stats.scan_pipelined
            db.purge_caches()
            assert not db.search_batch(
                queries, k=10, nprobe=6
            ).stats.scan_pipelined

    def test_contended_samples_never_raise_the_estimate(
        self, tmp_path, rng
    ):
        """A ``use_scratch`` load comes from a concurrent I/O stage:
        its wall time includes GIL hand-offs, so it is an upper bound —
        it may lower the estimate, never raise it (or a pipeline that
        slows its own loads would keep itself engaged)."""
        vectors = clustered(rng, 200, 16)
        config = blocking(make_config("none", 2))
        with MicroNN.open(tmp_path / "e.db", config) as db:
            populate(db, vectors)
            engine = db.engine
            sizes = engine.partition_sizes()
            pid = max(sizes, key=sizes.get)
            engine.load_partition(pid)  # uncharged from here on
            for _ in range(30):
                engine.load_partition(pid)
            fast = engine.cold_load_seconds
            assert fast < 0.001
            def staged_load() -> None:
                lease = engine.load_partition(pid, use_scratch=True).lease
                if lease is not None:  # mmap views are never leased
                    lease.release()

            db.purge_caches()  # the next read blocks 3 ms
            staged_load()
            assert engine.cold_load_seconds == fast
            db.purge_caches()
            engine.load_partition(pid)
            assert engine.cold_load_seconds > fast
            slow = engine.cold_load_seconds
            staged_load()
            assert engine.cold_load_seconds < slow

    def test_serial_cold_scan_holds_one_partition_at_a_time(
        self, tmp_path, rng
    ):
        """load -> score -> drop: with nothing cacheable, the scan's
        traced peak is about one partition, not the probe set."""
        dim, rows, nprobe = 64, 4000, 16
        config = MicroNNConfig(
            dim=dim,
            target_cluster_size=250,
            kmeans_iterations=5,
            device=DeviceProfile(
                name="nothing-cacheable",
                worker_threads=2,
                partition_cache_bytes=0,
                sqlite_cache_bytes=1 << 20,
            ),
        )
        vectors = clustered(rng, rows, dim, components=16)
        with MicroNN.open(tmp_path / "peak.db", config) as db:
            db.upsert_batch(
                (f"a{i:05d}", vectors[i]) for i in range(rows)
            )
            db.build_index()
            db.search(vectors[0], k=10, nprobe=nprobe)  # lazy set-up
            tracemalloc.start()
            result = db.search(vectors[1], k=10, nprobe=nprobe)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert not result.stats.scan_pipelined
            assert result.stats.cache_misses >= nprobe
            scanned_bytes = result.stats.vectors_scanned * dim * 4
            largest = max(db.engine.partition_sizes().values()) * dim * 4
            # One partition is live as its row blobs, their join and
            # the ids: under three partitions' worth, where the probe
            # set materialised first would be all of scanned_bytes.
            assert scanned_bytes > 7 * largest
            assert peak < 3 * largest + (256 << 10)


    @pytest.mark.parametrize("quantization", ["none", "sq8"])
    def test_large_partly_cold_serial_scan_fans_out_its_cache_hits(
        self, tmp_path, rng, monkeypatch, quantization
    ):
        """One miss must not cost a big scan its multi-core scoring:
        the misses load -> score -> drop on this thread, the hits go
        to the worker pool's fill as in a warm scan. Same bits either
        way."""
        vectors = clustered(rng, 400, 16)
        config = dataclasses.replace(
            make_config(quantization, 2),
            device=DeviceProfile(
                name="roomy", worker_threads=4, partition_cache_bytes=1 << 22
            ),
        )
        with MicroNN.open(tmp_path / "big.db", config) as db:
            populate(db, vectors)
            queries = vectors[:5]
            want = [db.search(q, k=10, nprobe=8) for q in queries]  # warm
            executor = db._executor
            # Partitions per pool fill (one map over the hits' slices).
            shards_scored: list[int] = []
            worker_pool = executor._worker_pool

            class FillSpy:
                def map(self, fill, work, slices):
                    shards_scored.append(len(work))
                    return worker_pool().map(fill, work, slices)

            monkeypatch.setattr(executor, "_worker_pool", FillSpy)
            monkeypatch.setattr(
                "repro.query.executor._PARALLEL_SCAN_ELEMENTS", 1
            )
            caches = (db.engine.cache, db.engine.codes_cache)
            for q, expected in zip(queries, want):
                victim = next(
                    pid
                    for cache in caches
                    for pid, _ in executor.select_partitions(q, 8)
                    if pid >= 0 and pid in cache
                )
                for cache in caches:
                    cache.invalidate(victim)
                shards_scored.clear()
                got = db.search(q, k=10, nprobe=8)
                assert got.stats.cache_misses >= 1
                assert not got.stats.scan_pipelined
                assert max(shards_scored) > 1  # the pool scored the hits
                assert got.asset_ids == expected.asset_ids
                assert got.distances == expected.distances
            # The batch executor splits a partly cold batch the same way.
            batch = db._batch_executor
            warm = db.search_batch(queries, k=10, nprobe=8)
            pool_calls: list[int] = []
            pool = batch._worker_pool

            def counting_pool():
                pool_calls.append(1)
                return pool()

            monkeypatch.setattr(batch, "_worker_pool", counting_pool)
            monkeypatch.setattr(
                "repro.query.batch._PARALLEL_BATCH_ELEMENTS", 1
            )
            for cache in caches:
                cache.invalidate(victim)
            cold = db.search_batch(queries, k=10, nprobe=8)
            assert cold.stats.cache_misses >= 1
            assert not cold.stats.scan_pipelined and pool_calls
            for got, expected in zip(cold.results, warm.results):
                assert got.asset_ids == expected.asset_ids
                np.testing.assert_allclose(
                    got.distances, expected.distances, rtol=1e-5, atol=1e-5
                )


class TestPipelinePrimitive:
    """Direct shutdown/error-path coverage of run_scan_pipeline."""

    def _run(self, items, load, score, workers=2, depth=2, discard=None):
        from concurrent.futures import ThreadPoolExecutor

        from repro.query.pipeline import run_scan_pipeline

        with ThreadPoolExecutor(max_workers=2) as io_pool:
            with ThreadPoolExecutor(max_workers=4) as compute_pool:
                return run_scan_pipeline(
                    items,
                    load,
                    list,
                    score,
                    io_pool=lambda: io_pool,
                    compute_pool=lambda: compute_pool,
                    io_threads=1,
                    compute_workers=workers,
                    depth=depth,
                    discard=discard,
                )

    def test_all_items_scored_exactly_once(self):
        outcome = self._run(
            list(range(25)),
            load=lambda item: item * 10,
            score=lambda state, payload: state.append(payload),
        )
        scored = sorted(x for state in outcome.states for x in state)
        assert scored == [i * 10 for i in range(25)]
        assert outcome.io_s >= 0.0
        assert outcome.compute_s >= 0.0

    def test_none_loads_are_skipped(self):
        outcome = self._run(
            list(range(10)),
            load=lambda item: item if item % 2 else None,
            score=lambda state, payload: state.append(payload),
        )
        scored = sorted(x for state in outcome.states for x in state)
        assert scored == [1, 3, 5, 7, 9]

    def test_load_error_propagates_and_discards_queued(self):
        discarded = []

        def load(item):
            if item == 7:
                raise RuntimeError("disk on fire")
            return item

        with pytest.raises(RuntimeError, match="disk on fire"):
            self._run(
                list(range(50)),
                load,
                score=lambda state, payload: time.sleep(0.001),
                discard=discarded.append,
            )

    def test_score_error_propagates(self):
        def score(state, payload):
            raise ValueError("bad kernel")

        with pytest.raises(ValueError, match="bad kernel"):
            self._run(list(range(10)), lambda i: i, score)


class TestConfig:
    def test_pipeline_knobs_validated(self):
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=8, pipeline_depth=-1)
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=8, io_prefetch_threads=0)
        with pytest.raises(ConfigError):
            dataclasses.replace(
                MicroNNConfig(dim=8).device, scratch_buffer_bytes=-1
            )

    def test_depth_zero_disables_everywhere(self, tmp_path, rng):
        vectors = clustered(rng, 200, 16)
        config = dataclasses.replace(make_config("none", 0))
        with MicroNN.open(tmp_path / "off.db", config) as db:
            populate(db, vectors)
            result = db.search(vectors[0], k=5)
            assert not result.stats.scan_pipelined
            batch = db.search_batch(vectors[:4], k=5)
            assert not batch.stats.scan_pipelined
