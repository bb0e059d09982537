"""Scratch-buffer pool tests (pipelined scan decode buffers)."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import DeviceProfile, MicroNN, MicroNNConfig
from repro.storage.cache import (
    SCRATCH_CATEGORY,
    ScratchBufferPool,
    _SCRATCH_GRANULE,
)
from repro.storage.memory import MemoryTracker
from tests.conftest import _PHYSICAL_BACKEND


class TestCheckoutCheckin:
    def test_checkout_pins_bytes(self):
        pool = ScratchBufferPool(1 << 20)
        lease = pool.checkout(1000)
        assert pool.pinned_bytes >= 1000
        assert pool.pooled_bytes == 0
        lease.release()
        assert pool.pinned_bytes == 0
        assert pool.pooled_bytes >= 1000

    def test_release_is_idempotent(self):
        pool = ScratchBufferPool(1 << 20)
        lease = pool.checkout(100)
        lease.release()
        pooled = pool.pooled_bytes
        lease.release()
        assert pool.pooled_bytes == pooled
        assert pool.pinned_bytes == 0

    def test_buffers_are_reused(self):
        pool = ScratchBufferPool(1 << 20)
        first = pool.checkout(50_000)
        first.release()
        second = pool.checkout(40_000)
        assert pool.reuses == 1
        second.release()
        assert pool.checkouts == 2

    def test_granule_rounding_absorbs_size_jitter(self):
        pool = ScratchBufferPool(1 << 20)
        lease = pool.checkout(1)
        assert lease.nbytes == _SCRATCH_GRANULE
        lease.release()
        # A slightly larger request still fits the pooled buffer.
        again = pool.checkout(_SCRATCH_GRANULE - 7)
        assert pool.reuses == 1
        again.release()

    def test_array_views_leased_bytes(self):
        pool = ScratchBufferPool(1 << 20)
        lease = pool.checkout(24 * 4)
        out = lease.array((6, 4), np.float32)
        out[:] = 7.0
        assert out.shape == (6, 4)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.full((6, 4), 7.0))
        lease.release()

    def test_array_rejects_oversized_view(self):
        pool = ScratchBufferPool(1 << 20)
        lease = pool.checkout(16)
        with pytest.raises(ValueError):
            lease.array((1 << 20, 8), np.float32)
        lease.release()

    def test_negative_checkout_rejected(self):
        pool = ScratchBufferPool(1 << 20)
        with pytest.raises(ValueError):
            pool.checkout(-1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ScratchBufferPool(-1)


class TestBudgetAccounting:
    def test_tracker_counts_pinned_plus_pooled(self):
        tracker = MemoryTracker()
        pool = ScratchBufferPool(1 << 20, tracker=tracker)
        a = pool.checkout(100_000)
        b = pool.checkout(200_000)
        snap = tracker.snapshot()
        assert snap.by_category[SCRATCH_CATEGORY] == (
            pool.pinned_bytes + pool.pooled_bytes
        )
        assert snap.by_category[SCRATCH_CATEGORY] >= 300_000
        a.release()
        snap = tracker.snapshot()
        # Released buffer is pooled, still resident, still tracked.
        assert snap.by_category[SCRATCH_CATEGORY] == (
            pool.pinned_bytes + pool.pooled_bytes
        )
        b.release()

    def test_over_budget_checkout_is_transient(self):
        # Checkouts past the budget still succeed (queries must
        # proceed) but their buffers are freed, not pooled, on checkin.
        pool = ScratchBufferPool(_SCRATCH_GRANULE)
        a = pool.checkout(_SCRATCH_GRANULE)
        b = pool.checkout(_SCRATCH_GRANULE)
        assert pool.pinned_bytes == 2 * _SCRATCH_GRANULE
        a.release()
        b.release()
        assert pool.pinned_bytes == 0
        assert pool.pooled_bytes <= pool.budget_bytes

    def test_zero_budget_pools_nothing(self):
        tracker = MemoryTracker()
        pool = ScratchBufferPool(0, tracker=tracker)
        lease = pool.checkout(1000)
        assert pool.pinned_bytes > 0
        lease.release()
        assert pool.pooled_bytes == 0
        assert tracker.snapshot().by_category[SCRATCH_CATEGORY] == 0

    def test_drain_frees_pooled_keeps_pinned(self):
        tracker = MemoryTracker()
        pool = ScratchBufferPool(1 << 20, tracker=tracker)
        held = pool.checkout(10_000)
        done = pool.checkout(10_000)
        done.release()
        pool.drain()
        assert pool.pooled_bytes == 0
        assert pool.pinned_bytes == held.nbytes
        assert tracker.snapshot().by_category[SCRATCH_CATEGORY] == (
            held.nbytes
        )
        held.release()
        assert tracker.snapshot().by_category[SCRATCH_CATEGORY] > 0
        pool.drain()
        assert tracker.snapshot().by_category[SCRATCH_CATEGORY] == 0


class TestConcurrency:
    def test_concurrent_checkout_return_accounting_is_exact(self):
        tracker = MemoryTracker()
        pool = ScratchBufferPool(4 * _SCRATCH_GRANULE, tracker=tracker)
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(200):
                lease = pool.checkout(int(rng.integers(1, 100_000)))
                out = lease.array((4,), np.uint8)
                out[:] = seed
                lease.release()

        with ThreadPoolExecutor(max_workers=8) as executor:
            list(executor.map(worker, range(8)))
        assert pool.pinned_bytes == 0
        assert pool.pooled_bytes <= pool.budget_bytes
        assert tracker.snapshot().by_category[SCRATCH_CATEGORY] == (
            pool.pooled_bytes
        )
        assert pool.checkouts == 8 * 200


def cold_device(scratch_bytes: int = 1 << 22) -> DeviceProfile:
    """Zero partition cache: every scan decodes through scratch."""
    return DeviceProfile(
        name="cold",
        worker_threads=2,
        partition_cache_bytes=0,
        sqlite_cache_bytes=1 << 20,
        scratch_buffer_bytes=scratch_bytes,
    )


@pytest.mark.skipif(
    _PHYSICAL_BACKEND == "blobfile",
    reason="blobfile serves zero-copy mmap views and never leases scratch",
)
@pytest.mark.usefixtures("force_pipeline")
class TestEngineIntegration:
    def _open(self, rng, quantization: str = "none") -> MicroNN:
        config = MicroNNConfig(
            dim=16,
            target_cluster_size=25,
            kmeans_iterations=10,
            quantization=quantization,
            pipeline_depth=2,
            device=cold_device(),
        )
        db = MicroNN.open(config=config)
        vectors = rng.normal(size=(300, 16)).astype(np.float32)
        db.upsert_batch((f"a{i:04d}", vectors[i]) for i in range(300))
        db.build_index()
        return db, vectors

    def test_pipelined_queries_recycle_buffers(self, rng):
        db, vectors = self._open(rng)
        try:
            for _ in range(5):
                db.search(vectors[0], k=5, nprobe=4)
            pool = db.engine.scratch
            assert pool.reuses > 0
            assert pool.pinned_bytes == 0
        finally:
            db.close()

    def test_purge_caches_releases_scratch_memory(self, rng):
        db, vectors = self._open(rng)
        try:
            db.search(vectors[0], k=5, nprobe=4)
            assert db.engine.scratch.pooled_bytes > 0
            db.purge_caches()
            assert db.engine.scratch.pooled_bytes == 0
            assert db.engine.scratch.pinned_bytes == 0
            snap = db.memory()
            assert snap.by_category.get(SCRATCH_CATEGORY, 0) == 0
        finally:
            db.close()

    def test_close_releases_scratch_memory(self, rng):
        db, vectors = self._open(rng)
        tracker = db.engine.tracker
        db.search(vectors[0], k=5, nprobe=4)
        db.close()
        assert tracker.snapshot().by_category.get(SCRATCH_CATEGORY, 0) == 0

    def test_quantized_scans_use_scratch_for_codes(self, rng):
        db, vectors = self._open(rng, quantization="sq8")
        try:
            result = db.search(vectors[0], k=5, nprobe=4)
            assert result.stats.scan_mode == "sq8"
            assert result.stats.scan_pipelined
            assert db.engine.scratch.checkouts > 0
            assert db.engine.scratch.pinned_bytes == 0
        finally:
            db.close()

    def test_concurrent_pipelined_queries_under_worker_pool(self, rng):
        db, vectors = self._open(rng)
        try:
            queries = vectors[:12]
            serial = [
                db.search(q, k=5, nprobe=4).asset_ids for q in queries
            ]
            with ThreadPoolExecutor(max_workers=6) as executor:
                concurrent = list(
                    executor.map(
                        lambda q: db.search(q, k=5, nprobe=4).asset_ids,
                        queries,
                    )
                )
            assert concurrent == serial
            assert db.engine.scratch.pinned_bytes == 0
        finally:
            db.close()
