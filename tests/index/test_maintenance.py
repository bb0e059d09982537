"""Index monitor and incremental maintenance tests (§3.6)."""

import dataclasses

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig
from repro.core.types import MaintenanceAction
from repro.index.maintenance import IndexMonitor
from tests.conftest import requires_row_layout


@pytest.fixture
def config():
    return MicroNNConfig(
        dim=8,
        target_cluster_size=10,
        kmeans_iterations=10,
        delta_flush_threshold=10,
        rebuild_growth_threshold=0.5,
    )


@pytest.fixture
def db(tmp_path, config, rng):
    database = MicroNN.open(tmp_path / "m.db", config)
    vecs = rng.normal(size=(100, 8)).astype(np.float32)
    database.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(100))
    database.build_index()
    yield database
    database.close()


class TestIndexMonitor:
    def test_stats_after_build(self, db):
        stats = db.index_stats()
        assert stats.total_vectors == 100
        assert stats.indexed_vectors == 100
        assert stats.delta_vectors == 0
        assert stats.num_partitions == 10
        assert stats.avg_partition_size == pytest.approx(10.0)
        assert stats.baseline_avg_partition_size == pytest.approx(10.0)

    def test_stats_track_delta(self, db, rng):
        for i in range(5):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        stats = db.index_stats()
        assert stats.delta_vectors == 5
        assert stats.indexed_vectors == 100
        assert stats.total_vectors == 105

    def test_recommend_none_when_healthy(self, db):
        assert db.recommended_action() is MaintenanceAction.NONE

    def test_recommend_flush_at_threshold(self, db, rng):
        for i in range(10):  # delta_flush_threshold = 10
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        assert (
            db.recommended_action() is MaintenanceAction.INCREMENTAL_FLUSH
        )

    def test_recommend_rebuild_on_growth(self, db, rng):
        # +60 vectors onto 100 → projected avg 16 > 10 * 1.5.
        for i in range(60):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        assert db.recommended_action() is MaintenanceAction.FULL_REBUILD

    def test_recommend_rebuild_without_index(self, tmp_path, config, rng):
        with MicroNN.open(tmp_path / "x.db", config) as fresh:
            fresh.upsert("a", rng.normal(size=8).astype(np.float32))
            assert (
                fresh.recommended_action() is MaintenanceAction.FULL_REBUILD
            )

    def test_recommend_none_when_empty(self, tmp_path, config):
        with MicroNN.open(tmp_path / "x.db", config) as fresh:
            assert fresh.recommended_action() is MaintenanceAction.NONE


class TestIncrementalFlush:
    def test_flush_drains_delta(self, db, rng):
        for i in range(8):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        report = db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        assert report.action is MaintenanceAction.INCREMENTAL_FLUSH
        assert report.vectors_flushed == 8
        assert db.index_stats().delta_vectors == 0

    def test_flushed_vectors_searchable(self, db, rng):
        vec = (5.0 + rng.normal(size=8) * 0.01).astype(np.float32)
        db.upsert("target", vec)
        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        parts = db.index_stats().num_partitions
        result = db.search(vec, k=1, nprobe=parts)
        assert result[0].asset_id == "target"

    def test_flush_assigns_to_nearest_centroid(self, db, rng):
        ids, centroids = db.engine.load_centroids()
        target_pid = int(ids[0])
        vec = centroids[0] + 0.001
        db.upsert("near0", vec.astype(np.float32))
        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        assert db.engine.get_partition_of("near0") == target_pid

    def test_flush_updates_centroid_running_mean(self, db, rng):
        ids, before = db.engine.load_centroids()
        sizes = db.engine.partition_sizes()
        pid = int(ids[0])
        n = sizes[pid]
        offset = np.full(8, 2.0, dtype=np.float32)
        vec = before[0] + offset
        db.upsert("shift", vec)
        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        _, after = db.engine.load_centroids()
        expected = before[0] + offset / (n + 1)
        np.testing.assert_allclose(after[0], expected, rtol=1e-4)

    @requires_row_layout  # Fig. 10d's row-change ratio is a property
    # of row-granular writes; the packed layout rewrites whole
    # partition blobs on a flush (its trade: reads over flash wear).
    def test_flush_io_much_smaller_than_rebuild(self, db, rng):
        """Fig. 10d shape: incremental flush writes ≪ full rebuild."""
        for i in range(10):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        flush = db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        for i in range(10, 20):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        rebuild = db.maintain(force=MaintenanceAction.FULL_REBUILD)
        assert flush.row_changes < rebuild.row_changes / 3

    def test_flush_empty_delta_is_noop(self, db):
        report = db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        assert report.action is MaintenanceAction.NONE
        assert report.vectors_flushed == 0

    def test_flush_without_index_raises(self, tmp_path, config, rng):
        with MicroNN.open(tmp_path / "x.db", config) as fresh:
            fresh.upsert("a", rng.normal(size=8).astype(np.float32))
            with pytest.raises(RuntimeError, match="full build"):
                fresh.maintain(
                    force=MaintenanceAction.INCREMENTAL_FLUSH
                )


class TestMaintainAutomation:
    def test_maintain_none_when_healthy(self, db):
        report = db.maintain()
        assert report.action is MaintenanceAction.NONE

    def test_maintain_flushes_when_recommended(self, db, rng):
        for i in range(12):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        report = db.maintain()
        assert report.action is MaintenanceAction.INCREMENTAL_FLUSH

    def test_maintain_rebuilds_on_growth(self, db, rng):
        for i in range(80):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        report = db.maintain()
        assert report.action is MaintenanceAction.FULL_REBUILD
        stats = db.index_stats()
        assert stats.delta_vectors == 0
        # Rebuild re-derived k from the new collection size.
        assert stats.num_partitions == 18

    def test_full_rebuild_resets_growth(self, db, rng):
        for i in range(80):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        db.maintain()
        assert db.recommended_action() is MaintenanceAction.NONE

    def test_maintenance_report_stats(self, db, rng):
        for i in range(12):
            db.upsert(f"n{i}", rng.normal(size=8).astype(np.float32))
        report = db.maintain()
        assert report.stats_before.delta_vectors == 12
        assert report.stats_after.delta_vectors == 0
        assert report.duration_s >= 0

    @pytest.mark.parametrize("quantization", ["none", "sq8"])
    @pytest.mark.parametrize("pending", [0, 12])
    def test_one_partition_size_scan_per_maintain(
        self, tmp_path, config, rng, monkeypatch, quantization, pending
    ):
        """The recommendation, the flush and its reports share one
        partition-size scan. ``stats_after`` adds the moves to those
        sizes instead of scanning again, and on a quiescent database
        it equals a fresh ``IndexMonitor.stats()``."""
        # No blob-file compaction after the report: the hygiene pass
        # that follows a flush would change the dead-byte figures.
        config = dataclasses.replace(
            config,
            quantization=quantization,
            blob_compact_min_dead_ratio=1.0,
        )
        db = MicroNN.open(tmp_path / "q.db", config)
        try:
            vecs = rng.normal(size=(100 + pending, 8)).astype(np.float32)
            db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(100))
            db.build_index()
            db.upsert_batch(
                (f"n{i:04d}", vecs[100 + i]) for i in range(pending)
            )
            engine = db.engine
            scans = []
            real = engine.partition_sizes

            def counted(*args, **kwargs):
                scans.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(engine, "partition_sizes", counted)
            report = db.maintain()
            assert report.action is (
                MaintenanceAction.INCREMENTAL_FLUSH
                if pending
                else MaintenanceAction.NONE
            )
            assert len(scans) == 1
            monkeypatch.undo()
            fresh = IndexMonitor(engine, config).stats()
            assert report.stats_after == fresh
            assert fresh.delta_vectors == 0
            assert fresh.indexed_vectors == 100 + pending
        finally:
            db.close()
