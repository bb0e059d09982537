"""Adaptive nprobe early termination (ROADMAP query-path follow-on).

Built on well-separated Gaussian blobs: a query at one blob's center
gives the probe set a sharp centroid-distance gradient, so the
termination check fires deterministically on the serial path — far
partitions are skipped without changing the top-K (every true neighbor
lives in the near blob).
"""

import numpy as np
import pytest

from repro import ConfigError, MicroNN, MicroNNConfig

DIM = 8
BLOBS = 10
PER_BLOB = 40
K = 5


def blob_data(rng):
    centers = rng.normal(scale=20.0, size=(BLOBS, DIM))
    points = np.concatenate(
        [
            centers[b] + rng.normal(scale=0.1, size=(PER_BLOB, DIM))
            for b in range(BLOBS)
        ]
    ).astype(np.float32)
    return centers.astype(np.float32), points


def make_db(tmp_path, points, name, **config_kwargs):
    config_kwargs.setdefault("dim", DIM)
    config_kwargs.setdefault("target_cluster_size", 20)
    config_kwargs.setdefault("default_nprobe", 8)
    config_kwargs.setdefault("kmeans_iterations", 15)
    db = MicroNN.open(tmp_path / f"{name}.db", MicroNNConfig(**config_kwargs))
    db.upsert_batch((f"a{i:04d}", points[i]) for i in range(len(points)))
    db.build_index()
    return db


class TestSerialAdaptive:
    def test_margin_none_never_skips(self, tmp_path, rng):
        _, points = blob_data(rng)
        db = make_db(tmp_path, points, "off")
        try:
            result = db.search(points[0], k=K)
            assert result.stats.partitions_skipped == 0
        finally:
            db.close()

    def test_margin_prunes_far_partitions_same_results(
        self, tmp_path, rng
    ):
        centers, points = blob_data(rng)
        baseline = make_db(tmp_path, points, "base", pipeline_depth=0)
        adaptive = make_db(
            tmp_path,
            points,
            "adaptive",
            pipeline_depth=0,
            adaptive_nprobe_margin=0.5,
        )
        try:
            for b in range(4):
                query = centers[b]
                want = baseline.search(query, k=K)
                got = adaptive.search(query, k=K)
                # Far blobs pruned, near blob scanned: fewer partitions
                # touched, identical neighbors.
                assert got.stats.partitions_skipped > 0
                assert (
                    got.stats.partitions_scanned
                    < want.stats.partitions_scanned
                )
                assert got.neighbors == want.neighbors
                assert (
                    got.stats.vectors_scanned < want.stats.vectors_scanned
                )
        finally:
            baseline.close()
            adaptive.close()

    def test_huge_margin_is_a_noop(self, tmp_path, rng):
        centers, points = blob_data(rng)
        baseline = make_db(tmp_path, points, "base", pipeline_depth=0)
        huge = make_db(
            tmp_path,
            points,
            "huge",
            pipeline_depth=0,
            adaptive_nprobe_margin=1e6,
        )
        try:
            want = baseline.search(centers[0], k=K)
            got = huge.search(centers[0], k=K)
            assert got.stats.partitions_skipped == 0
            assert got.neighbors == want.neighbors
        finally:
            baseline.close()
            huge.close()

    def test_skip_saves_io_bytes(self, tmp_path, rng):
        centers, points = blob_data(rng)
        baseline = make_db(tmp_path, points, "base", pipeline_depth=0)
        adaptive = make_db(
            tmp_path,
            points,
            "adaptive",
            pipeline_depth=0,
            adaptive_nprobe_margin=0.5,
        )
        try:
            # Cold single scans: the skipped partitions are never read.
            baseline.purge_caches()
            adaptive.purge_caches()
            want = baseline.search(centers[0], k=K)
            got = adaptive.search(centers[0], k=K)
            assert got.stats.bytes_read < want.stats.bytes_read
        finally:
            baseline.close()
            adaptive.close()


class TestQuantizedAdaptive:
    def test_sq8_prunes_and_matches(self, tmp_path, rng):
        centers, points = blob_data(rng)
        baseline = make_db(
            tmp_path, points, "base", pipeline_depth=0,
            quantization="sq8",
        )
        adaptive = make_db(
            tmp_path,
            points,
            "adaptive",
            pipeline_depth=0,
            quantization="sq8",
            adaptive_nprobe_margin=0.5,
        )
        try:
            want = baseline.search(centers[0], k=K)
            got = adaptive.search(centers[0], k=K)
            assert want.stats.scan_mode == "sq8"
            assert got.stats.scan_mode == "sq8"
            assert got.stats.partitions_skipped > 0
            assert got.neighbors == want.neighbors
        finally:
            baseline.close()
            adaptive.close()


class TestPipelinedAdaptive:
    def test_cold_pipelined_scan_stays_correct(
        self, tmp_path, rng, force_pipeline
    ):
        centers, points = blob_data(rng)
        baseline = make_db(tmp_path, points, "base")
        adaptive = make_db(
            tmp_path,
            points,
            "adaptive",
            pipeline_depth=4,
            adaptive_nprobe_margin=0.5,
        )
        try:
            for b in range(4):
                want = baseline.search(centers[b], k=K)
                adaptive.purge_caches()
                got = adaptive.search(centers[b], k=K)
                # The pipelined admission is conservative: it may skip
                # fewer partitions than the serial check (its k-th
                # bound lags), but the answer never changes.
                assert got.stats.scan_pipelined
                assert got.stats.partitions_skipped >= 0
                assert got.neighbors == want.neighbors
        finally:
            baseline.close()
            adaptive.close()


class TestAdaptiveEverywhere:
    def test_scheduler_path_matches_serial(self, tmp_path, rng):
        """On the well-separated blob layout pruning can never change
        the top-K, so serial and served results coincide even with the
        margin on. (In general adaptive pruning is schedule-dependent
        on concurrent paths — bit-identity is only contracted with the
        margin unset; see the hammer suite.)"""
        centers, points = blob_data(rng)
        db = make_db(
            tmp_path, points, "serve", adaptive_nprobe_margin=0.5
        )
        try:
            want = [db.search(c, k=K) for c in centers[:4]]
            db.purge_caches()
            futures = [db.search_async(c, k=K) for c in centers[:4]]
            for expected, future in zip(want, futures):
                assert future.result(timeout=30).neighbors == (
                    expected.neighbors
                )
        finally:
            db.close()

    def test_scheduler_preload_skip_saves_reads(self, tmp_path, rng):
        """On the serving path the admission check runs before the
        read: with one I/O thread, slow loads and a sharp blob
        gradient, far partitions are skipped unloaded."""
        from repro import DeviceProfile, IOCostModel

        centers, points = blob_data(rng)
        device = DeviceProfile(
            name="adaptive-serve",
            worker_threads=2,
            partition_cache_bytes=0,
            sqlite_cache_bytes=256 * 1024,
            scratch_buffer_bytes=2 * 1024 * 1024,
            io_model=IOCostModel(seek_latency_s=0.003),
        )
        plain = make_db(
            tmp_path, points, "serve-plain", device=device,
            serve_io_threads=1,
        )
        adaptive = make_db(
            tmp_path, points, "serve-adaptive", device=device,
            serve_io_threads=1, adaptive_nprobe_margin=0.5,
        )
        try:
            plain.purge_caches()
            baseline = plain.search_async(centers[0], k=K).result(
                timeout=30
            )
            adaptive.purge_caches()
            got = adaptive.search_async(centers[0], k=K).result(
                timeout=30
            )
            assert got.neighbors == baseline.neighbors
            assert got.stats.partitions_skipped > 0
            # Skipped partitions were never read, so attributed bytes
            # shrink with them.
            assert got.stats.bytes_read < baseline.stats.bytes_read
        finally:
            plain.close()
            adaptive.close()

    def test_batch_path_unaffected(self, tmp_path, rng):
        centers, points = blob_data(rng)
        db = make_db(
            tmp_path, points, "batch", adaptive_nprobe_margin=0.5
        )
        try:
            batch = db.search_batch(centers[:4], k=K)
            assert len(batch) == 4
            for result in batch:
                assert len(result) == K
        finally:
            db.close()

    def test_explain_surfaces_the_margin(self, tmp_path, rng):
        from repro import Eq

        _, points = blob_data(rng)
        db = make_db(
            tmp_path,
            points,
            "explain",
            adaptive_nprobe_margin=0.25,
            attributes={"color": "TEXT"},
        )
        try:
            text = db.explain(Eq("color", "red"))
            assert "adaptive nprobe:  margin 0.25" in text
            assert "partitions_skipped" in text
        finally:
            db.close()

    def test_margin_validation(self):
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=4, adaptive_nprobe_margin=-0.1)
