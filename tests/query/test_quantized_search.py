"""Behavioral tests for the quantized scan paths (SQ8 + PQ)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigError, Eq, MicroNN, MicroNNConfig
from repro.core.types import PlanKind
from tests.conftest import requires_file_backend, requires_row_layout


def clustered(rng, n, dim, components=8, spread=6.0):
    centers = rng.normal(size=(components, dim)) * spread
    counts = np.full(components, n // components)
    counts[: n % components] += 1
    parts = [
        centers[i] + rng.normal(size=(int(c), dim))
        for i, c in enumerate(counts)
    ]
    return np.concatenate(parts).astype(np.float32)


@pytest.fixture
def sq8_config():
    return MicroNNConfig(
        dim=16,
        metric="l2",
        target_cluster_size=25,
        default_nprobe=4,
        kmeans_iterations=10,
        quantization="sq8",
        rerank_factor=4,
        attributes={"color": "TEXT"},
    )


@pytest.fixture
def sq8_db(tmp_path, sq8_config, rng):
    vectors = clustered(rng, 400, 16)
    db = MicroNN.open(tmp_path / "sq8.db", sq8_config)
    db.upsert_batch(
        (f"a{i:04d}", vectors[i], {"color": ["red", "blue"][i % 2]})
        for i in range(len(vectors))
    )
    db.build_index()
    yield db, vectors
    db.close()


class TestScanMode:
    def test_float32_before_build(self, tmp_path, sq8_config, rng):
        with MicroNN.open(tmp_path / "pre.db", sq8_config) as db:
            db.upsert_batch(
                (f"a{i:04d}", v)
                for i, v in enumerate(rng.normal(size=(30, 16)))
            )
            assert db.scan_mode() == "float32"
            result = db.search(rng.normal(size=16), k=5)
            assert result.stats.scan_mode == "float32"
            assert "no quantizer trained" in db.scan_mode_description()

    def test_sq8_after_build(self, sq8_db):
        db, vectors = sq8_db
        assert db.scan_mode() == "sq8"
        result = db.search(vectors[0], k=5)
        assert result.stats.scan_mode == "sq8"
        assert result.stats.candidates_reranked > 0
        assert "sq8" in db.scan_mode_description()

    def test_none_config_stays_float32(self, populated_db, vectors):
        result = populated_db.search(vectors[0], k=5)
        assert result.stats.scan_mode == "float32"
        assert result.stats.candidates_reranked == 0

    def test_index_stats_reports_quantization(self, sq8_db):
        db, _ = sq8_db
        stats = db.index_stats()
        assert stats.quantization == "sq8"
        assert stats.quantized_vectors == stats.indexed_vectors > 0

    def test_explain_mentions_scan_mode(self, sq8_db):
        db, _ = sq8_db
        text = db.explain(Eq("color", "red"))
        assert "sq8" in text
        assert "rerank" in text


class TestQuantizedResults:
    def test_nearest_self_is_found(self, sq8_db):
        db, vectors = sq8_db
        for i in (0, 57, 211, 399):
            result = db.search(vectors[i], k=1)
            assert result.asset_ids[0] == f"a{i:04d}"

    def test_high_recall_against_exact(self, sq8_db):
        db, vectors = sq8_db
        rng = np.random.default_rng(7)
        queries = vectors[rng.choice(len(vectors), 20, replace=False)]
        hits = total = 0
        for q in queries:
            approx = set(db.search(q, k=10, nprobe=16).asset_ids)
            exact = set(db.search(q, k=10, exact=True).asset_ids)
            hits += len(approx & exact)
            total += len(exact)
        assert hits / total >= 0.95

    def test_reranked_distances_are_exact(self, sq8_db):
        db, vectors = sq8_db
        query = vectors[3]
        approx = db.search(query, k=5)
        exact = db.search(query, k=5, exact=True)
        for n_a in approx:
            for n_e in exact:
                if n_a.asset_id == n_e.asset_id:
                    assert n_a.distance == pytest.approx(
                        n_e.distance, abs=1e-4
                    )

    def test_rerank_pool_bounded(self, sq8_db):
        db, vectors = sq8_db
        result = db.search(vectors[0], k=5)
        reranked = result.stats.candidates_reranked
        assert reranked <= db.config.rerank_factor * 5

    def test_post_filter_respects_predicate(self, sq8_db):
        db, vectors = sq8_db
        result = db.search(
            vectors[0],
            k=8,
            filters=Eq("color", "red"),
            plan=PlanKind.POST_FILTER,
        )
        assert result.stats.scan_mode == "sq8"
        assert all(int(aid[1:]) % 2 == 0 for aid in result.asset_ids)

    def test_delta_upserts_visible_and_exact(self, sq8_db):
        db, vectors = sq8_db
        new = vectors[0] + 1e-4
        db.upsert("fresh", new)
        result = db.search(new, k=2)
        assert "fresh" in result.asset_ids
        assert result.stats.scan_mode == "sq8"

    def test_upsert_of_indexed_asset_drops_stale_code(self, sq8_db):
        db, vectors = sq8_db
        # Move a0000 far away: the quantized scan must not resurrect
        # its old location from a stale code row.
        far = vectors[0] + 50.0
        db.upsert("a0000", far)
        result = db.search(vectors[0], k=10)
        assert "a0000" not in result.asset_ids
        assert db.check_integrity() == []

    def test_delete_removes_code_row(self, sq8_db):
        db, vectors = sq8_db
        before = db.index_stats().quantized_vectors
        assert db.delete("a0005")
        assert db.index_stats().quantized_vectors == before - 1
        assert "a0005" not in db.search(vectors[5], k=10).asset_ids


class TestMaintenanceInteraction:
    def test_flush_quantizes_flushed_vectors(self, sq8_db):
        db, vectors = sq8_db
        db.upsert_batch((f"n{i:03d}", vectors[i] + 1e-3) for i in range(50))
        from repro.core.types import MaintenanceAction

        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        stats = db.index_stats()
        assert stats.delta_vectors == 0
        assert stats.quantized_vectors == stats.indexed_vectors
        assert db.check_integrity() == []
        result = db.search(vectors[0] + 1e-3, k=3)
        assert "n000" in result.asset_ids

    def test_drifted_upserts_trigger_retrain(self, sq8_db):
        db, vectors = sq8_db
        from repro.core.types import MaintenanceAction

        quantizer_before = db.engine.load_quantizer()
        # Far outside the trained range: > 1% of components clip.
        db.upsert_batch((f"d{i:03d}", vectors[i] + 500.0) for i in range(40))
        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        quantizer_after = db.engine.load_quantizer()
        assert float(quantizer_after.hi.max()) > float(
            quantizer_before.hi.max()
        )
        assert quantizer_after.clip_fraction(vectors + 500.0) < 0.5
        # All codes were rewritten under the new quantizer.
        stats = db.index_stats()
        assert stats.quantized_vectors == stats.indexed_vectors
        assert db.check_integrity() == []

    @requires_row_layout
    def test_flush_commits_moves_and_codes_atomically(self, sq8_db):
        # The crash-safety invariant behind the single-transaction
        # flush: a vector landing in a quantized partition WITHOUT its
        # code row (what a commit-then-crash between two transactions
        # would leave behind) must be reported by integrity_check —
        # and a normal flush must never produce that state.
        db, vectors = sq8_db
        db.upsert("lost", vectors[0] + 1e-3)
        # Simulate the torn state: move the delta row without codes.
        with db.engine.write_transaction() as conn:
            conn.execute(
                "UPDATE vectors SET partition_id="
                "(SELECT MIN(partition_id) FROM centroids) "
                "WHERE asset_id='lost'"
            )
        db.engine.cache.clear()
        db.engine.codes_cache.clear()
        problems = db.check_integrity()
        assert any("no quantized code" in p for p in problems)
        # A rebuild re-encodes everything and heals the invariant.
        db.build_index()
        assert db.check_integrity() == []

    def test_rebuild_keeps_codes_complete(self, sq8_db, rng):
        db, vectors = sq8_db
        db.upsert_batch(
            (f"m{i:03d}", rng.normal(size=16).astype(np.float32) * 3)
            for i in range(60)
        )
        db.build_index()
        stats = db.index_stats()
        assert stats.quantized_vectors == stats.indexed_vectors == 460
        assert db.check_integrity() == []


class TestQuantizedBatch:
    def test_batch_matches_single_queries(self, sq8_db):
        db, vectors = sq8_db
        queries = vectors[:6]
        batch = db.search_batch(queries, k=5, nprobe=6)
        assert batch.stats.scan_mode == "sq8"
        assert batch.stats.candidates_reranked > 0
        for i, result in enumerate(batch):
            single = db.search(queries[i], k=5, nprobe=6)
            assert result.asset_ids == single.asset_ids

    def test_batch_shares_partition_scans(self, sq8_db):
        db, vectors = sq8_db
        batch = db.search_batch(vectors[:10], k=5, nprobe=6)
        assert batch.scan_sharing_factor > 1.0


def table_names(db: MicroNN) -> set[str]:
    sql = "SELECT name FROM sqlite_master WHERE type='table'"
    return {row[0] for row in db.engine._reader().execute(sql).fetchall()}


class TestOnDiskCompatibility:
    def test_none_layout_has_no_codes_table(self, populated_db):
        tables = table_names(populated_db)
        # Neither layout's codes table exists without quantization.
        assert "vector_codes" not in tables
        assert "packed_codes" not in tables
        # And no quantizer key pollutes the meta table.
        assert populated_db.engine.get_meta("sq8_quantizer") is None

    def test_sq8_layout_has_codes_table(self, sq8_db):
        db, _ = sq8_db
        backend = db.engine.storage_backend
        if backend == "blobfile":
            # Codes live as records in the blob file; the locator
            # table is the on-disk evidence they were persisted.
            with db.engine.read_snapshot() as conn:
                count = conn.execute(
                    "SELECT COUNT(*) FROM blob_locator WHERE kind='codes'"
                ).fetchone()[0]
            assert count > 0
            return
        expected = (
            "packed_codes"
            if backend == "sqlite-packed"
            else "vector_codes"
        )
        assert expected in table_names(db)

    def test_float_db_reopened_with_sq8_upgrades(self, tmp_path, rng):
        vectors = clustered(rng, 120, 16)
        base = dict(dim=16, target_cluster_size=25, kmeans_iterations=10)
        path = tmp_path / "upgrade.db"
        with MicroNN.open(path, MicroNNConfig(**base)) as db:
            db.upsert_batch(
                (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
            )
            db.build_index()
        with MicroNN.open(
            path, MicroNNConfig(quantization="sq8", **base)
        ) as db:
            # Old database, no codes yet: falls back to float32 scans.
            assert db.scan_mode() == "float32"
            result = db.search(vectors[0], k=1)
            assert result.asset_ids[0] == "a0000"
            db.build_index()
            assert db.scan_mode() == "sq8"
            result = db.search(vectors[0], k=1)
            assert result.asset_ids[0] == "a0000"
            assert result.stats.scan_mode == "sq8"


# ----------------------------------------------------------------------
# Product quantization (PQ)
# ----------------------------------------------------------------------


@pytest.fixture
def pq_config():
    return MicroNNConfig(
        dim=16,
        metric="l2",
        target_cluster_size=25,
        default_nprobe=4,
        kmeans_iterations=10,
        quantization="pq",
        pq_num_subvectors=4,
        rerank_factor=4,
        attributes={"color": "TEXT"},
    )


@pytest.fixture
def pq_db(tmp_path, pq_config, rng):
    vectors = clustered(rng, 400, 16)
    db = MicroNN.open(tmp_path / "pq.db", pq_config)
    db.upsert_batch(
        (f"a{i:04d}", vectors[i], {"color": ["red", "blue"][i % 2]})
        for i in range(len(vectors))
    )
    db.build_index()
    yield db, vectors
    db.close()


class TestPQConfigValidation:
    def test_subvectors_must_divide_dim(self):
        with pytest.raises(ConfigError, match="divide dim"):
            MicroNNConfig(dim=10, quantization="pq", pq_num_subvectors=3)

    def test_indivisible_ok_when_pq_not_selected(self):
        # The constraint only binds when the pq layout is in use.
        config = MicroNNConfig(dim=10, pq_num_subvectors=3)
        assert config.scan_code_width == 10

    def test_knob_bounds(self):
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=8, pq_num_subvectors=0)
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=8, pq_train_sample=0)
        with pytest.raises(ConfigError):
            MicroNNConfig(dim=8, delta_quantize_threshold=0)


class TestPQScanMode:
    def test_float32_before_build(self, tmp_path, pq_config, rng):
        with MicroNN.open(tmp_path / "pre.db", pq_config) as db:
            db.upsert_batch(
                (f"a{i:04d}", v)
                for i, v in enumerate(rng.normal(size=(30, 16)))
            )
            assert db.scan_mode() == "float32"
            assert "no quantizer trained" in db.scan_mode_description()

    def test_pq_after_build(self, pq_db):
        db, vectors = pq_db
        assert db.scan_mode() == "pq"
        result = db.search(vectors[0], k=5)
        assert result.stats.scan_mode == "pq"
        assert result.stats.candidates_reranked > 0
        assert "ADC" in db.scan_mode_description()

    def test_index_stats_reports_compression(self, pq_db):
        db, _ = pq_db
        stats = db.index_stats()
        assert stats.quantization == "pq"
        assert stats.quantized_vectors == stats.indexed_vectors > 0
        assert stats.code_bytes_per_vector == 4
        # 16 float32 dims = 64 bytes vs 4 code bytes.
        assert stats.compression_ratio == pytest.approx(16.0)

    def test_sq8_stats_report_compression_too(self, sq8_db):
        db, _ = sq8_db
        stats = db.index_stats()
        assert stats.code_bytes_per_vector == 16
        assert stats.compression_ratio == pytest.approx(4.0)

    def test_explain_mentions_pq(self, pq_db):
        db, _ = pq_db
        text = db.explain(Eq("color", "red"))
        assert "pq" in text
        assert "rerank" in text


class TestPQResults:
    def test_nearest_self_is_found(self, pq_db):
        db, vectors = pq_db
        for i in (0, 57, 211, 399):
            result = db.search(vectors[i], k=1)
            assert result.asset_ids[0] == f"a{i:04d}"

    def test_high_recall_against_exact(self, pq_db):
        db, vectors = pq_db
        rng = np.random.default_rng(7)
        queries = vectors[rng.choice(len(vectors), 20, replace=False)]
        hits = total = 0
        for q in queries:
            approx = set(db.search(q, k=10, nprobe=16).asset_ids)
            exact = set(db.search(q, k=10, exact=True).asset_ids)
            hits += len(approx & exact)
            total += len(exact)
        assert hits / total >= 0.9

    def test_reranked_distances_are_exact(self, pq_db):
        db, vectors = pq_db
        approx = db.search(vectors[3], k=5)
        exact = db.search(vectors[3], k=5, exact=True)
        for n_a in approx:
            for n_e in exact:
                if n_a.asset_id == n_e.asset_id:
                    assert n_a.distance == pytest.approx(
                        n_e.distance, abs=1e-4
                    )

    def test_post_filter_respects_predicate(self, pq_db):
        db, vectors = pq_db
        result = db.search(
            vectors[0],
            k=8,
            filters=Eq("color", "red"),
            plan=PlanKind.POST_FILTER,
        )
        assert result.stats.scan_mode == "pq"
        assert all(int(aid[1:]) % 2 == 0 for aid in result.asset_ids)

    def test_batch_matches_single_queries(self, pq_db):
        db, vectors = pq_db
        queries = vectors[:6]
        batch = db.search_batch(queries, k=5, nprobe=6)
        assert batch.stats.scan_mode == "pq"
        for i, result in enumerate(batch):
            single = db.search(queries[i], k=5, nprobe=6)
            assert result.asset_ids == single.asset_ids

    def test_pipelined_matches_serial(self, tmp_path, rng, force_pipeline):
        vectors = clustered(rng, 400, 16)
        base = dict(
            dim=16,
            target_cluster_size=25,
            kmeans_iterations=10,
            quantization="pq",
            pq_num_subvectors=4,
        )
        from repro import DeviceProfile

        device = DeviceProfile(
            name="tiny-cache",
            worker_threads=4,
            partition_cache_bytes=0,
            sqlite_cache_bytes=256 * 1024,
        )
        serial = MicroNN.open(
            tmp_path / "serial.db",
            MicroNNConfig(pipeline_depth=0, device=device, **base),
        )
        piped = MicroNN.open(
            tmp_path / "piped.db",
            MicroNNConfig(pipeline_depth=3, device=device, **base),
        )
        try:
            for db in (serial, piped):
                db.upsert_batch(
                    (f"a{i:04d}", vectors[i])
                    for i in range(len(vectors))
                )
                db.build_index()
            for q in vectors[:8]:
                serial.purge_caches()
                piped.purge_caches()
                a = serial.search(q, k=5, nprobe=8)
                b = piped.search(q, k=5, nprobe=8)
                assert b.stats.scan_pipelined
                assert not a.stats.scan_pipelined
                assert a.neighbors == b.neighbors
        finally:
            serial.close()
            piped.close()

    def test_delta_upserts_visible(self, pq_db):
        db, vectors = pq_db
        new = vectors[0] + 1e-4
        db.upsert("fresh", new)
        result = db.search(new, k=2)
        assert "fresh" in result.asset_ids
        assert result.stats.scan_mode == "pq"

    def test_upsert_of_indexed_asset_drops_stale_code(self, pq_db):
        db, vectors = pq_db
        far = vectors[0] + 50.0
        db.upsert("a0000", far)
        result = db.search(vectors[0], k=10)
        assert "a0000" not in result.asset_ids
        assert db.check_integrity() == []


class TestPQMaintenance:
    def test_flush_quantizes_flushed_vectors(self, pq_db):
        db, vectors = pq_db
        db.upsert_batch(
            (f"n{i:03d}", vectors[i] + 1e-3) for i in range(50)
        )
        from repro.core.types import MaintenanceAction

        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        stats = db.index_stats()
        assert stats.delta_vectors == 0
        assert stats.quantized_vectors == stats.indexed_vectors
        assert db.check_integrity() == []

    def test_drifted_upserts_trigger_codebook_retrain(self, pq_db):
        db, vectors = pq_db
        from repro.core.types import MaintenanceAction

        before = db.engine.load_quantizer()
        db.upsert_batch(
            (f"d{i:03d}", vectors[i] + 500.0) for i in range(40)
        )
        db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
        after = db.engine.load_quantizer()
        # Retrained codebooks cover the shifted region.
        assert not np.array_equal(after.codebooks, before.codebooks)
        assert after.drift_fraction(vectors[:40] + 500.0) < 0.5
        stats = db.index_stats()
        assert stats.quantized_vectors == stats.indexed_vectors
        assert db.check_integrity() == []


class TestModeCoexistence:
    """A database can move between sq8 and pq; scans stay correct."""

    def test_sq8_db_reopened_as_pq(self, tmp_path, rng):
        vectors = clustered(rng, 200, 16)
        base = dict(dim=16, target_cluster_size=25, kmeans_iterations=10)
        path = tmp_path / "switch.db"
        with MicroNN.open(
            path, MicroNNConfig(quantization="sq8", **base)
        ) as db:
            db.upsert_batch(
                (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
            )
            db.build_index()
            sq8_top = db.search(vectors[0], k=5).asset_ids
        with MicroNN.open(
            path,
            MicroNNConfig(
                quantization="pq", pq_num_subvectors=4, **base
            ),
        ) as db:
            # No PQ quantizer trained yet: scans fall back to float32
            # (the sq8 payload is never mis-parsed).
            assert db.scan_mode() == "float32"
            assert db.search(vectors[0], k=1).asset_ids[0] == "a0000"
            db.build_index()
            assert db.scan_mode() == "pq"
            result = db.search(vectors[0], k=5)
            assert result.stats.scan_mode == "pq"
            assert result.asset_ids[0] == "a0000"
            assert set(result.asset_ids) & set(sq8_top)
        # And back again: the pq meta/codes are replaced atomically.
        with MicroNN.open(
            path, MicroNNConfig(quantization="sq8", **base)
        ) as db:
            assert db.scan_mode() == "float32"
            db.build_index()
            assert db.scan_mode() == "sq8"
            assert db.search(vectors[0], k=1).asset_ids[0] == "a0000"
            assert db.check_integrity() == []

    def test_stats_honest_before_mode_switch_rebuild(
        self, tmp_path, rng
    ):
        # Reopened under the other scheme, the stale codes are not the
        # configured scheme's: stats must not describe codes that do
        # not exist (scan falls back to float32 until the rebuild).
        vectors = clustered(rng, 120, 16)
        base = dict(dim=16, target_cluster_size=25, kmeans_iterations=10)
        path = tmp_path / "stats-switch.db"
        with MicroNN.open(
            path, MicroNNConfig(quantization="sq8", **base)
        ) as db:
            db.upsert_batch(
                (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
            )
            db.build_index()
        with MicroNN.open(
            path,
            MicroNNConfig(
                quantization="pq", pq_num_subvectors=4, **base
            ),
        ) as db:
            stats = db.index_stats()
            assert stats.code_bytes_per_vector == 0
            assert stats.compression_ratio == 1.0
            db.build_index()
            stats = db.index_stats()
            assert stats.code_bytes_per_vector == 4
            assert stats.compression_ratio == pytest.approx(16.0)

    def test_parity_between_modes(self, tmp_path, rng):
        # Same data under sq8 and pq: both find the same exact top-1
        # and overlap heavily in the top-10 after rerank.
        vectors = clustered(rng, 300, 16)
        base = dict(dim=16, target_cluster_size=25, kmeans_iterations=10)
        results = {}
        for mode, extra in (
            ("sq8", {}),
            ("pq", {"pq_num_subvectors": 4}),
        ):
            with MicroNN.open(
                tmp_path / f"{mode}.db",
                MicroNNConfig(quantization=mode, **extra, **base),
            ) as db:
                db.upsert_batch(
                    (f"a{i:04d}", vectors[i])
                    for i in range(len(vectors))
                )
                db.build_index()
                results[mode] = [
                    db.search(q, k=10, nprobe=16).asset_ids
                    for q in vectors[:10]
                ]
        for sq8_ids, pq_ids in zip(results["sq8"], results["pq"]):
            assert sq8_ids[0] == pq_ids[0]
            assert len(set(sq8_ids) & set(pq_ids)) >= 8


class TestQuantizedDelta:
    """Lazy in-memory encoding of an over-threshold delta partition."""

    def make_db(self, tmp_path, rng, threshold, quantization="pq"):
        from repro import DeviceProfile

        vectors = clustered(rng, 300, 16)
        config = MicroNNConfig(
            dim=16,
            target_cluster_size=25,
            kmeans_iterations=10,
            quantization=quantization,
            pq_num_subvectors=4,
            delta_quantize_threshold=threshold,
            device=DeviceProfile(
                name="no-cache",
                worker_threads=2,
                # Zero cache budget: every partition read hits storage,
                # so delta-scan bytes are directly observable.
                partition_cache_bytes=0,
                sqlite_cache_bytes=256 * 1024,
            ),
        )
        db = MicroNN.open(tmp_path / f"delta-{quantization}.db", config)
        db.upsert_batch(
            (f"a{i:04d}", vectors[i]) for i in range(len(vectors))
        )
        db.build_index()
        return db, vectors

    def test_delta_scan_bytes_drop_once_encoded(self, tmp_path, rng):
        db, vectors = self.make_db(tmp_path, rng, threshold=40)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(60)
            )
            # First scan past the threshold encodes the delta (and
            # pays the float32 read); later scans serve codes from
            # memory, so per-query bytes shrink by the delta's share
            # (code partitions re-read both times: zero cache budget).
            before = db.io().bytes_read
            first = db.search(vectors[0], k=5)
            assert first.stats.scan_mode == "pq"
            cold_bytes = db.io().bytes_read - before
            before = db.io().bytes_read
            again = db.search(vectors[0], k=5)
            warm_bytes = db.io().bytes_read - before
            delta_float_bytes = 60 * 16 * 4
            assert warm_bytes <= cold_bytes - delta_float_bytes // 2
            assert again.neighbors == first.neighbors
        finally:
            db.close()

    def test_results_match_full_precision_delta(self, tmp_path, rng):
        # The encoded delta goes through the same rerank as any coded
        # partition, so upserted neighbors still surface exactly.
        db, vectors = self.make_db(tmp_path, rng, threshold=10)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-4) for i in range(30)
            )
            db.search(vectors[5], k=5)  # trigger lazy encoding
            assert len(db.engine.delta_codes) == 30
            result = db.search(vectors[5] + 1e-4, k=3)
            assert "u005" in result.asset_ids
        finally:
            db.close()

    def test_upsert_invalidates_encoded_delta(self, tmp_path, rng):
        db, vectors = self.make_db(tmp_path, rng, threshold=10)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(20)
            )
            db.search(vectors[0], k=5)
            assert len(db.engine.delta_codes) == 20
            # A fresh upsert must be visible to the very next scan.
            db.upsert("fresh", vectors[0] + 1e-5)
            assert len(db.engine.delta_codes) == 0
            result = db.search(vectors[0] + 1e-5, k=2)
            assert "fresh" in result.asset_ids
        finally:
            db.close()

    def test_under_threshold_delta_stays_exact(self, tmp_path, rng):
        db, vectors = self.make_db(tmp_path, rng, threshold=1000)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(20)
            )
            db.search(vectors[0], k=5)
            assert len(db.engine.delta_codes) == 0
        finally:
            db.close()

    def test_flush_drops_encoded_delta(self, tmp_path, rng):
        from repro.core.types import MaintenanceAction

        db, vectors = self.make_db(tmp_path, rng, threshold=10)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(20)
            )
            db.search(vectors[0], k=5)
            assert len(db.engine.delta_codes) == 20
            db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            assert len(db.engine.delta_codes) == 0
            assert db.index_stats().delta_vectors == 0
            assert db.check_integrity() == []
        finally:
            db.close()

    def test_stale_encode_is_not_cached(self, tmp_path, rng):
        # The write-visibility race guard: codes encoded from a
        # pre-write snapshot must not be installed after the write's
        # invalidate, or the fresh vector would be hidden from every
        # later scan.
        from repro.storage.cache import CachedPartition, DeltaCodesCache

        cache = DeltaCodesCache()
        entry = CachedPartition(
            partition_id=-1,
            asset_ids=("a",),
            vector_ids=(1,),
            matrix=np.zeros((1, 4), dtype=np.uint8),
        )
        generation = cache.generation()
        cache.invalidate()  # a delta write lands mid-encode
        assert cache.put(entry, generation) is False
        assert cache.get() is None
        assert cache.put(entry, cache.generation()) is True
        assert cache.get() is entry

    @requires_file_backend
    def test_encode_inside_a_scan_snapshot_spanning_a_write(
        self, tmp_path, rng
    ):
        """The guard in situ: the generation is the one noted when the
        scan's snapshot opened, not when the encode started."""
        import threading

        db, vectors = self.make_db(tmp_path, rng, threshold=10)
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(20)
            )
            engine = db.engine
            fresh = vectors[0] + 1e-5
            with engine.read_snapshot() as conn:
                conn.execute("SELECT 1 FROM meta").fetchone()  # pin it
                t = threading.Thread(target=db.upsert, args=("fresh", fresh))
                t.start()
                t.join(timeout=30)
                entry, is_codes = engine.load_scan_entry(-1, quantized=True)
                assert is_codes and len(entry) == 20  # pre-write delta
            assert len(engine.delta_codes) == 0
            assert "fresh" in db.search(fresh, k=2).asset_ids
            assert len(engine.delta_codes) == 21
        finally:
            db.close()

    def test_sq8_delta_encodes_too(self, tmp_path, rng):
        db, vectors = self.make_db(
            tmp_path, rng, threshold=10, quantization="sq8"
        )
        try:
            db.upsert_batch(
                (f"u{i:03d}", vectors[i] + 1e-3) for i in range(20)
            )
            first = db.search(vectors[0], k=5)
            assert first.stats.scan_mode == "sq8"
            assert len(db.engine.delta_codes) == 20
            again = db.search(vectors[0], k=5)
            assert again.neighbors == first.neighbors
        finally:
            db.close()
