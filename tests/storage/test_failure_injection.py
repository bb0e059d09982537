"""Failure injection: corruption, invalid state, rollback behaviour."""

import threading

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig, ShardedMicroNN, StorageError
from repro.core.config import DELTA_PARTITION_ID
from tests.conftest import requires_row_layout


@pytest.fixture
def db(tmp_path, rng):
    config = MicroNNConfig(dim=4, target_cluster_size=5,
                           kmeans_iterations=5)
    database = MicroNN.open(tmp_path / "f.db", config)
    vecs = rng.normal(size=(20, 4)).astype(np.float32)
    database.upsert_batch((f"a{i:02d}", vecs[i]) for i in range(20))
    yield database
    database.close()


def corrupt_blob(db, asset_id: str, payload: bytes) -> None:
    """Bypass the engine and damage a stored vector blob."""
    engine = db.engine
    with engine.write_transaction() as conn:
        conn.execute(
            "UPDATE vectors SET vector=? WHERE asset_id=?",
            (payload, asset_id),
        )
    engine.purge_caches()


@requires_row_layout  # corrupt_blob writes the row-layout table
class TestCorruption:
    def test_truncated_blob_detected_on_read(self, db):
        corrupt_blob(db, "a00", b"\x00" * 7)  # not a multiple of 4*dim
        with pytest.raises(StorageError, match="bytes"):
            db.get_vector("a00")

    def test_truncated_blob_detected_on_scan(self, db, rng):
        corrupt_blob(db, "a00", b"\x00" * 7)
        with pytest.raises(StorageError):
            db.search(rng.normal(size=4).astype(np.float32), k=5)

    def test_oversized_blob_detected(self, db):
        corrupt_blob(db, "a01", b"\x00" * 32)  # dim 8 worth of bytes
        with pytest.raises(StorageError):
            db.get_vector("a01")

    def test_compensating_blob_widths_in_the_delta_detected(self, db, rng):
        """The delta carries no checksum: two mis-sized blobs whose
        lengths add up to the right total must not be reinterpreted
        with shifted row boundaries."""
        corrupt_blob(db, "a00", b"\x00" * 12)
        corrupt_blob(db, "a01", b"\x00" * 20)
        with pytest.raises(StorageError, match="widths"):
            db.search(rng.normal(size=4).astype(np.float32), k=5)

    def test_other_rows_unaffected(self, db):
        corrupt_blob(db, "a00", b"\x00" * 7)
        assert db.get_vector("a05") is not None


class TestTransactionalRollback:
    def test_failed_batch_leaves_no_trace(self, db, rng):
        before = len(db)
        bad = [
            ("new1", rng.normal(size=4).astype(np.float32)),
            ("new2", np.full(4, np.nan, dtype=np.float32)),
        ]
        with pytest.raises(StorageError):
            db.upsert_batch(bad)
        assert len(db) == before
        assert "new1" not in db

    def test_failed_batch_preserves_old_version(self, db, rng):
        original = db.get_vector("a00").copy()
        bad = [
            ("a00", rng.normal(size=4).astype(np.float32)),
            ("a01", np.full(4, np.inf, dtype=np.float32)),
        ]
        with pytest.raises(StorageError):
            db.upsert_batch(bad)
        np.testing.assert_array_equal(db.get_vector("a00"), original)

    def test_vector_id_counter_not_burned_visibly(self, db, rng):
        """A rolled-back batch must not leak partially-written rows."""
        with pytest.raises(StorageError):
            db.upsert_batch(
                [("x", np.full(4, np.nan, dtype=np.float32))]
            )
        db.upsert("y", rng.normal(size=4).astype(np.float32))
        entry = db.engine.load_partition(DELTA_PARTITION_ID)
        assert "x" not in entry.asset_ids
        assert "y" in entry.asset_ids


class TestInvalidMeta:
    def test_meta_tampering_detected_on_reopen(self, tmp_path, rng):
        config = MicroNNConfig(dim=4)
        path = tmp_path / "m.db"
        with MicroNN.open(path, config) as db:
            db.upsert("a", rng.normal(size=4).astype(np.float32))
            with db.engine.write_transaction() as conn:
                conn.execute(
                    "UPDATE meta SET value='999' WHERE key='dim'"
                )
        with pytest.raises(StorageError, match="dim"):
            MicroNN.open(path, config)


class TestDeltaSafety:
    def test_search_with_corrupt_centroid(self, db, rng):
        """Damaged centroid blobs surface as storage errors, not wrong
        results."""
        db.build_index()
        with db.engine.write_transaction() as conn:
            conn.execute(
                "UPDATE centroids SET centroid=? WHERE partition_id=0",
                (b"\x01\x02",),
            )
        db.engine.purge_caches()
        with pytest.raises(StorageError):
            db.search(rng.normal(size=4).astype(np.float32), k=3)


class TestShardedCloseFailure:
    """ShardedMicroNN.close() under a failing shard (ISSUE 5).

    The contract: every shard's close() is attempted — a raising shard
    must not strand the remaining shards' serving schedulers or worker
    pools — and the first exception re-raises once the fleet is down.
    """

    def _fleet(self, tmp_path, rng, shards=3):
        config = MicroNNConfig(dim=4, target_cluster_size=5,
                               kmeans_iterations=5)
        db = ShardedMicroNN.open(tmp_path / "fleet", config,
                                 shards=shards)
        vecs = rng.normal(size=(30, 4)).astype(np.float32)
        db.upsert_batch((f"a{i:02d}", vecs[i]) for i in range(30))
        db.build_index()
        # Spin up every shard's serving scheduler so close() has real
        # schedulers to drain, not lazily-absent ones.
        db.search_async(vecs[0], k=3).result(timeout=30)
        return db, vecs

    def test_remaining_shards_closed_and_first_error_reraised(
        self, tmp_path, rng
    ):
        db, _ = self._fleet(tmp_path, rng)
        victim = db.shards[1]
        victim_close = victim.close
        boom = RuntimeError("injected shard close failure")

        def failing_close():
            raise boom

        victim.close = failing_close
        try:
            with pytest.raises(RuntimeError, match="injected"):
                db.close()
            # Every *other* shard was still torn down: engines closed,
            # schedulers drained, no worker threads left behind (the
            # victim's scheduler is the only one allowed to survive).
            for idx, shard in enumerate(db.shards):
                assert shard.engine.is_open == (idx == 1)
        finally:
            victim_close()  # reap the injected shard's threads
        lingering = [
            t.name for t in threading.enumerate()
            if t.name.startswith("micronn-")
        ]
        assert lingering == []

    def test_first_of_many_failures_wins(self, tmp_path, rng):
        db, _ = self._fleet(tmp_path, rng)
        originals = [shard.close for shard in db.shards]
        for idx in (0, 2):
            def make(i):
                def failing_close():
                    raise RuntimeError(f"shard {i} failed")
                return failing_close
            db.shards[idx].close = make(idx)
        try:
            with pytest.raises(RuntimeError, match="shard 0 failed"):
                db.close()
            assert not db.shards[1].engine.is_open
        finally:
            originals[0]()
            originals[2]()

    def test_close_idempotent_after_failure(self, tmp_path, rng):
        db, _ = self._fleet(tmp_path, rng)
        victim = db.shards[2]
        victim_close = victim.close
        victim.close = lambda: (_ for _ in ()).throw(
            RuntimeError("injected")
        )
        try:
            with pytest.raises(RuntimeError):
                db.close()
            # Second close is a no-op, not a second round of errors.
            db.close()
        finally:
            victim_close()

    def test_failure_does_not_resurrect_facade(self, tmp_path, rng):
        from repro.core.errors import DatabaseClosedError

        db, vecs = self._fleet(tmp_path, rng)
        victim = db.shards[0]
        victim_close = victim.close
        victim.close = lambda: (_ for _ in ()).throw(
            RuntimeError("injected")
        )
        try:
            with pytest.raises(RuntimeError):
                db.close()
            with pytest.raises(DatabaseClosedError):
                db.search(vecs[0], k=3)
        finally:
            victim_close()
