"""Accounting of the warm scan's one-lock resident lookup.

A query whose probes are all cached takes them from the engine in one
call (``StorageEngine.resident_entries``) instead of one
``load_partition`` per probe. It must leave every counter exactly where
the per-probe loads leave it — query stats, the hot-load counter, the
workload heatmap — serve a quarantined probe as empty, and serve an
entry a write has patched as the rows a fresh load returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig
from repro.storage.cache import CachedPartition

K = 10
NPROBE = 4
HOT_LOADS = ("micronn_partition_loads_total", {"temperature": "hot"})


@pytest.fixture
def warm_db(rng):
    """A built, fully cached collection and its vectors."""
    centers = rng.normal(size=(8, 16)).astype(np.float32) * 4
    vectors = (
        centers[rng.integers(0, 8, 600)] + rng.normal(size=(600, 16))
    ).astype(np.float32)
    config = MicroNNConfig(dim=16, target_cluster_size=40)
    with MicroNN.open(config=config) as db:
        db.upsert_batch((f"a{i:04d}", v) for i, v in enumerate(vectors))
        db.build_index()
        db.upsert_batch(
            (f"d{i:04d}", v + 0.01) for i, v in enumerate(vectors[:20])
        )
        db.search(vectors[0], k=K, nprobe=10**6)
        yield db, vectors


def per_probe(db, monkeypatch) -> None:
    """Route scans through one ``load_partition`` per probe."""
    monkeypatch.setattr(db.engine, "resident_entries", lambda pids: None)


def heat(db) -> dict[int, tuple[int, int, int]]:
    return {
        row.partition_id: (row.scans, row.hot_hits, row.quarantine_hits)
        for row in db.engine.workload.heatmap()
    }


def counted_search(db, query):
    """One search and the counter deltas it left."""
    heat_before, hot_before = heat(db), db.metrics().value(*HOT_LOADS)
    result = db.search(query, k=K, nprobe=NPROBE)
    heat_after = heat(db)
    moved = {
        pid: tuple(a - b for a, b in zip(row, heat_before.get(pid, (0,) * 3)))
        for pid, row in heat_after.items()
        if row != heat_before.get(pid)
    }
    hot = db.metrics().value(*HOT_LOADS) - hot_before
    return result, hot, moved


def stats_of(result) -> tuple:
    s = result.stats
    return (
        s.cache_hits,
        s.cache_misses,
        s.partitions_scanned,
        s.vectors_scanned,
        s.distance_computations,
        s.partitions_quarantined,
    )


class TestResidentAccounting:
    def test_same_counters_as_per_probe_loads(self, warm_db, monkeypatch):
        db, vectors = warm_db
        calls = []
        resident = db.engine.resident_entries
        monkeypatch.setattr(
            db.engine,
            "resident_entries",
            lambda pids: calls.append(r := resident(pids)) or r,
        )
        for query in vectors[:5]:
            one_lock = counted_search(db, query)
            assert calls[-1] is not None  # the resident path ran
            with monkeypatch.context() as patch:
                per_probe(db, patch)
                loads = counted_search(db, query)
            assert one_lock[0].neighbors == loads[0].neighbors
            assert stats_of(one_lock[0]) == stats_of(loads[0])
            assert one_lock[0].stats.cache_hits == NPROBE + 1
            assert one_lock[1] == loads[1] == NPROBE + 1
            assert one_lock[2] == loads[2]
            assert all(
                moved == (1, 1, 0) for moved in one_lock[2].values()
            )

    def test_quarantined_probe_served_empty(self, warm_db, monkeypatch):
        db, vectors = warm_db
        query = vectors[0]
        victim = next(
            pid
            for pid, _ in db._executor.select_partitions(query, NPROBE)
            if pid >= 0 and len(db.engine.cache.get(pid))
        )
        hidden = set(db.engine.cache.get(victim).asset_ids)
        db.engine._quarantine(victim, "injected for the test")
        one_lock = counted_search(db, query)
        with monkeypatch.context() as patch:
            per_probe(db, patch)
            loads = counted_search(db, query)
        for result, _, moved in (one_lock, loads):
            assert result.stats.degraded
            assert result.stats.partitions_quarantined == 1
            assert result.stats.cache_hits == NPROBE
            assert not hidden.intersection(result.asset_ids)
            assert moved[victim] == (0, 0, 1)
        assert one_lock[0].neighbors == loads[0].neighbors
        assert stats_of(one_lock[0]) == stats_of(loads[0])
        assert one_lock[1:] == loads[1:]

    def test_write_patches_the_resident_entry(self, warm_db, monkeypatch):
        db, vectors = warm_db
        engine = db.engine
        query = vectors[7]
        pids = [pid for pid, _ in db._executor.select_partitions(query, 10**6)]
        assert engine.resident_entries(pids) is not None
        owner = next(
            pid
            for pid in pids
            if pid >= 0 and "a0007" in engine.cache.get(pid).asset_ids
        )
        # Move a0007 far away: its partition and the delta are rewritten.
        moved = vectors[7] + 100.0
        db.upsert("a0007", moved)
        entry = engine.cache.get(owner)
        assert entry is not None and "a0007" not in entry.asset_ids
        delta = engine.cache.get(-1)
        row = delta.asset_ids.index("a0007")
        assert delta.matrix[row].tobytes() == moved.tobytes()
        for patched in (entry, delta):
            fresh = engine.load_partition(patched.partition_id, False)
            assert patched.asset_ids == fresh.asset_ids
            assert patched.vector_ids == fresh.vector_ids
            assert patched.matrix.tobytes() == fresh.matrix.tobytes()
            assert not patched.matrix.flags.writeable
        calls = []
        resident = engine.resident_entries
        monkeypatch.setattr(
            engine,
            "resident_entries",
            lambda pids: calls.append(r := resident(pids)) or r,
        )
        result = db.search(query, k=K, nprobe=10**6)
        assert calls[-1] is not None  # the one-cut warm path ran
        assert result.stats.cache_misses == 0
        assert "a0007" not in result.asset_ids
        assert result.neighbors == db.search(query, k=K, exact=True).neighbors
        assert db.search(moved, k=1, nprobe=10**6).asset_ids == ("a0007",)

    def test_an_id_in_a_partition_and_the_delta_leaves_k_distinct(
        self, warm_db, monkeypatch
    ):
        """The one cut ranks every row and keeps each id once, so an id
        resident in both a partition and the delta still leaves K
        distinct neighbours. (A capacity-K accumulator ranks rows: when
        it compacts, the two copies can take two of its K slots and
        prune the K-th distinct id. This pins the one-cut behaviour
        against being matched to that.)
        """
        db, vectors = warm_db
        engine = db.engine
        query = vectors[7]
        delta = engine.cache.get(-1)
        assert engine.cache.put(
            CachedPartition(
                partition_id=-1,
                asset_ids=delta.asset_ids + ("a0007",),
                vector_ids=delta.vector_ids + (10**6,),
                matrix=np.vstack([delta.matrix, query]),
            )
        )
        calls = []
        resident = engine.resident_entries
        monkeypatch.setattr(
            engine,
            "resident_entries",
            lambda pids: calls.append(r := resident(pids)) or r,
        )
        result = db.search(query, k=K, nprobe=10**6)
        assert calls[-1] is not None  # the one-cut warm path ran
        copies = [e for e in calls[-1] if "a0007" in e.asset_ids]
        assert len(copies) == 2
        assert len(set(result.asset_ids)) == len(result) == K
        assert result.asset_ids[0] == "a0007"
        assert result.neighbors == db.search(query, k=K, exact=True).neighbors
