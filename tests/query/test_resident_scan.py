"""Accounting of the warm scan's one-lock resident lookup.

A query whose probes are all cached takes them from the engine in one
call (``StorageEngine.resident_entries``) instead of one
``load_partition`` per probe. It must leave every counter exactly where
the per-probe loads leave it — query stats, the hot-load counter, the
workload heatmap — serve a quarantined probe as empty, and miss on an
entry a write has invalidated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig

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

    def test_write_drops_the_stale_entry(self, warm_db):
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
        db.upsert("a0007", vectors[7] + 100.0)
        assert owner not in engine.cache
        assert engine.resident_entries(pids) is None
        result = db.search(query, k=K, nprobe=10**6)
        assert result.stats.cache_misses >= 1
        assert "a0007" not in result.asset_ids
        assert result.neighbors == db.search(query, k=K, exact=True).neighbors
        # Reloaded and cached again: the next search is all hits.
        again = db.search(query, k=K, nprobe=10**6)
        assert again.stats.cache_misses == 0
        assert again.neighbors == result.neighbors
