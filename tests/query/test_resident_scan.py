"""Accounting of the warm scan's one-lock resident lookup.

A query whose probes are all cached takes them from the engine in one
call (``StorageEngine.resident_entries``) instead of one
``load_partition`` per probe. It must leave every counter exactly where
the per-probe loads leave it — query stats, the hot-load counter, the
workload heatmap — serve a quarantined probe as empty, and serve an
entry a write has patched as the rows a fresh load returns. An id held
by both a partition and the delta leaves K distinct neighbours on every
scan path, this one and the others alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig, ShardedMicroNN
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


#: Scan paths an id in both a partition and the delta is checked on.
SCAN_PATHS = (
    "resident",
    "cold_serial",
    "pipelined",
    "sq8",
    "search_batch",
    "search_async",
    "sharded",
)
DUP_K = 3


def dup_database(rng, path: str):
    """A built, fully cached collection (sq8, or two shards, by
    ``path``) whose delta holds ``10 * DUP_K`` rows a small step apart
    on a line from ``a0007``'s vector, and that vector as the query."""
    centers = rng.normal(size=(8, 16)).astype(np.float32) * 4
    vectors = (
        centers[rng.integers(0, 8, 600)] + rng.normal(size=(600, 16))
    ).astype(np.float32)
    query = vectors[7]
    config = MicroNNConfig(
        dim=16,
        target_cluster_size=40,
        quantization="sq8" if path == "sq8" else "none",
    )
    if path == "sharded":
        db = ShardedMicroNN.open(config=config, shards=2)
    else:
        db = MicroNN.open(config=config)
    db.upsert_batch((f"a{i:04d}", v) for i, v in enumerate(vectors))
    db.build_index()
    step = np.zeros(16, dtype=np.float32)
    step[0] = 0.05
    db.upsert_batch(
        (f"n{i:02d}", query + step * (i + 1)) for i in range(10 * DUP_K)
    )
    db.search(query, k=DUP_K, nprobe=10**6)  # caches every partition
    return db, query


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

    @pytest.mark.parametrize("path", SCAN_PATHS)
    def test_an_id_in_a_partition_and_the_delta_leaves_k_distinct(
        self, rng, monkeypatch, path
    ):
        """Every scan ranks every row and keeps each id once, so an id
        resident in both a partition and the delta still leaves K
        distinct neighbours on every path. (A capacity-K accumulator
        ranks rows: the delta's near rows make it compact once both
        copies are in, the two copies take two of its K slots, and the
        K-th distinct id is pruned.)
        """
        db, query = dup_database(rng, path)
        with db:
            shard = db
            if path == "sharded":
                shard = next(
                    s
                    for s in db.shards
                    if s.engine.get_partition_of("a0007") is not None
                )
            engine = shard.engine
            delta = engine.cache.get(-1)
            assert engine.cache.put(
                CachedPartition(
                    partition_id=-1,
                    asset_ids=delta.asset_ids + ("a0007",),
                    vector_ids=delta.vector_ids + (10**6,),
                    matrix=np.vstack([delta.matrix, query]),
                )
            )
            if path in ("cold_serial", "pipelined"):
                owner = engine.get_partition_of("a0007")
                victim = max(
                    pid for pid in engine.partition_sizes() if pid != owner
                )
                engine.cache.invalidate(victim)
            if path == "pipelined":
                monkeypatch.setattr(
                    "repro.query.executor.pipeline_engages",
                    lambda *args: True,
                )
            calls = []
            resident = engine.resident_entries
            monkeypatch.setattr(
                engine,
                "resident_entries",
                lambda pids: calls.append(r := resident(pids)) or r,
            )
            if path == "search_batch":
                batch = db.search_batch([query], k=DUP_K, nprobe=10**6)
                result = batch.results[0]
            elif path == "search_async":
                result = db.search_async(
                    query, k=DUP_K, nprobe=10**6
                ).result()
            else:
                result = db.search(query, k=DUP_K, nprobe=10**6)
            if path == "resident":
                assert calls[-1] is not None  # the one-cut warm path ran
                copies = [e for e in calls[-1] if "a0007" in e.asset_ids]
                assert len(copies) == 2
            if path in ("cold_serial", "pipelined"):
                assert result.stats.cache_misses == 1
                assert result.stats.scan_pipelined == (path == "pipelined")
            assert len(set(result.asset_ids)) == len(result) == DUP_K
            assert result.asset_ids[0] == "a0007"
            exact = db.search(query, k=DUP_K, exact=True)
            assert result.asset_ids == exact.asset_ids
            if path == "search_batch":  # GEMM: distances to tolerance
                np.testing.assert_allclose(
                    result.distances, exact.distances, atol=1e-3
                )
            else:
                assert result.distances == exact.distances

