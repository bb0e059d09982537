"""Degraded-mode scatter-gather: dead, slow and flaky shards.

A shard that cannot answer — files removed, storage errors, over the
per-shard timeout — must cost the query only its own results: the
gather merges the surviving shards' top-k, names the casualty in
``ShardedSearchResult.degraded_shards`` and sets ``stats.degraded``.
Transient faults are retried with backoff first; caller mistakes
(non-degradable exceptions) always propagate; only when every shard
fails does the error reach the caller.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import (
    MicroNNConfig,
    ShardConfig,
    ShardedMicroNN,
    StorageError,
)

DIM = 4
N = 80


def make_config() -> MicroNNConfig:
    return MicroNNConfig(
        dim=DIM,
        target_cluster_size=6,
        kmeans_iterations=4,
        default_nprobe=100,
    )


def populate(db: ShardedMicroNN, rng) -> dict[str, np.ndarray]:
    vecs = rng.normal(size=(N, DIM)).astype(np.float32)
    ids = {f"a{i:03d}": vecs[i] for i in range(N)}
    db.upsert_batch(ids.items())
    db.build_index()
    return ids


def open_sharded(tmp_path, rng, **shard_kwargs):
    shard_config = ShardConfig(num_shards=4, **shard_kwargs)
    db = ShardedMicroNN.open(
        tmp_path / "fleet", make_config(), shards=shard_config
    )
    ids = populate(db, rng)
    return db, ids


def kill_shard(db: ShardedMicroNN, index: int) -> str:
    """Close one shard and delete its files (dead-device scenario)."""
    name = db._manifest.shard_files[index]
    db.shards[index].close()
    for suffix in ("", "-wal", "-shm"):
        path = os.path.join(db.path, name + suffix)
        if os.path.exists(path):
            os.remove(path)
    return name


def brute_force(ids: dict[str, np.ndarray], query, k, exclude=()):
    dist = {
        i: float(np.sum((v - query) ** 2))
        for i, v in ids.items()
        if i not in exclude
    }
    return [i for i, _ in sorted(dist.items(), key=lambda t: (t[1], t[0]))][
        :k
    ]


class TestDeadShard:
    @pytest.mark.parametrize("path_kind", ["scheduled", "serial"])
    def test_partial_results_name_the_dead_shard(
        self, tmp_path, rng, path_kind
    ):
        # A per-shard timeout forces the scheduler path for a single
        # query (only the scheduled gather can enforce it); threshold
        # 100 forces the serial loop. Both must degrade identically.
        forcing = (
            {"serve_scatter_threshold": 1, "shard_timeout_s": 30.0}
            if path_kind == "scheduled"
            else {"serve_scatter_threshold": 100}
        )
        db, ids = open_sharded(
            tmp_path, rng, shard_retry_backoff_ms=1.0, **forcing
        )
        try:
            victim = 2
            victim_ids = {
                i for i in ids if db.router.shard_for(i) == victim
            }
            assert victim_ids  # hash routing spreads 80 ids over 4
            name = kill_shard(db, victim)

            query = next(iter(ids.values()))
            result = db.search(query, k=10)
            assert result.degraded_shards == (name,)
            assert result.stats.degraded
            got = [n.asset_id for n in result]
            # Exactly the right answer over the surviving shards.
            assert got == brute_force(ids, query, 10, exclude=victim_ids)
            assert not set(got) & victim_ids
            # A healthy query before/after stays untagged on the
            # surviving shards only.
            assert result.stats.shards_probed == 3
        finally:
            db.close()

    def test_all_shards_dead_raises(self, tmp_path, rng):
        db, ids = open_sharded(
            tmp_path, rng, shard_retries=0, serve_scatter_threshold=100
        )
        try:
            for index in range(4):
                kill_shard(db, index)
            with pytest.raises(StorageError):
                db.search(next(iter(ids.values())), k=5)
        finally:
            db.close()

    def test_healthy_search_is_untagged(self, tmp_path, rng):
        db, ids = open_sharded(tmp_path, rng)
        try:
            result = db.search(next(iter(ids.values())), k=5)
            assert result.degraded_shards == ()
            assert not result.stats.degraded
        finally:
            db.close()


class TestTimeout:
    def test_slow_shard_is_cut_off(self, tmp_path, rng):
        db, ids = open_sharded(
            tmp_path,
            rng,
            serve_scatter_threshold=1,  # timeout needs the scheduler path
            shard_timeout_s=0.25,
            shard_retries=0,
        )
        try:
            name = db._manifest.shard_files[1]
            # A shard whose scheduler never answers: the future hangs.
            db.shards[1].search_async = lambda *a, **kw: Future()
            start = time.perf_counter()
            result = db.search(next(iter(ids.values())), k=5)
            elapsed = time.perf_counter() - start
            assert result.degraded_shards == (name,)
            assert result.stats.degraded
            assert elapsed < 5.0  # bounded by the budget, not forever
            assert len(result.neighbors) == 5
        finally:
            db.close()


class TestRetry:
    def test_transient_fault_is_retried_not_degraded(self, tmp_path, rng):
        db, ids = open_sharded(
            tmp_path,
            rng,
            serve_scatter_threshold=100,  # serial path: patch .search
            shard_retries=2,
            shard_retry_backoff_ms=1.0,
        )
        try:
            victim = db.shards[0]
            real_search = victim.search
            calls = {"n": 0}

            def flaky(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise StorageError("transient hiccup")
                return real_search(*args, **kwargs)

            victim.search = flaky
            query = next(iter(ids.values()))
            result = db.search(query, k=10)
            assert calls["n"] == 2
            assert result.degraded_shards == ()
            assert not result.stats.degraded
            assert [n.asset_id for n in result] == brute_force(
                ids, query, 10
            )
        finally:
            db.close()

    def test_retry_budget_exhausts_to_degraded(self, tmp_path, rng):
        db, ids = open_sharded(
            tmp_path,
            rng,
            serve_scatter_threshold=100,
            shard_retries=1,
            shard_retry_backoff_ms=1.0,
        )
        try:
            calls = {"n": 0}

            def always_failing(*args, **kwargs):
                calls["n"] += 1
                raise StorageError("persistent fault")

            db.shards[3].search = always_failing
            result = db.search(next(iter(ids.values())), k=5)
            assert calls["n"] == 2  # initial attempt + 1 retry
            assert result.degraded_shards == (
                db._manifest.shard_files[3],
            )
        finally:
            db.close()

    def test_non_degradable_error_propagates(self, tmp_path, rng):
        db, ids = open_sharded(
            tmp_path, rng, serve_scatter_threshold=100
        )
        try:

            def broken(*args, **kwargs):
                raise RuntimeError("programming error, not a dead shard")

            db.shards[0].search = broken
            with pytest.raises(RuntimeError):
                db.search(next(iter(ids.values())), k=5)
        finally:
            db.close()


class TestStaleShardSweep:
    def test_reopen_sweeps_crash_leftovers(self, tmp_path, rng, caplog):
        root = tmp_path / "fleet"
        db, ids = open_sharded(tmp_path, rng)
        db.close()

        # Debris an interrupted rebalance would leave: shard-shaped
        # files the manifest does not list...
        stale = ["shard-0007-of-0009.db", "shard-0007-of-0009.db-wal"]
        for name in stale:
            (root / name).write_bytes(b"leftover")
        # ...and files that must NEVER be swept: user data and the
        # live fleet.
        (root / "notes.txt").write_text("precious")

        import logging

        with caplog.at_level(logging.WARNING, logger="repro.shard.sharded"):
            db = ShardedMicroNN.open(root, make_config())
        try:
            for name in stale:
                assert not (root / name).exists()
            assert (root / "notes.txt").exists()
            assert any(
                "stale shard files" in r.message for r in caplog.records
            )
            # The fleet itself is intact and serving.
            query = next(iter(ids.values()))
            got = [n.asset_id for n in db.search(query, k=5)]
            assert got == brute_force(ids, query, 5)
        finally:
            db.close()

    def test_listed_files_survive_the_sweep(self, tmp_path, rng):
        db, ids = open_sharded(tmp_path, rng)
        root, files = db.path, db._manifest.shard_files
        db.close()
        db = ShardedMicroNN.open(root, make_config())
        try:
            for name in files:
                assert os.path.exists(os.path.join(root, name))
            assert len(db) == N
        finally:
            db.close()
