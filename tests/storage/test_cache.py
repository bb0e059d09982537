"""Partition cache (LRU, byte-budgeted) tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import (
    AttributeColumn,
    CachedPartition,
    PartitionCache,
)
from repro.storage.memory import MemoryTracker


def make_entry(pid: int, rows: int = 10, dim: int = 8) -> CachedPartition:
    return CachedPartition(
        partition_id=pid,
        asset_ids=tuple(f"a{pid}-{i}" for i in range(rows)),
        vector_ids=tuple(range(rows)),
        matrix=np.zeros((rows, dim), dtype=np.float32),
    )


def entry_bytes(rows: int = 10, dim: int = 8) -> int:
    return rows * dim * 4 + 16 * rows


class TestBasicOps:
    def test_get_missing_returns_none(self):
        cache = PartitionCache(budget_bytes=10_000)
        assert cache.get(1) is None

    def test_put_then_get(self):
        cache = PartitionCache(budget_bytes=10_000)
        entry = make_entry(1)
        assert cache.put(entry) is True
        assert cache.get(1) is entry
        assert 1 in cache

    def test_len_and_used_bytes(self):
        cache = PartitionCache(budget_bytes=10_000)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        assert len(cache) == 2
        assert cache.used_bytes == 2 * entry_bytes()

    def test_put_replaces_same_partition(self):
        cache = PartitionCache(budget_bytes=10_000)
        cache.put(make_entry(1, rows=10))
        cache.put(make_entry(1, rows=5))
        assert len(cache) == 1
        assert cache.used_bytes == entry_bytes(rows=5)

    def test_oversized_entry_rejected(self):
        cache = PartitionCache(budget_bytes=100)
        assert cache.put(make_entry(1, rows=100)) is False
        assert len(cache) == 0

    def test_zero_budget_caches_nothing(self):
        cache = PartitionCache(budget_bytes=0)
        assert cache.put(make_entry(1)) is False


class TestEviction:
    def test_lru_eviction_order(self):
        budget = entry_bytes() * 2
        cache = PartitionCache(budget_bytes=budget)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.put(make_entry(3))  # evicts 1 (least recently used)
        assert 1 not in cache
        assert 2 in cache
        assert 3 in cache

    def test_get_refreshes_recency(self):
        budget = entry_bytes() * 2
        cache = PartitionCache(budget_bytes=budget)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.get(1)  # 1 is now most recent
        cache.put(make_entry(3))  # evicts 2
        assert 1 in cache
        assert 2 not in cache

    def test_budget_respected(self):
        budget = entry_bytes() * 3 + 10
        cache = PartitionCache(budget_bytes=budget)
        for pid in range(10):
            cache.put(make_entry(pid))
        assert cache.used_bytes <= budget
        assert len(cache) == 3


class TestInvalidation:
    def test_invalidate_one(self):
        cache = PartitionCache(budget_bytes=10_000)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.invalidate(1)
        assert 1 not in cache
        assert 2 in cache
        assert cache.used_bytes == entry_bytes()

    def test_invalidate_missing_is_noop(self):
        cache = PartitionCache(budget_bytes=10_000)
        cache.invalidate(99)

    def test_clear(self):
        cache = PartitionCache(budget_bytes=10_000)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0


class TestTrackerIntegration:
    def test_tracker_follows_cache_usage(self):
        tracker = MemoryTracker()
        cache = PartitionCache(budget_bytes=10_000, tracker=tracker)
        cache.put(make_entry(1))
        assert tracker.current_bytes == entry_bytes()
        cache.invalidate(1)
        assert tracker.current_bytes == 0

    def test_tracker_follows_eviction(self):
        tracker = MemoryTracker()
        cache = PartitionCache(
            budget_bytes=entry_bytes() * 2, tracker=tracker
        )
        for pid in range(5):
            cache.put(make_entry(pid))
        assert tracker.current_bytes == cache.used_bytes

    def test_tracker_cleared_on_clear(self):
        tracker = MemoryTracker()
        cache = PartitionCache(budget_bytes=10_000, tracker=tracker)
        cache.put(make_entry(1))
        cache.clear()
        assert tracker.current_bytes == 0


class TestCachedPartition:
    def test_nbytes_accounts_matrix_and_ids(self):
        entry = make_entry(1, rows=10, dim=8)
        assert entry.nbytes == 10 * 8 * 4 + 16 * 10

    def test_len(self):
        assert len(make_entry(1, rows=7)) == 7



class TestPatch:
    """``PartitionCache.plan`` + ``install`` against a dict model of
    the partitions: every resident entry — loaded before the write
    committed or after, cached before the plan or between plan and
    install — ends up holding its partition's post-write rows in
    ``asset_id`` order, bit for bit; columns are sliced when an entry
    only loses rows and dropped when it gains any."""

    POOL = [f"a{i:02d}" for i in range(12)]
    PIDS = [-1, 0, 1, 2]

    @staticmethod
    def entry(pid, rows, columns=None):
        ids = sorted(rows)
        return CachedPartition(
            partition_id=pid,
            asset_ids=tuple(ids),
            vector_ids=tuple(rows[a][0] for a in ids),
            matrix=np.array([rows[a][1] for a in ids], np.float32).reshape(
                -1, 2
            ),
            columns={} if columns is None else columns,
        )

    def draw_write(self, data):
        """A random write and the dict model of its partitions:
        ``(removed, holders, moves, fresh, before, after, gained)``."""
        pool, pids = self.POOL, self.PIDS
        home = data.draw(
            st.dictionaries(st.sampled_from(pool), st.sampled_from(pids))
        )
        before = {pid: {} for pid in pids}
        for n, (asset_id, pid) in enumerate(sorted(home.items())):
            before[pid][asset_id] = (n, (float(n), -float(n)))
        removed = data.draw(st.sets(st.sampled_from(pool), min_size=1))
        kind = data.draw(st.sampled_from(["delete", "upsert", "move"]))
        moves, fresh = {}, None
        if kind == "move":
            moves = {
                a: data.draw(st.sampled_from(pids))
                for a in sorted(removed)
                if a in home
            }
            removed = set(moves)
        elif kind == "upsert":
            fresh = self.entry(
                -1,
                {
                    a: (100 + i, (float(i), 9.0))
                    for i, a in enumerate(sorted(removed))
                },
            )
        # The same write applied to the model of every partition.
        after = {pid: dict(rows) for pid, rows in before.items()}
        carried = {}
        for pid in pids:
            for a in removed & after[pid].keys():
                carried[a] = after[pid].pop(a)
        gained = set()
        for a, pid in moves.items():
            after[pid][a] = carried[a]
            gained.add(pid)
        if fresh is not None:
            for a, vid, row in zip(
                fresh.asset_ids, fresh.vector_ids, fresh.matrix.tolist()
            ):
                after[-1][a] = (vid, tuple(row))
            gained.add(-1)
        holders = {home[a] for a in removed if a in home}
        return removed, holders, moves, fresh, before, after, gained

    @staticmethod
    def put(cache, pid, rows, valid):
        """Cache ``rows`` of ``pid`` with an ``n`` column attached."""
        ids = sorted(rows)
        column = AttributeColumn(
            np.array([int(a[1:]) for a in ids], dtype=np.int64),
            np.array([valid[a] for a in ids], dtype=bool),
        )
        cache.put(TestPatch.entry(pid, rows, {"n": column}))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_model(self, data):
        pool, pids = self.POOL, self.PIDS
        removed, holders, moves, fresh, before, after, gained = (
            self.draw_write(data)
        )
        home = {a: pid for pid in pids for a in before[pid]}
        # Resident entries loaded before the commit, or after it.
        loaded = data.draw(
            st.dictionaries(st.sampled_from(pids), st.booleans())
        )
        valid = {a: int(a[1:]) % 3 != 0 for a in pool}
        tracker = MemoryTracker()
        cache = PartitionCache(budget_bytes=1 << 20, tracker=tracker)
        for pid, post in loaded.items():
            self.put(cache, pid, (after if post else before)[pid], valid)
        generation = cache.generation()
        cache.install(cache.plan(removed, holders, moves=moves, fresh=fresh))
        assert cache.generation() == generation + 1
        for pid in pids:
            got = cache.get(pid)
            if pid not in loaded:
                assert got is None
                continue
            # A moved row joins only from an entry that held it.
            if not all(
                loaded.get(home[a]) is False or loaded[pid]
                for a, dest in moves.items()
                if dest == pid
            ):
                assert got is None
                continue
            want = self.entry(pid, after[pid])
            assert got.asset_ids == want.asset_ids
            assert got.vector_ids == want.vector_ids
            assert got.matrix.tobytes() == want.matrix.tobytes()
            if pid in gained:
                assert got.columns == {}
                continue
            column = got.columns["n"]
            assert column.values.tolist() == [
                int(a[1:]) for a in got.asset_ids
            ]
            assert column.valid.tolist() == [valid[a] for a in got.asset_ids]
        assert cache.used_bytes == sum(
            cache.get(pid).nbytes for pid in pids if pid in cache
        )
        assert tracker.current_bytes == cache.used_bytes

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_entries_cached_between_plan_and_install(self, data):
        """Between plan and install a reader may evict an entry or cache
        its own load, of the pre-write rows or the post-write ones. The
        install patches what it finds: each entry it leaves holds the
        post-write rows, and only a move's destination may be dropped.
        """
        removed, holders, moves, fresh, before, after, _ = (
            self.draw_write(data)
        )
        states = st.sampled_from(["pre", "post", "evicted"])
        pids = st.sampled_from(self.PIDS)
        planned = data.draw(st.dictionaries(pids, states))
        between = data.draw(st.dictionaries(pids, states))
        valid = {a: int(a[1:]) % 2 == 0 for a in self.POOL}
        cache = PartitionCache(budget_bytes=1 << 20)
        model = {"pre": before, "post": after}
        for pid, state in planned.items():
            if state != "evicted":
                self.put(cache, pid, model[state][pid], valid)
        plan = cache.plan(removed, holders, moves=moves, fresh=fresh)
        for pid, state in between.items():
            if state == "evicted":
                cache.invalidate(pid)
            else:
                self.put(cache, pid, model[state][pid], valid)
        resident = {pid for pid in self.PIDS if pid in cache}
        cache.install(plan)
        for pid in self.PIDS:
            got = cache.get(pid)
            if got is None:
                assert pid not in resident or pid in moves.values()
                continue
            want = self.entry(pid, after[pid])
            assert got.asset_ids == want.asset_ids
            assert got.vector_ids == want.vector_ids
            assert got.matrix.tobytes() == want.matrix.tobytes()
        assert cache.used_bytes == sum(
            cache.get(pid).nbytes for pid in self.PIDS if pid in cache
        )
