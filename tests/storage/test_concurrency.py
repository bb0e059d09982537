"""Concurrency tests: single writer, snapshot-isolated readers (§3.6)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import DeviceProfile, Eq, MicroNN, MicroNNConfig, PlanKind
from repro.core.types import MaintenanceAction
from tests.conftest import requires_file_backend, requires_row_layout


@pytest.fixture
def config():
    return MicroNNConfig(
        dim=8, target_cluster_size=10, kmeans_iterations=10,
        default_nprobe=3,
    )


def populate(db, rng, count=150, prefix="a"):
    vecs = rng.normal(size=(count, 8)).astype(np.float32)
    db.upsert_batch((f"{prefix}{i:04d}", vecs[i]) for i in range(count))
    return vecs


class TestConcurrentReadersWriter:
    def test_readers_survive_concurrent_writes(self, tmp_path, config, rng):
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            populate(db, rng)
            db.build_index()
            errors: list[str] = []
            stop = threading.Event()

            def reader():
                local_rng = np.random.default_rng(1)
                while not stop.is_set():
                    q = local_rng.normal(size=8).astype(np.float32)
                    result = db.search(q, k=5)
                    if len(result) < 5:
                        errors.append(f"short result {len(result)}")

            def writer():
                local_rng = np.random.default_rng(2)
                for i in range(60):
                    db.upsert(
                        f"w{i}", local_rng.normal(size=8).astype(np.float32)
                    )

            readers = [threading.Thread(target=reader) for _ in range(4)]
            w = threading.Thread(target=writer)
            for t in readers:
                t.start()
            w.start()
            w.join(timeout=30)
            time.sleep(0.2)
            stop.set()
            for t in readers:
                t.join(timeout=30)
            assert not errors
            assert len(db) == 210
        finally:
            db.close()

    def test_readers_during_rebuild(self, tmp_path, config, rng):
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            populate(db, rng)
            db.build_index()
            errors: list[str] = []
            done = threading.Event()

            def reader():
                local_rng = np.random.default_rng(3)
                while not done.is_set():
                    result = db.search(
                        local_rng.normal(size=8).astype(np.float32), k=5
                    )
                    # Every reader must always see the full collection:
                    # mid-rebuild snapshots still contain all vectors.
                    if len(result) != 5:
                        errors.append(f"short result {len(result)}")

            readers = [threading.Thread(target=reader) for _ in range(3)]
            for t in readers:
                t.start()
            for _ in range(3):
                db.build_index()
            done.set()
            for t in readers:
                t.join(timeout=30)
            assert not errors
        finally:
            db.close()

    def test_writes_are_serialized(self, tmp_path, config, rng):
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            n_threads, per_thread = 6, 30

            def writer(tid: int):
                local_rng = np.random.default_rng(tid)
                for i in range(per_thread):
                    db.upsert(
                        f"t{tid}-{i}",
                        local_rng.normal(size=8).astype(np.float32),
                    )

            threads = [
                threading.Thread(target=writer, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(db) == n_threads * per_thread
        finally:
            db.close()

    def test_concurrent_maintenance_and_queries(self, tmp_path, config, rng):
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            vecs = populate(db, rng)
            db.build_index()
            for i in range(30):
                db.upsert(
                    f"new{i}", rng.normal(size=8).astype(np.float32)
                )
            errors: list[str] = []
            done = threading.Event()

            def reader():
                while not done.is_set():
                    result = db.search(vecs[0], k=3)
                    if result[0].asset_id != "a0000":
                        errors.append(result[0].asset_id)

            t = threading.Thread(target=reader)
            t.start()
            db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            db.maintain(force=MaintenanceAction.FULL_REBUILD)
            done.set()
            t.join(timeout=30)
            assert not errors
            assert db.index_stats().delta_vectors == 0
        finally:
            db.close()


    @pytest.mark.parametrize("quantization", ["none", "sq8"])
    def test_filtered_readers_never_keep_a_stale_attribute_column(
        self, tmp_path, rng, quantization
    ):
        """This thread flips assets' ``flag`` in bursts (each flip moves
        the asset to the delta; flushes move them back) while readers
        run post-filtered searches, serial and served, which park
        attribute columns on whatever entries they scan. After every
        burst — readers still running — a filtered search must reflect
        the last committed value of every asset, in partitions and in
        the delta alike: no column outlived the write that patched the
        entry it was read for.
        """
        count = 120
        config = MicroNNConfig(
            dim=8,
            target_cluster_size=10,
            kmeans_iterations=10,
            default_nprobe=3,
            quantization=quantization,
            delta_quantize_threshold=8,
            attributes={"flag": "INTEGER"},
            # Room for about half the partitions: scans mix hits with
            # misses, and a scan with a miss holds one snapshot
            # throughout — the window a stale column needs.
            device=DeviceProfile(
                name="half-cached",
                worker_threads=2,
                partition_cache_bytes=3 * 1024,
            ),
        )
        db = MicroNN.open(tmp_path / "c.db", config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        stop = threading.Event()
        readers: list[threading.Thread] = []
        try:
            vecs = rng.normal(size=(count, 8)).astype(np.float32)
            flags = [i % 2 for i in range(count)]
            db.upsert_batch(
                (f"a{i:04d}", vecs[i], {"flag": flags[i]})
                for i in range(count)
            )
            db.build_index()
            errors: list[str] = []

            def served(*args, **kwargs):
                return db.search_async(*args, **kwargs).result(30)

            def reader(search, seed: int):
                local_rng = np.random.default_rng(seed)
                while not stop.is_set():
                    try:
                        search(
                            local_rng.normal(size=8).astype(np.float32),
                            k=5,
                            nprobe=6,
                            filters=Eq("flag", int(local_rng.integers(2))),
                            plan=PlanKind.POST_FILTER,
                        )
                    except Exception as exc:  # surfaced below
                        errors.append(repr(exc))
                        return

            readers += [
                threading.Thread(target=reader, args=(search, seed))
                for seed, search in enumerate(
                    (db.search, db.search, db.search, served)
                )
            ]
            for t in readers:
                t.start()
            for burst in range(12):
                for i in rng.integers(0, count, 6).tolist():
                    flags[i] = 1 - flags[i]
                    db.upsert(f"a{i:04d}", vecs[i], {"flag": flags[i]})
                if burst % 5 == 3:
                    db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
                for want in (0, 1):
                    expected = {
                        f"a{i:04d}" for i in range(count) if flags[i] == want
                    }
                    for search in (db.search, served):
                        found = search(
                            vecs[0],
                            k=count,
                            nprobe=10**6,
                            filters=Eq("flag", want),
                            plan=PlanKind.POST_FILTER,
                        )
                        assert set(found.asset_ids) == expected
                        assert (
                            found.stats.rows_filtered
                            == count - len(expected)
                        )
                # Readers cache loads between a write's plan and its
                # install: every resident entry still equals a fresh
                # load, and every stamp a write stored verifies.
                engine = db.engine
                for pid in engine.load_centroids()[0].tolist() + [-1]:
                    entry = engine.cache.get(pid)
                    if entry is not None:
                        fresh = engine.load_partition(pid, use_cache=False)
                        assert entry.asset_ids == fresh.asset_ids
                        assert entry.matrix.tobytes() == fresh.matrix.tobytes()
                scrub = engine.scrub()
                assert scrub.corrupt_vectors == scrub.corrupt_codes == ()
            assert db.index_stats().delta_vectors > 0
            assert not errors
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
            alive = [t for t in readers if t.is_alive()]
            db.close()
            assert not alive


class TestSnapshotIsolation:
    @requires_file_backend  # shared-conn backend has no WAL snapshots
    @requires_row_layout  # counts the row-layout ``vectors`` table
    def test_read_snapshot_is_stable(self, tmp_path, config, rng):
        """A read transaction pins its snapshot despite commits."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            populate(db, rng, count=20)
            engine = db.engine
            with engine.read_snapshot() as conn:
                before = conn.execute(
                    "SELECT COUNT(*) FROM vectors"
                ).fetchone()[0]
                committed = threading.Event()

                def writer():
                    db.upsert(
                        "sneaky", np.zeros(8, dtype=np.float32)
                    )
                    committed.set()

                t = threading.Thread(target=writer)
                t.start()
                assert committed.wait(timeout=30)
                t.join()
                during = conn.execute(
                    "SELECT COUNT(*) FROM vectors"
                ).fetchone()[0]
                assert during == before  # snapshot unchanged
            # After the snapshot is released the write is visible.
            assert len(db) == before + 1
        finally:
            db.close()

    @requires_file_backend
    def test_nested_read_snapshot_joins_the_outer_one(
        self, tmp_path, config, rng
    ):
        """Re-entrant per thread: the inner block neither opens nor
        ends a transaction, and a partition load inside it works."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            populate(db, rng, count=60)
            db.build_index()
            engine = db.engine
            with engine.read_snapshot() as outer:
                with engine.read_snapshot() as inner:
                    assert inner is outer
                    pid = next(iter(engine.partition_sizes()))
                    loaded = engine.load_partition(pid, use_cache=False)
                    assert len(loaded)
                assert outer.in_transaction  # inner exit kept it open
            assert not outer.in_transaction
        finally:
            db.close()

    @requires_file_backend
    def test_serial_scan_reads_all_its_cold_loads_in_one_transaction(
        self, tmp_path, rng
    ):
        config = MicroNNConfig(
            dim=8,
            target_cluster_size=10,
            kmeans_iterations=10,
            device=DeviceProfile(
                name="no-cache", worker_threads=2, partition_cache_bytes=0
            ),
        )
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            vecs = populate(db, rng)
            db.build_index()
            db.engine.load_centroids()  # its own (cached) read
            statements: list[str] = []
            db.engine._reader().set_trace_callback(statements.append)
            result = db.search(vecs[0], k=5, nprobe=6)
            db.engine._reader().set_trace_callback(None)
            assert result.stats.cache_misses >= 6
            assert not result.stats.scan_pipelined
            begins = [s for s in statements if s.startswith("BEGIN")]
            commits = [s for s in statements if s.startswith("COMMIT")]
            assert len(begins) == 1 and len(commits) == 1
            selects = [s for s in statements if s.startswith("SELECT")]
            assert len(selects) >= 2 * 6  # rows + stamp, per cold load
        finally:
            db.close()

    def test_memory_backend_snapshot_is_the_writer_lock(self, rng):
        """No WAL snapshots on the shared connection: nested reads and
        a same-thread write inside them run behind the re-entrant
        writer lock, on the writer connection, as before."""
        config = MicroNNConfig(
            dim=8,
            target_cluster_size=10,
            kmeans_iterations=10,
            storage_backend="memory",
        )
        with MicroNN.open(config=config) as db:
            vecs = populate(db, rng, count=40)
            db.build_index()
            engine = db.engine
            with engine.read_snapshot() as outer:
                with engine.read_snapshot() as inner:
                    assert inner is outer is engine._writer
                    db.upsert("inside", vecs[0])
            assert "inside" in db.search(vecs[0], k=2).asset_ids

    @requires_file_backend
    def test_write_between_two_loads_of_one_scan_is_not_masked(
        self, tmp_path, config, rng
    ):
        """A scan's snapshot outlives a concurrent upsert: the delta it
        then loads is the pre-write one, good for this scan only — it
        must not be re-cached behind the writer's patch."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            vecs = populate(db, rng, count=60)
            db.build_index()
            db.upsert("staged", vecs[1])  # a non-empty delta
            db.purge_caches()
            engine = db.engine
            pid = next(iter(engine.partition_sizes()))
            fresh = np.full(8, 9.0, dtype=np.float32)
            with engine.read_snapshot():
                assert len(engine.load_partition(pid))  # pins the snapshot
                t = threading.Thread(target=db.upsert, args=("fresh", fresh))
                t.start()
                t.join(timeout=30)
                stale = engine.load_partition(-1)
                assert "fresh" not in stale.asset_ids  # the old snapshot
            assert -1 not in engine.cache
            assert db.search(fresh, k=1).asset_ids == ("fresh",)
            # Nothing committed during this one: its loads are cached.
            db.purge_caches()
            with engine.read_snapshot():
                engine.load_partition(pid)
                engine.load_partition(-1)
            assert pid in engine.cache and -1 in engine.cache
        finally:
            db.close()

    @requires_file_backend
    def test_entry_patched_after_the_snapshot_opened_is_not_served(
        self, tmp_path, config, rng
    ):
        """An overwrite patches the cached partition its row leaves. A
        scan whose snapshot predates the write must load that partition
        from the snapshot, not take the patched entry: with the
        pre-write delta it loads next, the row would be in neither."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            vecs = populate(db, rng, count=60)
            db.build_index()
            db.purge_caches()
            engine = db.engine
            pid = next(iter(engine.partition_sizes()))
            target = engine.load_partition(pid).asset_ids[0]
            old = vecs[int(target[1:])]
            assert pid in engine.cache and -1 not in engine.cache
            fresh = np.full(8, 9.0, dtype=np.float32)
            with engine.read_snapshot() as conn:
                conn.execute("SELECT COUNT(*) FROM meta").fetchone()  # pin
                t = threading.Thread(target=db.upsert, args=(target, fresh))
                t.start()
                t.join(timeout=30)
                assert target not in engine.cache.get(pid).asset_ids
                seen = [
                    (asset_id, row.tobytes())
                    for loaded in (
                        engine.load_partition(pid),
                        engine.load_partition(-1),
                    )
                    for asset_id, row in zip(loaded.asset_ids, loaded.matrix)
                    if asset_id == target
                ]
                assert seen == [(target, old.tobytes())]
            assert db.search(fresh, k=1).asset_ids == (target,)
        finally:
            db.close()

    @requires_file_backend
    def test_delete_during_a_scan_snapshot_rejects_the_stale_partition(
        self, tmp_path, config, rng
    ):
        """The deleted row's partition is not cached yet, so no entry
        is patched — the generation still has to move."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            vecs = populate(db, rng, count=60)
            db.build_index()
            db.purge_caches()
            engine = db.engine
            sizes = engine.partition_sizes()
            first, second = list(sizes)[:2]
            with engine.read_snapshot():
                engine.load_partition(first)
                victim = engine.load_partition(second, use_cache=False)
                gone = victim.asset_ids[0]
                t = threading.Thread(target=db.delete, args=(gone,))
                t.start()
                t.join(timeout=30)
                assert gone in engine.load_partition(second).asset_ids
            assert second not in engine.cache
            row = int(gone[1:])
            assert gone not in db.search(vecs[row], k=3, nprobe=99).asset_ids
        finally:
            db.close()

    @requires_file_backend
    @pytest.mark.parametrize("resident", [False, True])
    @pytest.mark.parametrize("window", ["before_commit", "after_commit"])
    def test_load_cached_between_plan_and_install_ends_post_write(
        self, tmp_path, config, rng, monkeypatch, window, resident
    ):
        """A write plans its cache patch inside its transaction and
        installs it after the commit. In between, the partition's entry
        is evicted (when resident) and a reader caches its own load: the
        pre-write rows before the commit, the post-write rows after.
        Either way the install leaves the entry holding what a fresh
        load returns, and the stamp the write stored matches it."""
        db = MicroNN.open(tmp_path / "c.db", config)
        try:
            populate(db, rng, count=60)
            db.build_index()
            db.purge_caches()
            engine, cache = db.engine, db.engine.cache
            pid = next(iter(engine.partition_sizes()))
            first = engine.load_partition(pid, use_cache=resident)
            victim = first.asset_ids[0]
            assert (pid in cache) == resident
            loaded = []

            def race():
                cache.invalidate(pid)
                reader = threading.Thread(
                    target=lambda: loaded.append(engine.load_partition(pid))
                )
                reader.start()
                reader.join(timeout=30)
                assert pid in cache

            real_plan, real_install = cache.plan, cache.install

            def plan(*args, **kwargs):
                patch = real_plan(*args, **kwargs)
                if window == "before_commit":
                    race()
                return patch

            def install(patch):
                if window == "after_commit":
                    race()
                real_install(patch)

            monkeypatch.setattr(cache, "plan", plan)
            monkeypatch.setattr(cache, "install", install)
            db.delete(victim)
            pre_write = window == "before_commit"
            assert (victim in loaded[0].asset_ids) == pre_write
            entry = cache.get(pid)
            fresh = engine.load_partition(pid, use_cache=False)
            assert entry is not None and victim not in entry.asset_ids
            assert entry.asset_ids == fresh.asset_ids
            assert entry.vector_ids == fresh.vector_ids
            assert entry.matrix.tobytes() == fresh.matrix.tobytes()
            assert engine.scrub().corrupt_vectors == ()
        finally:
            db.close()
