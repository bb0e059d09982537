"""ShardedMicroNN facade: lifecycle, routing, fan-out, rebalance."""

import dataclasses

import numpy as np
import pytest

from repro import (
    DeviceProfile,
    IOCostModel,
    MicroNNConfig,
    PlanKind,
    ShardConfig,
    ShardedMicroNN,
    ShardedSearchResult,
)
from repro.core.errors import (
    ConfigError,
    DatabaseClosedError,
    FilterError,
)
from repro.core.types import MaintenanceAction
from repro.query.filters import Eq, Ge, Match
from repro.shard import HashRouter, ShardManifest


@pytest.fixture
def config() -> MicroNNConfig:
    return MicroNNConfig(
        dim=8,
        target_cluster_size=10,
        kmeans_iterations=10,
        attributes={"color": "TEXT"},
    )


@pytest.fixture
def sharded(tmp_path, config, rng):
    db = ShardedMicroNN.open(tmp_path / "fleet", config, shards=3)
    vecs = rng.normal(size=(150, 8)).astype(np.float32)
    colors = ["red", "green", "blue"]
    db.upsert_batch(
        (f"a{i:04d}", vecs[i], {"color": colors[i % 3]})
        for i in range(150)
    )
    db._vecs = vecs  # test hook
    yield db
    db.close()


@pytest.fixture
def wide_fleet(tmp_path, config, rng):
    """Three built shards whose fan-out clears the scatter threshold,
    so only the "loads block" half of the rule decides the path."""
    db = ShardedMicroNN.open(
        tmp_path / "wide",
        config,
        shards=ShardConfig(num_shards=3, serve_scatter_threshold=1),
    )
    db._vecs = rng.normal(size=(150, 8)).astype(np.float32)  # test hook
    db.upsert_batch((f"a{i:04d}", db._vecs[i]) for i in range(150))
    db.build_index()
    yield db
    db.close()


def schedulers_built(db) -> int:
    """How many shards have constructed their serving scheduler."""
    return sum(shard._scheduler is not None for shard in db.shards)


class TestOpenAndLayout:
    def test_creates_manifest_and_shard_files(self, tmp_path, config):
        with ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=4
        ) as db:
            assert db.num_shards == 4
            assert len(db.shards) == 4
        root = tmp_path / "fleet"
        assert ShardManifest.exists(root)
        manifest = ShardManifest.load(root)
        assert manifest.num_shards == 4
        for name in manifest.shard_files:
            assert (root / name).is_file()

    def test_open_with_dim_kwargs(self, tmp_path):
        with ShardedMicroNN.open(
            tmp_path / "fleet", dim=8, shards=2
        ) as db:
            assert db.num_shards == 2
            assert db.config.dim == 8

    def test_open_rejects_config_plus_kwargs(self, tmp_path, config):
        with pytest.raises(FilterError):
            ShardedMicroNN.open(tmp_path / "x", config, dim=8)

    def test_ephemeral(self, rng):
        import os

        with ShardedMicroNN.open(dim=8, shards=2) as db:
            path = db.path
            db.upsert("a", rng.normal(size=8).astype(np.float32))
            assert os.path.isdir(path)
        assert not os.path.isdir(path)

    def test_reopen_adopts_manifest_count(self, tmp_path, config, rng):
        with ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=3
        ) as db:
            db.upsert("a0", rng.normal(size=8).astype(np.float32))
        with ShardedMicroNN.open(tmp_path / "fleet", config) as db:
            assert db.num_shards == 3
            assert "a0" in db

    def test_reopen_wrong_count_fails(self, tmp_path, config):
        ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=3
        ).close()
        with pytest.raises(ConfigError, match="shard count mismatch"):
            ShardedMicroNN.open(tmp_path / "fleet", config, shards=4)

    def test_reopen_missing_shard_file_fails(
        self, tmp_path, config
    ):
        ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=3
        ).close()
        manifest = ShardManifest.load(tmp_path / "fleet")
        (tmp_path / "fleet" / manifest.shard_files[1]).rename(
            tmp_path / "fleet" / "renamed.db"
        )
        with pytest.raises(Exception, match="missing or renamed"):
            ShardedMicroNN.open(tmp_path / "fleet", config)

    def test_reopen_mismatched_config_fails(self, tmp_path, config):
        ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=2
        ).close()
        other = dataclasses.replace(config, metric="cosine")
        with pytest.raises(ConfigError, match="metric"):
            ShardedMicroNN.open(tmp_path / "fleet", other)

    def test_router_shard_count_must_match(self, tmp_path, config):
        with pytest.raises(ConfigError, match="router covers"):
            ShardedMicroNN.open(
                tmp_path / "fleet",
                config,
                shards=4,
                router=HashRouter(2),
            )

    def test_partial_open_failure_closes_opened_shards(
        self, tmp_path, config, monkeypatch
    ):
        """A corrupt third shard must not leak the first two shards'
        connections: the partial fleet is closed before the error
        propagates."""
        ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=3
        ).close()
        import repro.shard.sharded as sharded_mod

        opened = []
        real_micronn = sharded_mod.MicroNN

        class Recording(real_micronn):
            def __init__(self, path, cfg):
                if len(opened) == 2:
                    raise RuntimeError("injected shard open failure")
                super().__init__(path, cfg)
                opened.append(self)

        monkeypatch.setattr(sharded_mod, "MicroNN", Recording)
        with pytest.raises(RuntimeError, match="injected"):
            ShardedMicroNN.open(tmp_path / "fleet", config)
        assert len(opened) == 2
        assert all(not s.engine.is_open for s in opened)

    def test_shard_config_validation(self):
        with pytest.raises(ConfigError):
            ShardConfig(num_shards=0)
        with pytest.raises(ConfigError):
            ShardConfig(num_shards=5000)
        with pytest.raises(ConfigError):
            ShardConfig(router="not an identifier!")
        with pytest.raises(ConfigError):
            ShardConfig(serve_scatter_threshold=0)

    def test_serve_io_threads_split_across_shards(self, config):
        per_shard = ShardedMicroNN._per_shard_config(config, 4)
        total = config.resolved_serve_io_threads
        assert per_shard.resolved_serve_io_threads == max(
            1, -(-total // 4)
        )
        # Single shard keeps the config untouched.
        assert ShardedMicroNN._per_shard_config(config, 1) is config


class TestRoutingAndWrites:
    def test_rows_land_on_router_shard(self, sharded):
        for i in range(0, 150, 17):
            asset_id = f"a{i:04d}"
            owner = sharded.router.shard_for(asset_id)
            for idx, shard in enumerate(sharded.shards):
                assert (asset_id in shard) == (idx == owner)

    def test_len_sums_shards(self, sharded):
        assert len(sharded) == 150
        assert sum(len(s) for s in sharded.shards) == 150

    def test_every_shard_used(self, sharded):
        assert all(len(s) > 0 for s in sharded.shards)

    def test_upsert_replaces_in_place(self, sharded, rng):
        vec = rng.normal(size=8).astype(np.float32)
        sharded.upsert("a0000", vec, {"color": "red"})
        assert len(sharded) == 150
        np.testing.assert_array_almost_equal(
            sharded.get_vector("a0000"), vec
        )

    def test_delete_routes(self, sharded):
        assert sharded.delete("a0003")
        assert "a0003" not in sharded
        assert len(sharded) == 149
        assert not sharded.delete("a0003")

    def test_get_attributes_routes(self, sharded):
        assert sharded.get_attributes("a0001") == {"color": "green"}

    def test_engine_bulk_attribute_fetch(self, sharded):
        """The batched fetch rebalance streams through agrees with the
        per-row point query (missing ids simply absent)."""
        shard = sharded.shards[0]
        ids = shard.engine.all_asset_ids()
        bulk = shard.engine.get_attributes_many(ids + ["nope"])
        assert set(bulk) == set(ids)
        for asset_id in ids[:10]:
            assert bulk[asset_id] == shard.engine.get_attributes(
                asset_id
            )


class TestSearchFanout:
    def test_search_returns_sharded_result(self, sharded):
        sharded.build_index()
        result = sharded.search(sharded._vecs[5], k=5)
        assert isinstance(result, ShardedSearchResult)
        assert result.stats.shards_probed == 3
        assert len(result.shard_stats) == 3
        assert result[0].asset_id == "a0005"
        # Aggregate cost counters are per-shard sums.
        assert result.stats.vectors_scanned == sum(
            s.vectors_scanned for s in result.shard_stats
        )
        assert result.stats.bytes_read == sum(
            s.bytes_read for s in result.shard_stats
        )

    def test_serial_and_scheduler_scatter_agree(
        self, tmp_path, config, rng
    ):
        """The scheduled scatter (forced by a per-shard timeout, which
        only it can enforce) and the serial loop, bit for bit."""
        vecs = rng.normal(size=(120, 8)).astype(np.float32)
        results = {}
        for label, shard_cfg in (
            (
                "sched",
                ShardConfig(
                    num_shards=3,
                    serve_scatter_threshold=1,
                    shard_timeout_s=30.0,
                ),
            ),
            (
                "serial",
                ShardConfig(num_shards=3, serve_scatter_threshold=1000),
            ),
        ):
            with ShardedMicroNN.open(
                tmp_path / label, config, shards=shard_cfg
            ) as db:
                db.upsert_batch(
                    (f"a{i:04d}", vecs[i]) for i in range(120)
                )
                db.build_index()
                scheduled, why = db._single_query_scatter()
                assert scheduled == (label == "sched"), why
                results[label] = [
                    (
                        db.search(vecs[i], k=5).asset_ids,
                        db.search(vecs[i], k=5).distances,
                    )
                    for i in range(0, 120, 13)
                ]
                assert schedulers_built(db) == (
                    3 if label == "sched" else 0
                )
        assert results["sched"] == results["serial"]

    def test_warm_fleet_searches_without_schedulers(self, wide_fleet):
        """Wide enough fan-out (3 shards >= threshold 1) but no shard's
        loads block: the serial loop answers, no scheduler is built."""
        for i in range(0, 150, 17):
            result = wide_fleet.search(wide_fleet._vecs[i], k=5)
            assert result[0].asset_id == f"a{i:04d}"
        assert schedulers_built(wide_fleet) == 0
        explained = wide_fleet.explain()
        assert "serving via serial per-shard loop — the slowest" in explained
        assert "under the 1 ms that count as blocking" in explained

    def test_scatter_engages_while_loads_can_block(
        self, tmp_path, config, rng, monkeypatch
    ):
        """Under a 3 ms seek with purged caches the first search has
        no observation and runs serially; it observes blocking loads,
        so later searches go through the shard schedulers — same ids,
        same distances, and explain() names the path each time."""
        slow = dataclasses.replace(
            config,
            device=DeviceProfile(
                name="slow-flash",
                io_model=IOCostModel(seek_latency_s=0.003),
            ),
        )
        vecs = rng.normal(size=(120, 8)).astype(np.float32)
        shard_cfg = ShardConfig(num_shards=3, serve_scatter_threshold=1)
        with ShardedMicroNN.open(
            tmp_path / "fleet", slow, shards=shard_cfg
        ) as db:
            db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(120))
            db.build_index()
        with ShardedMicroNN.open(
            tmp_path / "fleet", slow, shards=shard_cfg
        ) as db:
            db.purge_caches()
            assert (
                "serial per-shard loop — no cold partition load observed"
                in db.explain()
            )
            first = db.search(vecs[7], k=5)
            assert schedulers_built(db) == 0
            assert "shard schedulers — the slowest shard" in db.explain()
            for _ in range(2):
                db.purge_caches()
                later = db.search(vecs[7], k=5)
                assert later.asset_ids == first.asset_ids
                assert later.distances == first.distances
            assert schedulers_built(db) == 3

            # The cold-load estimate never decays, the verdict must:
            # a search that found every probe cached sends the fleet
            # back to the serial loop until something is cold again.
            scattered = []
            gather = db._gather_scheduled
            monkeypatch.setattr(
                db,
                "_gather_scheduled",
                lambda *args: scattered.append(1) or gather(*args),
            )
            warmed = db.search(vecs[7], k=5)  # last one missed: scatters
            assert (len(scattered), warmed.stats.cache_misses) == (1, 0)
            explained = db.explain()
            assert "serial per-shard loop — the last search" in explained
            for _ in range(3):
                again = db.search(vecs[7], k=5)
                assert again.asset_ids == first.asset_ids
                assert again.distances == first.distances
            assert len(scattered) == 1
            db.purge_caches()
            assert "shard schedulers — the slowest shard" in db.explain()
            db.search(vecs[7], k=5)
            assert len(scattered) == 2

    def test_forced_threshold_scatters_from_the_first_search(
        self, wide_fleet, force_pipeline
    ):
        assert "serving via shard schedulers" in wide_fleet.explain()
        result = wide_fleet.search(wide_fleet._vecs[5], k=3)
        assert result[0].asset_id == "a0005"
        assert schedulers_built(wide_fleet) == 3

    def test_exact_search(self, sharded):
        result = sharded.search(sharded._vecs[9], k=3, exact=True)
        assert result[0].asset_id == "a0009"
        assert result.stats.plan is PlanKind.EXACT
        assert result.stats.vectors_scanned == 150

    def test_filtered_search(self, sharded):
        sharded.build_index()
        result = sharded.search(
            sharded._vecs[3],
            k=5,
            nprobe=1000,
            filters=Eq("color", "red"),
        )
        assert result[0].asset_id == "a0003"
        assert all(
            sharded.get_attributes(n.asset_id) == {"color": "red"}
            for n in result
        )

    def test_explain_names_each_shards_filter(self, tmp_path, rng):
        """Every shard's plan line is followed by the filter line its
        own ``MicroNN.explain`` prints: columnar for a comparison, the
        SQL fallback for ``Match``."""
        config = MicroNNConfig(
            dim=8,
            target_cluster_size=10,
            attributes={"bucket": "INTEGER", "tags": "TEXT"},
            fts_attributes=("tags",),
        )
        with ShardedMicroNN.open(tmp_path / "f", config, shards=3) as db:
            vecs = rng.normal(size=(90, 8)).astype(np.float32)
            db.upsert_batch(
                (f"a{i:04d}", vecs[i], {"bucket": i, "tags": "cat dog"})
                for i in range(90)
            )
            db.build_index()
            for predicate, how in [
                (Ge("bucket", 0), "columnar(bucket)"),
                (Match("tags", "cat"), "sql (Match)"),
            ]:
                lines = db.explain(predicate).splitlines()
                shown = [
                    line.split("filter: ", 1)[1]
                    for line in lines
                    if line.startswith("    filter: ")
                ]
                assert len(shown) == 3
                for shard, text in zip(db.shards, shown):
                    assert how in text
                    assert f"filter:           {text}" in shard.explain(
                        predicate
                    )

    def test_search_batch_merges_per_query(self, sharded):
        sharded.build_index()
        batch = sharded.search_batch(sharded._vecs[:4], k=3, nprobe=1000)
        assert len(batch) == 4
        for i, result in enumerate(batch):
            assert result[0].asset_id == f"a{i:04d}"
            assert result.stats.shards_probed == 3

    def test_search_async_future(self, sharded):
        sharded.build_index()
        future = sharded.search_async(sharded._vecs[11], k=3)
        result = future.result(timeout=30)
        assert isinstance(result, ShardedSearchResult)
        assert result[0].asset_id == "a0011"

    def test_search_asyncio(self, sharded):
        import asyncio

        sharded.build_index()

        async def run():
            return await sharded.search_asyncio(sharded._vecs[2], k=3)

        result = asyncio.run(run())
        assert result[0].asset_id == "a0002"

    def test_serve_session_over_fleet(self, sharded):
        sharded.build_index()
        with sharded.serve_session() as session:
            for i in range(8):
                session.submit(sharded._vecs[i], k=3)
            results = session.drain()
        assert [r[0].asset_id for r in results] == [
            f"a{i:04d}" for i in range(8)
        ]
        assert all(r.stats.shards_probed == 3 for r in results)


class TestNonFiniteQueries:
    def test_nan_query_raises_on_every_entry_point(self, sharded):
        """Not a degraded shard: a caller mistake, like a wrong
        dimension, raises from the scatter."""
        query = sharded._vecs[0].copy()
        query[1] = np.nan
        with pytest.raises(FilterError, match="NaN or infinity"):
            sharded.search(query, k=5)
        with pytest.raises(FilterError, match="NaN or infinity"):
            sharded.search(query, k=5, exact=True)
        with pytest.raises(FilterError, match="NaN or infinity"):
            sharded.search_batch(np.stack([sharded._vecs[1], query]), k=5)
        with pytest.raises(FilterError, match="NaN or infinity"):
            sharded.search_async(query, k=5).result()


class TestIndexLifecycle:
    def test_build_aggregates(self, sharded):
        report = sharded.build_index()
        assert report.num_vectors == 150
        assert report.num_partitions == sum(
            s.index_stats().num_partitions for s in sharded.shards
        )
        stats = sharded.index_stats()
        assert stats.total_vectors == 150
        assert stats.indexed_vectors == 150
        assert stats.delta_vectors == 0

    def test_maintain_fans_out(self, sharded, rng):
        sharded.build_index()
        sharded.upsert_batch(
            (f"new-{i}", rng.normal(size=8).astype(np.float32))
            for i in range(30)
        )
        report = sharded.maintain(
            force=MaintenanceAction.INCREMENTAL_FLUSH
        )
        assert report.action is MaintenanceAction.INCREMENTAL_FLUSH
        assert report.vectors_flushed == 30
        assert sharded.index_stats().delta_vectors == 0
        assert len(sharded) == 180

    def test_recommended_action_is_heaviest(self, sharded):
        assert sharded.recommended_action() in (
            MaintenanceAction.INCREMENTAL_FLUSH,
            MaintenanceAction.FULL_REBUILD,
        )
        sharded.build_index()
        assert (
            sharded.recommended_action() is MaintenanceAction.NONE
        )

    def test_telemetry_aggregates(self, sharded):
        sharded.build_index()
        sharded.search(sharded._vecs[0], k=3)
        io = sharded.io()
        assert io.bytes_read > 0
        assert io.rows_written >= 150
        memory = sharded.memory()
        assert memory.current_bytes >= 0
        assert sharded.check_integrity() == []
        assert sharded.compact() >= 0

    def test_purge_and_scan_mode(self, sharded):
        sharded.build_index()
        sharded.purge_caches()
        assert sharded.scan_mode() == "float32"
        assert "float32" in sharded.scan_mode_description()


class TestRebalance:
    def test_changes_shard_count(self, sharded):
        sharded.build_index()
        before = sharded.search(sharded._vecs[4], k=5, nprobe=1000)
        report = sharded.rebalance(5)
        assert report.shards_before == 3
        assert report.shards_after == 5
        assert report.vectors_moved == 150
        assert report.rebuilt
        assert sharded.num_shards == 5
        assert len(sharded) == 150
        after = sharded.search(sharded._vecs[4], k=5, nprobe=1000)
        assert after.asset_ids == before.asset_ids
        assert after.distances == before.distances
        # Attributes moved with their rows.
        assert sharded.get_attributes("a0001") == {"color": "green"}

    def test_rewrites_manifest_and_files(self, sharded, tmp_path):
        import os

        root = sharded.path
        old_files = set(ShardManifest.load(root).shard_files)
        sharded.rebalance(2)
        manifest = ShardManifest.load(root)
        assert manifest.num_shards == 2
        for name in manifest.shard_files:
            assert os.path.isfile(os.path.join(root, name))
        for name in old_files:
            assert not os.path.exists(os.path.join(root, name))

    def test_reopen_after_rebalance(self, tmp_path, config, rng):
        vecs = rng.normal(size=(60, 8)).astype(np.float32)
        with ShardedMicroNN.open(
            tmp_path / "fleet", config, shards=2
        ) as db:
            db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(60))
            db.rebalance(4)
        with ShardedMicroNN.open(tmp_path / "fleet", config) as db:
            assert db.num_shards == 4
            assert len(db) == 60

    def test_concurrent_write_waits_for_rebalance(self, sharded, rng):
        """A write racing rebalance() must land in the *new* fleet,
        not vanish with the old files: the facade's write lock holds
        it until the swap."""
        import threading
        import time

        sharded.build_index()
        copy_started = threading.Event()
        original_copy = sharded._copy_rows_into

        def slow_copy(new_shards, new_router):
            copy_started.set()
            time.sleep(0.15)  # give the racing upsert time to block
            return original_copy(new_shards, new_router)

        sharded._copy_rows_into = slow_copy
        worker = threading.Thread(
            target=lambda: sharded.rebalance(5)
        )
        worker.start()
        assert copy_started.wait(timeout=10)
        vec = rng.normal(size=8).astype(np.float32)
        sharded.upsert("raced", vec, {"color": "red"})
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert sharded.num_shards == 5
        assert "raced" in sharded
        np.testing.assert_array_almost_equal(
            sharded.get_vector("raced"), vec
        )
        assert len(sharded) == 151

    def test_old_shard_close_failure_reported_not_raised(
        self, sharded
    ):
        """A post-commit teardown failure must not mask the committed
        rebalance: the report carries it and the new fleet is live."""
        victim = sharded.shards[0]
        victim_close = victim.close
        victim.close = lambda: (_ for _ in ()).throw(
            RuntimeError("injected old-shard close failure")
        )
        try:
            report = sharded.rebalance(2)
        finally:
            victim_close()
        assert report.shards_after == 2
        assert report.vectors_moved == 150
        assert len(report.teardown_errors) == 1
        assert "injected" in report.teardown_errors[0]
        assert sharded.num_shards == 2
        assert len(sharded) == 150

    def test_noop_same_count(self, sharded):
        report = sharded.rebalance(3)
        assert report.vectors_moved == 0
        assert not report.rebuilt
        assert sharded.num_shards == 3

    def test_rejects_bad_count(self, sharded):
        with pytest.raises(ConfigError):
            sharded.rebalance(0)

    def test_rejects_over_cap_count_before_any_work(self, sharded):
        """The ShardConfig cap must fail up front — discovered at
        swap time it would strand a committed manifest no open()
        could validate."""
        with pytest.raises(ConfigError, match="4096"):
            sharded.rebalance(5000)
        # The fleet is untouched and fully usable.
        assert sharded.num_shards == 3
        assert len(sharded) == 150
        assert sharded.search(sharded._vecs[0], k=1)[0].asset_id == (
            "a0000"
        )

    def test_maintenance_waits_for_rebalance(self, sharded, rng):
        """maintain() racing rebalance() must not fan out to shards
        whose files are being deleted: it waits at the write gate and
        runs against the new fleet."""
        import threading
        import time

        sharded.build_index()
        copy_started = threading.Event()
        original_copy = sharded._copy_rows_into

        def slow_copy(new_shards, new_router):
            copy_started.set()
            time.sleep(0.15)
            return original_copy(new_shards, new_router)

        sharded._copy_rows_into = slow_copy
        worker = threading.Thread(target=lambda: sharded.rebalance(2))
        worker.start()
        assert copy_started.wait(timeout=10)
        report = sharded.maintain()  # must not raise DatabaseClosed
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert report is not None
        assert sharded.num_shards == 2

    def test_reads_wait_for_rebalance(self, sharded):
        """A search racing rebalance() must not hit shards whose
        files are being deleted: reads take the shared gate too."""
        import threading
        import time

        sharded.build_index()
        copy_started = threading.Event()
        original_copy = sharded._copy_rows_into

        def slow_copy(new_shards, new_router):
            copy_started.set()
            time.sleep(0.15)
            return original_copy(new_shards, new_router)

        sharded._copy_rows_into = slow_copy
        worker = threading.Thread(target=lambda: sharded.rebalance(2))
        worker.start()
        assert copy_started.wait(timeout=10)
        # Must not raise DatabaseClosedError / CancelledError.
        result = sharded.search(sharded._vecs[5], k=3)
        sync_future = sharded.search_async(sharded._vecs[5], k=3)
        assert result[0].asset_id == "a0005"
        assert sync_future.result(timeout=30)[0].asset_id == "a0005"
        assert "a0005" in sharded
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert sharded.num_shards == 2

    def test_writes_do_not_serialize_against_each_other(self, sharded):
        """Shared mode: two facade writes may hold the gate at once
        (per-shard engines do the per-database serialization)."""
        import threading

        gate = sharded._write_gate
        with gate.shared():
            entered = threading.Event()
            t = threading.Thread(
                target=lambda: (gate.shared().__enter__(),
                                entered.set())
            )
            t.start()
            assert entered.wait(timeout=5)
            t.join()


class TestClose:
    def test_operations_after_close_raise(self, tmp_path, config, rng):
        db = ShardedMicroNN.open(tmp_path / "fleet", config, shards=2)
        db.upsert("a", rng.normal(size=8).astype(np.float32))
        db.close()
        with pytest.raises(DatabaseClosedError):
            db.search(rng.normal(size=8).astype(np.float32))
        with pytest.raises(DatabaseClosedError):
            db.upsert("b", rng.normal(size=8).astype(np.float32))
        with pytest.raises(DatabaseClosedError):
            db.index_stats()
        db.close()  # idempotent

    def test_close_joins_shard_threads(self, tmp_path, config, rng):
        import threading

        db = ShardedMicroNN.open(tmp_path / "fleet", config, shards=2)
        db.upsert_batch(
            (f"a{i}", rng.normal(size=8).astype(np.float32))
            for i in range(40)
        )
        db.build_index()
        db.search_async(rng.normal(size=8).astype(np.float32)).result()
        db.close()
        lingering = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("micronn-")
        ]
        assert lingering == []
