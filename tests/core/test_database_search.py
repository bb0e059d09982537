"""Search correctness through the facade: exact, ANN, hybrid, batch."""

import numpy as np
import pytest

from repro import Eq, Gt, MicroNN, MicroNNConfig, PlanKind
from repro.core.errors import FilterError
from repro.core.types import MaintenanceAction
from tests.conftest import brute_force_ids


class TestExactSearch:
    def test_exact_matches_brute_force(self, populated_db, vectors):
        query = vectors[7]
        result = populated_db.search(query, k=10, exact=True)
        assert list(result.asset_ids) == brute_force_ids(vectors, query, 10)

    def test_exact_finds_self(self, populated_db, vectors):
        result = populated_db.search(vectors[42], k=1, exact=True)
        assert result[0].asset_id == "a0042"
        assert result[0].distance == pytest.approx(0.0, abs=1e-3)

    def test_exact_plan_kind(self, populated_db, vectors):
        result = populated_db.search(vectors[0], k=5, exact=True)
        assert result.stats.plan is PlanKind.EXACT

    def test_distances_sorted_ascending(self, populated_db, vectors):
        result = populated_db.search(vectors[0], k=20, exact=True)
        dists = list(result.distances)
        assert dists == sorted(dists)

    def test_k_larger_than_collection(self, populated_db, vectors):
        result = populated_db.search(vectors[0], k=10_000, exact=True)
        assert len(result) == len(populated_db)

    def test_invalid_k(self, populated_db, vectors):
        with pytest.raises(ValueError):
            populated_db.search(vectors[0], k=0)


class TestANNSearch:
    def test_ann_high_nprobe_equals_exact(self, populated_db, vectors):
        # Probing every partition plus the delta is exhaustive search.
        parts = populated_db.index_stats().num_partitions
        query = vectors[3]
        ann = populated_db.search(query, k=10, nprobe=parts)
        exact = populated_db.search(query, k=10, exact=True)
        assert ann.asset_ids == exact.asset_ids

    def test_ann_recall_reasonable(self, populated_db, vectors):
        hits = 0
        for i in range(0, 50):
            truth = brute_force_ids(vectors, vectors[i], 10)
            got = populated_db.search(vectors[i], k=10, nprobe=5).asset_ids
            hits += len(set(truth) & set(got))
        assert hits / 500 > 0.7

    def test_nprobe_monotone_vectors_scanned(self, populated_db, vectors):
        q = vectors[0]
        low = populated_db.search(q, k=5, nprobe=1).stats.vectors_scanned
        high = populated_db.search(q, k=5, nprobe=10).stats.vectors_scanned
        assert high >= low

    def test_ann_plan_kind_and_stats(self, populated_db, vectors):
        result = populated_db.search(vectors[0], k=5, nprobe=4)
        assert result.stats.plan is PlanKind.ANN
        # nprobe partitions plus the delta partition.
        assert result.stats.partitions_scanned == 5
        assert result.stats.nprobe == 4

    def test_search_before_build_scans_delta(self, empty_db, rng):
        vecs = rng.normal(size=(20, 8)).astype(np.float32)
        empty_db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(20))
        result = empty_db.search(vecs[4], k=3)
        assert result[0].asset_id == "a0004"

    def test_search_empty_db(self, empty_db, rng):
        result = empty_db.search(rng.normal(size=8), k=5)
        assert len(result) == 0

    def test_wrong_query_dim_rejected(self, populated_db, rng):
        from repro import FilterError

        with pytest.raises(FilterError):
            populated_db.search(rng.normal(size=9), k=5)

    def test_new_inserts_visible_immediately(self, populated_db, rng):
        vec = (10.0 + rng.normal(size=8)).astype(np.float32)
        populated_db.upsert("fresh", vec)
        result = populated_db.search(vec, k=1)
        assert result[0].asset_id == "fresh"


class TestCosineAndDotMetrics:
    @pytest.fixture
    def cosine_db(self, tmp_path, rng):
        config = MicroNNConfig(
            dim=8, metric="cosine", target_cluster_size=10,
            kmeans_iterations=10,
        )
        db = MicroNN.open(tmp_path / "cos.db", config)
        vecs = rng.normal(size=(100, 8)).astype(np.float32)
        db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(100))
        db.build_index()
        yield db, vecs
        db.close()

    def test_cosine_exact_matches_brute_force(self, cosine_db):
        db, vecs = cosine_db
        query = vecs[5]
        result = db.search(query, k=10, exact=True)
        assert list(result.asset_ids) == brute_force_ids(
            vecs, query, 10, metric="cosine"
        )

    def test_cosine_scale_invariance(self, cosine_db):
        db, vecs = cosine_db
        a = db.search(vecs[5], k=10, exact=True).asset_ids
        b = db.search(vecs[5] * 100.0, k=10, exact=True).asset_ids
        assert a == b

    def test_dot_metric(self, tmp_path, rng):
        config = MicroNNConfig(
            dim=8, metric="dot", target_cluster_size=10,
            kmeans_iterations=10,
        )
        with MicroNN.open(tmp_path / "dot.db", config) as db:
            vecs = rng.normal(size=(50, 8)).astype(np.float32)
            db.upsert_batch((f"a{i:04d}", vecs[i]) for i in range(50))
            db.build_index()
            query = rng.normal(size=8).astype(np.float32)
            result = db.search(query, k=5, exact=True)
            sims = vecs @ query
            best = f"a{int(np.argmax(sims)):04d}"
            assert result[0].asset_id == best


class TestHybridSearch:
    def test_filter_restricts_results(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=10, filters=Eq("color", "red")
        )
        for n in result:
            assert populated_db.get_attributes(n.asset_id)["color"] == "red"

    def test_forced_prefilter_exact_over_subset(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=5, filters=Eq("color", "red"),
            plan=PlanKind.PRE_FILTER,
        )
        assert result.stats.plan is PlanKind.PRE_FILTER
        # Pre-filter = exhaustive over qualifying subset: 50 red rows.
        assert result.stats.vectors_scanned == 50

    def test_forced_postfilter(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=5, filters=Eq("color", "red"),
            plan=PlanKind.POST_FILTER, nprobe=5,
        )
        assert result.stats.plan is PlanKind.POST_FILTER
        for n in result:
            assert populated_db.get_attributes(n.asset_id)["color"] == "red"

    def test_prefilter_matches_exact_filtered(self, populated_db, vectors):
        query = vectors[9]
        pre = populated_db.search(
            query, k=5, filters=Gt("size", 100), plan=PlanKind.PRE_FILTER
        )
        qualifying = vectors[101:]
        dist = np.linalg.norm(qualifying - query, axis=1)
        order = np.argsort(dist, kind="stable")[:5]
        expected = [f"a{101 + i:04d}" for i in order]
        assert list(pre.asset_ids) == expected

    def test_optimizer_attaches_estimates(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=5, filters=Eq("color", "red")
        )
        assert result.stats.estimated_selectivity is not None
        assert result.stats.ivf_selectivity is not None

    def test_exact_plus_filters_is_full_recall(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=5, filters=Eq("color", "blue"), exact=True
        )
        assert result.stats.plan is PlanKind.PRE_FILTER
        for n in result:
            assert populated_db.get_attributes(n.asset_id)["color"] == "blue"

    def test_filter_with_no_matches(self, populated_db, vectors):
        result = populated_db.search(
            vectors[0], k=5, filters=Eq("color", "purple")
        )
        assert len(result) == 0


class TestBatchSearch:
    def test_batch_matches_individual(self, populated_db, vectors):
        queries = vectors[:16]
        batch = populated_db.search_batch(queries, k=5, nprobe=4)
        for i, result in enumerate(batch):
            single = populated_db.search(queries[i], k=5, nprobe=4)
            assert result.asset_ids == single.asset_ids

    def test_batch_shares_scans(self, populated_db, vectors):
        batch = populated_db.search_batch(vectors[:64], k=5, nprobe=4)
        assert batch.partitions_requested > batch.partitions_scanned
        assert batch.scan_sharing_factor > 1.0

    def test_empty_batch(self, populated_db):
        batch = populated_db.search_batch(
            np.empty((0, 8), dtype=np.float32), k=5
        )
        assert len(batch) == 0

    def test_single_query_batch(self, populated_db, vectors):
        batch = populated_db.search_batch(vectors[:1], k=5, nprobe=4)
        assert len(batch) == 1
        single = populated_db.search(vectors[0], k=5, nprobe=4)
        assert batch[0].asset_ids == single.asset_ids


class TestNonFiniteQueries:
    """A NaN/inf query has no nearest neighbours; every entry point
    refuses it with the dimension check's error instead of returning
    an empty result."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_on_every_entry_point(self, populated_db, vectors, bad):
        query = vectors[0].copy()
        query[3] = bad
        with pytest.raises(FilterError, match="NaN or infinity"):
            populated_db.search(query, k=5)
        with pytest.raises(FilterError, match="NaN or infinity"):
            populated_db.search(query, k=5, exact=True)
        with pytest.raises(FilterError, match="NaN or infinity"):
            populated_db.search(query, k=5, filters=Eq("color", "red"))
        with pytest.raises(FilterError, match="NaN or infinity"):
            populated_db.search_async(query, k=5)
        batch = vectors[:4].copy()
        batch[2] = query
        with pytest.raises(FilterError, match="NaN or infinity"):
            populated_db.search_batch(batch, k=5)


class TestPlannerPartitionTarget:
    """The hybrid planner needs the average indexed partition size on
    every filtered query; it must not rebuild IndexStats for it."""

    def test_filtered_searches_do_not_rescan_partition_sizes(
        self, populated_db, vectors, monkeypatch
    ):
        engine = populated_db.engine
        calls = []
        real = engine.partition_sizes

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "partition_sizes", counting)
        stats = populated_db.index_stats()
        calls.clear()
        for i in range(50):
            populated_db.search(
                vectors[i], k=5, filters=Gt("size", 100 + i % 3)
            )
        assert len(calls) <= 1
        assert populated_db._current_partition_target() == round(
            stats.avg_partition_size
        )

    def test_write_invalidates_cached_target(self, tmp_path, rng):
        config = MicroNNConfig(
            dim=8, target_cluster_size=10, kmeans_iterations=5
        )
        with MicroNN.open(tmp_path / "t.db", config) as db:
            assert db._current_partition_target() == 10  # unindexed
            db.upsert_batch(
                (f"a{i:03d}", rng.normal(size=8).astype(np.float32))
                for i in range(60)
            )
            db.build_index()
            partitions = db.index_stats().num_partitions
            assert db._current_partition_target() == round(60 / partitions)
            # A delete shrinks the indexed partitions at once; an upsert
            # lands in the delta and only counts once a flush moves it.
            db.delete_batch([f"a{i:03d}" for i in range(30)])
            assert db._current_partition_target() == round(30 / partitions)
            db.upsert_batch(
                (f"b{i:03d}", rng.normal(size=8).astype(np.float32))
                for i in range(90)
            )
            assert db._current_partition_target() == round(30 / partitions)
            db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            assert db._current_partition_target() == round(120 / partitions)
