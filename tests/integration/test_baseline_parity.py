"""InMemory baseline parity: same algorithms, different residency.

The paper's InMemory comparison is only meaningful if it shares the
MicroNN implementation. These tests pin that: on the same data and
with exhaustive probing both systems return identical results, while
their memory profiles differ by construction.
"""

import pytest

from repro import MicroNN, MicroNNConfig
from repro.baselines.inmemory import InMemoryIVF
from repro.core.errors import EmptyDatabaseError
from repro.workloads.datasets import load_dataset
from repro.workloads.groundtruth import compute_ground_truth
from repro.workloads.metrics import mean_recall_at_k


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("sift", num_vectors=1500, num_queries=15)


@pytest.fixture(scope="module")
def config(dataset):
    return MicroNNConfig(
        dim=dataset.dim,
        metric=dataset.metric,
        target_cluster_size=40,
        kmeans_iterations=15,
        default_nprobe=8,
    )


@pytest.fixture(scope="module")
def baseline(dataset, config):
    index = InMemoryIVF(config)
    index.load(list(dataset.train_ids), dataset.train)
    index.build_index(full_batch=True)
    return index


class TestParity:
    def test_exact_search_identical(self, tmp_path_factory, dataset,
                                    config, baseline):
        db = MicroNN.open(
            tmp_path_factory.mktemp("par") / "p.db", config
        )
        try:
            db.upsert_batch(zip(dataset.train_ids, dataset.train))
            db.build_index()
            for q in dataset.queries[:5]:
                disk = db.search(q, k=10, exact=True)
                mem = baseline.search_exact(q, k=10)
                assert disk.asset_ids == mem.asset_ids
        finally:
            db.close()

    def test_both_reach_high_recall(self, dataset, baseline):
        k = 10
        truth = compute_ground_truth(
            dataset.train_ids, dataset.train, dataset.queries, k,
            dataset.metric,
        )
        retrieved = [
            baseline.search(q, k=k, nprobe=16).asset_ids
            for q in dataset.queries
        ]
        assert mean_recall_at_k(truth, retrieved, k) > 0.85

    def test_ground_truth_helper_consistent(self, dataset, baseline):
        truth_a = baseline.exact_ground_truth(dataset.queries[:5], 10)
        truth_b = compute_ground_truth(
            dataset.train_ids, dataset.train, dataset.queries[:5], 10,
            dataset.metric,
        )
        for a, b in zip(truth_a, truth_b):
            assert set(a) == set(b)


class TestMemoryContrast:
    def test_baseline_holds_full_collection(self, dataset, baseline):
        resident = baseline.tracker.current_bytes
        assert resident >= dataset.train.nbytes

    def test_micronn_holds_fraction(self, tmp_path, dataset, config):
        from repro import DeviceProfile

        constrained = config.with_device(
            DeviceProfile(
                name="small-cache",
                worker_threads=2,
                partition_cache_bytes=dataset.train.nbytes // 10,
                sqlite_cache_bytes=1 << 20,
            )
        )
        with MicroNN.open(tmp_path / "m.db", constrained) as db:
            db.upsert_batch(zip(dataset.train_ids, dataset.train))
            db.build_index()
            for q in dataset.queries:
                db.search(q, k=10)
            assert (
                db.memory().current_bytes < dataset.train.nbytes / 2
            )


class TestBaselineBehaviour:
    def test_build_before_load_rejected(self, config):
        with pytest.raises(EmptyDatabaseError):
            InMemoryIVF(config).build_index()

    def test_insert_into_delta(self, dataset, config):
        index = InMemoryIVF(config)
        index.load(list(dataset.train_ids[:100]), dataset.train[:100])
        index.build_index()
        new_vec = dataset.train[200]
        index.insert("fresh", new_vec)
        result = index.search(new_vec, k=1)
        assert result[0].asset_id == "fresh"

    def test_search_without_index_is_exhaustive(self, dataset, config):
        index = InMemoryIVF(config)
        index.load(list(dataset.train_ids[:50]), dataset.train[:50])
        result = index.search(dataset.train[7], k=1)
        assert result[0].asset_id == dataset.train_ids[7]

    def test_partition_sizes_sum(self, baseline, dataset):
        sizes = baseline.partition_sizes()
        assert sum(sizes.values()) == len(dataset.train)

    def test_batch_without_mqo(self, baseline, dataset):
        results = baseline.search_batch(dataset.queries[:4], k=5, nprobe=8)
        assert len(results) == 4
        for r, q in zip(results, dataset.queries[:4]):
            single = baseline.search(q, k=5, nprobe=8)
            assert r.asset_ids == single.asset_ids
