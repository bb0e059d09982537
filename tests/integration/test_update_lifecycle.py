"""Update-lifecycle integration: the Figure 10 experiment in miniature.

Bootstraps an index from half the collection, inserts epochs of new
vectors, and checks the properties the paper plots: recall stays near
the full-rebuild ideal, incremental flushes cost a fraction of the
rebuild I/O, and growth eventually triggers a full rebuild.
"""

import pytest

from repro import MicroNN, MicroNNConfig
from repro.core.types import MaintenanceAction
from tests.conftest import requires_row_layout
from repro.workloads.datasets import load_dataset
from repro.workloads.groundtruth import compute_ground_truth
from repro.workloads.metrics import mean_recall_at_k


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("internala", num_vectors=2000, num_queries=20)


def bootstrap(tmp_path, dataset, threshold=0.5):
    config = MicroNNConfig(
        dim=dataset.dim,
        metric=dataset.metric,
        target_cluster_size=40,
        kmeans_iterations=15,
        delta_flush_threshold=1,
        rebuild_growth_threshold=threshold,
        default_nprobe=8,
    )
    db = MicroNN.open(tmp_path / "u.db", config)
    half = len(dataset.train) // 2
    db.upsert_batch(
        zip(dataset.train_ids[:half], dataset.train[:half])
    )
    db.build_index()
    return db, half


class TestInsertionEpochs:
    def test_incremental_recall_tracks_ideal(self, tmp_path, dataset):
        """Recall with incremental flushes stays close to full rebuilds
        (Fig. 10b: deviation remains small)."""
        db, half = bootstrap(tmp_path, dataset, threshold=10.0)
        try:
            k = 10
            epoch_size = int(len(dataset.train) * 0.03)
            inserted = half
            recalls = []
            for _ in range(6):
                hi = min(inserted + epoch_size, len(dataset.train))
                db.upsert_batch(
                    zip(
                        dataset.train_ids[inserted:hi],
                        dataset.train[inserted:hi],
                    )
                )
                inserted = hi
                db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
                truth = compute_ground_truth(
                    dataset.train_ids[:inserted],
                    dataset.train[:inserted],
                    dataset.queries,
                    k,
                    dataset.metric,
                )
                retrieved = [
                    db.search(q, k=k, nprobe=16).asset_ids
                    for q in dataset.queries
                ]
                recalls.append(mean_recall_at_k(truth, retrieved, k))
            assert min(recalls) > 0.75
        finally:
            db.close()

    @requires_row_layout  # row-granular flash-wear ratio (Fig. 10d);
    # the packed layout rewrites whole partition blobs on a flush
    def test_incremental_io_fraction_of_rebuild(self, tmp_path, dataset):
        """Fig. 10d: incremental maintenance writes a few % of a full
        rebuild's row changes."""
        db, half = bootstrap(tmp_path, dataset, threshold=10.0)
        try:
            epoch = int(len(dataset.train) * 0.03)
            db.upsert_batch(
                zip(
                    dataset.train_ids[half : half + epoch],
                    dataset.train[half : half + epoch],
                )
            )
            flush = db.maintain(
                force=MaintenanceAction.INCREMENTAL_FLUSH
            )
            rebuild = db.maintain(force=MaintenanceAction.FULL_REBUILD)
            assert flush.row_changes < 0.15 * rebuild.row_changes
        finally:
            db.close()

    def test_growth_triggers_automatic_rebuild(self, tmp_path, dataset):
        db, half = bootstrap(tmp_path, dataset, threshold=0.5)
        try:
            actions = []
            inserted = half
            epoch = int(len(dataset.train) * 0.1)
            for _ in range(6):
                hi = min(inserted + epoch, len(dataset.train))
                db.upsert_batch(
                    zip(
                        dataset.train_ids[inserted:hi],
                        dataset.train[inserted:hi],
                    )
                )
                inserted = hi
                actions.append(db.maintain().action)
            assert MaintenanceAction.FULL_REBUILD in actions
            # After the rebuild the baseline resets, so growth restarts.
            rebuild_idx = actions.index(MaintenanceAction.FULL_REBUILD)
            assert all(
                a is MaintenanceAction.INCREMENTAL_FLUSH
                for a in actions[:rebuild_idx]
            )
        finally:
            db.close()

    def test_upsert_moves_vector_between_partitions(self, tmp_path, dataset):
        """Re-upserting an indexed asset re-stages it in the delta and a
        flush re-places it near its new position."""
        db, half = bootstrap(tmp_path, dataset, threshold=10.0)
        try:
            victim = dataset.train_ids[0]
            new_vec = dataset.train[half + 1]
            db.upsert(victim, new_vec)
            from repro.core.config import DELTA_PARTITION_ID

            assert db.engine.get_partition_of(victim) == DELTA_PARTITION_ID
            db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            assert db.engine.get_partition_of(victim) != DELTA_PARTITION_ID
            result = db.search(new_vec, k=2, nprobe=8)
            assert victim in result.asset_ids
        finally:
            db.close()

    def test_delete_then_flush_consistent(self, tmp_path, dataset):
        db, half = bootstrap(tmp_path, dataset, threshold=10.0)
        try:
            epoch = 50
            db.upsert_batch(
                zip(
                    dataset.train_ids[half : half + epoch],
                    dataset.train[half : half + epoch],
                )
            )
            victims = dataset.train_ids[half : half + 10]
            db.delete_batch(victims)
            db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            assert len(db) == half + epoch - 10
            for victim in victims:
                assert victim not in db
            result = db.search(dataset.queries[0], k=20, nprobe=16)
            assert not set(result.asset_ids) & set(victims)
        finally:
            db.close()
