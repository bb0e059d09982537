"""InMemory baseline: the same IVF algorithms, fully memory-resident.

Paper §4.1.4: *"A completely memory resident variation of the MicroNN
IVF index. This baseline gives a lower-bound on latency for our IVF
implementation, while illustrating the memory requirements to achieve
this latency."*

The point of the baseline is to keep every implementation aspect fixed
— same clustering, same Algorithm 2 search, same heaps and distance
kernels — and vary only residency: all vectors are buffered in one
contiguous matrix (registered with the memory tracker), there is no
disk, no cache, no SQLite. Comparing it with :class:`MicroNN` isolates
the cost of disk residency, which is exactly what Figures 4-6 plot.

It also supports the same delta-store/flush lifecycle so update
experiments can use it as the "ideal" comparison point.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import MicroNNConfig
from repro.core.errors import EmptyDatabaseError
from repro.core.types import (
    BuildReport,
    Neighbor,
    PlanKind,
    QueryStats,
    SearchResult,
)
from repro.index.kmeans import (
    MiniBatchKMeans,
    plan_iterations,
    plan_num_clusters,
)
from repro.query.distance import distances_to_one, pairwise_distances
from repro.query.heap import rank_scored, surfaced_neighbors
from repro.storage.memory import MemoryTracker

#: Memory-tracker category for the resident vector buffer.
RESIDENT_CATEGORY = "inmemory_vectors"


class InMemoryIVF:
    """Memory-resident IVF index with the MicroNN search algorithm."""

    def __init__(
        self,
        config: MicroNNConfig,
        tracker: MemoryTracker | None = None,
    ) -> None:
        self._config = config
        self.tracker = tracker or MemoryTracker()
        self._ids: list[str] = []
        self._vectors = np.empty((0, config.dim), dtype=np.float32)
        self._centroids = np.empty((0, config.dim), dtype=np.float32)
        #: partition id per stored vector; -1 marks delta (unindexed).
        self._assignments = np.empty(0, dtype=np.int64)
        self._partition_rows: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Data loading / updates
    # ------------------------------------------------------------------

    def load(self, asset_ids: list[str], vectors: np.ndarray) -> None:
        """Bulk-load the collection into the resident buffer."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self._config.dim:
            raise EmptyDatabaseError(
                f"vectors must be (n, {self._config.dim})"
            )
        if len(asset_ids) != vectors.shape[0]:
            raise EmptyDatabaseError("ids/vectors length mismatch")
        self._ids = list(asset_ids)
        self._vectors = vectors
        self._assignments = np.full(len(asset_ids), -1, dtype=np.int64)
        self._partition_rows = {}
        self._account_memory()

    def insert(self, asset_id: str, vector: np.ndarray) -> None:
        """Append one vector into the in-memory delta (partition -1)."""
        vec = np.asarray(vector, dtype=np.float32).reshape(1, -1)
        self._ids.append(asset_id)
        self._vectors = np.vstack([self._vectors, vec])
        self._assignments = np.append(self._assignments, -1)
        row = len(self._ids) - 1
        existing = self._partition_rows.get(-1, np.empty(0, np.int64))
        self._partition_rows[-1] = np.append(existing, row)
        self._account_memory()

    def _account_memory(self) -> None:
        resident = (
            int(self._vectors.nbytes)
            + int(self._centroids.nbytes)
            + 16 * len(self._ids)
        )
        self.tracker.set_category(RESIDENT_CATEGORY, resident)

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Index build (same Algorithm 1 trainer, memory-resident batches)
    # ------------------------------------------------------------------

    def build_index(self, full_batch: bool = True) -> BuildReport:
        """Cluster the resident collection.

        ``full_batch=True`` trains on the whole buffered matrix per
        iteration — the "regular k-means" configuration the paper's
        InMemory comparison uses. ``False`` uses the configured
        mini-batch fraction (useful for ablations).
        """
        start = time.perf_counter()
        self.tracker.reset_peak()
        n = len(self._ids)
        if n == 0:
            raise EmptyDatabaseError("load vectors before building")
        k = plan_num_clusters(n, self._config.target_cluster_size)
        if full_batch:
            batch_size = n
        else:
            batch_size = max(1, int(n * self._config.minibatch_fraction))
        iterations = self._config.kmeans_iterations or plan_iterations(
            n, batch_size
        )
        trainer = MiniBatchKMeans(
            n_clusters=k,
            dim=self._config.dim,
            metric=self._config.metric,
            balance_penalty=self._config.balance_penalty,
            seed=self._config.seed,
        )
        rng = np.random.default_rng(self._config.seed)
        trainer.initialize(
            self._vectors[rng.choice(n, size=min(k, n), replace=False)]
        )
        for _ in range(iterations):
            if batch_size >= n:
                batch = self._vectors
            else:
                batch = self._vectors[
                    rng.choice(n, size=batch_size, replace=False)
                ]
            # Training batches live inside the resident buffer already;
            # only the trainer's centroid copy is extra.
            trainer.partial_fit(batch)
        self._centroids = trainer.centroids.copy()
        self._assignments = trainer.assign(self._vectors).astype(np.int64)
        self._rebuild_partition_rows()
        self._account_memory()
        return BuildReport(
            num_vectors=n,
            num_partitions=k,
            iterations=iterations,
            minibatch_size=batch_size,
            row_changes=n + k,
            duration_s=time.perf_counter() - start,
            peak_memory_bytes=self.tracker.peak_bytes,
        )

    def _rebuild_partition_rows(self) -> None:
        self._partition_rows = {
            int(pid): np.flatnonzero(self._assignments == pid)
            for pid in np.unique(self._assignments)
        }

    @property
    def num_partitions(self) -> int:
        return len(self._centroids)

    def partition_sizes(self) -> dict[int, int]:
        return {
            pid: len(rows)
            for pid, rows in self._partition_rows.items()
            if pid >= 0
        }

    # ------------------------------------------------------------------
    # Search (Algorithm 2 over resident partitions)
    # ------------------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int = 10, nprobe: int | None = None
    ) -> SearchResult:
        """ANN over the resident index (plus the in-memory delta)."""
        nprobe = nprobe or self._config.default_nprobe
        start = time.perf_counter()
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        metric = self._config.metric

        if len(self._centroids) == 0:
            row_sets = [np.arange(len(self._ids))]
        else:
            cdist = distances_to_one(query, self._centroids, metric)
            take = min(nprobe, len(self._centroids))
            probe = np.argpartition(cdist, take - 1)[:take]
            row_sets = [
                self._partition_rows.get(int(pid), np.empty(0, np.int64))
                for pid in probe
            ]
            row_sets.append(
                self._partition_rows.get(-1, np.empty(0, np.int64))
            )
        rows = (
            np.concatenate(row_sets) if row_sets else np.empty(0, np.int64)
        )
        if rows.size == 0:
            neighbors: tuple[Neighbor, ...] = ()
            scanned = 0
        else:
            dist = distances_to_one(query, self._vectors[rows], metric)
            neighbors = self._top_neighbors(dist, k, rows)
            scanned = int(rows.size)
        stats = QueryStats(
            plan=PlanKind.ANN,
            nprobe=nprobe,
            partitions_scanned=min(nprobe, max(len(self._centroids), 1)),
            vectors_scanned=scanned,
            distance_computations=scanned,
            latency_s=time.perf_counter() - start,
        )
        return SearchResult(neighbors=neighbors, stats=stats)

    def _top_neighbors(
        self, dist: np.ndarray, k: int, rows: np.ndarray | None = None
    ) -> tuple[Neighbor, ...]:
        """The k closest of ``dist`` (over ``rows`` of the buffer),
        surfaced — the engine's cut, so its ordering contract."""
        merged = rank_scored(
            dist, np.zeros(1, dtype=np.int64), [self._ids], k, [rows]
        )
        return surfaced_neighbors(merged, self._config.metric)

    def search_batch(
        self, queries: np.ndarray, k: int = 10, nprobe: int | None = None
    ) -> list[SearchResult]:
        """Batch search; each query processed independently.

        Deliberately *without* MQO — the baseline shows what batch
        execution costs when partition scans are not shared.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        return [self.search(row, k=k, nprobe=nprobe) for row in q]

    def search_exact(self, query: np.ndarray, k: int = 10) -> SearchResult:
        """Exact KNN over the resident matrix."""
        start = time.perf_counter()
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        metric = self._config.metric
        if not self._ids:
            return SearchResult(
                neighbors=(),
                stats=QueryStats(plan=PlanKind.EXACT, latency_s=0.0),
            )
        dist = distances_to_one(query, self._vectors, metric)
        neighbors = self._top_neighbors(dist, k)
        stats = QueryStats(
            plan=PlanKind.EXACT,
            vectors_scanned=len(self._ids),
            distance_computations=len(self._ids),
            latency_s=time.perf_counter() - start,
        )
        return SearchResult(neighbors=neighbors, stats=stats)

    # Convenience for recall sweeps over many queries at once.
    def exact_ground_truth(
        self, queries: np.ndarray, k: int
    ) -> list[list[str]]:
        """Exact top-K ids for every query (vectorized)."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        dist = pairwise_distances(q, self._vectors, self._config.metric)
        take = min(k, len(self._ids))
        idx = np.argpartition(dist, take - 1, axis=1)[:, :take]
        out: list[list[str]] = []
        for row in range(q.shape[0]):
            order = idx[row][np.argsort(dist[row, idx[row]], kind="stable")]
            out.append([self._ids[i] for i in order])
        return out
