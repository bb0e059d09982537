"""Multi-query optimized batch execution (paper §3.4).

A naive batch dispatch scans a partition once per interested query.
MicroNN's MQO — adapted from HQI [27] — inverts the loop:

1. compute all query→centroid distances in **one** matrix product and
   derive each query's probe set;
2. group queries by partition (the partition → queries inverse map);
3. scan every needed partition **once**; for each partition, compute
   the distances of *all* interested queries against its vectors in a
   single GEMM;
4. add each query's row of that GEMM to that query's scored slices and
   cut each query's slices once (:func:`~repro.query.heap.rank_slices`)
   — asset-id strings are resolved for the survivors only.

Scan cost and I/O are thus amortized across the batch: a partition
needed by 40 queries is read and decoded once instead of 40 times,
which is exactly the sub-linear scaling Figure 9 plots.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from repro.core.config import DELTA_PARTITION_ID, MicroNNConfig
from repro.core.errors import DatabaseClosedError, FilterError
from repro.core.types import (
    BatchSearchResult,
    PlanKind,
    QueryStats,
    SearchResult,
)
from repro.query.distance import (
    asymmetric_pairwise_distances,
    distances_to_one,
    make_code_scorer,
    pairwise_distances,
)
from repro.query.heap import Slice, rank_slices, surfaced_neighbors
from repro.query.pipeline import (
    has_cold_partition,
    pipeline_engages,
    release_scratch_payload,
    run_scan_pipeline,
)
from repro.storage.engine import StorageEngine


#: Query-rows × partition-rows product above which the per-partition
#: GEMMs are worth fanning out to the worker pool.
_PARALLEL_BATCH_ELEMENTS = 1 << 21


class BatchQueryExecutor:
    """MQO execution of a batch of ANN queries."""

    def __init__(self, engine: StorageEngine, config: MicroNNConfig) -> None:
        self._engine = engine
        self._config = config
        # Long-lived worker pools (see QueryExecutor._worker_pool; the
        # I/O pool is separate so pipeline producers can never wait
        # behind compute consumers on the same pool).
        self._pool: ThreadPoolExecutor | None = None
        self._io_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._pool_closed = False

    def _worker_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool_closed:
                raise DatabaseClosedError("batch executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.device.worker_threads,
                    thread_name_prefix="micronn-batch",
                )
            return self._pool

    def _io_worker_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool_closed:
                raise DatabaseClosedError("batch executor is closed")
            if self._io_pool is None:
                self._io_pool = ThreadPoolExecutor(
                    max_workers=self._config.io_prefetch_threads,
                    thread_name_prefix="micronn-batch-io",
                )
            return self._io_pool

    def close(self) -> None:
        """Deterministic, idempotent pool shutdown (joins workers)."""
        with self._pool_lock:
            self._pool_closed = True
            pool, self._pool = self._pool, None
            io_pool, self._io_pool = self._io_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if io_pool is not None:
            io_pool.shutdown(wait=True, cancel_futures=True)

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int
    ) -> BatchSearchResult:
        """Execute all queries with shared partition scans."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        start = time.perf_counter()
        io_before = self._engine.accountant.snapshot()

        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if q.shape[1] != self._config.dim:
            raise FilterError(
                f"query matrix has dimension {q.shape[1]}, "
                f"expected {self._config.dim}"
            )
        if not np.isfinite(q).all():
            raise FilterError("query matrix contains NaN or infinity")
        num_queries = q.shape[0]
        if num_queries == 0:
            return BatchSearchResult(results=[], latency_s=0.0)

        # The whole storage-touching window registers with the purge
        # guard, mirroring the single-query executor: purge_caches()
        # during a batch waits for the batch to finish.
        with self._engine.scan_session():
            quantizer = (
                self._engine.load_quantizer()
                if self._config.uses_quantization
                else None
            )
            scan_mode = (
                quantizer.kind if quantizer is not None else "float32"
            )
            # PQ's ADC tables are per-query state: build each query's
            # scorer ONCE for the whole batch, not once per partition
            # that query touches (table build is a dim x 256 einsum —
            # rebuilt per group it would dominate the gather). SQ8
            # stays on the fused pairwise kernel: its win is decoding
            # each partition once for ALL interested queries.
            scorers = None
            if quantizer is not None and quantizer.kind == "pq":
                scorers = [
                    make_code_scorer(
                        q[row], quantizer, self._config.metric
                    )
                    for row in range(num_queries)
                ]

            groups, requested = self._group_by_partition(q, nprobe)
            # Each query's scored slices, cut once per query after the
            # scans. Approximate ones, from quantized scans, stay apart
            # from the exact ones until the per-query rerank resolves
            # them.
            exact: list[list[Slice]] = [[] for _ in range(num_queries)]
            approx: list[list[Slice]] = [[] for _ in range(num_queries)]
            scanned_counts = np.zeros(num_queries, dtype=np.int64)
            rerank_pool = max(k, self._config.rerank_factor * k)

            # Scan phase: each needed partition is read exactly ONCE —
            # the point of MQO. Under sq8/pq the read is the code
            # partition (a fraction of the bytes); code-less
            # partitions and the under-threshold delta stay
            # full-precision. _scan_groups picks the schedule exactly
            # as the single-query executor does.
            outcomes, io_time, compute_time, pipelined = self._scan_groups(
                groups, q, quantizer, scorers
            )

            for query_rows, asset_ids, dist, is_codes in outcomes:
                sink = approx if is_codes else exact
                for row, row_dist in zip(query_rows, dist):
                    sink[row].append((asset_ids, None, row_dist))
                scanned_counts[query_rows] += dist.shape[1]

            reranked = 0
            if quantizer is not None:
                reranked = self._rerank_batch(q, exact, approx, rerank_pool)

        latency = time.perf_counter() - start
        io_delta = self._engine.accountant.delta_since(io_before)
        results = [
            self._merge_one(exact[row], k, int(scanned_counts[row]))
            for row in range(num_queries)
        ]
        batch_stats = QueryStats(
            plan=PlanKind.ANN,
            nprobe=nprobe,
            partitions_scanned=len(groups),
            vectors_scanned=int(scanned_counts.sum()),
            distance_computations=int(scanned_counts.sum()) + reranked,
            cache_hits=io_delta.cache_hits,
            cache_misses=io_delta.cache_misses,
            bytes_read=io_delta.bytes_read,
            latency_s=latency,
            scan_mode=scan_mode,
            candidates_reranked=reranked,
            io_time_ms=io_time * 1e3,
            compute_time_ms=compute_time * 1e3,
            scan_pipelined=pipelined,
            partitions_quarantined=io_delta.partitions_quarantined,
            degraded=io_delta.partitions_quarantined > 0,
        )
        return BatchSearchResult(
            results=results,
            partitions_scanned=len(groups),
            partitions_requested=requested,
            latency_s=latency,
            stats=batch_stats,
        )

    # ------------------------------------------------------------------

    def _load_group(self, pid: int, quantizer, use_scratch: bool = False):
        """Read one partition for the batch (codes when available)."""
        return self._engine.load_scan_entry(
            pid, quantized=quantizer is not None, use_scratch=use_scratch
        )

    def _compute_group(self, entry, query_rows, is_codes, q, quantizer,
                       scorers):
        """Score one (non-empty) partition for every query interested
        in it: ``(query_rows, asset_ids, distances, is_codes)``, one
        row of distances per query."""
        sub = q[query_rows]
        # One kernel call covers every query interested in this
        # partition (a GEMM for float32; the fused int8 contraction
        # over all interested queries under SQ8). Under PQ each
        # interested query scores the shared decoded codes against its
        # own prebuilt ADC table — row-for-row bit-identical to the
        # single-query kernel.
        if is_codes:
            if scorers is not None:
                dist = np.stack(
                    [scorers[row](entry.matrix) for row in query_rows]
                )
            else:
                dist = asymmetric_pairwise_distances(
                    sub, entry.matrix, quantizer, self._config.metric
                )
        else:
            dist = pairwise_distances(
                sub, entry.matrix, self._config.metric
            )
        return query_rows, entry.asset_ids, dist, is_codes

    def _scan_groups(
        self, groups, q, quantizer, scorers
    ) -> tuple[list[tuple], float, float, bool]:
        """Run the batch's partition scans.

        Same dispatch as the single-query executor: a batch with
        cache-missing partitions pipelines when
        :func:`~repro.query.pipeline.pipeline_engages` says loads block
        long enough to pay for it, and otherwise loads and scores its
        misses one partition at a time on this thread under one read
        snapshot; the cache hits (a fully warm batch: everything) are
        gathered first, then their GEMMs fan out.

        Returns (per-partition outcomes, io seconds, compute seconds,
        pipelined flag). Outcome order varies across schedules but the
        per-query cut ranks on (distance, asset_id), so batch results
        are identical whichever path ran.
        """
        items = list(groups.items())
        cold = has_cold_partition(self._engine, groups, quantizer is not None)
        if cold and pipeline_engages(
            self._engine, self._config.pipeline_depth, len(items)
        ):
            return self._scan_groups_pipelined(items, q, quantizer, scorers)

        def compute(item):
            entry, query_rows, is_codes = item
            return self._compute_group(
                entry, query_rows, is_codes, q, quantizer, scorers
            )

        # Cache misses load, score and drop one at a time under one
        # read snapshot; cache hits are references into the cache, so
        # they wait for the fan-out below (all of a warm batch does).
        outcomes, loaded = [], []
        io_time = 0.0
        start = time.perf_counter()
        with self._engine.read_snapshot() if cold else nullcontext():
            for pid, query_rows in items:
                miss = cold and has_cold_partition(
                    self._engine, (pid,), quantizer is not None
                )
                load_start = time.perf_counter()
                entry, is_codes = self._load_group(pid, quantizer)
                io_time += time.perf_counter() - load_start
                if not len(entry):
                    continue
                item = (entry, query_rows, is_codes)
                if miss:
                    outcomes.append(compute(item))
                else:
                    loaded.append(item)
        total_elements = sum(
            len(entry) * len(query_rows) for entry, query_rows, _ in loaded
        )
        workers = max(
            1, min(self._config.device.worker_threads, len(loaded))
        )
        if workers == 1 or total_elements < _PARALLEL_BATCH_ELEMENTS:
            outcomes += [compute(item) for item in loaded]
        else:
            outcomes += self._worker_pool().map(compute, loaded)
        compute_time = time.perf_counter() - start - io_time
        return outcomes, io_time, compute_time, False

    def _scan_groups_pipelined(
        self, items, q, quantizer, scorers
    ) -> tuple[list[tuple], float, float, bool]:
        """Batch scans through the two-stage pipeline.

        The I/O stage still reads each partition exactly once per
        batch; compute workers run the shared per-partition kernels on
        payloads as they arrive and release scratch leases as soon as
        a partition has been scored.
        """

        def load(item):
            pid, query_rows = item
            entry, is_codes = self._load_group(
                pid, quantizer, use_scratch=True
            )
            if len(entry) == 0:
                return None
            return entry, query_rows, is_codes

        def score(outcomes: list, payload) -> None:
            entry, query_rows, is_codes = payload
            try:
                outcomes.append(
                    self._compute_group(
                        entry, query_rows, is_codes, q, quantizer, scorers
                    )
                )
            finally:
                if entry.lease is not None:
                    entry.lease.release()

        # Compute fan-out mirrors the serial _PARALLEL_BATCH_ELEMENTS
        # gate — query-rows x expected partition rows, same units —
        # so a batch that would run inline warm also runs inline cold.
        # Fanned-out consumers come out of worker_threads (the worker
        # split with the I/O stage); small batches keep the caller-
        # thread consumer and just overlap the I/O.
        io_threads = min(self._config.io_prefetch_threads, len(items))
        expected_elements = sum(
            len(query_rows) * self._config.target_cluster_size
            for _, query_rows in items
        )
        if expected_elements < _PARALLEL_BATCH_ELEMENTS:
            compute_workers = 1
        else:
            compute_workers = max(
                1,
                min(
                    self._config.device.worker_threads - io_threads,
                    len(items),
                ),
            )
        outcome = run_scan_pipeline(
            items,
            load,
            list,
            score,
            io_pool=self._io_worker_pool,
            compute_pool=self._worker_pool,
            io_threads=io_threads,
            compute_workers=compute_workers,
            depth=self._config.pipeline_depth,
            discard=release_scratch_payload,
        )
        outcomes = [item for state in outcome.states for item in state]
        return outcomes, outcome.io_s, outcome.compute_s, True

    # ------------------------------------------------------------------

    def _rerank_batch(
        self,
        q: np.ndarray,
        exact: list[list[Slice]],
        approx: list[list[Slice]],
        rerank_pool: int,
    ) -> int:
        """Re-score each query's approximate candidates exactly.

        The rerank I/O is amortized like the scans: the union of every
        query's top ``rerank_factor * k`` candidate ids is point-
        fetched in ONE chunked read, then each query re-scores its own
        candidates against the shared float32 matrix, as one more exact
        slice of that query.
        """
        chosen = [rank_slices(slices, rerank_pool)[0] for slices in approx]
        union = set().union(*chosen)
        if not union:
            return 0
        found, matrix = self._engine.fetch_vectors_by_asset_ids(
            sorted(union)
        )
        row_of = {aid: i for i, aid in enumerate(found)}
        reranked = 0
        for row, ids in enumerate(chosen):
            present = [aid for aid in ids if aid in row_of]
            if not present:
                continue
            sub = matrix[[row_of[aid] for aid in present]]
            dist = distances_to_one(q[row], sub, self._config.metric)
            exact[row].append((present, None, dist))
            reranked += len(present)
        return reranked

    def _group_by_partition(
        self, q: np.ndarray, nprobe: int
    ) -> tuple[dict[int, list[int]], int]:
        """Invert query→partitions into partition→queries.

        Returns the grouping plus the total number of per-query
        partition requests (the denominator of the sharing factor).
        """
        partition_ids, centroids = self._engine.load_centroids()
        groups: dict[int, list[int]] = {}
        requested = 0
        if len(partition_ids):
            dist = pairwise_distances(q, centroids, self._config.metric)
            take = min(nprobe, len(partition_ids))
            nearest = np.argpartition(dist, take - 1, axis=1)[:, :take]
            for row in range(q.shape[0]):
                for col in nearest[row]:
                    pid = int(partition_ids[int(col)])
                    groups.setdefault(pid, []).append(row)
                    requested += 1
        # Every query scans the delta partition (Algorithm 2, line 3).
        groups[DELTA_PARTITION_ID] = list(range(q.shape[0]))
        requested += q.shape[0]
        return groups, requested

    def _merge_one(
        self, slices: list[Slice], k: int, scanned: int
    ) -> SearchResult:
        neighbors = surfaced_neighbors(
            rank_slices(slices, k), self._config.metric
        )
        stats = QueryStats(
            plan=PlanKind.ANN,
            vectors_scanned=scanned,
            distance_computations=scanned,
        )
        return SearchResult(neighbors=neighbors, stats=stats)
