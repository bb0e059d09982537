"""Query execution: ANN, exact KNN, and the two hybrid plans (§3.3-3.5).

The ANN path is Algorithm 2 verbatim:

1. scan the centroid table and pick the ``n`` partitions whose
   centroids are nearest to the query;
2. always add the delta partition, so un-flushed inserts are visible;
3. score the selected partitions, one batched kernel pass each, with
   no per-row Python and no asset-id string read. Every partition
   scored becomes one slice of distances (:class:`ScanState`). Cached
   probes are scored together into one array (the worker pool fills
   disjoint slices of it once the scan is large). Cache-missing probes
   load, score and drop one at a time inside one read snapshot; while
   cold loads are seen *blocking* they run as a two-stage I/O–compute
   pipeline instead (:mod:`repro.query.pipeline`), so disk and cores
   overlap;
4. cut all the slices to the K best once, read asset-id strings for
   those survivors only, and surface them.

With ``quantization="sq8"`` or ``"pq"`` step 3 becomes the *fast scan
path*: code partitions are scanned with the kind-dispatched quantized
kernel — the block-fused asymmetric kernel for SQ8 (1 byte/dimension),
a per-query ADC lookup table for PQ (1 byte/sub-vector) — and the top
``rerank_factor * k`` approximate candidates are re-scored against
their full-precision vectors. The delta partition is scanned exactly
until it outgrows ``delta_quantize_threshold``, after which it is
lazily encoded in memory. Same algorithm shape, 4-32x less partition
I/O.

Hybrid plans reuse the same machinery:

- **post-filtering** masks each scanned partition by the predicate
  *before* computing distances — the paper's optimization of applying
  the join and filter during partition retrieval, so non-qualifying
  vectors never enter the top-K computation. The mask is one NumPy
  evaluation of the predicate over the partition's cached attribute
  columns (:class:`RowFilter`), so the filter costs what the scan
  scans, not what the collection holds; predicates NumPy cannot
  evaluate (``MATCH``, ``TEXT`` ordering) are evaluated once through
  SQL and masked by the qualifying id set, through the same interface;
- **pre-filtering** fetches exactly the qualifying vectors and
  brute-forces the top-K over them (100% recall by construction).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.core.config import DELTA_PARTITION_ID, MicroNNConfig
from repro.core.errors import DatabaseClosedError, FilterError
from repro.core.types import Neighbor, PlanKind, QueryStats, SearchResult
from repro.obs.metrics import (
    BYTES_BUCKETS,
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_S,
)
from repro.obs.trace import Tracer
from repro.query.distance import (
    distances_into,
    distances_to_one,
    make_code_scorer,
)
from repro.query.filters import (
    ColumnarUnsupported,
    CompileContext,
    Predicate,
    columnar_fallback_reason,
    default_tokenizer,
)
from repro.query.heap import (
    KthBound,
    Slice,
    rank_slices,
    surfaced_neighbors,
)
from repro.query.pipeline import (
    has_cold_partition,
    pipeline_engages,
    release_scratch_payload,
    run_scan_pipeline,
)
from repro.storage.cache import CachedPartition
from repro.storage.engine import StorageEngine
from repro.storage.quantization import Quantizer


#: Total matrix elements above which the distance phase fans out to the
#: worker pool. Below this, BLAS kernels finish in microseconds and the
#: pool round-trip would dominate.
_PARALLEL_SCAN_ELEMENTS = 1 << 21


def adaptive_skip(
    centroid_dist: float, kth: float, margin: float
) -> bool:
    """Adaptive-nprobe admission check (ROADMAP early-termination item).

    Skip a partition whose centroid distance already exceeds the
    current k-th candidate distance by more than ``margin * abs(kth)``
    — with the probe set ordered by centroid distance, once one
    partition trips this every later one would too. All values are in
    the internal smaller-is-closer space, so the same check serves l2
    (squared), cosine and dot (negated). While the candidate set is
    not yet full ``kth`` is ``inf`` and nothing is skipped; the delta
    partition carries ``-inf`` and is never skipped. Being relative,
    the margin loses its bite as ``kth`` nears zero (see the config
    docstring's ``dot`` caveat).
    """
    if kth == float("inf"):
        return False
    return centroid_dist > kth + margin * abs(kth)


def _span(tracer: Tracer | None, name: str, **args: object):
    """A tracer span, or a no-op context when the query is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **args)


class SharedKthTracker:
    """Monotone k-th-candidate bound shared across pipeline workers.

    Each compute worker scores into a private :class:`ScanState`, so no
    worker knows the global k-th distance; each publishes its own
    running bound here and admission checks read the minimum seen so
    far. A private bound is always an *upper* bound on the global k-th,
    so the pruning this feeds is conservative — it only skips
    partitions the exact serial check would also skip.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = float("inf")

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def observe(self, worst: float) -> None:
        if worst < self._value:
            with self._lock:
                if worst < self._value:
                    self._value = worst


@dataclass(frozen=True)
class _ScanOutcome:
    """Counters accumulated by one query's partition scans."""

    vectors_scanned: int
    distance_computations: int
    rows_filtered: int
    scan_mode: str = "float32"
    candidates_reranked: int = 0
    #: Probe-set partitions adaptive early termination never scanned.
    partitions_skipped: int = 0
    #: Seconds spent loading+decoding partitions (summed across I/O
    #: tasks when pipelined, phase wall-clock when serial).
    io_time_s: float = 0.0
    #: Seconds spent masking and in distance kernels (summed across
    #: compute workers when pipelined).
    compute_time_s: float = 0.0
    #: Whether the I/O–compute pipeline executed this scan.
    pipelined: bool = False
    #: Pipeline prefetch-queue high-water mark (0 when serial).
    max_depth: int = 0


class ScanState:
    """One query's scored partitions and scan counters.

    Each partition scored is kept as one
    :data:`~repro.query.heap.Slice` — in ``approx`` when it was scored
    from codes, in ``exact`` otherwise — until
    :meth:`QueryExecutor.finish_scan` cuts them all once. A serial scan
    keeps one state, a pipelined scan one per compute worker (joined by
    :meth:`absorb` after the drain), a served query one under its
    task's lock. ``bounded`` keeps the running bounds adaptive
    admission reads (:meth:`kth`).
    """

    __slots__ = (
        "k", "rerank_pool", "exact", "approx", "bounds", "scanned",
        "computed", "filtered",
    )

    def __init__(self, k: int, rerank_pool: int, bounded: bool) -> None:
        self.k = k
        self.rerank_pool = rerank_pool
        self.exact: list[Slice] = []
        self.approx: list[Slice] = []
        self.bounds = (
            (KthBound(k), KthBound(rerank_pool)) if bounded else None
        )
        self.scanned = self.computed = self.filtered = 0

    def spawn(self) -> ScanState:
        """An empty state for the same query (a pipeline worker's)."""
        return ScanState(self.k, self.rerank_pool, self.bounds is not None)

    def kth(self) -> float:
        """The adaptive-nprobe bound: the tighter of the exact rows'
        K-th distance and the approximate rows' ``rerank_pool``-th
        (+inf when unbounded). The exact side is a true upper bound on
        the final K-th candidate. The approximate side lives in
        quantized space, where quantization can understate an exact
        distance, so the margin must absorb quantization error too:
        pruning a quantized scan is a recall heuristic rather than a
        strict guarantee (bounding on the exact side alone would almost
        never fire there: it only sees delta and code-less partitions).
        """
        if self.bounds is None:
            return float("inf")
        return min(bound.value for bound in self.bounds)

    def add(self, entry: CachedPartition, is_codes: bool, scored) -> None:
        """Record one partition's :func:`score_partition` result."""
        rows, dist, dropped = scored
        self.scanned += len(entry)
        self.filtered += dropped
        if dist is None:
            return
        self.computed += len(dist)
        sink = self.approx if is_codes else self.exact
        sink.append((entry.asset_ids, rows, dist))
        if self.bounds is not None:
            self.bounds[is_codes].offer(dist)

    def absorb(self, other: ScanState) -> None:
        """Take over another state's slices and counters."""
        self.exact += other.exact
        self.approx += other.approx
        self.scanned += other.scanned
        self.computed += other.computed
        self.filtered += other.filtered


def score_partition(
    entry: CachedPartition,
    is_codes: bool,
    row_filter: RowFilter | None,
    query: np.ndarray,
    scorer,
    metric: str,
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The one score step of every scan: mask a loaded partition and
    score the rows kept — codes through ``scorer``
    (:func:`~repro.query.distance.make_code_scorer`), floats through
    :func:`distances_to_one`. Returns ``(rows, distances, rows
    dropped)``, distances ``None`` when the mask kept nothing."""
    rows, matrix, dropped = _masked(entry, row_filter)
    if not len(matrix):
        return rows, None, dropped
    if is_codes:
        return rows, scorer(matrix), dropped
    return rows, distances_to_one(query, matrix, metric), dropped


class RowFilter:
    """A post-filter predicate as the scan applies it: one partition
    entry in, the boolean mask of its qualifying rows out.

    The mask is the predicate evaluated with NumPy over the entry's
    attribute columns, which the engine keeps on the cached entry: a
    warm filtered query issues no SQL. Where that cannot give SQLite's
    answer — for the whole predicate (``Match``, ``TEXT`` ordering:
    :attr:`fallback_reason`) or for one entry (a stored column of
    mixed storage classes) — the mask is membership in the
    collection-wide qualifying id set, evaluated through SQL once per
    query. The two agree wherever both exist, so mixing them per entry
    is sound. Shared by the threads of one scan.
    """

    def __init__(
        self, executor: "QueryExecutor", predicate: Predicate
    ) -> None:
        self._executor = executor
        self._predicate = predicate
        self._names = tuple(sorted(predicate.attributes_referenced()))
        #: Why every mask goes through SQL, or None when columnar.
        self.fallback_reason = columnar_fallback_reason(
            predicate, executor.compile_context
        )
        self._lock = threading.Lock()
        self._qualifying: frozenset[str] | None = None

    def describe(self) -> str:
        """How the filter is evaluated, for ``explain()`` and traces."""
        if self.fallback_reason is None:
            return f"columnar({', '.join(self._names)})"
        return f"sql ({self.fallback_reason})"

    def qualifying_ids(self) -> frozenset[str]:
        """The SQL fallback's mask source, evaluated on first use."""
        with self._lock:
            if self._qualifying is None:
                self._qualifying = frozenset(
                    self._executor._qualifying_ids(self._predicate)
                )
            return self._qualifying

    def mask(self, entry: CachedPartition) -> np.ndarray:
        if self.fallback_reason is None:
            columns = self._executor._engine.attribute_columns(
                entry, self._names
            )
            try:
                return self._predicate.mask(columns)
            except ColumnarUnsupported:
                pass
        return np.fromiter(
            map(self.qualifying_ids().__contains__, entry.asset_ids),
            dtype=bool,
            count=len(entry),
        )


def _masked(
    entry: CachedPartition, row_filter: RowFilter | None
) -> tuple[np.ndarray | None, np.ndarray, int]:
    """Apply the post-filter mask; returns (rows, matrix, rows_dropped).

    ``rows`` are the positions in ``entry.asset_ids`` of the matrix
    rows returned, ``None`` meaning every row in order — the matrix is
    copied only when the filter actually dropped rows.
    """
    if row_filter is None:
        return None, entry.matrix, 0
    rows = np.flatnonzero(row_filter.mask(entry))
    dropped = len(entry) - len(rows)
    if not dropped:
        return None, entry.matrix, 0
    return rows, entry.matrix[rows], dropped


class QueryExecutor:
    """Single-query execution over one storage engine."""

    def __init__(self, engine: StorageEngine, config: MicroNNConfig) -> None:
        self._engine = engine
        self._config = config
        self._compile_ctx = CompileContext(
            attributes=config.normalized_attributes,
            fts_attributes=config.fts_attributes,
            use_fts5=engine.uses_fts5,
            tokenizer=default_tokenizer,
        )
        # One long-lived worker pool per executor: spinning threads up
        # per query costs more than the scan itself at on-device
        # partition sizes (the paper's "worker thread pool", Fig. 3).
        # The I/O pool is its own (small) executor so pipeline
        # producers can never deadlock against compute consumers
        # queued on the same pool.
        self._pool: ThreadPoolExecutor | None = None
        self._io_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._pool_closed = False
        # Lazily built coarse centroid index (§3.2 extension) plus the
        # pid→row map, keyed on the identity of the engine's cached
        # centroid matrix.
        self._centroid_index: (
            tuple[np.ndarray, object, dict[int, int]] | None
        ) = None
        # Query-level telemetry: every finished query (serial, served,
        # or sharded-per-shard) funnels its QueryStats through
        # record_query_stats, so these counters reconcile exactly with
        # summed per-query stats. Registration is idempotent — the
        # scheduler and batch executor share the same families.
        metrics = engine.metrics
        self._m_queries = metrics.counter(
            "micronn_queries_total",
            "Finished queries by plan and scan mode.",
            labels=("plan", "scan_mode"),
        )
        self._m_latency = metrics.histogram(
            "micronn_query_latency_seconds",
            "End-to-end query latency.",
            buckets=LATENCY_BUCKETS_S,
            labels=("plan", "scan_mode"),
        )
        self._m_query_bytes = metrics.histogram(
            "micronn_query_bytes_read",
            "Stored bytes read per query.",
            buckets=BYTES_BUCKETS,
            labels=("scan_mode",),
        )
        self._m_vectors = metrics.counter(
            "micronn_query_vectors_scanned_total",
            "Vectors scanned across all queries.",
        )
        self._m_partitions = metrics.counter(
            "micronn_query_partitions_scanned_total",
            "Partitions scanned across all queries.",
        )
        self._m_pipeline_depth = metrics.histogram(
            "micronn_pipeline_prefetch_depth",
            "Prefetch-queue high-water mark of pipelined scans.",
            buckets=DEPTH_BUCKETS,
        )

    def _worker_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool_closed:
                raise DatabaseClosedError("executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.device.worker_threads,
                    thread_name_prefix="micronn-scan",
                )
            return self._pool

    def _io_worker_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool_closed:
                raise DatabaseClosedError("executor is closed")
            if self._io_pool is None:
                self._io_pool = ThreadPoolExecutor(
                    max_workers=self._config.io_prefetch_threads,
                    thread_name_prefix="micronn-io",
                )
            return self._io_pool

    def close(self) -> None:
        """Shut down the worker pools (called by MicroNN.close).

        Deterministic and idempotent: waits for worker threads to exit
        so repeated open/close cycles in one process never accumulate
        dangling ``micronn-scan``/``micronn-io`` threads, and marks the
        executor closed so no later call can silently respawn a pool.
        """
        with self._pool_lock:
            self._pool_closed = True
            pool, self._pool = self._pool, None
            io_pool, self._io_pool = self._io_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if io_pool is not None:
            io_pool.shutdown(wait=True, cancel_futures=True)

    @property
    def compile_context(self) -> CompileContext:
        return self._compile_ctx

    # ------------------------------------------------------------------
    # Serving-layer entry points (repro.serve)
    # ------------------------------------------------------------------
    # The concurrent scheduler reuses the executor's selection, score
    # step and finish, so a scheduled query runs exactly the serial
    # path's numerics — the bit-identical-results guarantee reduces to
    # "same kernels, same cut, different I/O schedule".

    def row_filter_for(self, predicate: Predicate) -> RowFilter:
        """``predicate`` compiled for a post-filtered scan (raises for
        an attribute the schema does not declare)."""
        return RowFilter(self, predicate)

    def record_query_stats(self, stats: QueryStats) -> None:
        """Fold one finished query into the metrics/event substrate.

        The single funnel for query-level telemetry: the serial plans
        call it themselves and the serving scheduler calls it for each
        query it assembles, so counter totals reconcile exactly with
        the per-query ``QueryStats`` the callers saw (the invariant the
        metrics hammer test asserts). Slow and degraded queries also
        emit structured events.
        """
        labels = {"plan": stats.plan.value, "scan_mode": stats.scan_mode}
        self._m_queries.inc(**labels)
        self._m_latency.observe(stats.latency_s, **labels)
        self._m_query_bytes.observe(
            stats.bytes_read, scan_mode=stats.scan_mode
        )
        self._m_vectors.inc(stats.vectors_scanned)
        self._m_partitions.inc(stats.partitions_scanned)
        events = self._engine.events
        if not events.enabled:
            return
        latency_ms = stats.latency_s * 1e3
        if latency_ms >= self._config.slow_query_ms:
            events.emit(
                "slow_query",
                plan=stats.plan.value,
                scan_mode=stats.scan_mode,
                latency_ms=round(latency_ms, 3),
                nprobe=stats.nprobe,
                bytes_read=stats.bytes_read,
                queue_wait_ms=round(stats.queue_wait_ms, 3),
            )
        if stats.degraded:
            events.emit(
                "degraded_query",
                plan=stats.plan.value,
                partitions_quarantined=stats.partitions_quarantined,
            )

    def observe_completed_query(
        self, query: np.ndarray, k: int, stats: QueryStats, neighbors
    ) -> None:
        """Quality-observability funnel for one finished query.

        Folds the query shape into the engine's workload sketch and
        offers the query to the shadow recall auditor (which samples
        deterministically and does all real work off this thread).
        Called by every serial plan entry point and by the serving
        scheduler's result assembly — the same coverage contract as
        :meth:`record_query_stats`. Shadow audits themselves bypass
        this funnel entirely (:meth:`shadow_exact_ids`), so auditing
        can never sample its own traffic.
        """
        workload = self._engine.workload
        if workload.enabled:
            workload.record_query(k, stats)
        auditor = self._engine.auditor
        if auditor is not None and auditor.enabled:
            auditor.maybe_submit(query, k, stats, neighbors)

    def shadow_exact_ids(self, query: np.ndarray, k: int) -> list[str]:
        """Exact top-k asset ids with NO telemetry side effects.

        The recall auditor's shadow path: the same exhaustive scan,
        kernels, and canonical ``(distance, asset_id)`` surfacing as
        :meth:`search_exact`, but it records no stats, emits no
        events, and never re-enters the audit funnel — the structural
        guarantee that shadow queries cannot recurse.
        """
        _check_k(k)
        merged, _ = self._exhaustive(self.as_query(query), k)
        neighbors = surfaced_neighbors(merged, self._config.metric)
        return [n.asset_id for n in neighbors]

    # ------------------------------------------------------------------
    # Plan entry points
    # ------------------------------------------------------------------

    def search_ann(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        row_filter: RowFilter | None = None,
        plan: PlanKind = PlanKind.ANN,
        tracer: Tracer | None = None,
    ) -> SearchResult:
        """Algorithm 2: probe ``nprobe`` partitions plus the delta."""
        _check_k(k)
        start = time.perf_counter()
        io_before = self._engine.accountant.snapshot()
        query = self.as_query(query)

        with _span(
            tracer, "search_ann", plan=plan.value, k=k, nprobe=nprobe
        ):
            with self._engine.scan_session():
                if row_filter is not None and row_filter.fallback_reason:
                    # The SQL fallback's one statement, inside the
                    # query's clock, I/O snapshot and root span.
                    with _span(tracer, "evaluate_filter"):
                        row_filter.qualifying_ids()
                with _span(tracer, "select_partitions") as select_span:
                    partitions = self.select_partitions(query, nprobe)
                    quantizer = self.scan_quantizer()
                    if select_span is not None:
                        select_span.set(probe_set=len(partitions))
                with _span(tracer, "scan_partitions") as scan_span:
                    merged, outcome = self._scan_partitions(
                        partitions, query, k, row_filter, quantizer
                    )
                    if scan_span is not None:
                        if row_filter is not None:
                            scan_span.set(filter=row_filter.describe())
                        scan_span.set(
                            scan_mode=outcome.scan_mode,
                            pipelined=outcome.pipelined,
                            vectors_scanned=outcome.vectors_scanned,
                            io_time_ms=round(outcome.io_time_s * 1e3, 3),
                            compute_time_ms=round(
                                outcome.compute_time_s * 1e3, 3
                            ),
                        )
            with _span(tracer, "finalize"):
                neighbors = surfaced_neighbors(merged, self._config.metric)

        if outcome.pipelined:
            self._m_pipeline_depth.observe(outcome.max_depth)
        return self._finish(
            query,
            k,
            neighbors,
            tracer,
            start,
            io_before,
            plan=plan,
            nprobe=nprobe,
            partitions_scanned=len(partitions)
            - outcome.partitions_skipped,
            vectors_scanned=outcome.vectors_scanned,
            distance_computations=outcome.distance_computations,
            rows_filtered=outcome.rows_filtered,
            scan_mode=outcome.scan_mode,
            candidates_reranked=outcome.candidates_reranked,
            io_time_ms=outcome.io_time_s * 1e3,
            compute_time_ms=outcome.compute_time_s * 1e3,
            scan_pipelined=outcome.pipelined,
            partitions_skipped=outcome.partitions_skipped,
        )

    def search_exact(
        self,
        query: np.ndarray,
        k: int,
        predicate: Predicate | None = None,
        tracer: Tracer | None = None,
    ) -> SearchResult:
        """Exact KNN: exhaustive scan (optionally under a predicate)."""
        _check_k(k)
        if predicate is not None:
            return self.search_prefilter(query, k, predicate, tracer=tracer)
        start = time.perf_counter()
        io_before = self._engine.accountant.snapshot()
        query = self.as_query(query)

        with _span(tracer, "search_exact", k=k):
            with _span(tracer, "full_scan"):
                merged, scanned = self._exhaustive(query, k)
            with _span(tracer, "finalize"):
                neighbors = surfaced_neighbors(merged, self._config.metric)
        return self._finish(
            query,
            k,
            neighbors,
            tracer,
            start,
            io_before,
            plan=PlanKind.EXACT,
            vectors_scanned=scanned,
            distance_computations=scanned,
        )

    def search_prefilter(
        self,
        query: np.ndarray,
        k: int,
        predicate: Predicate,
        tracer: Tracer | None = None,
    ) -> SearchResult:
        """Pre-filtering plan: filter first, brute force the survivors."""
        _check_k(k)
        start = time.perf_counter()
        io_before = self._engine.accountant.snapshot()
        query = self.as_query(query)

        with _span(tracer, "search_prefilter", k=k):
            with self._engine.scan_session():
                with _span(tracer, "evaluate_filter"):
                    qualifying = self._qualifying_ids(predicate)
                with _span(tracer, "fetch_survivors"):
                    found_ids, matrix = (
                        self._engine.fetch_vectors_by_asset_ids(
                            sorted(qualifying)
                        )
                    )
            with _span(tracer, "finalize"):
                dist = distances_to_one(query, matrix, self._config.metric)
                neighbors = surfaced_neighbors(
                    rank_slices([(found_ids, None, dist)], k),
                    self._config.metric,
                )
        return self._finish(
            query,
            k,
            neighbors,
            tracer,
            start,
            io_before,
            plan=PlanKind.PRE_FILTER,
            vectors_scanned=len(found_ids),
            distance_computations=len(found_ids),
        )

    def search_postfilter(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        predicate: Predicate,
        tracer: Tracer | None = None,
    ) -> SearchResult:
        """Post-filtering plan: ANN scan masked by the predicate."""
        return self.search_ann(
            query,
            k,
            nprobe,
            row_filter=self.row_filter_for(predicate),
            plan=PlanKind.POST_FILTER,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _finish(
        self,
        query: np.ndarray,
        k: int,
        neighbors: tuple[Neighbor, ...],
        tracer: Tracer | None,
        start: float,
        io_before,
        **fields,
    ) -> SearchResult:
        """A plan's result: its stats (``fields`` plus its clock and I/O
        window since ``start`` / ``io_before``) through both telemetry
        funnels."""
        io = self._engine.accountant.delta_since(io_before)
        stats = QueryStats(
            cache_hits=io.cache_hits,
            cache_misses=io.cache_misses,
            bytes_read=io.bytes_read,
            latency_s=time.perf_counter() - start,
            partitions_quarantined=io.partitions_quarantined,
            degraded=io.partitions_quarantined > 0,
            **fields,
        )
        self.record_query_stats(stats)
        self.observe_completed_query(query, k, stats, neighbors)
        trace = tracer.finish() if tracer is not None else None
        return SearchResult(neighbors=neighbors, stats=stats, trace=trace)

    def _exhaustive(
        self, query: np.ndarray, k: int
    ) -> tuple[tuple[list[str], np.ndarray], int]:
        """The exact top K over every stored vector, and the number of
        vectors scanned. Streamed in bounded batches, each cut against
        the K survivors carried from the batches before it, so no more
        than a batch plus K asset ids are held at once."""
        ids: list[str] = []
        dist = np.empty(0, dtype=np.float32)
        scanned = 0
        with self._engine.scan_session():
            for batch_ids, matrix in self._engine.iter_vector_batches(
                batch_size=4096
            ):
                scanned += len(batch_ids)
                batch = distances_to_one(query, matrix, self._config.metric)
                ids, dist = rank_slices(
                    [(ids, None, dist), (batch_ids, None, batch)], k
                )
        return (ids, dist), scanned

    def as_query(self, query: np.ndarray) -> np.ndarray:
        """Validate + canonicalize a query vector."""
        arr = np.asarray(query, dtype=np.float32).reshape(-1)
        if arr.shape[0] != self._config.dim:
            raise FilterError(
                f"query vector has dimension {arr.shape[0]}, "
                f"expected {self._config.dim}"
            )
        if not np.isfinite(arr).all():
            raise FilterError("query vector contains NaN or infinity")
        return arr

    def _qualifying_ids(self, predicate: Predicate) -> list[str]:
        where_sql, params = predicate.to_sql(self._compile_ctx)
        return self._engine.query_attribute_ids(where_sql, params)

    def select_partitions(
        self, query: np.ndarray, nprobe: int
    ) -> list[tuple[int, float]]:
        """FindNearestCentroids ∪ {delta} (Algorithm 2, line 3).

        Returns ``(partition_id, centroid_distance)`` pairs in centroid-
        distance order — the distances feed the pipeline's prefetch
        priority, adaptive-nprobe admission, and the serving
        scheduler's cross-query load prioritization. The delta is
        appended with ``-inf`` so every consumer scans it
        unconditionally. Uses the flat centroid scan by default;
        switches to the two-level coarse centroid index (§3.2
        extension) once the centroid table crosses the configured
        threshold.
        """
        partition_ids, centroids = self._engine.load_centroids()
        selected: list[tuple[int, float]] = []
        if len(partition_ids):
            threshold = self._config.centroid_index_threshold
            if threshold is not None and len(partition_ids) >= threshold:
                index, row_of = self._centroid_index_for(
                    partition_ids, centroids
                )
                pids = np.asarray(
                    index.select(
                        query,
                        nprobe,
                        oversample=self._config.centroid_index_oversample,
                    ),
                    dtype=np.int64,
                )
                dist = distances_to_one(
                    query,
                    centroids[[row_of[pid] for pid in pids.tolist()]],
                    self._config.metric,
                )
            else:
                dist = distances_to_one(
                    query, centroids, self._config.metric
                )
                take = min(nprobe, len(partition_ids))
                idx = np.argpartition(dist, take - 1)[:take] if take else []
                pids, dist = partition_ids[idx], dist[idx]
            # (distance, pid) order in one sort, no per-row Python.
            order = np.lexsort((pids, dist))
            selected = list(
                zip(pids[order].tolist(), dist[order].tolist())
            )
        selected.append((DELTA_PARTITION_ID, float("-inf")))
        return selected

    def _centroid_index_for(
        self, partition_ids: np.ndarray, centroids: np.ndarray
    ):
        """Lazily (re)build the coarse index for the current centroids.

        Keyed on the identity of the engine's cached centroid matrix:
        any centroid write drops that cache, so a fresh matrix object
        signals that the coarse index is stale. Returns the index plus
        the partition-id→centroid-row map, cached together — the map
        is O(num_partitions) to build, which is exactly the per-query
        cost the two-level index exists to avoid.
        """
        from repro.index.centroid_index import CentroidIndex

        with self._pool_lock:
            cached = self._centroid_index
            if cached is not None and cached[0] is centroids:
                return cached[1], cached[2]
        index = CentroidIndex.build(
            partition_ids,
            centroids,
            metric=self._config.metric,
            cell_size=self._config.centroid_index_cell_size,
            seed=self._config.seed,
        )
        row_of = {int(pid): row for row, pid in enumerate(partition_ids)}
        with self._pool_lock:
            self._centroid_index = (centroids, index, row_of)
        return index, row_of

    def _pipeline_split(
        self, partitions: list[tuple[int, float]]
    ) -> tuple[int, int] | None:
        """(io_threads, compute_workers) if this cold scan should
        pipeline, by :func:`~repro.query.pipeline.pipeline_engages`:
        only when the engine has seen cold loads block long enough for
        the overlap to outweigh the hand-offs. Results are bit-identical
        either way — same kernels, same cut."""
        if not pipeline_engages(
            self._engine, self._config.pipeline_depth, len(partitions)
        ):
            return None
        io_threads = min(
            self._config.io_prefetch_threads, len(partitions)
        )
        # Expected scan volume decides the compute fan-out, mirroring
        # the serial path's _PARALLEL_SCAN_ELEMENTS gate: small scans
        # keep a single (caller-thread) consumer — the I/O overlap is
        # the whole win and extra pool dispatch would eat it. Fanned-
        # out consumers come out of the device's worker_threads budget
        # (the worker split), leaving io_threads of it to the I/O
        # stage; a pipeline always needs at least one of each.
        expected_elements = (
            len(partitions)
            * self._config.target_cluster_size
            * self._config.dim
        )
        if expected_elements < _PARALLEL_SCAN_ELEMENTS:
            compute_workers = 1
        else:
            compute_workers = max(
                1,
                min(
                    self._config.device.worker_threads - io_threads,
                    len(partitions),
                ),
            )
        return io_threads, compute_workers

    def _scan_partitions(
        self,
        partitions: list[tuple[int, float]],
        query: np.ndarray,
        k: int,
        row_filter: RowFilter | None,
        quantizer: Quantizer | None = None,
    ) -> tuple[tuple[list[str], np.ndarray], _ScanOutcome]:
        """Algorithm 2's partition scan, down to the K best
        ``(asset_ids, distances)``.

        Every schedule scores each partition through
        :func:`score_partition` into one :class:`ScanState`, float32
        and codes alike, and :meth:`finish_scan` cuts it once:

        - **resident** — a float32 scan whose probes are all cached,
          handed over under one cache lock by
          :meth:`StorageEngine.resident_entries` and scored into one
          array (:meth:`_score_hits`);
        - **pipelined** — a scan with cache-missing probes while cold
          loads are seen to block (:meth:`_scan_pipelined`);
        - **ordered** — every other scan, on this thread
          (:meth:`_scan_ordered`), including every
          ``adaptive_nprobe_margin`` scan, whose admission check needs
          the running K-th distance.
        """
        engine = self._engine
        margin = self._config.adaptive_nprobe_margin
        quantized = quantizer is not None
        scorer = (
            make_code_scorer(query, quantizer, self._config.metric)
            if quantized
            else None
        )
        rerank_pool = max(k, self._config.rerank_factor * k)
        state = ScanState(k, rerank_pool, margin is not None)
        pids = [pid for pid, _ in partitions]
        resident = margin is None and not quantized
        start = time.perf_counter()
        entries = engine.resident_entries(pids) if resident else None
        split = None
        if entries is not None:
            # Masking is CPU work, charged to the compute window as the
            # pipelined path charges it.
            io_s = time.perf_counter() - start
            hits = [(entry, False) for entry in entries]
            self._score_hits(state, hits, query, None, row_filter)
            compute_s = time.perf_counter() - start - io_s
            skipped = depth = 0
        else:
            cold = resident or has_cold_partition(engine, pids, quantized)
            split = self._pipeline_split(partitions) if cold else None
            if split is None:
                timing = self._scan_ordered(
                    state, partitions, query, row_filter, scorer, cold
                )
            else:
                timing = self._scan_pipelined(
                    state, partitions, query, row_filter, scorer, split
                )
            io_s, compute_s, skipped, depth = timing
        merged, reranked = self.finish_scan(state, query)
        return merged, _ScanOutcome(
            vectors_scanned=state.scanned,
            distance_computations=state.computed + reranked,
            rows_filtered=state.filtered,
            scan_mode=quantizer.kind if quantized else "float32",
            candidates_reranked=reranked,
            partitions_skipped=skipped,
            io_time_s=io_s,
            compute_time_s=compute_s,
            pipelined=split is not None,
            max_depth=depth,
        )

    def _score_hits(
        self,
        state: ScanState,
        loaded: list[tuple[CachedPartition, bool]],
        query: np.ndarray,
        scorer,
        row_filter: RowFilter | None,
    ) -> None:
        """Mask cache-resident ``(entry, is_codes)`` partitions, score
        what the masks keep into one distance array and add each
        partition's slice of it to ``state``.

        Above ``_PARALLEL_SCAN_ELEMENTS`` the worker pool fills the
        slices, one partition per task; the kernels are row-stable, so
        the values are the ones the inline pass computes.
        """
        masked = [
            (entry, is_codes, *_masked(entry, row_filter))
            for entry, is_codes in loaded
        ]
        work = [(m, is_codes) for _, is_codes, _, m, _ in masked if len(m)]
        starts = list(accumulate((len(m) for m, _ in work), initial=0))
        dist = np.empty(starts[-1], dtype=np.float32)
        slices = [dist[lo:hi] for lo, hi in zip(starts, starts[1:])]
        metric = self._config.metric

        def fill(item: tuple[np.ndarray, bool], out: np.ndarray) -> None:
            matrix, is_codes = item
            if is_codes:
                out[:] = scorer(matrix)
            else:
                distances_into(query, [matrix], metric, out)

        if (
            self._config.device.worker_threads > 1
            and len(work) > 1
            and dist.size * query.size >= _PARALLEL_SCAN_ELEMENTS
        ):
            list(self._worker_pool().map(fill, work, slices))
        elif scorer is None:
            distances_into(query, [m for m, _ in work], metric, dist)
        else:
            for item, out in zip(work, slices):
                fill(item, out)
        scored = iter(slices)
        for entry, is_codes, rows, matrix, dropped in masked:
            out = next(scored) if len(matrix) else None
            state.add(entry, is_codes, (rows, out, dropped))

    def _scan_ordered(
        self,
        state: ScanState,
        partitions: list[tuple[int, float]],
        query: np.ndarray,
        row_filter: RowFilter | None,
        scorer,
        cold: bool,
    ) -> tuple[float, float, int, int]:
        """Ordered load → score → drop loop on the caller's thread.

        Probes load in centroid-distance order, inside one read
        snapshot when the scan is ``cold`` — one database state and one
        transaction per query. A probe that misses the cache is scored
        as soon as it is loaded, so at most one uncached matrix is
        live. The probes that hit are references into the cache: they
        are scored together after the loop (:meth:`_score_hits`, which
        keeps a large scan's multi-core scoring).

        With ``adaptive_nprobe_margin`` set every probe is scored as it
        loads, and the admission check (:meth:`ScanState.kth`) runs
        before each *load*, so a skipped partition costs neither I/O
        nor a kernel. Single-threaded on purpose: the check is
        order-dependent, which makes this path exactly reproducible
        (the deterministic reference the pipelined admission
        approximates conservatively).

        Returns ``(io seconds, compute seconds, partitions skipped,
        0)`` — the last is the pipelined schedule's queue depth.
        """
        margin = self._config.adaptive_nprobe_margin
        engine = self._engine
        metric = self._config.metric
        quantized = scorer is not None
        hits: list[tuple[CachedPartition, bool]] = []
        io_s = compute_s = 0.0
        skipped = 0
        with engine.read_snapshot() if cold else nullcontext():
            for pid, cdist in partitions:
                if margin is not None and adaptive_skip(
                    cdist, state.kth(), margin
                ):
                    skipped += 1
                    engine.workload.record_skip(pid)
                    continue
                hit = margin is None and not has_cold_partition(
                    engine, (pid,), quantized
                )
                start = time.perf_counter()
                entry, is_codes = engine.load_scan_entry(pid, quantized)
                loaded = time.perf_counter()
                io_s += loaded - start
                if not len(entry):
                    continue
                if hit:
                    hits.append((entry, is_codes))
                    continue
                scored = score_partition(
                    entry, is_codes, row_filter, query, scorer, metric
                )
                state.add(entry, is_codes, scored)
                compute_s += time.perf_counter() - loaded
        start = time.perf_counter()
        self._score_hits(state, hits, query, scorer, row_filter)
        return io_s, compute_s + time.perf_counter() - start, skipped, 0

    def _scan_pipelined(
        self,
        state: ScanState,
        partitions: list[tuple[int, float]],
        query: np.ndarray,
        row_filter: RowFilter | None,
        scorer,
        split: tuple[int, int],
    ) -> tuple[float, float, int, int]:
        """The scan through the I/O–compute pipeline.

        Loads use the scratch-buffer pool for partitions the LRU cache
        would never admit; each compute worker scores into its own
        state, joined into ``state`` after the drain, and releases a
        payload's lease as soon as it has been scored, so at most
        ``depth + compute_workers`` scratch buffers are pinned at once.
        The PQ scorer's ADC table is read-only, safe across workers.
        With ``adaptive_nprobe_margin`` set, compute workers publish
        their bounds to a shared tracker and producers stop admitting
        partitions that can no longer beat the k-th candidate.

        Returns ``(io seconds, compute seconds, partitions skipped,
        queue high-water mark)``.
        """
        engine = self._engine
        metric = self._config.metric
        quantized = scorer is not None
        io_threads, compute_workers = split
        margin = self._config.adaptive_nprobe_margin
        tracker = SharedKthTracker() if margin is not None else None

        def load(item: tuple[int, float]):
            entry, is_codes = engine.load_scan_entry(
                item[0], quantized, use_scratch=True
            )
            return (entry, is_codes) if len(entry) else None

        admit = None
        if tracker is not None:

            def admit(item: tuple[int, float]) -> bool:
                if adaptive_skip(item[1], tracker.value, margin):
                    engine.workload.record_skip(item[0])
                    return False
                return True

        def score(worker: ScanState, payload) -> None:
            entry, is_codes = payload
            try:
                scored = score_partition(
                    entry, is_codes, row_filter, query, scorer, metric
                )
                worker.add(entry, is_codes, scored)
            finally:
                if entry.lease is not None:
                    entry.lease.release()
            if tracker is not None:
                tracker.observe(worker.kth())

        outcome = run_scan_pipeline(
            partitions,
            load,
            state.spawn,
            score,
            io_pool=self._io_worker_pool,
            compute_pool=self._worker_pool,
            io_threads=io_threads,
            compute_workers=compute_workers,
            depth=self._config.pipeline_depth,
            discard=release_scratch_payload,
            admit=admit,
        )
        for worker in outcome.states:
            state.absorb(worker)
        return (
            outcome.io_s,
            outcome.compute_s,
            outcome.skipped,
            outcome.max_depth,
        )

    def finish_scan(
        self, state: ScanState, query: np.ndarray
    ) -> tuple[tuple[list[str], np.ndarray], int]:
        """A finished scan's K best ``(asset_ids, distances)``, and the
        rows reranked.

        One cut over the exact slices. A quantized scan first cuts its
        approximate slices to ``rerank_factor * k`` candidates and
        re-scores those against their float32 vectors, point-fetched by
        id — the small, bounded read that buys exactness back — as one
        more exact slice.
        """
        exact, reranked = state.exact, 0
        if state.approx:
            candidates, _ = rank_slices(state.approx, state.rerank_pool)
            found, matrix = self._engine.fetch_vectors_by_asset_ids(
                candidates
            )
            if found:
                dist = distances_to_one(query, matrix, self._config.metric)
                exact = [(found, None, dist), *exact]
                reranked = len(found)
        return rank_slices(exact, state.k), reranked

    # ------------------------------------------------------------------
    # Quantized (sq8 / pq) scans
    # ------------------------------------------------------------------

    def scan_quantizer(self) -> Quantizer | None:
        """The quantizer driving the fast scan, or None for float32.

        None either because quantization is off, or because no
        quantizer has been trained yet (a database opened with sq8/pq
        but not yet built) — both fall back to the exact float32 scan.
        Non-delta partitions are then read as compact codes and scored
        with the kind-dispatched kernel (block-fused asymmetric for
        SQ8, ADC gather+sum against the query's lookup table for PQ,
        built once per scan). The delta partition (lazily encoded in
        memory once past ``delta_quantize_threshold``) and any
        partition without codes are scanned exactly.
        """
        if not self._config.uses_quantization:
            return None
        return self._engine.load_quantizer()


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
