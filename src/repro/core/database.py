"""The MicroNN embedded vector database facade.

This is the library's public entry point, wiring together the storage
engine, the IVF index, the delta-store, the hybrid query optimizer and
the batch executor behind the small API the paper describes: an
embeddable library any application links to create its own local vector
index (§3).

Typical usage::

    from repro import MicroNN, MicroNNConfig, Eq

    config = MicroNNConfig(dim=128, metric="l2",
                           attributes={"location": "TEXT"})
    with MicroNN.open("photos.db", config) as db:
        db.upsert("img-001", vector, {"location": "Seattle"})
        db.build_index()
        hits = db.search(query_vector, k=10,
                         filters=Eq("location", "Seattle"))

Concurrency contract (paper §3.6): a single writer — upserts, deletes,
maintenance, rebuilds are serialized — with any number of concurrent
readers, each seeing a consistent snapshot (SQLite WAL).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Iterable, Mapping

import numpy as np

from repro.core.config import MicroNNConfig
from repro.core.errors import DatabaseClosedError, FilterError
from repro.core.types import (
    BatchSearchResult,
    BuildReport,
    IndexStats,
    MaintenanceAction,
    MaintenanceReport,
    PlanKind,
    SearchResult,
)
from repro.index.ivf import IVFBuilder
from repro.index.maintenance import IncrementalMaintainer, IndexMonitor
from repro.obs import (
    AuditSummary,
    Event,
    MetricsSnapshot,
    RecallAuditor,
    Recommendation,
    Tracer,
    WorkloadSnapshot,
    build_recommendations,
)
from repro.query import pipeline
from repro.query.batch import BatchQueryExecutor
from repro.query.executor import QueryExecutor, _check_k
from repro.query.filters import Predicate, default_tokenizer
from repro.query.fts import TokenStats
from repro.query.planner import HybridQueryPlanner, PlanDecision
from repro.query.selectivity import (
    SelectivityEstimator,
    collect_statistics,
    load_statistics,
)
from repro.storage.engine import ScrubReport, StorageEngine, VectorRecord
from repro.storage.iomodel import IOSnapshot
from repro.storage.memory import MemorySnapshot


class MicroNN:
    """An on-device, disk-resident, updatable vector database."""

    def __init__(
        self,
        path: str | os.PathLike[str] | None,
        config: MicroNNConfig,
    ) -> None:
        self._config = config
        self._engine = StorageEngine(
            path, config, tokenizer=default_tokenizer
        )
        try:
            self._executor = QueryExecutor(self._engine, config)
            self._batch_executor = BatchQueryExecutor(self._engine, config)
            self._builder = IVFBuilder(self._engine, config)
            self._monitor = IndexMonitor(self._engine, config)
            self._maintainer = IncrementalMaintainer(self._engine, config)
            self._token_stats = TokenStats(self._engine)
            # Shadow recall auditor (repro.obs.audit): constructed only
            # when sampling is on, and attached to the engine so the
            # executor/scheduler funnel and the maintenance flush hook
            # can reach it. Its worker thread starts lazily on the
            # first sampled query.
            self._auditor = None
            if config.audit_sample_rate > 0 and config.telemetry_enabled:
                self._auditor = RecallAuditor(
                    self._executor,
                    self._engine.metrics,
                    self._engine.events,
                    sample_rate=config.audit_sample_rate,
                    max_per_min=config.audit_max_per_min,
                    recall_floor=config.audit_recall_floor,
                    window=config.audit_window,
                    seed=config.seed,
                )
                self._engine.auditor = self._auditor
        except BaseException:
            # A failure after the engine came up must not leak its
            # connections (or the tempdir of an ephemeral database).
            self._engine.close()
            raise
        self._estimator_lock = threading.Lock()
        self._estimator: SelectivityEstimator | None = None
        self._partition_target: int | None = None
        # The concurrent serving scheduler is built lazily on the first
        # async submission — a purely synchronous user never pays for
        # its threads. ``_closed`` (set under the same lock) keeps a
        # racing search_async from resurrecting a scheduler mid-close.
        self._scheduler_lock = threading.Lock()
        self._scheduler = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | os.PathLike[str] | None = None,
        config: MicroNNConfig | None = None,
        *,
        dim: int | None = None,
        **config_kwargs: object,
    ) -> "MicroNN":
        """Open (creating if needed) a MicroNN database.

        Either pass a full :class:`MicroNNConfig`, or pass ``dim`` plus
        any config keyword arguments for a one-liner. ``path=None``
        creates an ephemeral database in a temporary directory that is
        removed on close.
        """
        if config is None:
            if dim is None:
                raise FilterError(
                    "open() needs either a config or at least dim=..."
                )
            config = MicroNNConfig(
                dim=dim, **config_kwargs  # type: ignore[arg-type]
            )
        elif dim is not None or config_kwargs:
            raise FilterError(
                "pass either a config object or keyword arguments, not both"
            )
        return cls(path, config)

    def close(self) -> None:
        """Close all connections; the object is unusable afterwards.

        Deterministic teardown: the serving scheduler drains first
        (new submissions are rejected, queued-but-unadmitted queries
        are cancelled, in-flight futures complete), then both worker
        pools are joined before the storage connections drop — so
        repeated open/close cycles in one process never leak
        ``micronn-*`` threads, and the engine is closed even if a pool
        shutdown raises.
        """
        with self._scheduler_lock:
            self._closed = True
            scheduler, self._scheduler = self._scheduler, None
        try:
            if scheduler is not None:
                scheduler.close()
        finally:
            # The auditor drains before the executor closes: its
            # shadow scans run on the caller-visible engine, so they
            # must finish while the storage connections are alive.
            try:
                if self._auditor is not None:
                    self._auditor.close()
            finally:
                try:
                    self._executor.close()
                finally:
                    try:
                        self._batch_executor.close()
                    finally:
                        self._engine.close()

    def __enter__(self) -> "MicroNN":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def config(self) -> MicroNNConfig:
        return self._config

    @property
    def path(self) -> str:
        return self._engine.path

    @property
    def engine(self) -> StorageEngine:
        """The underlying storage engine (benchmarks introspect it)."""
        return self._engine

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def upsert(
        self,
        asset_id: str,
        vector: np.ndarray,
        attributes: Mapping[str, object] | None = None,
    ) -> None:
        """Insert or replace one asset (paper upsert semantics, §3.6)."""
        self.upsert_batch(
            [VectorRecord(asset_id, np.asarray(vector), attributes or {})]
        )

    def upsert_batch(
        self,
        records: Iterable[VectorRecord | tuple],
    ) -> int:
        """Insert or replace many assets in one write transaction.

        Accepts :class:`VectorRecord` objects or ``(asset_id, vector)``
        / ``(asset_id, vector, attributes)`` tuples. New vectors are
        staged in the delta-store and become visible to queries
        immediately (the delta is scanned by every search).
        """
        normalized = [_as_record(r) for r in records]
        written = self._engine.upsert_batch(normalized)
        self._invalidate_estimates()
        return written

    def delete(self, asset_id: str) -> bool:
        """Delete one asset; returns True if it existed."""
        return self.delete_batch([asset_id]) > 0

    def delete_batch(self, asset_ids: Iterable[str]) -> int:
        """Delete many assets; returns how many vectors were removed."""
        deleted = self._engine.delete_assets(asset_ids)
        if deleted:
            self._invalidate_estimates()
        return deleted

    # ------------------------------------------------------------------
    # Reads (point lookups)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._engine.count_vectors()

    def __contains__(self, asset_id: str) -> bool:
        return self._engine.get_vector(asset_id) is not None

    def get_vector(self, asset_id: str) -> np.ndarray | None:
        return self._engine.get_vector(asset_id)

    def get_attributes(self, asset_id: str) -> dict[str, object] | None:
        return self._engine.get_attributes(asset_id)

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def build_index(self) -> BuildReport:
        """Full (re)clustering of the entire collection (Algorithm 1).

        Also refreshes the optimizer's column statistics — a build is a
        natural ANALYZE point, and the optimizer needs fresh histograms
        to pick hybrid plans well.
        """
        report = self._builder.build()
        self.refresh_statistics()
        return report

    def maintain(
        self, force: MaintenanceAction | None = None
    ) -> MaintenanceReport:
        """Run the index monitor's recommended maintenance (§3.6).

        Incremental flushes drain the delta-store into the nearest
        partitions; a full rebuild re-clusters everything once the
        average partition size has outgrown its threshold. ``force``
        overrides the monitor's recommendation.

        Every cycle also runs the amortized storage-hygiene pass: a
        budgeted partial scrub when ``scrub_budget_bytes`` is set, and
        (on the blobfile backend) blob-file compaction once dead bytes
        reach ``blob_compact_min_dead_ratio`` of the file.
        """
        report = self._maintain_index(force)
        self._background_hygiene()
        return report

    def _maintain_index(
        self, force: MaintenanceAction | None
    ) -> MaintenanceReport:
        # One partition-size scan serves the recommendation, the flush
        # and both of its reports.
        sizes = self._engine.partition_sizes()
        action = force or self._monitor.recommend(sizes)
        if action is MaintenanceAction.NONE:
            stats = self._monitor.stats(sizes)
            return MaintenanceReport(
                action=MaintenanceAction.NONE,
                stats_before=stats,
                stats_after=stats,
            )
        if action is MaintenanceAction.INCREMENTAL_FLUSH:
            report = self._maintainer.flush(sizes)
            self._invalidate_estimates()
            return report
        start = time.perf_counter()
        stats_before = self._monitor.stats(sizes)
        rows_before = self._engine.accountant.rows_written
        self.build_index()
        return MaintenanceReport(
            action=MaintenanceAction.FULL_REBUILD,
            vectors_flushed=stats_before.delta_vectors,
            row_changes=self._engine.accountant.rows_written - rows_before,
            duration_s=time.perf_counter() - start,
            stats_before=stats_before,
            stats_after=self._monitor.stats(),
        )

    def _background_hygiene(self) -> None:
        """Amortized hygiene piggy-backed on every maintenance cycle.

        Both halves are budgeted so a cycle never stalls on a full
        cold read of the index: the partial scrub verifies at most
        ``scrub_budget_bytes`` of stored payloads (round-robin, with a
        persisted cursor), and compaction only triggers once the blob
        file's dead-byte ratio crosses the configured threshold — and
        is skipped while the live set exceeds
        ``blob_compact_budget_bytes`` (when set), bounding the copy
        work of one cycle.
        """
        cfg = self._config
        if cfg.scrub_budget_bytes is not None:
            self._engine.scrub(budget_bytes=cfg.scrub_budget_bytes)
        dead, total = self._engine.blob_dead_bytes()
        if total <= 0 or dead <= 0:
            return
        if dead / total < cfg.blob_compact_min_dead_ratio:
            return
        live = total - dead
        if (
            cfg.blob_compact_budget_bytes is not None
            and live > cfg.blob_compact_budget_bytes
        ):
            return
        self._engine.compact_storage()

    def index_stats(self) -> IndexStats:
        stats = self._monitor.stats()
        if self._auditor is None:
            return stats
        audit = self._auditor.summary()
        return dataclasses.replace(
            stats,
            audited_queries=audit.audited_queries,
            audit_recall_mean=audit.mean_recall,
            recall_dips=audit.recall_dips,
        )

    def recommended_action(self) -> MaintenanceAction:
        return self._monitor.recommend()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
        trace: bool = False,
    ) -> SearchResult:
        """Nearest-neighbour search (Algorithm 2 + hybrid plans, §3.3-3.5).

        Parameters
        ----------
        query:
            Query vector of the configured dimensionality.
        k:
            Number of neighbours to return.
        nprobe:
            IVF partitions to probe (defaults to the config value); the
            latency/recall knob of the paper.
        filters:
            Optional attribute predicate. Without ``plan``, the hybrid
            optimizer picks pre- vs post-filtering from selectivity
            estimates (§3.5.1).
        exact:
            Force exhaustive exact KNN (100% recall).
        plan:
            Force :data:`PlanKind.PRE_FILTER` or
            :data:`PlanKind.POST_FILTER` for a filtered query,
            bypassing the optimizer.
        trace:
            Record a per-query span trace: the returned
            :attr:`SearchResult.trace` holds the span forest, and
            ``result.trace.to_chrome_trace()`` renders Chrome-trace
            JSON loadable in Perfetto / ``chrome://tracing``.
        """
        nprobe = nprobe or self._config.default_nprobe
        tracer = Tracer() if trace else None
        if exact:
            return self._executor.search_exact(
                query, k, predicate=filters, tracer=tracer
            )
        if filters is None:
            return self._executor.search_ann(query, k, nprobe, tracer=tracer)
        return self._search_hybrid(query, k, nprobe, filters, plan, tracer)

    def _search_hybrid(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        filters: Predicate,
        plan: PlanKind | None,
        tracer: Tracer | None = None,
    ) -> SearchResult:
        decision: PlanDecision | None = None
        if plan is None:
            decision = self.plan_for(filters, nprobe)
            plan = decision.kind
        if plan is PlanKind.PRE_FILTER:
            result = self._executor.search_prefilter(
                query, k, filters, tracer=tracer
            )
        elif plan is PlanKind.POST_FILTER:
            result = self._executor.search_postfilter(
                query, k, nprobe, filters, tracer=tracer
            )
        else:
            raise FilterError(
                f"plan must be PRE_FILTER or POST_FILTER, got {plan}"
            )
        if decision is not None:
            stats = dataclasses.replace(
                result.stats,
                estimated_selectivity=decision.estimated_selectivity,
                ivf_selectivity=decision.ivf_selectivity,
            )
            result = SearchResult(
                neighbors=result.neighbors,
                stats=stats,
                trace=result.trace,
            )
        return result

    def plan_for(
        self, filters: Predicate, nprobe: int | None = None
    ) -> PlanDecision:
        """Expose the optimizer's decision without running the query."""
        nprobe = nprobe or self._config.default_nprobe
        planner = HybridQueryPlanner(
            self._get_estimator(),
            total_vectors=len(self),
            target_partition_size=self._current_partition_target(),
        )
        return planner.choose(filters, nprobe)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
    ) -> BatchSearchResult:
        """Batch ANN with multi-query optimization (§3.4)."""
        nprobe = nprobe or self._config.default_nprobe
        return self._batch_executor.search_batch(queries, k, nprobe)

    # ------------------------------------------------------------------
    # Concurrent serving (repro.serve)
    # ------------------------------------------------------------------

    def _get_scheduler(self):
        with self._scheduler_lock:
            if self._scheduler is None:
                if self._closed or not self._engine.is_open:
                    raise DatabaseClosedError("database is closed")
                from repro.serve.scheduler import QueryScheduler

                self._scheduler = QueryScheduler(
                    self._engine, self._executor, self._config
                )
            return self._scheduler

    def search_async(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
    ):
        """Schedule a search; returns a :class:`concurrent.futures.Future`.

        Same parameters and plan selection as :meth:`search`, and the
        resolved result is bit-identical to what the serial call would
        return — the scheduler reuses the executor's kernels and
        merges, it only changes *when* partitions are read. (The one
        carve-out is ``adaptive_nprobe_margin``: its pruning depends
        on scoring order on every concurrent path, so adaptive runs
        are recall-equivalent within the margin rather than
        bit-identical.) What the async path adds: many in-flight
        queries at once, cross-query read coalescing on overlapping
        probe sets (see ``QueryStats.io_shared_hits``), and bounded
        admission (``max_inflight_queries`` + scratch-memory
        back-pressure, waits surfaced as
        ``QueryStats.queue_wait_ms``).

        Invalid inputs (bad dimension, bad k) raise here synchronously;
        execution errors surface through the future.
        """
        nprobe = nprobe or self._config.default_nprobe
        # Input validation stays synchronous on every plan (call plans
        # would otherwise defer the error to the future); the
        # canonicalized array is what every downstream path consumes,
        # so validation happens exactly once.
        query = self._executor.as_query(query)
        _check_k(k)
        scheduler = self._get_scheduler()
        if exact:
            return scheduler.submit_call(
                lambda: self._executor.search_exact(
                    query, k, predicate=filters
                )
            )
        if filters is None:
            return scheduler.submit(query, k, nprobe)
        if plan is not None and plan not in (
            PlanKind.PRE_FILTER,
            PlanKind.POST_FILTER,
        ):
            raise FilterError(
                f"plan must be PRE_FILTER or POST_FILTER, got {plan}"
            )

        def setup():
            # Runs on the scheduler's compute pool at admission: the
            # optimizer's selectivity estimate is real storage work
            # that must neither block the submitting thread nor escape
            # admission control.
            decision: PlanDecision | None = None
            chosen = plan
            if chosen is None:
                decision = self.plan_for(filters, nprobe)
                chosen = decision.kind
            extra = (
                {
                    "estimated_selectivity": (
                        decision.estimated_selectivity
                    ),
                    "ivf_selectivity": decision.ivf_selectivity,
                }
                if decision is not None
                else None
            )
            if chosen is PlanKind.PRE_FILTER:
                return (
                    "call",
                    lambda: self._executor.search_prefilter(
                        query, k, filters
                    ),
                    extra,
                )
            return (
                "scan",
                self._executor.row_filter_for(filters),
                extra,
            )

        return scheduler.submit(
            query, k, nprobe, plan=PlanKind.POST_FILTER, setup=setup
        )

    async def search_asyncio(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
    ) -> SearchResult:
        """Awaitable :meth:`search` for asyncio applications.

        Bridges the scheduler's future onto the running event loop, so
        ``await db.search_asyncio(q)`` composes with ``asyncio.gather``
        for fan-out without blocking the loop.
        """
        import asyncio

        return await asyncio.wrap_future(
            self.search_async(
                query,
                k=k,
                nprobe=nprobe,
                filters=filters,
                exact=exact,
                plan=plan,
            )
        )

    def serve_session(self):
        """Open a :class:`repro.serve.Session` over this database."""
        from repro.serve.session import Session

        self._get_scheduler()
        return Session(self)

    # ------------------------------------------------------------------
    # Statistics / optimizer support
    # ------------------------------------------------------------------

    def refresh_statistics(self) -> None:
        """Re-run the ANALYZE-style per-column statistics collection."""
        if self._config.attributes:
            collect_statistics(self._engine, self._config)
        self._invalidate_estimates()

    def _get_estimator(self) -> SelectivityEstimator:
        with self._estimator_lock:
            if self._estimator is None:
                stats = load_statistics(self._engine)
                self._estimator = SelectivityEstimator(
                    stats,
                    token_stats=self._token_stats,
                    total_rows=self._engine.count_attribute_rows()
                    or len(self),
                )
            return self._estimator

    def _invalidate_estimates(self) -> None:
        with self._estimator_lock:
            self._estimator = None
            self._partition_target = None
        self._token_stats.invalidate()

    def _current_partition_target(self) -> int:
        """The p of F̂_IVF: actual average partition size when indexed.

        Two catalog counts, cached beside the selectivity estimator
        until the next write / build / maintain — the planner runs on
        every filtered query and needs nothing else of ``IndexStats``.
        """
        with self._estimator_lock:
            if self._partition_target is None:
                partitions = self._engine.centroid_count()
                indexed = self._engine.count_vectors(include_delta=False)
                self._partition_target = (
                    max(1, round(indexed / partitions))
                    if partitions > 0 and indexed > 0
                    else self._config.target_cluster_size
                )
            return self._partition_target

    # ------------------------------------------------------------------
    # Cache scenarios and telemetry (§4.1.4)
    # ------------------------------------------------------------------

    def purge_caches(self) -> None:
        """Cold-start scenario: drop all cached pages and blocks."""
        self._engine.purge_caches()

    def compact(self) -> int:
        """Reclaim disk space left by deletes and partition moves.

        Returns the total number of bytes reclaimed. On-device storage
        is shared and flash-constrained (§2.1), so periodic compaction
        after heavy delete traffic matters. On the blobfile backend
        this compacts the append-only blob file first (copying live
        records into a fresh generation), then vacuums the SQLite
        file; on the other backends only the vacuum applies.
        """
        return self._engine.compact_storage() + self._engine.vacuum()

    def check_integrity(self) -> list[str]:
        """Verify storage health; returns a list of problems (empty =
        healthy). Covers SQLite page integrity plus MicroNN invariants
        (orphaned partition assignments, impossible centroid counts).
        """
        return self._engine.integrity_check()

    def verify(self, budget_bytes: int | None = None) -> ScrubReport:
        """Checksum-verify partition blobs and the quantizer.

        Read-only scrub: recomputes the CRC32 of each partition's
        vectors (and codes, when quantized) against the stored
        checksums. Corrupt partitions are quarantined — queries keep
        answering without them and flag themselves ``degraded`` — and
        the returned :class:`ScrubReport` says exactly what is wrong.

        ``budget_bytes`` limits one call to roughly that many stored
        payload bytes, resuming round-robin where the previous
        budgeted call stopped (the amortized pass :meth:`maintain`
        runs when ``scrub_budget_bytes`` is configured).
        """
        return self._engine.scrub(budget_bytes=budget_bytes)

    def repair(self) -> ScrubReport:
        """Scrub, then fix what can be fixed.

        Corrupt code blobs are rebuilt bit-identically from the intact
        float vectors; a corrupt quantizer payload is dropped (scans
        fall back to full precision until the next build retrains it);
        partitions whose *float* blob is corrupt are unrecoverable and
        dropped. Afterwards the quarantine list is cleared and caches
        purged, so search results are bit-identical to an uncorrupted
        database minus any dropped partitions.
        """
        return self._engine.repair()

    @property
    def quarantined_partitions(self) -> tuple[int, ...]:
        """Partitions currently served empty due to checksum failures."""
        return self._engine.quarantined_partitions

    def explain(
        self,
        filters: Predicate,
        nprobe: int | None = None,
        k: int = 10,
    ) -> str:
        """Human-readable account of the optimizer's plan choice.

        The EXPLAIN analog for hybrid queries: shows both candidate
        plans, the selectivity estimates, the F̂_IVF threshold, how the
        predicate will be evaluated (``filter: columnar(bucket)`` over
        cached attribute columns, or ``filter: sql (Match)`` through
        the qualifying-set fallback) and which side won — without
        executing anything.
        """
        nprobe = nprobe or self._config.default_nprobe
        decision = self.plan_for(filters, nprobe)
        total = len(self)
        how = self.filter_description(filters, decision)
        lines = [
            f"hybrid query plan (k={k}, nprobe={nprobe}, |R|={total})",
            f"  partition scan:   {self.scan_mode_description(k)}",
            f"  scan pipeline:    {self.pipeline_description()}",
            f"  adaptive nprobe:  {self.adaptive_nprobe_description()}",
            f"  serving:          {self.serving_description()}",
            (
                "  attribute filter: estimated selectivity "
                f"{decision.estimated_selectivity:.6f} "
                f"(~{decision.estimated_cardinality} rows)"
            ),
            (
                "  IVF probe:        selectivity threshold F_IVF = "
                f"{decision.ivf_selectivity:.6f}"
            ),
            f"  filter:           {how}",
        ]
        quarantined = self._engine.quarantined_partitions
        if quarantined:
            shown = ", ".join(str(p) for p in quarantined[:8])
            if len(quarantined) > 8:
                shown += ", ..."
            lines.append(
                f"  DEGRADED:         {len(quarantined)} partition(s) "
                f"quarantined by checksum failures [{shown}] — served "
                "empty until repair()"
            )
        if decision.kind is PlanKind.PRE_FILTER:
            lines.append(
                "  chosen plan: PRE-FILTER — the filter narrows the "
                "search more than the index; evaluate it first, then "
                "brute-force the qualifying vectors (100% recall)."
            )
        else:
            lines.append(
                "  chosen plan: POST-FILTER — the index narrows the "
                "search more than the filter; run the ANN scan and "
                "apply the filter during partition retrieval."
            )
        return "\n".join(lines)

    def filter_description(
        self, filters: Predicate, decision: PlanDecision
    ) -> str:
        """How the chosen plan evaluates ``filters``: in the scan,
        ``columnar(...)`` over cached attribute columns or ``sql
        (...)`` through the qualifying-set fallback; the pre-filter
        plan evaluates it through SQL whatever its shape."""
        in_scan = self._executor.row_filter_for(filters).describe()
        if decision.kind is PlanKind.PRE_FILTER:
            return f"sql (pre-filter plan; post-filter: {in_scan})"
        return in_scan

    def scan_mode(self) -> str:
        """How ANN scans read partitions: "float32", "sq8" or "pq".

        A quantized mode requires both the config flag and a trained
        quantizer; a freshly opened (or never-built) sq8/pq database
        reports "float32" because its scans fall back to full
        precision until the first build trains the quantizer.
        """
        if (
            self._config.uses_quantization
            and self._engine.load_quantizer() is not None
        ):
            return self._config.quantization
        return "float32"

    def pipeline_description(self) -> str:
        """Whether the next cache-missing scan would pipeline, and why.

        The decision is :func:`repro.query.pipeline.pipeline_engages`,
        read here without running anything; it moves with the engine's
        observed seconds per cold partition load. The per-query truth
        lives in :class:`QueryStats`: ``scan_pipelined`` says whether
        the pipeline actually ran, and ``io_time_ms`` /
        ``compute_time_ms`` are summed thread times, so their total
        exceeding the query latency is the direct signature of
        I/O–compute overlap.
        """
        depth = self._config.pipeline_depth
        if depth < 1:
            return "off — serial load-then-score scans (pipeline_depth=0)"
        threshold_ms = pipeline.PIPELINE_MIN_LOAD_S * 1e3
        load_s = self._engine.cold_load_seconds
        observed = (
            "no cold partition load observed yet"
            if load_s is None
            else f"cold loads take {load_s * 1e3:.2f} ms each"
        )
        # (2: any scan of more than one partition.)
        if not pipeline.pipeline_engages(self._engine, depth, 2):
            return (
                f"standing by — {observed}; scans with cache-missing "
                "probes load and score on the caller's thread until "
                f"loads block >= {threshold_ms:g} ms each"
            )
        return (
            f"I/O–compute overlap on scans with cache-missing probes — "
            f"{observed} (>= {threshold_ms:g} ms): depth={depth}, "
            f"{self._config.io_prefetch_threads} I/O thread(s), up to "
            f"{self._config.device.worker_threads} compute workers"
        )

    def adaptive_nprobe_description(self) -> str:
        """One-line account of the adaptive early-termination knob."""
        margin = self._config.adaptive_nprobe_margin
        if margin is None:
            return (
                "off — every probe-set partition is scanned "
                "(adaptive_nprobe_margin=None)"
            )
        return (
            f"margin {margin:g} — stop admitting partitions once the "
            f"centroid distance exceeds the k-th candidate by "
            f"{margin:g}x (QueryStats.partitions_skipped counts them)"
        )

    def serving_description(self) -> str:
        """One-line account of the concurrent serving configuration."""
        return (
            f"up to {self._config.max_inflight_queries} in-flight "
            f"queries, {self._config.resolved_serve_io_threads} shared "
            "I/O thread(s), cross-query read coalescing on overlapping "
            "probe sets (search_async / serve_session)"
        )

    def scan_mode_description(self, k: int = 10) -> str:
        """One-line human-readable account of the active scan mode."""
        mode = self.scan_mode()
        factor = self._config.rerank_factor
        if mode == "sq8":
            return (
                "sq8 — int8 codes (1 byte/dim, ~4x less partition I/O), "
                f"exact rerank of top {factor}*k={factor * k} candidates"
            )
        if mode == "pq":
            m = self._config.pq_num_subvectors
            ratio = 4.0 * self._config.dim / m
            return (
                f"pq — ADC lookup-table scan over {m}x256 codebooks "
                f"({m} bytes/vector, ~{ratio:.0f}x less partition I/O), "
                f"exact rerank of top {factor}*k={factor * k} candidates"
            )
        if self._config.uses_quantization:
            return (
                f"float32 — {self._config.quantization} configured but "
                "no quantizer trained yet (run build_index() or "
                "maintain())"
            )
        return "float32 — full-precision partition scans"

    def warm_cache(
        self, queries: np.ndarray, k: int = 10, nprobe: int | None = None
    ) -> None:
        """Warm-cache scenario: run warm-up queries before measuring."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        for row in q:
            self.search(row, k=k, nprobe=nprobe)

    def memory(self) -> MemorySnapshot:
        """Tracked resident memory (the paper's RSS analog)."""
        return self._engine.tracker.snapshot()

    def io(self) -> IOSnapshot:
        """Cumulative I/O counters (bytes read, rows written, cache)."""
        return self._engine.accountant.snapshot()

    def metrics(self) -> MetricsSnapshot:
        """Immutable snapshot of the telemetry registry.

        Export it with :meth:`MetricsSnapshot.to_prometheus` (text
        exposition an agent can scrape) or
        :meth:`MetricsSnapshot.to_json`. Empty (but valid) when
        ``telemetry_enabled=False``.
        """
        return self._engine.metrics.snapshot()

    def events(
        self, limit: int | None = None, kind: str | None = None
    ) -> tuple[Event, ...]:
        """The newest structured events, oldest-first.

        ``kind`` filters to one event kind (see
        :data:`repro.obs.EVENT_KINDS`); ``limit`` caps how many of the
        newest matching events are returned.
        """
        return self._engine.events.tail(limit=limit, kind=kind)

    def audit_summary(self) -> AuditSummary | None:
        """Aggregate state of the shadow recall auditor.

        ``None`` when auditing is off (``audit_sample_rate=0`` or
        telemetry disabled). Pending shadow audits are drained first so
        the summary reflects every query sampled so far.
        """
        if self._auditor is None:
            return None
        self._auditor.flush()
        return self._auditor.summary()

    def workload(self) -> WorkloadSnapshot:
        """Bounded per-partition heatmap + query workload sketch."""
        return self._engine.workload.snapshot()

    def advise(self) -> tuple[Recommendation, ...]:
        """Structured tuning recommendations from observed behaviour.

        Combines the shadow auditor's measured recall, the partition
        workload heatmap, and index stats into concrete knob
        suggestions (``default_nprobe``, ``rerank_factor``,
        ``adaptive_nprobe_margin``, cache sizing, quantization scheme),
        each carrying the evidence it was derived from.
        """
        audit = self.audit_summary()
        return build_recommendations(
            self._config,
            self.index_stats(),
            self.metrics(),
            audit,
            self.workload(),
        )


def _as_record(record: VectorRecord | tuple) -> VectorRecord:
    if isinstance(record, VectorRecord):
        return record
    if isinstance(record, tuple):
        if len(record) == 2:
            asset_id, vector = record
            return VectorRecord(str(asset_id), np.asarray(vector), {})
        if len(record) == 3:
            asset_id, vector, attributes = record
            return VectorRecord(
                str(asset_id), np.asarray(vector), dict(attributes or {})
            )
    raise FilterError(
        "records must be VectorRecord or (asset_id, vector[, attributes])"
    )
