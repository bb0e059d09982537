"""Gather stage of scatter-gather search: merge + stats aggregation.

Every read on a :class:`~repro.shard.ShardedMicroNN` fans out to all
shards and comes back through here. Two jobs:

1. **Top-k merge.** Each shard returns its own ranked top-k; the
   global top-k is :func:`repro.query.heap.rank_scored` over them — the
   *same* cut the unsharded executor makes over its scored partitions —
   so the sharded ordering contract is the unsharded one by
   construction: rank by ``(distance, asset_id)``,
   ties broken lexicographically on the id.
   Shards partition the id space disjointly (hash routing), so no
   cross-shard duplicates exist; the merge's dedup is kept anyway as a
   cheap invariant net for custom routers that might violate
   disjointness.

2. **Stats aggregation.** Physical cost counters (bytes, rows, cache
   traffic, io/compute thread time) are *sums* over shards — the work
   genuinely happened on every shard. Wall-clock ``latency_s`` is the
   caller-measured scatter-gather wall time (never a sum: shards run
   concurrently). ``queue_wait_ms`` is the max across shards — the
   slowest shard's admission wait is the one the caller observed.
   Per-shard attribution stays available on the result
   (:class:`ShardedSearchResult.shard_stats`).

The merge operates on *surfaced* distances (the public
``Neighbor.distance``) — all a shard result exposes. That is safe
because the single-database pipeline surfaces through the same
canonical ordering (``repro.query.heap.surfaced_neighbors``: rank by
surfaced ``(distance, asset_id)``, re-sorting the rare pair of
distinct squared values that ``sqrt`` collapses to one float32), so
sharded and unsharded databases order identically even across sqrt
collisions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.types import (
    BatchSearchResult,
    BuildReport,
    IndexStats,
    MaintenanceAction,
    MaintenanceReport,
    Neighbor,
    PlanKind,
    QueryStats,
    SearchResult,
)
from repro.query.heap import neighbors, rank_scored

#: Severity order of maintenance actions; aggregation and the
#: facade's ``recommended_action`` both report the heaviest.
ACTION_SEVERITY = {
    MaintenanceAction.NONE: 0,
    MaintenanceAction.INCREMENTAL_FLUSH: 1,
    MaintenanceAction.FULL_REBUILD: 2,
}


@dataclass(frozen=True, slots=True)
class ShardedSearchResult(SearchResult):
    """A merged scatter-gather result with per-shard attribution.

    Substitutable anywhere a :class:`SearchResult` is expected —
    ``stats`` is the aggregate (``stats.shards_probed`` says how wide
    the scatter was) — plus ``shard_stats``, the untouched per-shard
    :class:`QueryStats` in shard order for per-shard bytes/io/compute
    attribution.

    ``degraded_shards`` names the shard database files that could not
    be searched (dead, corrupt, or over their per-shard timeout) and
    were therefore EXCLUDED from this merge: the result is the exact
    top-k over the surviving shards only, and ``stats.degraded`` is
    set. Empty on a healthy scatter.
    """

    shard_stats: tuple[QueryStats, ...] = ()
    degraded_shards: tuple[str, ...] = ()


def merge_neighbors(
    per_shard: Sequence[Sequence[Neighbor]], k: int
) -> tuple[Neighbor, ...]:
    """Merge per-shard neighbor lists into the global top-k.

    A list may be longer than ``k`` and may repeat an id: the cut sees
    every row and keeps each id's closest occurrence.
    """
    hits = [n for shard in per_shard for n in shard]
    asset_ids, distances = rank_scored(
        np.array([n.distance for n in hits], dtype=np.float64),
        np.zeros(1, dtype=np.int64),
        [[n.asset_id for n in hits]],
        k,
    )
    return neighbors(asset_ids, distances.tolist())


def merge_search_results(
    results: Sequence[SearchResult],
    k: int,
    latency_s: float,
    degraded_shards: Sequence[str] = (),
) -> ShardedSearchResult:
    """Gather one query's per-shard results into the global result.

    ``degraded_shards`` names shards that produced no result (dead /
    corrupt / timed out); they are reflected on the result and force
    the aggregate's ``degraded`` flag.
    """
    if not results:
        raise ValueError("at least one shard result is required")
    return ShardedSearchResult(
        neighbors=merge_neighbors([r.neighbors for r in results], k),
        stats=aggregate_query_stats(
            [r.stats for r in results],
            latency_s,
            degraded=bool(degraded_shards),
        ),
        shard_stats=tuple(r.stats for r in results),
        degraded_shards=tuple(degraded_shards),
    )


def merge_batch_results(
    per_shard: Sequence[BatchSearchResult],
    k: int,
    latency_s: float,
) -> BatchSearchResult:
    """Gather a batch's per-shard results, query by query."""
    if not per_shard:
        raise ValueError("at least one shard batch is required")
    num_queries = len(per_shard[0].results)
    if any(len(b.results) != num_queries for b in per_shard):
        raise ValueError("shards returned different batch sizes")
    merged = [
        merge_search_results(
            [batch.results[i] for batch in per_shard],
            k,
            # Per-query latency inside a batch is not individually
            # meaningful (MQO amortizes scans); surface the slowest
            # shard's per-query figure, as a serial caller would see.
            max(
                batch.results[i].stats.latency_s for batch in per_shard
            ),
        )
        for i in range(num_queries)
    ]
    batch_stats = (
        aggregate_query_stats(
            [
                b.stats
                for b in per_shard
                if b.stats is not None
            ],
            latency_s,
        )
        if any(b.stats is not None for b in per_shard)
        else None
    )
    return BatchSearchResult(
        results=merged,
        partitions_scanned=sum(b.partitions_scanned for b in per_shard),
        partitions_requested=sum(
            b.partitions_requested for b in per_shard
        ),
        latency_s=latency_s,
        stats=batch_stats,
    )


def aggregate_query_stats(
    per_shard: Sequence[QueryStats],
    latency_s: float,
    degraded: bool = False,
) -> QueryStats:
    """Fold per-shard execution traces into one scatter-wide trace.

    ``degraded`` forces the aggregate's degraded flag even when every
    *surviving* shard was healthy (the caller dropped a shard).
    """
    if not per_shard:
        raise ValueError("at least one shard stats is required")
    return QueryStats(
        plan=_dominant_plan(per_shard),
        nprobe=max(s.nprobe for s in per_shard),
        partitions_scanned=sum(s.partitions_scanned for s in per_shard),
        vectors_scanned=sum(s.vectors_scanned for s in per_shard),
        distance_computations=sum(
            s.distance_computations for s in per_shard
        ),
        rows_filtered=sum(s.rows_filtered for s in per_shard),
        cache_hits=sum(s.cache_hits for s in per_shard),
        cache_misses=sum(s.cache_misses for s in per_shard),
        bytes_read=sum(s.bytes_read for s in per_shard),
        latency_s=latency_s,
        estimated_selectivity=_uniform_or_none(
            [s.estimated_selectivity for s in per_shard]
        ),
        ivf_selectivity=_uniform_or_none(
            [s.ivf_selectivity for s in per_shard]
        ),
        scan_mode=_uniform_scan_mode(per_shard),
        candidates_reranked=sum(
            s.candidates_reranked for s in per_shard
        ),
        io_time_ms=sum(s.io_time_ms for s in per_shard),
        compute_time_ms=sum(s.compute_time_ms for s in per_shard),
        scan_pipelined=any(s.scan_pipelined for s in per_shard),
        partitions_skipped=sum(s.partitions_skipped for s in per_shard),
        io_shared_hits=sum(s.io_shared_hits for s in per_shard),
        queue_wait_ms=max(s.queue_wait_ms for s in per_shard),
        shards_probed=len(per_shard),
        partitions_quarantined=sum(
            s.partitions_quarantined for s in per_shard
        ),
        degraded=degraded or any(s.degraded for s in per_shard),
    )


def aggregate_index_stats(
    per_shard: Sequence[IndexStats],
) -> IndexStats:
    """Fold per-shard index snapshots into one collection-wide view."""
    if not per_shard:
        raise ValueError("at least one shard stats is required")
    num_partitions = sum(s.num_partitions for s in per_shard)
    indexed = sum(s.indexed_vectors for s in per_shard)
    sized = [s for s in per_shard if s.num_partitions > 0]
    # The aggregated rebuild baseline weights each shard's recorded
    # baseline by its partition count, so partition_growth on the
    # aggregate tracks the same fleet-wide drift the per-shard
    # monitors act on.
    baseline = (
        sum(
            s.baseline_avg_partition_size * s.num_partitions
            for s in sized
        )
        / num_partitions
        if num_partitions > 0
        else 0.0
    )
    code_bytes = max(s.code_bytes_per_vector for s in per_shard)
    return IndexStats(
        total_vectors=sum(s.total_vectors for s in per_shard),
        indexed_vectors=indexed,
        delta_vectors=sum(s.delta_vectors for s in per_shard),
        num_partitions=num_partitions,
        avg_partition_size=(
            indexed / num_partitions if num_partitions > 0 else 0.0
        ),
        max_partition_size=max(
            (s.max_partition_size for s in sized), default=0
        ),
        min_partition_size=min(
            (s.min_partition_size for s in sized), default=0
        ),
        baseline_avg_partition_size=baseline,
        quantization=per_shard[0].quantization,
        quantized_vectors=sum(s.quantized_vectors for s in per_shard),
        code_bytes_per_vector=code_bytes,
        compression_ratio=max(
            s.compression_ratio for s in per_shard
        ),
        # The manifest pins one backend for every shard.
        storage_backend=per_shard[0].storage_backend,
        # The manifest's config applies fleet-wide, so telemetry is
        # only "on" for the collection when every shard records.
        telemetry_enabled=all(s.telemetry_enabled for s in per_shard),
        quarantined_partitions=sum(
            s.quarantined_partitions for s in per_shard
        ),
        events_logged=sum(s.events_logged for s in per_shard),
        slow_queries=sum(s.slow_queries for s in per_shard),
        storage_dead_bytes=sum(
            s.storage_dead_bytes for s in per_shard
        ),
        audited_queries=sum(s.audited_queries for s in per_shard),
        # Count-weighted so a heavily-audited shard dominates the
        # collection-wide recall estimate.
        audit_recall_mean=(
            sum(
                s.audit_recall_mean * s.audited_queries
                for s in per_shard
            )
            / sum(s.audited_queries for s in per_shard)
            if any(s.audited_queries for s in per_shard)
            else 0.0
        ),
        recall_dips=sum(s.recall_dips for s in per_shard),
    )


def aggregate_build_reports(
    per_shard: Sequence[BuildReport], duration_s: float
) -> BuildReport:
    """Fold per-shard build reports (duration is the fan-out's wall)."""
    if not per_shard:
        raise ValueError("at least one shard report is required")
    return BuildReport(
        num_vectors=sum(r.num_vectors for r in per_shard),
        num_partitions=sum(r.num_partitions for r in per_shard),
        iterations=max(r.iterations for r in per_shard),
        minibatch_size=max(r.minibatch_size for r in per_shard),
        row_changes=sum(r.row_changes for r in per_shard),
        duration_s=duration_s,
        # Shards build concurrently, so the fleet's peak is bounded by
        # the sum (all shards at their peak at once) — report that
        # conservative envelope rather than a single shard's peak.
        peak_memory_bytes=sum(r.peak_memory_bytes for r in per_shard),
    )


def aggregate_maintenance_reports(
    per_shard: Sequence[MaintenanceReport], duration_s: float
) -> MaintenanceReport:
    """Fold per-shard maintenance outcomes into one fleet report.

    The aggregate ``action`` is the *heaviest* action any shard took
    (rebuild > flush > none): that is what capacity planning cares
    about, and per-shard reports remain available to callers that fan
    out themselves.
    """
    if not per_shard:
        raise ValueError("at least one shard report is required")
    action = max(
        (r.action for r in per_shard), key=ACTION_SEVERITY.__getitem__
    )
    befores = [r.stats_before for r in per_shard]
    afters = [r.stats_after for r in per_shard]
    return MaintenanceReport(
        action=action,
        vectors_flushed=sum(r.vectors_flushed for r in per_shard),
        centroids_updated=sum(r.centroids_updated for r in per_shard),
        row_changes=sum(r.row_changes for r in per_shard),
        duration_s=duration_s,
        stats_before=(
            aggregate_index_stats(befores)
            if all(s is not None for s in befores)
            else None
        ),
        stats_after=(
            aggregate_index_stats(afters)
            if all(s is not None for s in afters)
            else None
        ),
    )


def _dominant_plan(per_shard: Sequence[QueryStats]) -> PlanKind:
    """The aggregate's plan label when shards may disagree.

    Unfiltered scatters are uniform (every shard runs ANN / EXACT).
    Hybrid queries let each shard's optimizer choose from its *own*
    selectivity estimates, so shards can legitimately split between
    pre- and post-filtering; the aggregate reports the most common
    plan, ties broken toward the earliest shard running it — a
    deterministic label, with the full per-shard truth in
    ``ShardedSearchResult.shard_stats``.
    """
    plans = [s.plan for s in per_shard]
    counts = Counter(plans)
    return max(counts, key=lambda p: (counts[p], -plans.index(p)))


def _uniform_scan_mode(per_shard: Sequence[QueryStats]) -> str:
    modes = {s.scan_mode for s in per_shard}
    if len(modes) == 1:
        return modes.pop()
    # Transiently possible: some shards' quantizers are trained while
    # others still scan float32 (e.g. mid-rolling-build).
    return "mixed"


def _uniform_or_none(values: Sequence[float | None]) -> float | None:
    present = {v for v in values if v is not None}
    if len(present) == 1:
        return present.pop()
    return None
