"""Bounded partition access heatmaps and query-shape sketches.

Metrics (:mod:`repro.obs.metrics`) aggregate *how much* work the engine
did; the workload monitor records *where* and *in what shape* so the
tuning advisor (:mod:`repro.obs.advisor`) can justify a recommendation
with observed traffic rather than folklore:

- a **heatmap** of per-partition access — scan count, bytes pulled off
  storage, cache temperature (hot hits vs cold misses), quarantine
  hits, and adaptive-nprobe skips — bounded to ``max_partitions``
  entries with least-recently-touched eviction, so a million-partition
  database cannot grow an unbounded side table;
- a **sketch** of query shapes — the k, nprobe, plan, and observed
  post-filter selectivity distributions — fed by the same
  per-query funnel that populates the metric families.

Cost model mirrors the rest of ``repro.obs``: a disabled monitor makes
every ``record_*`` call a single attribute check; an enabled one takes
one small lock per partition load / finished query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "PartitionHeat",
    "WorkloadSketch",
    "WorkloadSnapshot",
    "WorkloadMonitor",
]


@dataclass(frozen=True, slots=True)
class PartitionHeat:
    """Immutable per-partition access snapshot (one heatmap row)."""

    partition_id: int
    #: Times the partition was consulted by a scan (hot or cold).
    scans: int
    #: Stored bytes physically read for it (cold loads only).
    bytes_read: int
    #: Loads served from the partition/codes cache.
    hot_hits: int
    #: Loads that touched storage.
    cold_misses: int
    #: Probe-set appearances adaptive early termination skipped.
    skips: int
    #: Loads that found the partition quarantined.
    quarantine_hits: int

    @property
    def temperature(self) -> float:
        """Cache-hit fraction in [0, 1]; 1.0 = always warm."""
        if not self.scans:
            return 0.0
        return self.hot_hits / self.scans


@dataclass(frozen=True, slots=True)
class WorkloadSketch:
    """Distribution sketch of the observed query shapes."""

    queries: int
    #: ``k`` value -> query count.
    k_counts: tuple[tuple[int, int], ...]
    #: ``nprobe`` value -> query count (ANN/post-filter plans only).
    nprobe_counts: tuple[tuple[int, int], ...]
    #: plan name -> query count.
    plan_counts: tuple[tuple[str, int], ...]
    #: Post-filter queries observed (the selectivity sample size).
    filtered_queries: int
    #: Mean fraction of scanned rows that passed the post-filter.
    mean_selectivity: float
    #: Total probe-set partitions adaptive early termination skipped.
    partitions_skipped: int
    #: Total partitions consulted across all queries.
    partitions_scanned: int

    @property
    def median_k(self) -> int:
        return _weighted_median(self.k_counts)

    @property
    def median_nprobe(self) -> int:
        return _weighted_median(self.nprobe_counts)

    @property
    def skip_fraction(self) -> float:
        """Skipped / (skipped + scanned) across the probe sets."""
        total = self.partitions_skipped + self.partitions_scanned
        if not total:
            return 0.0
        return self.partitions_skipped / total


@dataclass(frozen=True, slots=True)
class WorkloadSnapshot:
    """Point-in-time view: the sketch plus the hottest partitions."""

    sketch: WorkloadSketch
    heatmap: tuple[PartitionHeat, ...]


def _weighted_median(counts: tuple[tuple[int, int], ...]) -> int:
    total = sum(c for _, c in counts)
    if not total:
        return 0
    seen = 0
    for value, count in sorted(counts):
        seen += count
        if seen * 2 >= total:
            return value
    return counts[-1][0]


class _HeatEntry:
    """Mutable per-partition accumulator behind the monitor lock."""

    __slots__ = (
        "scans", "bytes_read", "hot_hits", "cold_misses", "skips",
        "quarantine_hits", "touched",
    )

    def __init__(self) -> None:
        self.scans = 0
        self.bytes_read = 0
        self.hot_hits = 0
        self.cold_misses = 0
        self.skips = 0
        self.quarantine_hits = 0
        self.touched = 0


class WorkloadMonitor:
    """Thread-safe, bounded workload accumulator (one per engine)."""

    def __init__(
        self, enabled: bool = True, max_partitions: int = 4096
    ) -> None:
        if max_partitions < 1:
            raise ValueError("max_partitions must be >= 1")
        self.enabled = bool(enabled)
        self._max = max_partitions
        self._lock = threading.Lock()
        self._heat: dict[int, _HeatEntry] = {}
        self._seq = 0
        # Sketch accumulators.
        self._queries = 0
        self._k_counts: dict[int, int] = {}
        self._nprobe_counts: dict[int, int] = {}
        self._plan_counts: dict[str, int] = {}
        self._filtered_queries = 0
        self._selectivity_sum = 0.0
        self._skipped = 0
        self._scanned_partitions = 0

    # ------------------------------------------------------------------
    # Recording (engine / executor / scheduler hot paths)
    # ------------------------------------------------------------------

    def _entry(self, partition_id: int) -> _HeatEntry:
        """Get-or-create under the lock, evicting the coldest tail.

        Eviction drops the least-recently-touched quarter in one pass,
        so the O(n) scan amortizes to O(1) per insert instead of
        running on every overflow.
        """
        entry = self._heat.get(partition_id)
        if entry is None:
            if len(self._heat) >= self._max:
                victims = sorted(
                    self._heat, key=lambda pid: self._heat[pid].touched
                )[: max(1, self._max // 4)]
                for pid in victims:
                    del self._heat[pid]
            entry = _HeatEntry()
            self._heat[partition_id] = entry
        self._seq += 1
        entry.touched = self._seq
        return entry

    def record_access(
        self, partition_id: int, nbytes: int, hot: bool
    ) -> None:
        """One partition load (called by the storage engine)."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._entry(partition_id)
            entry.scans += 1
            if hot:
                entry.hot_hits += 1
            else:
                entry.cold_misses += 1
                entry.bytes_read += int(nbytes)

    def record_hot_accesses(self, partition_ids: Sequence[int]) -> None:
        """:meth:`record_access` of each cache hit, under one lock."""
        if not self.enabled:
            return
        with self._lock:
            for partition_id in partition_ids:
                entry = self._entry(partition_id)
                entry.scans += 1
                entry.hot_hits += 1

    def record_skip(self, partition_id: int) -> None:
        """One adaptive-nprobe skip of a probe-set partition."""
        if not self.enabled:
            return
        with self._lock:
            self._entry(partition_id).skips += 1

    def record_quarantine_hit(self, partition_id: int) -> None:
        """A load that found the partition quarantined."""
        if not self.enabled:
            return
        with self._lock:
            self._entry(partition_id).quarantine_hits += 1

    def record_query(self, k: int, stats) -> None:
        """Fold one finished query's shape into the sketch.

        ``stats`` is the query's :class:`repro.core.types.QueryStats`;
        duck-typed so this module stays import-free of ``repro.core``.
        """
        if not self.enabled:
            return
        plan = stats.plan.value
        selectivity = None
        if plan == "post_filter" and stats.vectors_scanned:
            selectivity = 1.0 - (
                stats.rows_filtered / stats.vectors_scanned
            )
        with self._lock:
            self._queries += 1
            self._k_counts[k] = self._k_counts.get(k, 0) + 1
            self._plan_counts[plan] = self._plan_counts.get(plan, 0) + 1
            if stats.nprobe:
                self._nprobe_counts[stats.nprobe] = (
                    self._nprobe_counts.get(stats.nprobe, 0) + 1
                )
            if selectivity is not None:
                self._filtered_queries += 1
                self._selectivity_sum += selectivity
            self._skipped += stats.partitions_skipped
            self._scanned_partitions += stats.partitions_scanned

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def sketch(self) -> WorkloadSketch:
        with self._lock:
            return WorkloadSketch(
                queries=self._queries,
                k_counts=tuple(sorted(self._k_counts.items())),
                nprobe_counts=tuple(sorted(self._nprobe_counts.items())),
                plan_counts=tuple(sorted(self._plan_counts.items())),
                filtered_queries=self._filtered_queries,
                mean_selectivity=(
                    self._selectivity_sum / self._filtered_queries
                    if self._filtered_queries
                    else 0.0
                ),
                partitions_skipped=self._skipped,
                partitions_scanned=self._scanned_partitions,
            )

    def heatmap(self, limit: int | None = None) -> tuple[PartitionHeat, ...]:
        """Heatmap rows, hottest (most-scanned) first."""
        with self._lock:
            rows = [
                PartitionHeat(
                    partition_id=pid,
                    scans=e.scans,
                    bytes_read=e.bytes_read,
                    hot_hits=e.hot_hits,
                    cold_misses=e.cold_misses,
                    skips=e.skips,
                    quarantine_hits=e.quarantine_hits,
                )
                for pid, e in self._heat.items()
            ]
        rows.sort(key=lambda r: (-r.scans, r.partition_id))
        if limit is not None:
            rows = rows[:limit]
        return tuple(rows)

    def snapshot(self, heat_limit: int = 32) -> WorkloadSnapshot:
        return WorkloadSnapshot(
            sketch=self.sketch(), heatmap=self.heatmap(heat_limit)
        )
