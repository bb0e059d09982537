"""Public result and statistics types returned by the MicroNN API.

These are small immutable records: a query returns a
:class:`SearchResult` (ranked :class:`Neighbor` entries plus a
:class:`QueryStats` describing how the query was executed), and index
operations return :class:`IndexStats` / :class:`MaintenanceReport`
describing what they did. Benchmarks and the index monitor consume the
stats; applications usually only look at the neighbours.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from repro.obs.trace import QueryTrace


class PlanKind(enum.Enum):
    """Execution strategy chosen for a (hybrid) query (paper §3.5)."""

    #: Plain ANN over the IVF index (no attribute filter).
    ANN = "ann"
    #: Exact KNN via full scan.
    EXACT = "exact"
    #: Evaluate the attribute filter first, brute-force over survivors.
    PRE_FILTER = "pre_filter"
    #: ANN scan with the filter applied during partition retrieval.
    POST_FILTER = "post_filter"


class Neighbor(NamedTuple):
    """One ranked search hit: an immutable ``(asset_id, distance)``
    pair that unpacks, hashes and compares as that plain tuple."""

    asset_id: str
    distance: float


@dataclass(frozen=True, slots=True)
class QueryStats:
    """Execution trace of one query, used by benchmarks and tests."""

    plan: PlanKind
    nprobe: int = 0
    partitions_scanned: int = 0
    vectors_scanned: int = 0
    distance_computations: int = 0
    rows_filtered: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_read: int = 0
    latency_s: float = 0.0
    #: Selectivity factor estimated by the optimizer (hybrid queries).
    estimated_selectivity: float | None = None
    #: The IVF selectivity threshold the optimizer compared against.
    ivf_selectivity: float | None = None
    #: How partitions were scanned: ``"float32"`` full-precision blobs,
    #: ``"sq8"`` scalar-quantized codes, or ``"pq"`` product-quantized
    #: codes via ADC lookup tables — the quantized modes both rerank
    #: exactly.
    scan_mode: str = "float32"
    #: Number of approximate candidates re-scored against their
    #: full-precision vectors (quantized scans only).
    candidates_reranked: int = 0
    #: Milliseconds spent loading + decoding partitions. When the scan
    #: was pipelined this is summed across I/O tasks, so
    #: ``io_time_ms + compute_time_ms > latency_s * 1e3`` is the
    #: direct signature of I/O–compute overlap.
    io_time_ms: float = 0.0
    #: Milliseconds spent in distance kernels + heap maintenance
    #: (summed across compute workers when pipelined).
    compute_time_ms: float = 0.0
    #: Whether the two-stage I/O–compute pipeline executed this scan
    #: (cache-cold ANN scans with ``pipeline_depth > 0``).
    scan_pipelined: bool = False
    #: Partitions in the probe set that adaptive-nprobe early
    #: termination skipped (``adaptive_nprobe_margin``): their centroid
    #: distance already exceeded the k-th candidate by the margin, so
    #: they were never scored — and not read either, except on the
    #: serving path when another concurrent query still needed the
    #: same partition (the shared read then happens for that query).
    partitions_skipped: int = 0
    #: Of this query's partition loads, how many were shared with at
    #: least one other concurrent query (the serving layer's cross-
    #: query I/O coalescing: one read + decode, N scoring consumers).
    io_shared_hits: int = 0
    #: Milliseconds this query waited in the serving layer's admission
    #: queue before a slot (and scratch-memory headroom) freed up.
    #: Always 0 for the synchronous ``search()`` path.
    queue_wait_ms: float = 0.0
    #: How many shards of a sharded database this query scattered to
    #: (``repro.shard.ShardedMicroNN``); 0 on a single-database query.
    #: On an aggregated sharded result the cost counters above
    #: (bytes/io/compute/scans) are sums over the per-shard stats.
    shards_probed: int = 0
    #: Probe-set partitions served as empty because a stored checksum
    #: mismatch quarantined them (bit-rot containment): the query
    #: succeeded but its recall is degraded until ``repair()`` runs.
    partitions_quarantined: int = 0
    #: True when this result is known to be incomplete — at least one
    #: partition was quarantined (or, on a sharded aggregate, at least
    #: one shard failed to answer). The neighbours returned are still
    #: correct for the data that was reachable.
    degraded: bool = False


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Ranked neighbours plus the stats of the query that produced them."""

    neighbors: tuple[Neighbor, ...]
    stats: QueryStats
    #: Per-query span forest (``repro.obs.trace.QueryTrace``), present
    #: only when the query ran with ``trace=True``; render it with
    #: ``result.trace.to_chrome_trace()`` and load in Perfetto.
    trace: "QueryTrace | None" = None

    def __len__(self) -> int:
        return len(self.neighbors)

    def __iter__(self) -> Iterator[Neighbor]:
        return iter(self.neighbors)

    def __getitem__(self, idx: int) -> Neighbor:
        return self.neighbors[idx]

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(n.asset_id for n in self.neighbors)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(n.distance for n in self.neighbors)


@dataclass(frozen=True, slots=True)
class PartitionInfo:
    """Size and identity of one IVF partition."""

    partition_id: int
    size: int


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Snapshot of index state, as tracked by the index monitor (§3.6)."""

    total_vectors: int
    indexed_vectors: int
    delta_vectors: int
    num_partitions: int
    avg_partition_size: float
    max_partition_size: int
    min_partition_size: int
    #: Average partition size recorded at the last full build; the
    #: monitor compares against this to decide when to rebuild.
    baseline_avg_partition_size: float
    #: Partition-storage quantization scheme in effect
    #: ("none"/"sq8"/"pq").
    quantization: str = "none"
    #: Vectors with a stored quantized code (indexed partitions only;
    #: the delta stays full-precision on disk until maintenance folds
    #: it in).
    quantized_vectors: int = 0
    #: Stored scan-code bytes per vector once a quantizer is trained
    #: (``dim`` for sq8, ``pq_num_subvectors`` for pq; 0 before
    #: training or with quantization off) — the PQ-vs-SQ8 choice made
    #: observable.
    code_bytes_per_vector: int = 0
    #: Achieved scan-payload compression vs float32 partitions
    #: (``4 * dim / code_bytes_per_vector``; 1.0 when scans are
    #: full-precision).
    compression_ratio: float = 1.0
    #: Physical layout serving this index ("sqlite-row" /
    #: "sqlite-packed" / "memory").
    storage_backend: str = "sqlite-row"
    #: Whether the observability substrate (metrics registry + event
    #: log) is recording for this database.
    telemetry_enabled: bool = True
    #: Partitions currently quarantined by checksum mismatches (served
    #: as empty — degraded, never wrong — until ``repair()``).
    quarantined_partitions: int = 0
    #: Lifetime structured events emitted (survives ring eviction).
    events_logged: int = 0
    #: Lifetime queries over the ``slow_query_ms`` threshold.
    slow_queries: int = 0
    #: Append-only garbage in the blobfile backend's blob file:
    #: records superseded by rewrites or orphaned by rolled-back
    #: appends. Always 0 on the other backends.
    storage_dead_bytes: int = 0
    #: ``storage_dead_bytes`` as a fraction of the blob-file size —
    #: the signal ``maintain()`` compares against
    #: ``blob_compact_min_dead_ratio`` to trigger compaction. 0.0 on
    #: the other backends (and on an empty blob file).
    storage_dead_ratio: float = 0.0
    #: Queries shadow-audited by the recall auditor (0 when
    #: ``audit_sample_rate`` is 0).
    audited_queries: int = 0
    #: Mean audited recall@k across every shadow audit (0.0 when
    #: nothing has been audited yet — check ``audited_queries``).
    audit_recall_mean: float = 0.0
    #: ``recall_dip`` events the auditor has emitted.
    recall_dips: int = 0

    @property
    def partition_growth(self) -> float:
        """Fractional growth of avg partition size since the last build."""
        if self.baseline_avg_partition_size <= 0:
            return 0.0
        return (
            self.avg_partition_size / self.baseline_avg_partition_size
        ) - 1.0


class MaintenanceAction(enum.Enum):
    """What :meth:`MicroNN.maintain` decided to do."""

    NONE = "none"
    INCREMENTAL_FLUSH = "incremental_flush"
    FULL_REBUILD = "full_rebuild"


@dataclass(frozen=True, slots=True)
class MaintenanceReport:
    """Outcome of one maintenance cycle (incremental flush or rebuild)."""

    action: MaintenanceAction
    vectors_flushed: int = 0
    centroids_updated: int = 0
    row_changes: int = 0
    duration_s: float = 0.0
    stats_before: IndexStats | None = None
    stats_after: IndexStats | None = None


@dataclass(frozen=True, slots=True)
class BuildReport:
    """Outcome of a full index build."""

    num_vectors: int
    num_partitions: int
    iterations: int
    minibatch_size: int
    row_changes: int
    duration_s: float
    peak_memory_bytes: int


@dataclass(frozen=True)
class BatchSearchResult:
    """Results for a batch of queries executed with MQO (paper §3.4)."""

    results: Sequence[SearchResult]
    #: Number of distinct partitions scanned for the whole batch.
    partitions_scanned: int = 0
    #: Sum over queries of the partitions each would have scanned alone.
    partitions_requested: int = 0
    latency_s: float = 0.0
    stats: QueryStats | None = None
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, idx: int) -> SearchResult:
        return self.results[idx]

    @property
    def amortized_latency_s(self) -> float:
        """Average wall-clock latency per query in the batch."""
        if not self.results:
            return 0.0
        return self.latency_s / len(self.results)

    @property
    def scan_sharing_factor(self) -> float:
        """How many per-query partition scans each physical scan served."""
        if self.partitions_scanned <= 0:
            return 1.0
        return self.partitions_requested / self.partitions_scanned
