"""Configuration objects for MicroNN databases and device profiles.

The paper evaluates on two device-under-test (DUT) classes — *Small*
(single-digit GiB of memory) and *Large* (a few tens of GiB) — and three
cache scenarios (InMemory, ColdStart, WarmCache). :class:`DeviceProfile`
captures the resource knobs that differ between them: worker threads,
partition-cache budget, SQLite page-cache budget, and an optional I/O
cost model used by benchmarks to emulate storage latency on fast hosts.

:class:`MicroNNConfig` carries everything needed to open a database:
vector dimensionality, distance metric, index tuning parameters
(target cluster size, mini-batch settings from Algorithm 1), and the
declared attribute schema for hybrid search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.errors import ConfigError

#: Metrics supported by the distance kernels.
SUPPORTED_METRICS = ("l2", "cosine", "dot")

#: Physical storage layouts (see ``repro.storage.backends``):
#: ``"sqlite-row"`` is the paper's row-per-vector clustered table,
#: ``"sqlite-packed"`` stores one contiguous blob per partition,
#: ``"blobfile"`` keeps partition payloads in an mmap'd append-only
#: blob file next to the SQLite metadata (zero-copy scans), and
#: ``"memory"`` keeps the row layout in a shared in-memory database.
SUPPORTED_STORAGE_BACKENDS = (
    "sqlite-row",
    "sqlite-packed",
    "blobfile",
    "memory",
)


def _default_storage_backend() -> str:
    """Default backend, overridable via ``MICRONN_TEST_BACKEND``.

    The environment hook is what lets CI run the whole tier-1 suite
    under each backend without touching any test: every default-
    constructed config picks the axis value up here.
    """
    return os.environ.get("MICRONN_TEST_BACKEND", "sqlite-row")

#: SQL column types that may be declared for filterable attributes.
SUPPORTED_ATTRIBUTE_TYPES = ("TEXT", "INTEGER", "REAL")

#: Partition-storage quantization schemes supported by the scan path.
SUPPORTED_QUANTIZATION = ("none", "sq8", "pq")

#: Reserved partition identifier for the delta-store (paper §3.6: the
#: delta-store is physically co-located with the IVF index and addressed
#: by a reserved partition id so it shares the clustered layout).
DELTA_PARTITION_ID = -1


@dataclass(frozen=True)
class IOCostModel:
    """Synthetic storage latency, used to emulate device storage.

    The paper measures on real devices whose storage is much slower than
    a benchmark host's page cache. To reproduce cold/warm and Small/Large
    *shapes* on any machine, uncached partition reads may be charged a
    per-request seek cost plus a per-byte transfer cost. A zero model
    (the default) disables injection entirely.
    """

    seek_latency_s: float = 0.0
    per_byte_latency_s: float = 0.0

    def cost(self, nbytes: int) -> float:
        """Return the simulated latency for reading ``nbytes`` from disk."""
        if nbytes <= 0:
            return 0.0
        return self.seek_latency_s + nbytes * self.per_byte_latency_s

    @property
    def enabled(self) -> bool:
        return self.seek_latency_s > 0.0 or self.per_byte_latency_s > 0.0


@dataclass(frozen=True)
class DeviceProfile:
    """Resource envelope of a device under test.

    Parameters mirror the constraints in paper §2.1: constrained shared
    memory (cache budgets), varying compute (worker threads), and flash
    storage characteristics (I/O model).
    """

    name: str = "large"
    worker_threads: int = 8
    partition_cache_bytes: int = 64 * 1024 * 1024
    sqlite_cache_bytes: int = 8 * 1024 * 1024
    #: Budget for the reusable scratch buffers the pipelined scan
    #: decodes partitions into when they cannot be admitted to the
    #: partition cache (e.g. a zero cache budget). Checked-out buffers
    #: are pinned and accounted to the memory tracker; ``0`` disables
    #: pooling and falls back to per-scan allocations.
    scratch_buffer_bytes: int = 16 * 1024 * 1024
    io_model: IOCostModel = field(default_factory=IOCostModel)

    def __post_init__(self) -> None:
        if self.worker_threads < 1:
            raise ConfigError("worker_threads must be >= 1")
        if self.partition_cache_bytes < 0:
            raise ConfigError("partition_cache_bytes must be >= 0")
        if self.sqlite_cache_bytes < 0:
            raise ConfigError("sqlite_cache_bytes must be >= 0")
        if self.scratch_buffer_bytes < 0:
            raise ConfigError("scratch_buffer_bytes must be >= 0")

    @classmethod
    def small(cls, io_model: IOCostModel | None = None) -> "DeviceProfile":
        """Small DUT: single-digit GiB device (paper §4.1.2)."""
        return cls(
            name="small",
            worker_threads=2,
            partition_cache_bytes=8 * 1024 * 1024,
            sqlite_cache_bytes=2 * 1024 * 1024,
            scratch_buffer_bytes=4 * 1024 * 1024,
            io_model=io_model or IOCostModel(),
        )

    @classmethod
    def large(cls, io_model: IOCostModel | None = None) -> "DeviceProfile":
        """Large DUT: a few tens of GiB of memory (paper §4.1.2)."""
        return cls(
            name="large",
            worker_threads=8,
            partition_cache_bytes=64 * 1024 * 1024,
            sqlite_cache_bytes=8 * 1024 * 1024,
            io_model=io_model or IOCostModel(),
        )


@dataclass(frozen=True)
class MicroNNConfig:
    """Configuration for a MicroNN database instance.

    Parameters
    ----------
    dim:
        Dimensionality of all stored vectors.
    metric:
        Distance metric: ``"l2"`` (Euclidean), ``"cosine"``, or ``"dot"``
        (inner product; larger is closer, internally negated).
    target_cluster_size:
        Target number of vectors per IVF partition; the number of
        clusters is ``max(1, |X| / target_cluster_size)`` (Algorithm 1,
        default 100 as in the paper).
    minibatch_size:
        Mini-batch size ``s`` for the clustering algorithm. ``None``
        derives a batch from ``minibatch_fraction``.
    minibatch_fraction:
        Mini-batch size as a fraction of the dataset (used when
        ``minibatch_size`` is ``None``); Figure 8 sweeps this knob.
    kmeans_iterations:
        Number of mini-batch iterations ``n``. ``None`` chooses a
        heuristic based on dataset and batch size so every vector is
        expected to be sampled a few times.
    balance_penalty:
        Weight of the cluster-size penalty in the ``NEAREST`` routine
        (flexible balance constraints, Liu et al. 2018). ``0`` disables
        balancing; the ablation bench sweeps this.
    default_nprobe:
        Default number of IVF partitions scanned per query (``n`` in
        Algorithm 2).
    attributes:
        Declared attribute schema: mapping of attribute name to SQL type
        (``TEXT``/``INTEGER``/``REAL``). Only declared attributes may be
        stored and filtered (paper §3.5: clients define filterable
        attributes, indexed with SQLite b-trees).
    fts_attributes:
        Subset of TEXT attributes additionally indexed for full-text
        ``MATCH`` filters (paper §3.5: FTS index over filterable
        attributes).
    delta_flush_threshold:
        Number of delta-store vectors that triggers an incremental flush
        during :meth:`~repro.core.database.MicroNN.maintain`.
    rebuild_growth_threshold:
        Fractional growth of the average partition size (relative to the
        size at the last full build) that triggers a full rebuild; the
        paper's update experiment (Fig. 10) uses 0.5 (50% growth).
    quantization:
        Partition-storage quantization scheme: ``"none"`` (default,
        float32 scans, byte-identical on-disk layout to prior
        versions), ``"sq8"`` (int8 scalar-quantized scan codes; ~4x
        less partition I/O) or ``"pq"`` (product-quantized codes
        scanned via ADC lookup tables; ``4 * dim / M``x less partition
        I/O). Both quantized modes rerank exactly.
    rerank_factor:
        With a quantized scan, the number of approximate candidates
        kept for exact reranking, as a multiple of ``k``.
    pipeline_depth:
        Bounded-queue depth of the partition-scan I/O–compute pipeline
        (``0`` means never pipeline). The pipeline engages by itself,
        on scans with cache-missing probes while the engine observes
        cold loads blocking (>= 1 ms each); otherwise scans load and
        score on the caller's thread.
    io_prefetch_threads:
        Worker threads dedicated to the pipeline's I/O stage; the rest
        of ``device.worker_threads`` score partitions as they arrive.
        More than one only helps reads that block.
    device:
        Resource envelope for query processing.
    seed:
        RNG seed used by clustering for reproducible builds.
    """

    dim: int
    metric: str = "l2"
    target_cluster_size: int = 100
    minibatch_size: int | None = None
    minibatch_fraction: float = 0.05
    kmeans_iterations: int | None = None
    balance_penalty: float = 1.0
    default_nprobe: int = 8
    attributes: Mapping[str, str] = field(default_factory=dict)
    fts_attributes: tuple[str, ...] = ()
    delta_flush_threshold: int = 1000
    rebuild_growth_threshold: float = 0.5
    #: When set, partition selection switches from a flat centroid scan
    #: to a two-level coarse index once the centroid table reaches this
    #: many rows (the paper's §3.2 "index the centroid table" extension;
    #: ``None`` keeps the paper's default flat scan).
    centroid_index_threshold: int | None = None
    centroid_index_cell_size: int = 64
    centroid_index_oversample: float = 4.0
    #: Partition-storage quantization: ``"none"`` keeps the paper's
    #: float32 scan path (and an on-disk layout byte-identical to it);
    #: ``"sq8"`` stores int8 scalar-quantized codes alongside the
    #: float32 blobs and scans the codes — ~4x less partition I/O;
    #: ``"pq"`` stores product-quantized codes (``pq_num_subvectors``
    #: bytes per vector, ``4 * dim / M``x less partition I/O — 32x at
    #: dim=128 with M=16) scanned with per-query ADC lookup tables.
    #: Both quantized modes rerank the top ``rerank_factor * k``
    #: candidates against the full-precision vectors. The delta
    #: partition always stays full-precision on disk so upserts stay
    #: one cheap row write; see ``delta_quantize_threshold`` for the
    #: in-memory lazy encoding of a large delta.
    quantization: str = "none"
    #: Oversampling factor of the quantized scan: the scan keeps
    #: ``rerank_factor * k`` approximate candidates and re-scores them
    #: exactly. Higher values trade rerank I/O for recall; PQ's larger
    #: per-code error usually wants this at least as high as SQ8's.
    rerank_factor: int = 4
    #: Number of PQ sub-vectors ``M`` (``quantization="pq"``). Each
    #: stored code is M bytes; M must divide ``dim`` evenly (validated
    #: here, at config time, instead of surfacing as a reshape error in
    #: the middle of codebook training). Smaller M compresses harder
    #: but quantizes coarser.
    pq_num_subvectors: int = 8
    #: Upper bound on the vectors sampled to train PQ codebooks. Sub-
    #: space k-means is quadratic-ish in the sample, and codebooks
    #: converge long before the full collection is seen; the builder
    #: draws a seeded uniform sample of at most this many vectors.
    pq_train_sample: int = 10_000
    #: Lazily quantize the delta partition once it holds at least this
    #: many vectors: the first quantized scan past the threshold
    #: encodes the (full-precision, on-disk) delta with the active
    #: quantizer and caches the codes in memory, so delta-heavy upsert
    #: workloads stop re-reading the float32 delta on every query.
    #: Any delta write invalidates the cached codes. ``None`` disables
    #: lazy encoding and scans the delta exactly, always.
    delta_quantize_threshold: int | None = 4096
    #: Depth of the partition-scan pipeline: how many loaded-but-not-
    #: yet-scored partitions may sit in the bounded queue between the
    #: I/O stage and the compute stage. While partition ``N`` is being
    #: scored, up to ``pipeline_depth`` later partitions are already
    #: being read and decoded, so the disk and the cores stay busy at
    #: the same time. ``0`` means never (the serial load-then-score
    #: path, the A/B baseline). Otherwise the pipeline engages by
    #: itself (``repro.query.pipeline.pipeline_engages``): on a scan
    #: with at least one cache-missing probe, while the engine's
    #: running estimate of seconds per cold partition load is at or
    #: above 1 ms — reads that block (cold flash, the latency model),
    #: so another thread can run meanwhile. Fully warm scans, and cold
    #: ones served at page-cache speed, load and score on the
    #: caller's thread, where a query costs what its bytes cost.
    pipeline_depth: int = 2
    #: Number of worker threads dedicated to the pipeline's I/O stage
    #: (reading + decoding partitions). The compute stage gets the
    #: remaining ``worker_threads`` (at least one). Only matters while
    #: the pipeline is engaged, i.e. while reads block. One I/O thread
    #: overlaps a load with one partition's kernel; a second overlaps
    #: two *waits*, which is where the measured win is (2 ms seeks,
    #: 20k x 128: 14.9 ms serial, 15.2 ms with one, 8.4 ms with two).
    #: On the row-per-vector layouts the reads themselves take turns
    #: (``RowLayoutSQL._read_rows``) — every SQLite row step is a GIL
    #: round-trip, so two in flight mostly trade the GIL; the packed
    #: and blob-file layouts read one row per partition and overlap.
    io_prefetch_threads: int = 1
    #: Adaptive nprobe early termination: once a scan's top-K candidate
    #: set is full, a remaining partition is skipped when its centroid
    #: distance exceeds the current k-th candidate distance by more
    #: than ``margin * abs(kth)`` (internal smaller-is-closer space).
    #: ``None`` (the default) disables the check and keeps every scan
    #: exhaustive over its probe set. This is a recall/latency knob:
    #: small margins prune aggressively, large margins almost never
    #: fire. The delta partition is never skipped. The margin is
    #: *relative* (``margin * abs(kth)``), so it degenerates toward
    #: margin-0 behavior when the k-th distance is near zero — routine
    #: with the ``dot`` metric, whose internal distances cross zero —
    #: so prefer this knob with ``l2``/``cosine``. Note that pruning
    #: decisions depend on the order partitions are scored in, so on
    #: concurrent paths (the pipelined scan, the serving scheduler)
    #: adaptive runs are recall-equivalent within the margin rather
    #: than bit-reproducible; only the single-threaded serial loop is
    #: deterministic. Bit-identity guarantees elsewhere in the API
    #: assume this knob is unset. The batch MQO path (``search_batch``)
    #: does not implement the check — its inverted partition→queries
    #: loop has no per-query scan order to terminate — and scans its
    #: probe sets exhaustively regardless of this setting.
    adaptive_nprobe_margin: float | None = None
    #: Admission bound of the concurrent serving layer: how many
    #: queries submitted through ``search_async``/``serve.Session`` may
    #: be in flight at once. Further submissions queue (their wait is
    #: surfaced as ``QueryStats.queue_wait_ms``) until a slot frees AND
    #: the scratch-buffer pool is back under its memory budget.
    max_inflight_queries: int = 8
    #: Threads of the serving layer's *shared* I/O stage (one stage
    #: multiplexed across every in-flight query, unlike
    #: ``io_prefetch_threads`` which is per query). ``None`` derives
    #: ``max(io_prefetch_threads, min(8, device.worker_threads))`` — a
    #: server overlaps storage latency across queries, so it wants more
    #: I/O parallelism than any single query does.
    serve_io_threads: int | None = None
    #: Physical storage layout (``repro.storage.backends``):
    #: ``"sqlite-row"`` (default) is the paper's row-per-vector
    #: clustered table; ``"sqlite-packed"`` stores each partition as
    #: one contiguous blob, eliminating the ~40 bytes/row of SQLite
    #: key+record overhead that dominates partition reads once codes
    #: shrink to PQ widths; ``"memory"`` keeps the row layout in a
    #: process-local in-memory database (tests/benchmarks). Search
    #: results are bit-identical across backends; the choice is
    #: persisted in the database (and shard manifest) and validated on
    #: reopen.
    storage_backend: str = field(default_factory=_default_storage_backend)
    #: Verify rerank point-reads against the stored partition CRCs.
    #: Off (the default), a point-fetch slices the requested rows
    #: straight out of storage — the fastest path, but a flipped byte
    #: in a fetched row would go unnoticed until the next scrub. On,
    #: point-fetches resolve through the CRC-verified partition-load
    #: path instead, so rerank reads inherit the same
    #: degraded-never-wrong guarantee as cold scans, at the cost of
    #: loading (and caching) each touched partition.
    verify_point_reads: bool = False
    #: Byte budget of the amortized background scrub that runs inside
    #: every ``maintain()`` pass: partitions are CRC-verified
    #: round-robin (cursor persisted in the meta table) until the
    #: budget is spent, so a full sweep is spread over many passes
    #: instead of stalling one. ``None`` (the default) disables the
    #: background scrub; explicit ``verify()`` calls are unaffected.
    scrub_budget_bytes: int | None = None
    #: Dead-byte ratio of the blobfile backend's append-only file at
    #: which ``maintain()`` schedules a compaction (copy-live-forward
    #: into a new generation, atomic swap). Ignored by the other
    #: backends.
    blob_compact_min_dead_ratio: float = 0.3
    #: Upper bound on the bytes a single ``maintain()``-scheduled
    #: compaction may copy (the live bytes of the blob file). When the
    #: live set exceeds the budget the pass skips compaction rather
    #: than blowing through it. ``None`` (the default) means no bound.
    blob_compact_budget_bytes: int | None = None
    #: Bounded retry budget for transient ``database is locked``
    #: errors when acquiring the write transaction: after the
    #: in-connection busy timeout expires, the engine retries ``BEGIN
    #: IMMEDIATE`` up to this many more times before surfacing a
    #: :class:`~repro.core.errors.WriteConflictError`. ``0`` fails on
    #: the first locked error.
    busy_retries: int = 4
    #: Base backoff between busy retries, in milliseconds. Each retry
    #: doubles it and adds uniform jitter so two contending writers do
    #: not re-collide in lockstep.
    busy_backoff_ms: float = 10.0
    #: Master switch for the observability substrate (``repro.obs``):
    #: the engine-owned metrics registry and structured event log.
    #: Disabled, every instrument call collapses to one attribute
    #: check (the no-op fast path gated by
    #: ``benchmarks/bench_obs_overhead.py``). Per-query tracing is
    #: independent of this switch — it only runs when a search passes
    #: ``trace=True``.
    telemetry_enabled: bool = True
    #: Queries slower than this wall-clock threshold (milliseconds)
    #: emit a ``slow_query`` event into the structured event log.
    slow_query_ms: float = 250.0
    #: Capacity of the bounded in-memory event ring; the oldest events
    #: are evicted first, lifetime per-kind counts are kept exactly.
    event_log_capacity: int = 512
    #: Optional JSONL sink: every emitted event is also appended to
    #: this path as one JSON object per line (opened lazily on first
    #: emit). Shards sharing one config append to the same file.
    event_log_path: str | None = None
    #: Fraction of approximate queries (ANN / post-filter plans) the
    #: shadow recall auditor re-executes on the exact scan path, in
    #: [0, 1]. The decision is a seeded, platform-stable hash of the
    #: query bytes, so the same query is always (or never) audited
    #: under a given seed. ``0.0`` (the default) disables auditing
    #: entirely — no worker thread, no hot-path hash.
    audit_sample_rate: float = 0.0
    #: Hard cap on shadow audits started per minute, bounding the
    #: background exact-scan work regardless of traffic volume.
    #: Over-budget samples are dropped and counted
    #: (``micronn_audit_dropped_total{reason="rate_capped"}``).
    audit_max_per_min: int = 600
    #: When the sliding-window mean of audited recall@k falls below
    #: this floor, the auditor emits a ``recall_dip`` event (and the
    #: advisor recommends the recall knobs). In [0, 1].
    audit_recall_floor: float = 0.9
    #: Audited queries per sliding window: the dip check fires only on
    #: a full window and then re-arms, so a sustained regression emits
    #: one event per window span.
    audit_window: int = 32
    #: Per-partition rows the workload heatmap retains; the least-
    #: recently-touched quarter is evicted on overflow.
    workload_heatmap_partitions: int = 4096
    device: DeviceProfile = field(default_factory=DeviceProfile.large)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.metric not in SUPPORTED_METRICS:
            raise ConfigError(
                f"metric must be one of {SUPPORTED_METRICS}, "
                f"got {self.metric!r}"
            )
        if self.target_cluster_size < 1:
            raise ConfigError("target_cluster_size must be >= 1")
        if self.minibatch_size is not None and self.minibatch_size < 1:
            raise ConfigError("minibatch_size must be >= 1 when given")
        if not 0.0 < self.minibatch_fraction <= 1.0:
            raise ConfigError("minibatch_fraction must be in (0, 1]")
        if self.kmeans_iterations is not None and self.kmeans_iterations < 1:
            raise ConfigError("kmeans_iterations must be >= 1 when given")
        if self.balance_penalty < 0:
            raise ConfigError("balance_penalty must be >= 0")
        if self.default_nprobe < 1:
            raise ConfigError("default_nprobe must be >= 1")
        if self.delta_flush_threshold < 1:
            raise ConfigError("delta_flush_threshold must be >= 1")
        if self.rebuild_growth_threshold <= 0:
            raise ConfigError("rebuild_growth_threshold must be > 0")
        if (
            self.centroid_index_threshold is not None
            and self.centroid_index_threshold < 2
        ):
            raise ConfigError(
                "centroid_index_threshold must be >= 2 when set"
            )
        if self.centroid_index_cell_size < 1:
            raise ConfigError("centroid_index_cell_size must be >= 1")
        if self.centroid_index_oversample < 1.0:
            raise ConfigError("centroid_index_oversample must be >= 1.0")
        if self.quantization not in SUPPORTED_QUANTIZATION:
            raise ConfigError(
                f"quantization must be one of {SUPPORTED_QUANTIZATION}, "
                f"got {self.quantization!r}"
            )
        if self.rerank_factor < 1:
            raise ConfigError("rerank_factor must be >= 1")
        if self.pq_num_subvectors < 1:
            raise ConfigError("pq_num_subvectors must be >= 1")
        if self.pq_train_sample < 1:
            raise ConfigError("pq_train_sample must be >= 1")
        if (
            self.quantization == "pq"
            and self.dim % self.pq_num_subvectors != 0
        ):
            # Caught here, not as a reshape crash deep inside codebook
            # training: the PQ layout needs dim = M * dsub exactly.
            raise ConfigError(
                f"pq_num_subvectors must divide dim evenly: dim="
                f"{self.dim} is not a multiple of pq_num_subvectors="
                f"{self.pq_num_subvectors}"
            )
        if (
            self.delta_quantize_threshold is not None
            and self.delta_quantize_threshold < 1
        ):
            raise ConfigError(
                "delta_quantize_threshold must be >= 1 when set"
            )
        if self.pipeline_depth < 0:
            raise ConfigError("pipeline_depth must be >= 0")
        if self.io_prefetch_threads < 1:
            raise ConfigError("io_prefetch_threads must be >= 1")
        if (
            self.adaptive_nprobe_margin is not None
            and self.adaptive_nprobe_margin < 0
        ):
            raise ConfigError(
                "adaptive_nprobe_margin must be >= 0 when set"
            )
        # ``fault:<inner>`` wraps a real backend with the fault-
        # injecting test decorator (``repro.storage.backends.fault``);
        # the inner kind must itself be supported.
        backend_kind = self.storage_backend
        if backend_kind.startswith("fault:"):
            backend_kind = backend_kind[len("fault:"):]
        if backend_kind not in SUPPORTED_STORAGE_BACKENDS:
            raise ConfigError(
                f"storage_backend must be one of "
                f"{SUPPORTED_STORAGE_BACKENDS} (optionally prefixed "
                f"with 'fault:'), got {self.storage_backend!r}"
            )
        if (
            self.scrub_budget_bytes is not None
            and self.scrub_budget_bytes < 1
        ):
            raise ConfigError(
                "scrub_budget_bytes must be >= 1 when set"
            )
        if not 0.0 < self.blob_compact_min_dead_ratio <= 1.0:
            raise ConfigError(
                "blob_compact_min_dead_ratio must be in (0, 1]"
            )
        if (
            self.blob_compact_budget_bytes is not None
            and self.blob_compact_budget_bytes < 1
        ):
            raise ConfigError(
                "blob_compact_budget_bytes must be >= 1 when set"
            )
        if self.busy_retries < 0:
            raise ConfigError("busy_retries must be >= 0")
        if self.busy_backoff_ms < 0:
            raise ConfigError("busy_backoff_ms must be >= 0")
        if self.max_inflight_queries < 1:
            raise ConfigError("max_inflight_queries must be >= 1")
        if self.serve_io_threads is not None and self.serve_io_threads < 1:
            raise ConfigError("serve_io_threads must be >= 1 when set")
        if self.slow_query_ms <= 0:
            raise ConfigError("slow_query_ms must be > 0")
        if self.event_log_capacity < 1:
            raise ConfigError("event_log_capacity must be >= 1")
        if not 0.0 <= self.audit_sample_rate <= 1.0:
            raise ConfigError("audit_sample_rate must be in [0, 1]")
        if self.audit_max_per_min < 1:
            raise ConfigError("audit_max_per_min must be >= 1")
        if not 0.0 <= self.audit_recall_floor <= 1.0:
            raise ConfigError("audit_recall_floor must be in [0, 1]")
        if self.audit_window < 1:
            raise ConfigError("audit_window must be >= 1")
        if self.workload_heatmap_partitions < 1:
            raise ConfigError(
                "workload_heatmap_partitions must be >= 1"
            )
        self._validate_attributes()

    def _validate_attributes(self) -> None:
        for name, sql_type in self.attributes.items():
            if not name.isidentifier():
                raise ConfigError(
                    f"attribute name {name!r} must be a valid identifier"
                )
            if name.startswith("_") or name.lower() in _RESERVED_COLUMNS:
                raise ConfigError(f"attribute name {name!r} is reserved")
            if sql_type.upper() not in SUPPORTED_ATTRIBUTE_TYPES:
                raise ConfigError(
                    f"attribute {name!r} has unsupported type {sql_type!r}; "
                    f"supported: {SUPPORTED_ATTRIBUTE_TYPES}"
                )
        for name in self.fts_attributes:
            if name not in self.attributes:
                raise ConfigError(
                    f"fts attribute {name!r} is not a declared attribute"
                )
            if self.attributes[name].upper() != "TEXT":
                raise ConfigError(
                    f"fts attribute {name!r} must be TEXT, "
                    f"got {self.attributes[name]!r}"
                )

    @property
    def normalized_attributes(self) -> dict[str, str]:
        """Attribute schema with canonical upper-case SQL types."""
        return {name: t.upper() for name, t in self.attributes.items()}

    def with_device(self, device: DeviceProfile) -> "MicroNNConfig":
        """Return a copy of this config running on a different device."""
        return replace(self, device=device)

    def vector_nbytes(self) -> int:
        """Bytes of one encoded vector (float32 little-endian blob)."""
        return 4 * self.dim

    @property
    def uses_quantization(self) -> bool:
        return self.quantization != "none"

    @property
    def scan_code_width(self) -> int:
        """Stored bytes per quantized scan code for the active scheme.

        ``dim`` bytes for SQ8 (one per dimension), ``pq_num_subvectors``
        for PQ (one per sub-vector) — the blob width of every
        ``vector_codes`` row, and the denominator of the achieved
        compression ratio reported by :class:`IndexStats`.
        """
        if self.quantization == "pq":
            return self.pq_num_subvectors
        return self.dim

    @property
    def resolved_serve_io_threads(self) -> int:
        """The serving layer's shared I/O stage width (None resolved)."""
        if self.serve_io_threads is not None:
            return self.serve_io_threads
        return max(
            self.io_prefetch_threads, min(8, self.device.worker_threads)
        )


@dataclass(frozen=True)
class ShardConfig:
    """Layout of a sharded multi-database deployment.

    A :class:`~repro.shard.ShardedMicroNN` composes ``num_shards``
    independent per-shard databases behind one facade: writes route by
    a stable hash of the asset id, reads scatter to every shard and
    gather-merge into a global top-k. Each shard is a complete MicroNN
    database (own SQLite file, IVF index, quantizer, caches, serving
    scheduler), so shard count multiplies both write throughput (one
    writer lock per shard) and cold-read bandwidth (one I/O path per
    shard).

    Parameters
    ----------
    num_shards:
        How many per-shard databases back the facade. Persisted in the
        shard directory's manifest; reopening validates the manifest
        against this value (``None`` at open time adopts the
        manifest's count).
    router:
        Name of the write-routing scheme. ``"hash"`` (the built-in
        :class:`~repro.shard.HashRouter`) routes by a stable BLAKE2b
        hash of the asset id — deterministic across processes and
        platforms, unlike Python's seeded ``hash()``. Custom routers
        are pluggable: pass a router object to ``ShardedMicroNN`` and
        name it here so reopen can verify the same scheme is in use.
    serve_scatter_threshold:
        Floor on the fan-out width (``shards x concurrent queries``)
        below which the scatter stage is always a serial per-shard
        loop. At or above it a batch scatters on the gather pool; a
        single ``search()`` scatters through the shards' serving
        schedulers (:mod:`repro.serve`) only if, in addition, some
        shard's cold loads are observed to block
        (:func:`repro.query.pipeline.loads_block`, the scan
        pipeline's own rule) and the previous ``search()`` missed the
        cache somewhere (a fresh or purged fleet counts as missing),
        or ``shard_timeout_s`` is set — on a warm fleet, whatever its
        storage, the hand-offs cost more than there is to overlap, so
        the serial loop runs. ``explain()`` prints the verdict.
    """

    num_shards: int = 1
    router: str = "hash"
    serve_scatter_threshold: int = 4
    #: Per-shard wall-clock budget for one scattered query, in
    #: seconds. A shard that has not answered within the budget is
    #: treated as dead for that query: the gather returns the other
    #: shards' merged results tagged with the laggard in
    #: ``ShardedSearchResult.degraded_shards``. ``None`` (default)
    #: waits indefinitely — single-device deployments usually prefer
    #: a late answer over a partial one.
    shard_timeout_s: float | None = None
    #: How many times a failed shard query is retried (with backoff)
    #: before the shard is declared degraded for that query. Retries
    #: cover transient faults (a locked database file, a mid-repair
    #: hiccup); hard failures (missing file, closed shard) fail each
    #: attempt fast.
    shard_retries: int = 1
    #: Base backoff between shard retries, in milliseconds; doubles
    #: per attempt with uniform jitter.
    shard_retry_backoff_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.num_shards > 4096:
            # A fat-finger guard, not a scalability ceiling: every
            # shard is a live SQLite connection + thread pools, and a
            # five-digit count is always a typo on-device.
            raise ConfigError(
                f"num_shards must be <= 4096, got {self.num_shards}"
            )
        if (
            not self.router
            or any(c.isspace() or not c.isprintable() for c in self.router)
        ):
            # A kind is a manifest-persisted scheme NAME (custom
            # routers may use dots/dashes, e.g. "user-locality"), not
            # a Python identifier — just keep it greppable.
            raise ConfigError(
                f"router must be a non-empty name without whitespace, "
                f"got {self.router!r}"
            )
        if self.serve_scatter_threshold < 1:
            raise ConfigError("serve_scatter_threshold must be >= 1")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigError("shard_timeout_s must be > 0 when set")
        if self.shard_retries < 0:
            raise ConfigError("shard_retries must be >= 0")
        if self.shard_retry_backoff_ms < 0:
            raise ConfigError("shard_retry_backoff_ms must be >= 0")


#: Column names used by the library's own schema; attributes must not
#: collide with them.
_RESERVED_COLUMNS = frozenset(
    {
        "asset_id",
        "vector_id",
        "partition_id",
        "vector",
        "centroid",
        "rowid",
        "key",
        "value",
    }
)
