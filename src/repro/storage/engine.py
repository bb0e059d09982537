"""SQLite-backed storage engine.

Implements the paper's physical design (§3.2, §3.6):

- **WAL mode** for ACID semantics with one serialized writer and many
  snapshot-isolated readers. Every thread gets its own reader
  connection; a single writer connection is guarded by a re-entrant
  lock so upserts, deletes and rebuilds are fully serialized.
- **Clustered vector table** keyed ``(partition_id, asset_id,
  vector_id)`` so a partition scan is one sequential range read.
- **Delta-store as a reserved partition** (id ``-1``): newly upserted
  vectors land there and are moved into IVF partitions by maintenance.
- **Row-change accounting**: every write transaction reports the number
  of row inserts/updates/deletes to the I/O accountant — the flash-wear
  metric of Figure 10d.
- **Partition cache**: reads of whole partitions go through a
  byte-budgeted LRU of decoded matrices (the page-cache analog); cold
  start purges it, warm-up queries populate it.
- **Quantized codes** (``quantization="sq8"``/``"pq"``): a parallel
  clustered table of compact scan codes (1 byte per dimension for SQ8,
  1 byte per sub-vector for PQ), with its own LRU, serving the fast
  scan path; float32 blobs stay authoritative for reranking, and the
  codes table is absent entirely in the default float mode.

The engine knows nothing about distances, filters or query plans — it
stores and retrieves rows. Higher layers compose it.
"""

from __future__ import annotations

import contextlib
import logging
import os
import random
import shutil
import sqlite3
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.config import DELTA_PARTITION_ID, MicroNNConfig
from repro.core.errors import (
    DatabaseClosedError,
    StorageError,
    UnknownAttributeError,
    WriteConflictError,
)
from repro.storage import schema as schema_mod
from repro.storage.backends import (
    BACKEND_META_KEY,
    PartitionPayload,
    create_backend,
)
from repro.storage.backends.base import (
    CHECKSUM_KIND_CODES,
    CHECKSUM_KIND_VECTORS,
    SQLITE_ROW_OVERHEAD_BYTES,
    payload_checksum,
)
from repro.storage.cache import (
    CODES_CACHE_CATEGORY,
    ROW_ID_OVERHEAD_BYTES,
    AttributeColumn,
    CachedPartition,
    DeltaCodesCache,
    PartitionCache,
    PatchPlan,
    ScratchBufferPool,
    ScratchLease,
)
from repro.storage.codec import (
    CODE_DTYPE,
    VECTOR_DTYPE,
    decode_matrix,
    decode_vector,
    encode_code_matrix,
    encode_vector,
)
from repro.obs import EventLog, MetricsRegistry, WorkloadMonitor
from repro.storage.iomodel import IOAccountant
from repro.storage.memory import MemoryTracker
from repro.storage.quantization import Quantizer, quantizer_from_json

#: Estimated fixed per-row storage overhead, used for byte accounting.
#: Canonical home is ``repro.storage.backends.base``; re-exported here
#: because the serving scheduler (and older call sites) import it from
#: the engine.
_ROW_OVERHEAD_BYTES = SQLITE_ROW_OVERHEAD_BYTES

logger = logging.getLogger(__name__)

#: Every labeled commit point in the engine, in rough lifecycle order.
#: The fault-injection kill-point sweep iterates this registry so a new
#: write path cannot silently skip crash-safety coverage — add the
#: label here when adding a ``write_transaction(label=...)`` call site.
COMMIT_POINTS: tuple[str, ...] = (
    "upsert",
    "delete",
    "replace_centroids",
    "update_centroids",
    "assign",
    "rebuild_codes",
    "column_stats",
    "repair",
)


#: Meta key persisting the budgeted-scrub round-robin cursor: the last
#: partition id verified by an amortized pass, so the next pass resumes
#: after it instead of re-reading the same prefix every cycle.
SCRUB_CURSOR_META_KEY = "scrub_cursor"


def commit_points_for(backend_kind: str) -> tuple[str, ...]:
    """Every commit point reachable on the given physical layout.

    The blobfile backend adds ``"compact"`` (the locator/generation
    flip of its copy-live-forward compaction); the other layouts never
    emit it, so the kill-point sweep asks here instead of hard-coding
    :data:`COMMIT_POINTS`.
    """
    kind = backend_kind
    if kind.startswith("fault:"):
        kind = kind[len("fault:"):]
    if kind == "blobfile":
        return COMMIT_POINTS + ("compact",)
    return COMMIT_POINTS


#: Weight of the newest sample in the seconds-per-cold-load estimate.
#: From page-cache speed (0.2 ms), four 2 ms reads after a cold start
#: carry it past 1 ms, while a lone scheduling hiccup must exceed 6 ms
#: to.
_COLD_LOAD_WEIGHT = 0.125


@dataclass(frozen=True)
class _PayloadKind:
    """What differs between a float32 and a scan-code partition load."""

    #: Checksum kind; also the ``kind`` label of the load counters.
    name: str
    dtype: np.dtype
    #: Elements per row: ``dim``, or the scan-code width.
    width: int
    cache: PartitionCache
    read: Callable[[sqlite3.Connection, int], PartitionPayload]
    #: Simulated OS page cache: partitions read since the last purge.
    os_cached: set[int]
    count_hot: Callable[[], None]
    count_cold: Callable[[], None]
    count_bytes: Callable[[float], None]


class _ThreadState(threading.local):
    """One thread's engine state: its reader connection, and the cache
    generations noted when its read snapshot opened (None outside)."""

    conn: sqlite3.Connection | None = None
    cache_generations: dict | None = None


@dataclass(frozen=True)
class VectorRecord:
    """One asset to upsert: vector plus optional attribute values."""

    asset_id: str
    vector: np.ndarray
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of a cold integrity pass over every indexed partition.

    ``repaired_codes``, ``dropped_partitions`` and ``stamped`` are only
    populated by :meth:`StorageEngine.repair`; a plain scrub leaves
    them at their defaults.
    """

    partitions_checked: int
    corrupt_vectors: tuple[int, ...]
    corrupt_codes: tuple[int, ...]
    unstamped: tuple[int, ...]
    quantizer_ok: bool
    repaired_codes: int = 0
    dropped_partitions: tuple[int, ...] = ()
    stamped: int = 0

    @property
    def healthy(self) -> bool:
        return (
            not self.corrupt_vectors
            and not self.corrupt_codes
            and self.quantizer_ok
        )


class StorageEngine:
    """Relational storage for vectors, centroids, attributes and tokens."""

    def __init__(
        self,
        path: str | os.PathLike[str] | None,
        config: MicroNNConfig,
        tracker: MemoryTracker | None = None,
        accountant: IOAccountant | None = None,
        tokenizer: Callable[[str], list[str]] | None = None,
    ) -> None:
        self._config = config
        self._tracker = tracker or MemoryTracker()
        self._accountant = accountant or IOAccountant(config.device.io_model)
        self._tokenizer = tokenizer
        self._closed = False
        self._tempdir: str | None = None
        if path is None:
            self._tempdir = tempfile.mkdtemp(prefix="micronn-")
            path = os.path.join(self._tempdir, "micronn.db")
        self._path = os.fspath(path)

        # The physical layout + connection strategy live behind the
        # backend; the engine adopts its writer lock so a shared-
        # connection backend can serialize reads against writes.
        self._backend = create_backend(
            config.storage_backend, self._path, config
        )
        self._writer_lock = self._backend.writer_lock
        self._serves_views = bool(
            getattr(self._backend, "serves_mmap_views", False)
        )
        self._readers_lock = threading.Lock()
        self._reader_registry: list[sqlite3.Connection] = []
        self._local = _ThreadState()

        self._writer = self._backend.connect_writer()
        # Refuse a database laid out by a different backend BEFORE any
        # DDL runs, so a mismatched open never pollutes the file.
        self._backend.validate_stored_kind(self._writer)
        self._use_fts5 = bool(
            config.fts_attributes
        ) and schema_mod.fts5_available(self._writer)
        self._use_quantization = config.uses_quantization
        with self._writer:
            schema_mod.create_common_schema(
                self._writer,
                config.normalized_attributes,
                config.fts_attributes,
                self._use_fts5,
            )
            self._backend.create_layout_tables(
                self._writer, self._use_quantization
            )
        self._init_meta()

        # In sq8 mode the device's cache budget is SPLIT between the
        # two LRUs — their sum never exceeds the configured envelope.
        # Codes get the lion's share (a code entry is 4x smaller than
        # its float twin, so 3/4 of the budget holds 3x the partitions
        # a full float budget would); the float cache keeps the rest
        # for the delta partition and code-less fallback loads.
        budget = config.device.partition_cache_bytes
        float_budget = budget // 4 if self._use_quantization else budget
        self.cache = PartitionCache(float_budget, tracker=self._tracker)
        self.codes_cache = PartitionCache(
            budget - float_budget if self._use_quantization else 0,
            tracker=self._tracker,
            category=CODES_CACHE_CATEGORY,
        )
        # Reusable decode buffers for the pipelined scan: partitions the
        # LRU above would never admit (e.g. a zero cache budget) are
        # decoded into pooled scratch memory instead of a fresh
        # allocation per partition per query.
        self.scratch = ScratchBufferPool(
            config.device.scratch_buffer_bytes, tracker=self._tracker
        )
        # Blob width of one stored scan code: dim bytes for sq8, M for
        # pq — the single constant the codes codec paths decode with.
        self._code_width = config.scan_code_width
        # Lazily encoded delta codes (see DeltaCodesCache): populated
        # by the first quantized scan of an over-threshold delta,
        # dropped by every delta write.
        self.delta_codes = DeltaCodesCache(tracker=self._tracker)
        self._quantizer_lock = threading.Lock()
        self._quantizer: Quantizer | None = None
        self._quantizer_loaded = False
        self._centroid_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._centroid_cache_lock = threading.Lock()
        # Simulated OS page cache: partition ids whose pages have been
        # read since the last cold start. Reads of os-cached partitions
        # skip the I/O cost model (the kernel serves them from memory)
        # but are NOT charged to the app's memory tracker — exactly how
        # RSS-vs-page-cache behaves on a real device, and what makes
        # WarmCache fast while app memory stays within budget.
        self._os_cache_lock = threading.Lock()
        self._os_cached_partitions: set[int] = set()
        self._os_cached_code_partitions: set[int] = set()
        self._os_cached_centroids = False
        # In-flight scan guard: partition scans register themselves so
        # purge_caches() can wait for them to finish instead of ripping
        # decoded state out from under a running query. The guard is a
        # counter + condition, not a lock held across a scan, so scans
        # from many threads proceed concurrently.
        self._scan_cv = threading.Condition()
        self._active_scans = 0
        self._purging = False
        # Partitions that failed an integrity check (CRC mismatch or a
        # structurally unreadable payload). A quarantined partition is
        # served as EMPTY — queries degrade (flagged in QueryStats)
        # instead of erroring or silently returning wrong neighbors —
        # until repair() rebuilds or drops it.
        self._quarantine_lock = threading.Lock()
        self._quarantined: set[int] = set()
        self._quantizer_corrupt = False
        # Observability substrate (repro.obs): the engine owns the
        # metrics registry and event log so every layer above — the
        # executors, the scheduler, maintenance, the shard facade —
        # records into one place per database. Disabled instruments
        # collapse to a single attribute check (no lock), keeping the
        # hot paths unconditionally instrumented.
        self.metrics = MetricsRegistry(enabled=config.telemetry_enabled)
        self.events = EventLog(
            capacity=config.event_log_capacity,
            jsonl_path=config.event_log_path,
            enabled=config.telemetry_enabled,
        )
        # Workload heatmap/sketch: same ownership story as the metrics
        # registry — every layer above records into the engine's one
        # monitor. The recall auditor is owned by the database facade
        # (it needs the executor for shadow runs) and attaches itself
        # here so the executor, scheduler, and maintenance can reach
        # it without threading a reference through three constructors.
        self.workload = WorkloadMonitor(
            enabled=config.telemetry_enabled,
            max_partitions=config.workload_heatmap_partitions,
        )
        self.auditor = None
        loads = self.metrics.counter(
            "micronn_partition_loads_total",
            "Partition loads by payload kind and cache temperature.",
            labels=("backend", "kind", "temperature"),
        )
        load_bytes = self.metrics.counter(
            "micronn_partition_bytes_read_total",
            "Stored bytes read for cold partition loads.",
            labels=("backend", "kind"),
        )

        def payload_kind(name, dtype, width, cache, read, os_cached):
            # Label keys are resolved here, once, not on every load.
            by = {"backend": self._backend.kind, "kind": name}
            return _PayloadKind(
                name,
                dtype,
                width,
                cache,
                read,
                os_cached,
                count_hot=loads.bound(temperature="hot", **by),
                count_cold=loads.bound(temperature="cold", **by),
                count_bytes=load_bytes.bound(**by),
            )

        self._vector_loads = payload_kind(
            CHECKSUM_KIND_VECTORS,
            VECTOR_DTYPE,
            config.dim,
            self.cache,
            self._backend.read_partition,
            self._os_cached_partitions,
        )
        self._code_loads = payload_kind(
            CHECKSUM_KIND_CODES,
            CODE_DTYPE,
            self._code_width,
            self.codes_cache,
            self._backend.read_partition_codes,
            self._os_cached_code_partitions,
        )
        self._cold_load_s: float | None = None
        self._m_quarantined = self.metrics.counter(
            "micronn_partitions_quarantined_total",
            "Partitions quarantined by integrity-check failures.",
        )
        self._m_maintenance = self.metrics.counter(
            "micronn_maintenance_actions_total",
            "Maintenance/scrub actions performed.",
            labels=("action",),
        )
        gauge = self.metrics.gauge(
            "micronn_cache_bytes",
            "Partition/scratch memory pools: used vs budget.",
            labels=("pool", "stat"),
        )
        gauge.set_fn(lambda: self.cache.used_bytes, pool="float", stat="used")
        gauge.set_fn(
            lambda: self.cache.budget_bytes, pool="float", stat="budget"
        )
        gauge.set_fn(
            lambda: self.codes_cache.used_bytes, pool="codes", stat="used"
        )
        gauge.set_fn(
            lambda: self.codes_cache.budget_bytes,
            pool="codes",
            stat="budget",
        )
        gauge.set_fn(
            lambda: self.scratch.pinned_bytes, pool="scratch", stat="pinned"
        )
        gauge.set_fn(
            lambda: self.scratch.pooled_bytes, pool="scratch", stat="pooled"
        )
        gauge.set_fn(
            lambda: self.scratch.budget_bytes, pool="scratch", stat="budget"
        )
        self.metrics.gauge(
            "micronn_partitions_quarantined",
            "Partitions currently quarantined (cleared by repair).",
        ).set_fn(lambda: float(len(self._quarantined)))
        # Blob-file backend instrumentation: record appends, blob-file
        # compactions, and bytes served zero-copy through the mapping.
        # Exported as a gauge family reading the backend's counters so
        # the hot append/read paths never touch the registry.
        if hasattr(self._backend, "blob_stats"):
            blob_gauge = self.metrics.gauge(
                "micronn_blobfile_stats",
                "Blob-file backend counters: record appends, appended "
                "bytes, compactions, mmap'd bytes served.",
                labels=("stat",),
            )
            for stat in (
                "appends",
                "appended_bytes",
                "compactions",
                "mmap_bytes_served",
            ):
                blob_gauge.set_fn(
                    lambda s=stat: float(
                        self._backend.blob_stats()[s]
                    ),
                    stat=stat,
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def config(self) -> MicroNNConfig:
        return self._config

    @property
    def storage_backend(self) -> str:
        """Name of the active physical layout (e.g. ``sqlite-row``)."""
        return self._backend.kind

    @property
    def tracker(self) -> MemoryTracker:
        return self._tracker

    @property
    def accountant(self) -> IOAccountant:
        return self._accountant

    @property
    def uses_fts5(self) -> bool:
        return self._use_fts5

    @property
    def uses_quantization(self) -> bool:
        return self._use_quantization

    def close(self) -> None:
        """Close all connections; further operations raise."""
        if self._closed:
            return
        self._closed = True
        with self._readers_lock:
            for conn in self._reader_registry:
                with contextlib.suppress(sqlite3.Error):
                    self._backend.close_connection(conn)
            self._reader_registry.clear()
        with contextlib.suppress(sqlite3.Error):
            self._backend.close_connection(self._writer)
        self._backend.shutdown()
        self.cache.clear()
        self.codes_cache.clear()
        self.delta_codes.invalidate()
        self.scratch.drain()
        self._drop_centroid_cache()
        self.events.close()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)

    @property
    def is_open(self) -> bool:
        return not self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("database is closed")

    def _reader(self) -> sqlite3.Connection:
        """Thread-local read-only connection (snapshot per transaction)."""
        self._check_open()
        if self._backend.shared_connection:
            return self._writer
        conn = self._local.conn
        if conn is None:
            conn = self._backend.connect_reader()
            self._local.conn = conn
            with self._readers_lock:
                self._reader_registry.append(conn)
        return conn

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _begin_write(self) -> None:
        """``BEGIN IMMEDIATE`` with bounded, jittered busy retries.

        A transient ``database is locked``/``busy`` error (another
        process holds the write lock, or the fault wrapper injects one)
        is retried up to ``config.busy_retries`` times with exponential
        backoff starting at ``config.busy_backoff_ms``; exhaustion
        raises :class:`WriteConflictError`. Non-lock operational errors
        propagate untouched.
        """
        retries = self._config.busy_retries
        backoff_s = self._config.busy_backoff_ms / 1000.0
        attempt = 0
        while True:
            try:
                self._backend.before_begin_write()
                self._writer.execute("BEGIN IMMEDIATE")
                return
            except sqlite3.OperationalError as exc:
                text = str(exc).lower()
                if "locked" not in text and "busy" not in text:
                    raise
                if attempt >= retries:
                    raise WriteConflictError(
                        "could not acquire the write transaction after "
                        f"{attempt + 1} attempts: {exc}"
                    ) from exc
                delay = backoff_s * (2**attempt)
                if delay > 0:
                    # Jitter desynchronizes contending writers.
                    time.sleep(random.uniform(delay * 0.5, delay))
                attempt += 1

    @contextlib.contextmanager
    def write_transaction(
        self, label: str = "write"
    ) -> Iterator[sqlite3.Connection]:
        """Serialized write transaction with row-change accounting.

        ``label`` names the commit point for the crash-safety hooks
        (:data:`COMMIT_POINTS`): the backend's ``before_commit`` /
        ``after_commit`` are invoked around the commit so a fault-
        injecting backend can crash at exactly this boundary. An
        exception from ``before_commit`` (a pre-commit crash) rolls the
        transaction back; ``after_commit`` runs once the transaction is
        durable, outside the rollback scope.
        """
        self._check_open()
        with self._writer_lock:
            before = self._writer.total_changes
            self._begin_write()
            try:
                yield self._writer
                self._backend.before_commit(label)
            except BaseException:
                self._writer.rollback()
                raise
            else:
                self._writer.commit()
            finally:
                changed = self._writer.total_changes - before
                if changed > 0:
                    self._accountant.record_rows_written(changed)
            self._backend.after_commit(label)

    @contextlib.contextmanager
    def read_snapshot(self) -> Iterator[sqlite3.Connection]:
        """Snapshot-isolated read transaction on this thread's reader.

        Under WAL, a deferred transaction pins the database snapshot at
        its first read; everything inside the ``with`` block sees one
        consistent state even while the writer commits concurrently.

        Re-entrant per thread: a ``read_snapshot()`` opened while this
        thread's reader already holds one joins it (the reader runs no
        other transactions, so ``in_transaction`` means exactly that).
        A serial scan opens one around its loads, so a query's cold
        partitions all come from one database state, in one
        transaction.

        Opening (not joining) a snapshot first notes each cache's
        generation for this thread. A load inside the block hands that
        value to the cache's ``put``: a write that committed and
        patched the cache after the snapshot was pinned has moved the
        generation, so the pre-write partition this snapshot still
        reads is served to this scan but not cached for the next. For
        the same reason a load inside the block takes nothing from a
        cache whose generation has moved (:meth:`_serves_cache`): a
        patched entry is newer than the snapshot, and a scan mixing it
        with pre-write cold loads could see an overwritten row in
        neither its old partition nor the delta.

        A shared-connection backend (memory) has no WAL snapshots:
        reads serialize behind the writer lock instead — the lock is
        re-entrant, so same-thread writes inside the block still work
        (and are read back at once, so every entry re-notes the
        generations).
        """
        if self._backend.shared_connection:
            self._check_open()
            with self._writer_lock:
                outer = self._note_cache_generations()
                try:
                    yield self._writer
                finally:
                    self._local.cache_generations = outer
            return
        conn = self._reader()
        if conn.in_transaction:
            yield conn
            return
        outer = self._note_cache_generations()
        conn.execute("BEGIN DEFERRED")
        try:
            yield conn
        finally:
            self._local.cache_generations = outer
            with contextlib.suppress(sqlite3.Error):
                conn.execute("COMMIT")

    def _note_cache_generations(self) -> dict | None:
        """Note each cache's generation for this thread's snapshot;
        returns what was noted before, for the snapshot's exit."""
        outer = self._local.cache_generations
        self._local.cache_generations = {
            cache: cache.generation()
            for cache in (self.cache, self.codes_cache, self.delta_codes)
        }
        return outer

    def _serves_cache(self, cache: PartitionCache | DeltaCodesCache) -> bool:
        """Whether a load on this thread may take entries from ``cache``:
        always outside a read snapshot; inside one, only while no write
        has patched the cache since the snapshot opened."""
        noted = self._local.cache_generations
        return noted is None or noted[cache] == cache.generation()

    @contextlib.contextmanager
    def _plain_reader(self) -> Iterator[sqlite3.Connection]:
        """A connection for a single autocommit point-read.

        File backends hand out the thread-local reader WITHOUT opening
        a transaction (a point-read needs no snapshot, and inside a
        caller's snapshot it reads from that one); the shared-
        connection backend serializes behind the writer lock.
        """
        if self._backend.shared_connection:
            self._check_open()
            with self._writer_lock:
                yield self._writer
            return
        yield self._reader()

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------

    def _init_meta(self) -> None:
        with self._writer_lock, self._writer:
            cur = self._writer.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            )
            row = cur.fetchone()
            if row is None:
                self._writer.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("schema_version", str(schema_mod.SCHEMA_VERSION)),
                        ("dim", str(self._config.dim)),
                        ("metric", self._config.metric),
                        ("next_vector_id", "1"),
                        (BACKEND_META_KEY, self._backend.kind),
                    ],
                )
            else:
                # Databases predating the backend abstraction carry no
                # backend row; stamp the (already validated) kind so
                # detection is explicit from here on.
                self._writer.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO NOTHING",
                    (BACKEND_META_KEY, self._backend.kind),
                )
                stored_dim = int(self.get_meta("dim") or 0)
                if stored_dim != self._config.dim:
                    raise StorageError(
                        f"database was created with dim={stored_dim}, "
                        f"config says dim={self._config.dim}"
                    )
                stored_metric = self.get_meta("metric")
                if stored_metric != self._config.metric:
                    raise StorageError(
                        f"database was created with metric={stored_metric!r},"
                        f" config says metric={self._config.metric!r}"
                    )

    def get_meta(self, key: str) -> str | None:
        self._check_open()
        cur = self._writer.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        )
        row = cur.fetchone()
        return None if row is None else str(row[0])

    def set_meta(self, key: str, value: str) -> None:
        self._check_open()
        with self._writer_lock, self._writer:
            self._writer.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, value),
            )

    def _allocate_vector_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive vector ids, return the first."""
        cur = self._writer.execute(
            "SELECT value FROM meta WHERE key='next_vector_id'"
        )
        first = int(cur.fetchone()[0])
        self._writer.execute(
            "UPDATE meta SET value=? WHERE key='next_vector_id'",
            (str(first + count),),
        )
        return first

    # ------------------------------------------------------------------
    # Writes: upsert / delete
    # ------------------------------------------------------------------

    def upsert_batch(self, records: Sequence[VectorRecord]) -> int:
        """Insert or replace assets; new vectors land in the delta-store.

        Returns the number of records written. Upsert semantics: if the
        asset already exists its old vector row (wherever it lives) and
        attribute row are replaced; the fresh vector is staged in the
        delta partition until the next index maintenance (paper §3.6).
        """
        self._check_open()
        if not records:
            return 0
        dim = self._config.dim
        attr_names = list(self._config.normalized_attributes)
        with self._writer_lock:
            with self.write_transaction("upsert") as conn:
                first_id = self._allocate_vector_ids(len(records))
                # Validate and encode everything first, then hand the
                # backend one batched remove + insert. Duplicate asset
                # ids within a batch resolve last-wins, matching the
                # old per-record delete-then-insert loop.
                staged: dict[str, tuple[VectorRecord, int, bytes]] = {}
                for offset, record in enumerate(records):
                    self._validate_attributes(record.attributes)
                    blob = encode_vector(record.vector, dim)
                    staged[record.asset_id] = (
                        record,
                        first_id + offset,
                        blob,
                    )
                ordered = list(staged.values())
                batch_ids = list(staged)
                # Replacing an indexed asset shrinks its old partition,
                # so that partition's stored checksum must be
                # restamped in the SAME transaction. Resolve the old
                # homes before the rows move.
                touched = self._backend.partitions_of(conn, batch_ids)
                # Fresh vectors land in the full-precision delta; any
                # stale vector row (wherever it lives) and code row
                # must not survive them.
                self._backend.remove_assets(
                    conn,
                    batch_ids,
                    drop_codes=self._use_quantization,
                )
                self._backend.insert_delta_rows(
                    conn,
                    [
                        (record.asset_id, vector_id, blob)
                        for record, vector_id, blob in ordered
                    ],
                )
                self._delete_tokens(conn, batch_ids)
                self._write_attributes(
                    conn, [record for record, _, _ in ordered], attr_names
                )
                fresh = CachedPartition(
                    partition_id=DELTA_PARTITION_ID,
                    asset_ids=tuple(batch_ids),
                    vector_ids=tuple(vid for _, vid, _ in ordered),
                    matrix=np.frombuffer(
                        b"".join(blob for _, _, blob in ordered),
                        dtype=VECTOR_DTYPE,
                    ).reshape(len(ordered), dim),
                )
                patch = self._plan_and_stamp(
                    conn, set(batch_ids), touched, fresh=fresh
                )
            self._patch_caches(patch)
        return len(records)

    def _plan_and_stamp(
        self,
        conn: sqlite3.Connection,
        asset_ids: set[str],
        partitions: set[int],
        touched: set[int] | None = None,
        moves: Mapping[str, int] | None = None,
        fresh: CachedPartition | None = None,
    ) -> tuple[PatchPlan, PatchPlan | None]:
        """Plan a write's patch of the float and code caches (the latter
        None unless the database keeps scan codes) and stamp its
        checksums from it.

        Runs inside the write transaction, after the rows changed:
        ``asset_ids`` leave the entries of ``partitions``, ``moves``
        carry rows to their destinations, ``fresh`` rows join the delta
        (see :meth:`PartitionCache.plan`). Each planned entry is the
        partition as the write leaves it, so the checksums of
        ``touched`` (default ``partitions``) are stamped from the
        post-write copy at hand; only partitions with none — not
        resident, or a destination the patch drops — are re-read.
        """
        codes = None
        if self._use_quantization:
            # Code entries never gain rows: the destinations of moved
            # rows are dropped and load cold.
            codes = self.codes_cache.plan(
                asset_ids, partitions, drop=set((moves or {}).values())
            )
        floats = self.cache.plan(
            asset_ids, partitions, moves=moves, fresh=fresh
        )
        planned = {CHECKSUM_KIND_VECTORS: floats.entries}
        if codes is not None:
            planned[CHECKSUM_KIND_CODES] = codes.entries
        self._backend.refresh_checksums(
            conn,
            partitions if touched is None else touched,
            self._use_quantization,
            planned=planned,
        )
        return floats, codes

    def _patch_caches(
        self, patch: tuple[PatchPlan, PatchPlan | None]
    ) -> None:
        """Install a committed write's planned patch in the caches (see
        :meth:`PartitionCache.install`).

        Runs after the commit and before the writer lock is released,
        so patches apply in commit order. The entries that gain rows
        change before those that lose them, so a scan taking entries
        from both caches between the two installs may see a row twice
        (the cut keeps one copy) but never miss it — on an upsert the
        float delta goes first, on a move the code entries do. The
        delta codes are encoded from the float delta, so they are
        dropped after it is patched: an encode that read the delta
        before the patch is then not cached.
        """
        floats, codes = patch
        if codes is not None and floats.moved_in:
            self.codes_cache.install(codes)
        self.cache.install(floats)
        if codes is None:
            return
        if (
            floats.moved_in
            or floats.joining
            or DELTA_PARTITION_ID in floats.holders
        ):
            self.delta_codes.invalidate()
        if not floats.moved_in:
            self.codes_cache.install(codes)

    def _validate_attributes(self, attributes: Mapping[str, object]) -> None:
        declared = self._config.normalized_attributes
        for name in attributes:
            if name not in declared:
                raise UnknownAttributeError(name, tuple(declared))

    def _write_attributes(
        self,
        conn: sqlite3.Connection,
        records: Sequence[VectorRecord],
        attr_names: list[str],
    ) -> None:
        """Replace the attribute rows of records with distinct asset ids
        and write their tokens (the caller deleted their old tokens).
        One ``INSERT OR REPLACE`` per row, all in one call."""
        if not attr_names:
            # No declared schema: nothing beyond the vector row.
            conn.executemany(
                "DELETE FROM attributes WHERE asset_id=?",
                [(record.asset_id,) for record in records],
            )
            return
        columns = ["asset_id"] + [
            schema_mod._quote_ident(n) for n in attr_names
        ]
        placeholders = ", ".join("?" for _ in columns)
        conn.executemany(
            f"INSERT OR REPLACE INTO attributes ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            [
                [record.asset_id]
                + [record.attributes.get(n) for n in attr_names]
                for record in records
            ],
        )
        for record in records:
            self._write_tokens(conn, record)

    def _write_tokens(
        self, conn: sqlite3.Connection, record: VectorRecord
    ) -> None:
        if not self._config.fts_attributes or self._tokenizer is None:
            return
        fts_values: list[object] = []
        rows: list[tuple[str, str, str]] = []
        for name in self._config.fts_attributes:
            text = record.attributes.get(name)
            fts_values.append(text)
            if text is None:
                continue
            for token in set(self._tokenizer(str(text))):
                rows.append((name, token, record.asset_id))
        if rows:
            conn.executemany(
                "INSERT OR IGNORE INTO tokens (attribute, token, asset_id) "
                "VALUES (?, ?, ?)",
                rows,
            )
        if self._use_fts5:
            cols = ", ".join(
                schema_mod._quote_ident(n)
                for n in self._config.fts_attributes
            )
            placeholders = ", ".join(
                "?" for _ in range(len(self._config.fts_attributes) + 1)
            )
            conn.execute(
                f"INSERT INTO attributes_fts (asset_id, {cols}) "
                f"VALUES ({placeholders})",
                [record.asset_id, *fts_values],
            )

    def _delete_tokens(
        self, conn: sqlite3.Connection, asset_ids: Sequence[str]
    ) -> None:
        params = [(asset_id,) for asset_id in asset_ids]
        conn.executemany("DELETE FROM tokens WHERE asset_id=?", params)
        if self._use_fts5:
            conn.executemany(
                "DELETE FROM attributes_fts WHERE asset_id=?", params
            )

    def delete_assets(self, asset_ids: Iterable[str]) -> int:
        """Delete assets (vector, attributes, tokens). Returns count."""
        self._check_open()
        ids = list(asset_ids)
        if not ids:
            return 0
        with self._writer_lock:
            with self.write_transaction("delete") as conn:
                touched = self._backend.partitions_of(conn, ids)
                deleted = self._backend.remove_assets(
                    conn, ids, drop_codes=self._use_quantization
                )
                conn.executemany(
                    "DELETE FROM attributes WHERE asset_id=?",
                    [(asset_id,) for asset_id in ids],
                )
                self._delete_tokens(conn, ids)
                patch = self._plan_and_stamp(conn, set(ids), touched)
            self._patch_caches(patch)
        return deleted

    # ------------------------------------------------------------------
    # Writes: index structures
    # ------------------------------------------------------------------

    def replace_centroids(
        self, centroids: np.ndarray, counts: Sequence[int]
    ) -> None:
        """Replace the whole centroid table after a full (re)build."""
        self._check_open()
        if len(centroids) != len(counts):
            raise StorageError("centroids and counts length mismatch")
        dim = self._config.dim
        with self.write_transaction("replace_centroids") as conn:
            conn.execute("DELETE FROM centroids")
            conn.executemany(
                "INSERT INTO centroids (partition_id, centroid, vector_count)"
                " VALUES (?, ?, ?)",
                [
                    (pid, encode_vector(centroids[pid], dim), int(counts[pid]))
                    for pid in range(len(centroids))
                ],
            )
        self._drop_centroid_cache()

    def update_centroids(
        self, updates: Mapping[int, tuple[np.ndarray, int]]
    ) -> None:
        """Update a subset of centroids (incremental maintenance)."""
        self._check_open()
        if not updates:
            return
        dim = self._config.dim
        with self.write_transaction("update_centroids") as conn:
            conn.executemany(
                "UPDATE centroids SET centroid=?, vector_count=? "
                "WHERE partition_id=?",
                [
                    (encode_vector(vec, dim), int(count), pid)
                    for pid, (vec, count) in updates.items()
                ],
            )
        self._drop_centroid_cache()

    def set_partition_assignments(
        self,
        assignments: Iterable[tuple[str, int]],
        code_rows: Sequence[tuple[int, str, int, bytes]] | None = None,
    ) -> int:
        """Move vectors between partitions: (asset_id, new_partition).

        Each move physically rewrites the row (the partition id is part
        of the clustered primary key), which is exactly the I/O the
        paper's incremental maintenance tries to minimize.

        ``code_rows`` — (partition_id, asset_id, vector_id, blob) SQ8
        codes for the moved vectors — commit in the SAME transaction:
        an incremental flush must never land vectors in a quantized
        partition without their codes, or a crash between two commits
        would leave them invisible to every quantized scan.
        """
        self._check_open()
        moves = list(assignments)
        if not moves:
            return 0
        if code_rows and not self._use_quantization:
            raise StorageError("quantization is not enabled for this database")
        destination = dict(moves)
        with self._writer_lock:
            with self.write_transaction("assign") as conn:
                # Both sides of every move need a fresh checksum: the
                # source partition the row leaves and the destination
                # it lands in.
                sources = self._backend.partitions_of(conn, list(destination))
                touched = sources | set(destination.values())
                if code_rows:
                    touched.update(pid for pid, _, _, _ in code_rows)
                self._backend.apply_assignments(
                    conn, moves, code_rows, self._use_quantization
                )
                patch = self._plan_and_stamp(
                    conn,
                    set(destination),
                    sources,
                    touched=touched,
                    moves=destination,
                )
            self._patch_caches(patch)
        return len(moves)

    # ------------------------------------------------------------------
    # Reads: centroids
    # ------------------------------------------------------------------

    def load_centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (partition_ids int64[n], centroid matrix float32[n,d]).

        The centroid table is small (|X| / target_cluster_size rows) and
        hot — it is scanned by every query — so it is cached in memory
        after first load and accounted to the memory tracker. Writers
        drop the cache when centroids change.
        """
        self._check_open()
        with self._centroid_cache_lock:
            if self._centroid_cache is not None:
                return self._centroid_cache
        with self.read_snapshot() as conn:
            rows = conn.execute(
                "SELECT partition_id, centroid FROM centroids "
                "ORDER BY partition_id"
            ).fetchall()
        dim = self._config.dim
        if rows:
            ids = np.array([r[0] for r in rows], dtype=np.int64)
            matrix = decode_matrix([r[1] for r in rows], dim).copy()
        else:
            ids = np.empty(0, dtype=np.int64)
            matrix = np.empty((0, dim), dtype=np.float32)
        nbytes = int(matrix.nbytes) + int(ids.nbytes)
        with self._os_cache_lock:
            charge = not self._os_cached_centroids
            self._os_cached_centroids = True
        self._accountant.record_read(
            nbytes + _ROW_OVERHEAD_BYTES * len(rows), charge_cost=charge
        )
        with self._centroid_cache_lock:
            if self._centroid_cache is None:
                self._centroid_cache = (ids, matrix)
                self._tracker.set_category("centroids", nbytes)
            else:
                # Another reader won the race; hand out its tuple so
                # identity-keyed consumers (the coarse-index cache)
                # converge on one matrix object.
                ids, matrix = self._centroid_cache
        # Return the locally held tuple, never the attribute: a
        # concurrent purge may null the cache between this lock and
        # the return, and callers must still get a coherent snapshot.
        return ids, matrix

    def _drop_centroid_cache(self) -> None:
        with self._centroid_cache_lock:
            self._centroid_cache = None
            self._tracker.set_category("centroids", 0)

    def centroid_count(self) -> int:
        self._check_open()
        with self._plain_reader() as conn:
            cur = conn.execute("SELECT COUNT(*) FROM centroids")
            return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # Integrity: checksums and quarantine
    # ------------------------------------------------------------------

    def is_quarantined(self, partition_id: int) -> bool:
        with self._quarantine_lock:
            return partition_id in self._quarantined

    @property
    def quarantined_partitions(self) -> tuple[int, ...]:
        """Sorted ids of partitions currently served as empty."""
        with self._quarantine_lock:
            return tuple(sorted(self._quarantined))

    def _stored_checksum(
        self, conn: sqlite3.Connection, partition_id: int, kind: str
    ) -> int | None:
        row = conn.execute(
            "SELECT crc32 FROM partition_checksums "
            "WHERE partition_id=? AND kind=?",
            (partition_id, kind),
        ).fetchone()
        return None if row is None else int(row[0])

    def _empty_entry(
        self, partition_id: int, dtype: np.dtype = VECTOR_DTYPE
    ) -> CachedPartition:
        width = (
            self._code_width if dtype is CODE_DTYPE else self._config.dim
        )
        return CachedPartition(
            partition_id=partition_id,
            asset_ids=(),
            vector_ids=(),
            matrix=np.empty((0, width), dtype=dtype),
        )

    def _quarantine(
        self,
        partition_id: int,
        detail: str,
        dtype: np.dtype = VECTOR_DTYPE,
    ) -> CachedPartition:
        """Mark a partition corrupt and serve it as empty (degraded)."""
        with self._quarantine_lock:
            fresh = partition_id not in self._quarantined
            self._quarantined.add(partition_id)
        if fresh:
            logger.warning(
                "quarantined partition %d: %s", partition_id, detail
            )
            self._m_quarantined.inc()
            self.events.emit(
                "quarantine", partition_id=partition_id, detail=detail
            )
        self.cache.invalidate(partition_id)
        self.codes_cache.invalidate(partition_id)
        self._accountant.record_quarantined()
        return self._empty_entry(partition_id, dtype)

    # ------------------------------------------------------------------
    # Reads: partitions and vectors
    # ------------------------------------------------------------------

    def _materialize(
        self, payload: PartitionPayload, kind: _PayloadKind, use_scratch: bool
    ) -> tuple[np.ndarray, ScratchLease | None]:
        """Reinterpret a payload's buffer as the partition matrix.

        The buffer IS the matrix (a read-only view, zero-copy); row
        widths are validated by the total length. Only a ``use_scratch``
        load of a partition ``kind.cache`` could not admit anyway (the
        admission estimate uses the same per-row constant as
        ``CachedPartition.nbytes``) is copied — into a pooled scratch
        lease, returned alongside the matrix for the caller to release
        after scoring. A backend serving mmap views skips that too: the
        mapped bytes stay valid for the life of the view (records are
        append-only within a generation, and a compaction swap keeps
        the retired mapping alive until its views die).
        """
        count = len(payload)
        nbytes = count * kind.width * kind.dtype.itemsize
        if len(payload.packed) != nbytes:
            raise StorageError(
                f"partition payload holds {len(payload.packed)} bytes, "
                f"expected {nbytes} ({count} rows of {kind.width} x "
                f"{kind.dtype.itemsize}-byte elements)"
            )
        source = np.frombuffer(payload.packed, dtype=kind.dtype).reshape(
            count, kind.width
        )
        if (
            use_scratch
            and count
            and not self._serves_views
            and not kind.cache.would_admit(
                nbytes + ROW_ID_OVERHEAD_BYTES * count
            )
        ):
            lease = self.scratch.checkout(nbytes)
            try:
                out = lease.array((count, kind.width), kind.dtype)
                np.copyto(out, source)
                return out, lease
            except BaseException:
                lease.release()
                raise
        return source, None

    def _load(
        self,
        kind: _PayloadKind,
        partition_id: int,
        use_cache: bool,
        use_scratch: bool,
    ) -> CachedPartition:
        """One partition load of either payload kind (cache-aware).

        A cold load costs a constant number of Python-level calls: one
        row select, one checksum select, three CRC calls, one
        reinterpretation. Nested inside a caller's
        :meth:`read_snapshot` it adds no transaction of its own.
        """
        self._check_open()
        is_delta = partition_id == DELTA_PARTITION_ID
        if not is_delta and self.is_quarantined(partition_id):
            self._accountant.record_quarantined()
            self.workload.record_quarantine_hit(partition_id)
            return self._empty_entry(partition_id, kind.dtype)
        if use_cache:
            cached = (
                kind.cache.get(partition_id)
                if self._serves_cache(kind.cache)
                else None
            )
            if cached is not None:
                self._accountant.record_cache_hit()
                kind.count_hot()
                self.workload.record_access(partition_id, 0, hot=True)
                return cached
            self._accountant.record_cache_miss()
        # Cold read: verify the payload against its stored CRC (stamped
        # by every write that touched the partition). The delta is
        # exempt — it is rewritten too often to checksum per upsert and
        # a corrupt delta is a hard error, not a degradable one.
        start = time.perf_counter()
        try:
            with self.read_snapshot() as conn:
                generation = self._local.cache_generations[kind.cache]
                payload = kind.read(conn, partition_id)
                expected = (
                    None
                    if is_delta
                    else self._stored_checksum(
                        conn, partition_id, kind.name
                    )
                )
            if (
                expected is not None
                and payload_checksum(payload) != expected
            ):
                raise StorageError(f"{kind.name} payload checksum mismatch")
            matrix, lease = self._materialize(payload, kind, use_scratch)
        except (StorageError, ValueError) as exc:
            if is_delta:
                raise
            return self._quarantine(partition_id, str(exc), kind.dtype)
        entry = CachedPartition(
            partition_id=partition_id,
            asset_ids=payload.asset_ids,
            vector_ids=payload.vector_ids,
            matrix=matrix,
            lease=lease,
            stored_bytes=payload.stored_bytes,
        )
        with self._os_cache_lock:
            charge = partition_id not in kind.os_cached
            kind.os_cached.add(partition_id)
        self._accountant.record_read(
            payload.stored_bytes, charge_cost=charge
        )
        took = time.perf_counter() - start
        seen = self._cold_load_s
        if len(payload) and (
            seen is None or not use_scratch or took < seen
        ):
            # The running seconds-per-cold-load estimate (simulated
            # latency included: record_read sleeps it; an empty
            # partition read nothing and says nothing). Only I/O
            # stages running beside scoring threads (pipeline
            # producers, the serve scheduler) load with use_scratch,
            # and their wall time also holds GIL hand-offs (measured:
            # 0.20 ms serial, 2.4 ms behind two I/O threads, same
            # bytes) — an upper bound, so it may lower the estimate,
            # never raise it: an engaged pipeline must not keep itself
            # engaged on its own contention. An unlocked read-
            # modify-write: a lost update under concurrent loads costs
            # one sample.
            self._cold_load_s = (
                took
                if seen is None
                else seen + _COLD_LOAD_WEIGHT * (took - seen)
            )
        kind.count_cold()
        kind.count_bytes(payload.stored_bytes)
        self.workload.record_access(
            partition_id, payload.stored_bytes, hot=False
        )
        if use_cache and lease is None:
            kind.cache.put(entry, generation)
        return entry

    @property
    def cold_load_seconds(self) -> float | None:
        """Observed seconds per cold partition load, or None before
        the first one: an exponentially weighted mean the scan
        dispatch compares against its pipeline-engagement threshold."""
        return self._cold_load_s

    def load_partition(
        self,
        partition_id: int,
        use_cache: bool = True,
        use_scratch: bool = False,
    ) -> CachedPartition:
        """Load one partition's rows as a decoded matrix (cache-aware).

        With ``use_scratch`` (the pipelined scan), a cache-miss load of
        a partition the LRU would never admit is decoded into a pooled
        scratch buffer; the returned entry carries the lease and the
        caller MUST release it (``entry.lease.release()``) once the
        matrix has been consumed.
        """
        return self._load(
            self._vector_loads, partition_id, use_cache, use_scratch
        )

    def resident_entries(
        self, partition_ids: Sequence[int]
    ) -> list[CachedPartition] | None:
        """The cached float32 entries of a whole probe set, or None at
        the first partition the cache misses (nothing is counted then).

        One cache lock instead of one :meth:`load_partition` per probe,
        with the same accounting: a quarantined partition is served
        empty (left out of the list) and counted as such, every hit
        counts as a cache hit, a hot load and a workload access.
        Writers patch the entries they touch under the same lock, so
        the probe set is one committed state of every partition in it.
        """
        self._check_open()
        if not self._serves_cache(self.cache):
            return None
        with self._quarantine_lock:
            quarantined = self._quarantined.intersection(partition_ids)
        live = partition_ids
        if quarantined:
            live = [pid for pid in partition_ids if pid not in quarantined]
        entries = self.cache.get_all(live)
        if entries is None:
            return None
        for pid in quarantined:
            self._accountant.record_quarantined()
            self.workload.record_quarantine_hit(pid)
        self._accountant.record_cache_hit(len(entries))
        self._vector_loads.count_hot(len(entries))
        self.workload.record_hot_accesses(live)
        return entries

    def fetch_vectors_by_asset_ids(
        self, asset_ids: Sequence[str], chunk_size: int = 500
    ) -> tuple[list[str], np.ndarray]:
        """Point-fetch vectors for specific assets (pre-filtering plan).

        Returns (found_asset_ids, matrix); assets with no stored vector
        are silently skipped. Reads are chunked to respect SQLite's
        bound-parameter limit.
        """
        self._check_open()
        if self._config.verify_point_reads:
            return self._fetch_vectors_verified(asset_ids, chunk_size)
        with self.read_snapshot() as conn:
            found, blobs, stored = self._backend.fetch_vector_blobs(
                conn, asset_ids, chunk_size
            )
        matrix = decode_matrix(blobs, self._config.dim)
        self._accountant.record_read(stored)
        return found, matrix

    def _fetch_vectors_verified(
        self, asset_ids: Sequence[str], chunk_size: int
    ) -> tuple[list[str], np.ndarray]:
        """Point-fetch through the CRC-verified partition-load path.

        ``verify_point_reads``: instead of slicing rows straight out of
        storage, resolve each asset's partition and read it through
        :meth:`load_partition` — which verifies the stored checksum on
        cold loads and serves quarantined partitions as empty. Rerank
        reads then carry the same degraded-never-wrong guarantee as
        scans. Order contract preserved: each request chunk contributes
        its found assets in ascending ``asset_id`` order.
        """
        found: list[str] = []
        rows: list[np.ndarray] = []
        for start in range(0, len(asset_ids), chunk_size):
            chunk = list(asset_ids[start : start + chunk_size])
            by_partition: dict[int, list[str]] = {}
            with self._plain_reader() as conn:
                for aid in chunk:
                    pid = self._backend.get_partition_of(conn, aid)
                    if pid is not None:
                        by_partition.setdefault(int(pid), []).append(aid)
            chunk_rows: dict[str, np.ndarray] = {}
            for pid in sorted(by_partition):
                entry = self.load_partition(pid)
                index = {a: i for i, a in enumerate(entry.asset_ids)}
                for aid in by_partition[pid]:
                    row = index.get(aid)
                    if row is not None:
                        chunk_rows[aid] = entry.matrix[row]
            for aid in sorted(chunk_rows):
                found.append(aid)
                rows.append(chunk_rows[aid])
        if not rows:
            return found, np.empty(
                (0, self._config.dim), dtype=VECTOR_DTYPE
            )
        return found, np.array(rows, dtype=VECTOR_DTYPE)

    def get_vector(self, asset_id: str) -> np.ndarray | None:
        """Return one asset's vector, or None if absent."""
        self._check_open()
        if self._config.verify_point_reads:
            with self._plain_reader() as conn:
                pid = self._backend.get_partition_of(conn, asset_id)
            if pid is None:
                return None
            entry = self.load_partition(int(pid))
            try:
                row = entry.asset_ids.index(asset_id)
            except ValueError:
                return None
            return entry.matrix[row].copy()
        with self._plain_reader() as conn:
            blob = self._backend.get_vector_blob(conn, asset_id)
        if blob is None:
            return None
        return decode_vector(blob, self._config.dim)

    def get_partition_of(self, asset_id: str) -> int | None:
        self._check_open()
        with self._plain_reader() as conn:
            return self._backend.get_partition_of(conn, asset_id)

    def iter_vector_batches(
        self, batch_size: int = 4096, include_delta: bool = True
    ) -> Iterator[tuple[list[str], np.ndarray]]:
        """Stream all vectors in bounded batches (exact KNN, rebuilds).

        Never materializes the full collection: this is the memory
        discipline that lets index construction run in a mini-batch
        footprint.
        """
        self._check_open()
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        with self.read_snapshot() as conn:
            for ids, blobs, stored in self._backend.iter_row_batches(
                conn, include_delta, batch_size
            ):
                matrix = decode_matrix(blobs, self._config.dim)
                self._accountant.record_read(stored)
                yield ids, matrix

    def all_asset_ids(self) -> list[str]:
        """All asset ids (ids only — a few bytes per vector)."""
        self._check_open()
        with self.read_snapshot() as conn:
            return self._backend.all_asset_ids(conn)

    def count_vectors(self, include_delta: bool = True) -> int:
        self._check_open()
        with self._plain_reader() as conn:
            return self._backend.count_vectors(conn, include_delta)

    def delta_size(self) -> int:
        self._check_open()
        with self._plain_reader() as conn:
            return self._backend.delta_size(conn)

    def partition_sizes(self, include_delta: bool = False) -> dict[int, int]:
        """Map of partition id to row count (index monitor input)."""
        self._check_open()
        with self.read_snapshot() as conn:
            return self._backend.partition_sizes(conn, include_delta)

    # ------------------------------------------------------------------
    # Quantized codes (sq8 / pq)
    # ------------------------------------------------------------------

    #: meta-table key holding the serialized trained SQ8 quantizer.
    QUANTIZER_META_KEY = "sq8_quantizer"
    #: meta-table key holding the serialized trained PQ quantizer.
    PQ_QUANTIZER_META_KEY = "pq_quantizer"

    @property
    def quantizer_meta_key(self) -> str:
        """The meta key of the configured scheme's trained quantizer.

        Kind-specific keys (plus :meth:`rebuild_codes` dropping the
        other kind's row) make mode switches safe: a database built
        under sq8 and reopened with ``quantization="pq"`` simply has no
        trained PQ quantizer yet and falls back to float32 scans until
        the next build retrains — it can never mis-parse the other
        scheme's payload or scan codes of the wrong width.
        """
        if self._config.quantization == "pq":
            return self.PQ_QUANTIZER_META_KEY
        return self.QUANTIZER_META_KEY

    def load_quantizer(self) -> Quantizer | None:
        """The trained quantizer, or None before the first build.

        Cached in memory; :meth:`rebuild_codes` refreshes the cache
        when it persists a retrained quantizer, so readers never
        re-parse the meta row on the hot path.
        """
        self._check_open()
        if not self._use_quantization:
            return None
        with self._quantizer_lock:
            if self._quantizer_loaded:
                return self._quantizer
        payload = self.get_meta(self.quantizer_meta_key)
        quantizer: Quantizer | None = None
        if payload is not None:
            stored_crc = self.get_meta(self.quantizer_meta_key + "_crc32")
            crc_ok = stored_crc is None or int(stored_crc) == zlib.crc32(
                payload.encode("utf-8")
            )
            if not crc_ok:
                self._quantizer_corrupt = True
                logger.warning(
                    "stored quantizer failed its checksum; serving "
                    "float32 scans until repair() or the next build"
                )
            else:
                try:
                    quantizer = quantizer_from_json(payload)
                except (ValueError, KeyError, TypeError) as exc:
                    # Only reachable on legacy rows with no CRC to
                    # catch the corruption first.
                    self._quantizer_corrupt = True
                    logger.warning(
                        "stored quantizer failed to parse (%s); "
                        "serving float32 scans until repair() or the "
                        "next build",
                        exc,
                    )
        if (
            quantizer is not None
            and quantizer.kind != self._config.quantization
        ):
            raise StorageError(
                f"persisted quantizer kind {quantizer.kind!r} does not "
                f"match configured quantization "
                f"{self._config.quantization!r}"
            )
        with self._quantizer_lock:
            self._quantizer = quantizer
            self._quantizer_loaded = True
        return quantizer

    def load_partition_codes(
        self,
        partition_id: int,
        use_cache: bool = True,
        use_scratch: bool = False,
    ) -> CachedPartition:
        """Load one partition's scan codes as a decoded uint8 matrix.

        This is the fast scan path's read: same clustered range scan as
        :meth:`load_partition` at a fraction of the bytes (1/4 for SQ8,
        ``M / (4 * dim)`` for PQ). Returns an
        empty entry when the partition has no code rows (e.g. mid-build
        or for a database created before quantization was enabled);
        callers fall back to the float32 scan for that partition.
        ``use_scratch`` behaves as in :meth:`load_partition`.
        """
        self._check_open()
        if not self._use_quantization:
            raise StorageError("quantization is not enabled for this database")
        return self._load(
            self._code_loads, partition_id, use_cache, use_scratch
        )

    def load_scan_entry(
        self,
        partition_id: int,
        quantized: bool,
        use_scratch: bool = False,
    ) -> tuple[CachedPartition, bool]:
        """One partition read for an ANN scan: (entry, is_codes).

        THE single definition of the scan-path load rule: quantized
        scans read code partitions, except code-less partitions
        (mid-build, or data predating quantization), which fall back
        to the float32 read. The delta is full-precision on disk and
        normally scanned exactly; once it outgrows
        ``delta_quantize_threshold`` it is lazily encoded in memory
        (:meth:`_delta_codes_entry`) and scanned as codes like any
        other coded partition. Both executors and the pipeline's
        coldness heuristic
        (:func:`repro.query.pipeline.has_cold_partition`) must track
        this rule — keep them in sync when it changes.
        """
        if quantized and partition_id == DELTA_PARTITION_ID:
            entry = self._delta_codes_entry()
            if entry is not None and len(entry):
                return entry, True
        elif quantized:
            entry = self.load_partition_codes(
                partition_id, use_scratch=use_scratch
            )
            if len(entry):
                return entry, True
            # A quarantined partition already reported itself as empty;
            # the float fallback would re-count the same quarantine.
            if partition_id != DELTA_PARTITION_ID and self.is_quarantined(
                partition_id
            ):
                return entry, False
        return (
            self.load_partition(partition_id, use_scratch=use_scratch),
            False,
        )

    def _delta_codes_entry(self) -> CachedPartition | None:
        """Lazily encoded delta codes, or None to scan exactly.

        The quantized-delta rule (ROADMAP "quantized delta" item): the
        delta stays full-precision on disk so upserts remain one row
        write, but once it holds ``delta_quantize_threshold`` vectors
        a quantized scan encodes it ONCE with the active quantizer and
        caches the codes in memory — heavy-upsert workloads then stop
        paying a growing exact float32 scan on every query. Any delta
        write (or purge, or quantizer retrain) invalidates the entry.
        The first scan past the threshold still reads the float32
        delta (that read is accounted normally); every later scan is
        served from memory at zero bytes.
        """
        threshold = self._config.delta_quantize_threshold
        if threshold is None:
            return None
        cached = (
            self.delta_codes.get()
            if self._serves_cache(self.delta_codes)
            else None
        )
        if cached is not None:
            self._accountant.record_cache_hit()
            return cached
        quantizer = self.load_quantizer()
        if quantizer is None:
            return None
        # The generation noted when the snapshot opened (the caller's
        # scan-wide one, or this one), THEN the read: a delta write
        # committing after that bumps the generation, so the
        # (pre-write) entry below is rejected by put() instead of
        # masking the fresh vector from every later scan. This scan
        # still uses the entry — it matches the snapshot it read.
        with self.read_snapshot():
            generation = self._local.cache_generations[self.delta_codes]
            if self.delta_size() < threshold:
                return None
            source = self.load_partition(DELTA_PARTITION_ID)
        if len(source) == 0:
            return None
        entry = CachedPartition(
            partition_id=DELTA_PARTITION_ID,
            asset_ids=source.asset_ids,
            vector_ids=source.vector_ids,
            matrix=quantizer.encode(source.matrix),
        )
        self.delta_codes.put(entry, generation)
        return entry

    def rebuild_codes(
        self, quantizer: Quantizer, batch_size: int = 4096
    ) -> int:
        """Persist ``quantizer`` and re-encode every indexed vector.

        Runs after a full index build (or a drift-triggered retrain):
        all existing codes are dropped and the non-delta vectors are
        streamed through the quantizer in bounded batches, so peak
        memory stays at one batch. The quantizer's meta row commits in
        the SAME transaction as the codes — they are one unit; a crash
        can never pair new codes with an old quantizer or vice versa
        (the other scheme's stale meta row is dropped there too, so a
        later mode switch can never decode codes at the wrong width).
        Returns the number of codes written.
        """
        self._check_open()
        if not self._use_quantization:
            raise StorageError("quantization is not enabled for this database")
        if quantizer.kind != self._config.quantization:
            raise StorageError(
                f"quantizer kind {quantizer.kind!r} does not match "
                f"configured quantization {self._config.quantization!r}"
            )
        if quantizer.dim != self._config.dim:
            raise StorageError(
                f"quantizer has dim={quantizer.dim}, "
                f"database dim={self._config.dim}"
            )
        dim = self._config.dim

        def encode_blobs(blobs: list[bytes]) -> list[bytes]:
            matrix = decode_matrix(blobs, dim)
            return encode_code_matrix(quantizer.encode(matrix))

        # The stale code entries leave before the writer lock does: a
        # write planning from them would stamp the old codes.
        with self._writer_lock:
            with self.write_transaction("rebuild_codes") as conn:
                quantizer_json = quantizer.to_json()
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    [
                        (self.quantizer_meta_key, quantizer_json),
                        (
                            self.quantizer_meta_key + "_crc32",
                            str(zlib.crc32(quantizer_json.encode("utf-8"))),
                        ),
                    ],
                )
                for stale_key in (
                    self.QUANTIZER_META_KEY,
                    self.PQ_QUANTIZER_META_KEY,
                ):
                    if stale_key != self.quantizer_meta_key:
                        conn.execute(
                            "DELETE FROM meta WHERE key IN (?, ?)",
                            (stale_key, stale_key + "_crc32"),
                        )
                written = self._backend.rewrite_codes(
                    conn, encode_blobs, batch_size
                )
                self._backend.refresh_checksums(
                    conn, None, True, kinds=(CHECKSUM_KIND_CODES,)
                )
            with self._quantizer_lock:
                self._quantizer = quantizer
                self._quantizer_loaded = True
            self._quantizer_corrupt = False
            self.codes_cache.clear()
            # Cached delta codes were encoded under the replaced quantizer.
            self.delta_codes.invalidate()
        return written

    def count_codes(self) -> int:
        """Number of vectors with a stored quantized code row."""
        self._check_open()
        if not self._use_quantization:
            return 0
        with self._plain_reader() as conn:
            return self._backend.count_codes(conn)

    # ------------------------------------------------------------------
    # Reads: attributes
    # ------------------------------------------------------------------

    def attribute_columns(
        self, entry: CachedPartition, names: Sequence[str]
    ) -> Mapping[str, AttributeColumn | None]:
        """The ``names`` attribute columns of ``entry``'s rows, in its
        row order (None for a column of mixed storage classes).

        What the post-filter plan masks a scanned partition with.
        Columns already on the entry are returned as they are — no
        SQL. Missing ones are read once (:meth:`get_attributes_many`,
        ``asset_id IN (...)``) inside the scan's read snapshot,
        aligned to the entry's rows (an asset with no attributes row
        is NULL throughout) and parked on the entry through the cache
        that owns it, under the snapshot's cache generation: columns
        from a snapshot a write has since overtaken serve this scan
        only, like a partition loaded from one. A transient scratch
        entry is never cached, so its columns are read per scan.
        """
        columns = entry.columns
        missing = [name for name in names if name not in columns]
        if not missing:
            return columns
        self._validate_attributes(missing)
        declared = self._config.normalized_attributes
        if entry.matrix.dtype != CODE_DTYPE:
            owner = self.cache
        elif entry.partition_id == DELTA_PARTITION_ID:
            owner = self.delta_codes
        else:
            owner = self.codes_cache
        ids = entry.asset_ids
        with self.read_snapshot():
            generation = self._local.cache_generations[owner]
            fetched = self.get_attributes_many(ids, missing)
        self._accountant.record_read(_ROW_OVERHEAD_BYTES * len(fetched))
        absent: dict[str, object] = {}
        loaded = {
            name: AttributeColumn.from_values(
                [fetched.get(a, absent).get(name) for a in ids],
                declared[name],
            )
            for name in missing
        }
        owner.attach_columns(entry, loaded, generation)
        return {**columns, **loaded}

    def query_attribute_ids(
        self, where_sql: str, params: Sequence[object]
    ) -> list[str]:
        """Asset ids whose attributes satisfy a compiled predicate."""
        self._check_open()
        with self.read_snapshot() as conn:
            rows = conn.execute(
                f"SELECT asset_id FROM attributes WHERE {where_sql}",
                list(params),
            ).fetchall()
        self._accountant.record_read(_ROW_OVERHEAD_BYTES * len(rows))
        return [r[0] for r in rows]

    def count_attribute_rows(
        self, where_sql: str | None = None, params: Sequence[object] = ()
    ) -> int:
        self._check_open()
        sql = "SELECT COUNT(*) FROM attributes"
        if where_sql:
            sql += f" WHERE {where_sql}"
        with self._plain_reader() as conn:
            cur = conn.execute(sql, list(params))
            return int(cur.fetchone()[0])

    def get_attributes(self, asset_id: str) -> dict[str, object] | None:
        """Return one asset's attribute values, or None if absent."""
        self._check_open()
        names = list(self._config.normalized_attributes)
        if not names:
            return None
        cols = ", ".join(schema_mod._quote_ident(n) for n in names)
        with self._plain_reader() as conn:
            cur = conn.execute(
                f"SELECT {cols} FROM attributes WHERE asset_id=?",
                (asset_id,),
            )
            row = cur.fetchone()
        if row is None:
            return None
        return dict(zip(names, row))

    def get_attributes_many(
        self, asset_ids: Sequence[str], names: Sequence[str] | None = None
    ) -> dict[str, dict[str, object]]:
        """Attribute values for many assets in one query per chunk.

        The bulk twin of :meth:`get_attributes` (used by the sharded
        engine's rebalance row stream, where a per-row point query
        would dominate the copy, and by :meth:`attribute_columns`):
        one ``IN (...)`` select per 512-id chunk of the ``names``
        attributes (default: all declared), missing assets simply
        absent from the result.
        """
        self._check_open()
        if names is None:
            names = list(self._config.normalized_attributes)
        if not names:
            return {}
        cols = ", ".join(schema_mod._quote_ident(n) for n in names)
        out: dict[str, dict[str, object]] = {}
        ids = [str(a) for a in asset_ids]
        # Plain reader (no read_snapshot): callers stream this while
        # iter_vector_batches already holds a snapshot on the same
        # thread-local connection, and autocommit reads compose with
        # an open transaction where a nested BEGIN would not.
        with self._plain_reader() as conn:
            for lo in range(0, len(ids), 512):
                chunk = ids[lo : lo + 512]
                placeholders = ", ".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT asset_id, {cols} FROM attributes "
                    f"WHERE asset_id IN ({placeholders})",
                    chunk,
                ).fetchall()
                for row in rows:
                    out[row[0]] = dict(zip(names, row[1:]))
        return out

    def token_document_frequency(self, attribute: str, token: str) -> int:
        """Number of assets whose attribute contains the token (MATCH df)."""
        self._check_open()
        with self._plain_reader() as conn:
            cur = conn.execute(
                "SELECT COUNT(*) FROM tokens WHERE attribute=? AND token=?",
                (attribute, token),
            )
            return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # Statistics persistence (selectivity module reads/writes these)
    # ------------------------------------------------------------------

    def save_column_stats(self, attribute: str, payload: str) -> None:
        self._check_open()
        with self.write_transaction("column_stats") as conn:
            conn.execute(
                "INSERT INTO column_stats (attribute, payload) "
                "VALUES (?, ?) ON CONFLICT(attribute) "
                "DO UPDATE SET payload=excluded.payload",
                (attribute, payload),
            )

    def load_column_stats(self, attribute: str) -> str | None:
        self._check_open()
        with self._plain_reader() as conn:
            cur = conn.execute(
                "SELECT payload FROM column_stats WHERE attribute=?",
                (attribute,),
            )
            row = cur.fetchone()
        return None if row is None else str(row[0])

    def load_all_column_stats(self) -> dict[str, str]:
        self._check_open()
        with self.read_snapshot() as conn:
            rows = conn.execute(
                "SELECT attribute, payload FROM column_stats"
            ).fetchall()
        return {str(a): str(p) for a, p in rows}

    # ------------------------------------------------------------------
    # Cache scenarios (§4.1.4)
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def scan_session(self) -> Iterator[None]:
        """Register an in-flight partition scan with the purge guard.

        Query paths (executors, the batch MQO scan, and every load or
        scoring task of the serving scheduler) wrap their storage-
        touching window in one of these. :meth:`purge_caches` drains
        active sessions before purging and holds off new ones while it
        runs, so a purge can never interleave with a scan half-way —
        the explicit guard the concurrency contract promises, instead
        of timing luck. Sessions are short-lived and never wait on
        anything while registered, which keeps the guard deadlock-free.
        """
        with self._scan_cv:
            while self._purging:
                self._scan_cv.wait()
            self._active_scans += 1
        try:
            yield
        finally:
            with self._scan_cv:
                self._active_scans -= 1
                if self._active_scans == 0:
                    self._scan_cv.notify_all()

    @property
    def active_scans(self) -> int:
        """In-flight scan sessions (observability for tests/benches)."""
        with self._scan_cv:
            return self._active_scans

    def purge_caches(self) -> None:
        """Cold-start scenario: drop every cached page and decoded block,
        including the simulated OS page cache.

        Safe while queries are in flight: waits for active scan
        sessions to drain (holding off new ones), purges, then releases
        the guard. Atomicity is per scan *session*: the serial
        executors and the batch MQO hold one session for the whole
        query, so a purge never lands mid-query for them; served
        queries register shorter per-load/per-score sessions, so a
        purge may fall between two of a served query's partitions —
        results are unaffected (decoded entries are held by
        reference), but that query's remaining loads run cold and its
        cache stats mix pre- and post-purge state.
        """
        self._check_open()
        with self._scan_cv:
            while self._purging:
                self._scan_cv.wait()
            self._purging = True
            while self._active_scans > 0:
                self._scan_cv.wait()
        try:
            self.cache.clear()
            self.codes_cache.clear()
            self.delta_codes.invalidate()
            self.scratch.drain()
            self._drop_centroid_cache()
            with self._os_cache_lock:
                self._os_cached_partitions.clear()
                self._os_cached_code_partitions.clear()
                self._os_cached_centroids = False
        finally:
            with self._scan_cv:
                self._purging = False
                self._scan_cv.notify_all()

    # ------------------------------------------------------------------
    # Scrub & repair
    # ------------------------------------------------------------------

    def _quantizer_healthy(self) -> bool:
        """Cold-verify the stored quantizer payload (CRC + parse)."""
        if not self._use_quantization:
            return True
        payload = self.get_meta(self.quantizer_meta_key)
        if payload is None:
            return True
        stored_crc = self.get_meta(self.quantizer_meta_key + "_crc32")
        if stored_crc is not None and int(stored_crc) != zlib.crc32(
            payload.encode("utf-8")
        ):
            self._quantizer_corrupt = True
            return False
        try:
            quantizer_from_json(payload)
        except (ValueError, KeyError, TypeError):
            self._quantizer_corrupt = True
            return False
        return True

    def scrub(self, budget_bytes: int | None = None) -> ScrubReport:
        """Cold-verify indexed partitions against their stored CRCs.

        Corrupt partitions are quarantined so later queries degrade
        (served as empty, flagged in stats) instead of erroring or
        silently returning wrong neighbors. Otherwise read-only — use
        :meth:`repair` to act on the findings. The delta partition is
        exempt by design (see :meth:`load_partition`).

        With ``budget_bytes`` set the pass is amortized: partitions are
        verified round-robin — resuming after the cursor persisted by
        the previous budgeted pass — and the pass stops once that many
        stored payload bytes have been read (always verifying at least
        one partition so a tiny budget still makes progress).
        Successive maintenance cycles therefore spread a full scrub
        over time instead of stalling one cycle on a cold read of the
        entire index.
        """
        self._check_open()
        corrupt_vectors: list[int] = []
        corrupt_codes: list[int] = []
        unstamped: list[int] = []
        cursor: int | None = None
        if budget_bytes is not None:
            raw = self.get_meta(SCRUB_CURSOR_META_KEY)
            try:
                cursor = None if raw is None else int(raw)
            except ValueError:
                cursor = None
        checked = 0
        spent = 0
        with self.read_snapshot() as conn:
            pids = sorted(
                self._backend.partition_sizes(conn, include_delta=False)
            )
            if budget_bytes is not None and cursor is not None:
                # Rotate so the pass resumes after the last partition
                # the previous budgeted pass verified, wrapping around.
                pids = [p for p in pids if p > cursor] + [
                    p for p in pids if p <= cursor
                ]
            for pid in pids:
                expected = self._backend.stored_checksums(conn, pid)
                try:
                    payload = self._backend.read_partition(conn, pid)
                except (StorageError, ValueError):
                    corrupt_vectors.append(pid)
                else:
                    spent += payload.stored_bytes
                    want = expected.get(CHECKSUM_KIND_VECTORS)
                    if want is None:
                        unstamped.append(pid)
                    elif payload_checksum(payload) != want:
                        corrupt_vectors.append(pid)
                checked += 1
                cursor = pid
                if self._use_quantization:
                    try:
                        codes = self._backend.read_partition_codes(
                            conn, pid
                        )
                    except (StorageError, ValueError):
                        corrupt_codes.append(pid)
                    else:
                        spent += codes.stored_bytes
                        want = expected.get(CHECKSUM_KIND_CODES)
                        if (
                            want is not None
                            and payload_checksum(codes) != want
                        ):
                            corrupt_codes.append(pid)
                if budget_bytes is not None and spent >= budget_bytes:
                    break
        quantizer_ok = self._quantizer_healthy()
        for pid in corrupt_vectors:
            self._quarantine(pid, "scrub: vector payload corrupt")
        for pid in corrupt_codes:
            if pid not in corrupt_vectors:
                self._quarantine(
                    pid, "scrub: code payload corrupt", CODE_DTYPE
                )
        if budget_bytes is not None and cursor is not None:
            self.set_meta(SCRUB_CURSOR_META_KEY, str(cursor))
        self._m_maintenance.inc(action="scrub")
        self.events.emit(
            "scrub",
            partitions_checked=checked,
            corrupt_vectors=len(corrupt_vectors),
            corrupt_codes=len(corrupt_codes),
            quantizer_ok=quantizer_ok,
            partial=budget_bytes is not None,
            bytes_read=spent,
        )
        return ScrubReport(
            partitions_checked=checked,
            corrupt_vectors=tuple(corrupt_vectors),
            corrupt_codes=tuple(corrupt_codes),
            unstamped=tuple(unstamped),
            quantizer_ok=quantizer_ok,
        )

    def repair(self) -> ScrubReport:
        """Scrub, then rebuild what is recoverable and drop the rest.

        - Corrupt codes with healthy floats are re-encoded wholesale
          via :meth:`rebuild_codes`: float blobs stay authoritative, so
          search results are restored bit-identically.
        - Corrupt float payloads are unrecoverable; the partition is
          dropped outright (rows, codes, centroid, checksum rows) so
          the index is consistent again. The report names the dropped
          partitions — those vectors need re-upserting from the source
          of truth.
        - A corrupt quantizer payload is cleared (together with every
          code checksum) so scans fall back to exact float32 until the
          next index build retrains it.
        - Partitions predating checksumming get stamped.

        Clears the quarantine set and purges caches at the end.
        """
        report = self.scrub()
        dropped: list[int] = []
        repaired = 0
        stamped = 0
        if report.corrupt_vectors:
            with self.write_transaction("repair") as conn:
                for pid in report.corrupt_vectors:
                    self._backend.drop_partition(
                        conn, pid, self._use_quantization
                    )
                    conn.execute(
                        "DELETE FROM centroids WHERE partition_id=?",
                        (pid,),
                    )
                    conn.execute(
                        "DELETE FROM partition_checksums "
                        "WHERE partition_id=?",
                        (pid,),
                    )
                    dropped.append(pid)
            self._drop_centroid_cache()
        if report.unstamped:
            survivors = [
                pid for pid in report.unstamped if pid not in set(dropped)
            ]
            if survivors:
                with self.write_transaction("repair") as conn:
                    self._backend.refresh_checksums(
                        conn, survivors, self._use_quantization
                    )
                stamped = len(survivors)
        if not report.quantizer_ok:
            with self.write_transaction("repair") as conn:
                conn.executemany(
                    "DELETE FROM meta WHERE key=?",
                    [
                        (self.quantizer_meta_key,),
                        (self.quantizer_meta_key + "_crc32",),
                    ],
                )
                conn.execute(
                    "DELETE FROM partition_checksums WHERE kind=?",
                    (CHECKSUM_KIND_CODES,),
                )
            with self._quantizer_lock:
                self._quantizer = None
                self._quantizer_loaded = True
            self._quantizer_corrupt = False
        elif report.corrupt_codes:
            quantizer = self.load_quantizer()
            if quantizer is not None:
                repaired = self.rebuild_codes(quantizer)
        with self._quarantine_lock:
            self._quarantined.clear()
        self.purge_caches()
        self._m_maintenance.inc(action="repair")
        self.events.emit(
            "repair",
            dropped_partitions=len(dropped),
            repaired_codes=repaired,
            stamped=stamped,
        )
        return replace(
            report,
            repaired_codes=repaired,
            dropped_partitions=tuple(dropped),
            stamped=stamped,
        )

    # ------------------------------------------------------------------
    # Disk hygiene
    # ------------------------------------------------------------------

    def blob_dead_bytes(self) -> tuple[int, int]:
        """``(dead_bytes, file_bytes)`` of the backend's blob file.

        Dead bytes are append-only garbage: records superseded by a
        rewrite or orphaned by a rolled-back append. ``(0, 0)`` on
        backends without a blob file.
        """
        self._check_open()
        probe = getattr(self._backend, "dead_bytes", None)
        if probe is None:
            return (0, 0)
        with self.read_snapshot() as conn:
            dead, total = probe(conn)
        return int(dead), int(total)

    def compact_storage(self) -> int:
        """Copy live blob records forward and drop the dead bytes.

        Rewrites and rolled-back appends leave superseded records
        behind in the append-only blob file; compaction copies the
        live set into a new generation file and atomically flips every
        locator row (plus the generation meta key) in one ``"compact"``
        transaction — a crash on either side of that commit leaves one
        complete, consistent generation. Returns bytes reclaimed; 0 on
        backends without a compactable blob file.
        """
        self._check_open()
        if not hasattr(self._backend, "compact"):
            return 0
        with self.write_transaction("compact") as conn:
            reclaimed = self._backend.compact(conn)
        self._m_maintenance.inc(action="compact")
        self.events.emit("compact", reclaimed_bytes=int(reclaimed))
        return int(reclaimed)

    def vacuum(self) -> int:
        """Rewrite the database file, reclaiming space from deletes.

        Deletes and partition moves leave free pages inside the file;
        on storage-constrained devices the file should be compacted
        once enough space is reclaimable. Returns bytes saved.
        Serialized with all other writes (VACUUM needs an exclusive
        transaction under the hood).
        """
        self._check_open()
        if not self._backend.file_backed:
            # Nothing on disk to compact; the in-memory backend's
            # placeholder file never grows.
            return 0
        before = os.path.getsize(self._path)
        with self._writer_lock:
            self._writer.execute("VACUUM")
            # Under WAL the rewritten pages sit in the -wal file until
            # a checkpoint; truncate so the main file actually shrinks.
            self._writer.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        after = os.path.getsize(self._path)
        return max(before - after, 0)

    def integrity_check(self) -> list[str]:
        """Run SQLite's integrity check plus MicroNN's own invariants.

        Returns a list of problems (empty means healthy):
        - SQLite b-tree/page corruption,
        - vectors whose partition id has no centroid row (other than
          the reserved delta partition),
        - centroid vector_count drift versus actual partition sizes.
        """
        self._check_open()
        # Resolve the quantizer meta row BEFORE entering the snapshot:
        # get_meta reads through the writer connection, and the
        # backend's check must not depend on engine state mid-read.
        quantizer_trained = (
            self._use_quantization
            and self.get_meta(self.quantizer_meta_key) is not None
        )
        with self.read_snapshot() as conn:
            return self._backend.integrity_problems(
                conn, self._use_quantization, quantizer_trained
            )
