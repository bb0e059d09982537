"""Byte-budgeted LRU cache of decoded IVF partitions.

This is the library's page-cache analog: the unit of disk transfer in
MicroNN is one IVF partition (vectors are clustered on disk by partition
id, paper §3.2), so the cache holds decoded partitions — the asset ids
plus the contiguous float32 matrix the distance kernels consume.

The budget comes from the :class:`~repro.core.config.DeviceProfile`;
evicting whole partitions keeps accounting exact and mirrors how the
clustered layout makes partition reads sequential. Cold-start scenarios
purge the cache (``clear``); warm-cache scenarios pre-populate it by
running warm-up queries. Writers invalidate the partitions they touch so
readers never see stale data.

A cached partition also carries the attribute columns of its rows
(:class:`AttributeColumn`) once a filtered scan has asked for them: the
hybrid post-filter plan masks a partition with one NumPy comparison
over them instead of consulting SQL per query, and they are dropped by
exactly the invalidations that drop the vectors beside them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.storage.memory import MemoryTracker

#: Memory-tracker category used for cached partitions.
CACHE_CATEGORY = "partition_cache"

#: Memory-tracker category used for cached quantized-code partitions.
CODES_CACHE_CATEGORY = "codes_cache"

#: Memory-tracker category used for pipeline scratch buffers.
SCRATCH_CATEGORY = "scratch_buffers"

#: Memory-tracker category used for the lazily encoded delta codes.
DELTA_CODES_CATEGORY = "delta_codes"

#: Fixed per-row byte overhead charged for row identities (asset and
#: vector ids) in cache accounting; admission estimates made before
#: decoding must use the same constant or they drift from ``put``.
ROW_ID_OVERHEAD_BYTES = 16


#: Largest integer magnitude a float64 represents exactly: up to here
#: NumPy's int/float comparisons agree with SQLite's exact ones.
FLOAT_EXACT_INT = 2**53


@dataclass(frozen=True)
class AttributeColumn:
    """One attribute of a partition's rows, in the partition's row order.

    ``values`` is ``int64`` when every stored value is an integer,
    ``float64`` for floats (or integers among floats), an object array
    of ``str`` for a ``TEXT`` attribute. ``valid`` marks the non-NULL
    rows — a row with no ``attributes`` row at all is NULL in every
    column — and is ``None`` when there is no NULL; a NULL slot of
    ``values`` holds a filler that ``valid`` masks out.
    """

    values: np.ndarray
    valid: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        valid = 0 if self.valid is None else int(self.valid.nbytes)
        return int(self.values.nbytes) + valid

    @classmethod
    def from_values(
        cls, values: Sequence[object], declared: str
    ) -> "AttributeColumn | None":
        """Type one fetched column, or None when it cannot be typed.

        SQLite's column affinity leaves a ``TEXT`` attribute holding
        text and an ``INTEGER``/``REAL`` one holding numbers, except
        for values the affinity could not convert (a word in an
        ``INTEGER`` column, a blob anywhere). Such a column of mixed
        storage classes — and one whose integers beyond 2^53 sit among
        floats, which float64 cannot order exactly — is reported as
        None: SQLite's cross-class ordering is not reproduced here.
        """
        kinds = set(map(type, values))
        text = declared == "TEXT"
        valid = None
        if type(None) in kinds:
            kinds.discard(type(None))
            valid = np.array([v is not None for v in values], dtype=bool)
            if not text:
                values = [0 if v is None else v for v in values]
        if text:
            if not kinds <= {str}:
                return None
            array = np.empty(len(values), dtype=object)
            array[:] = values
        elif kinds <= {int}:
            array = np.array(values, dtype=np.int64)
        elif kinds <= {int, float}:
            if any(
                type(v) is int and abs(v) > FLOAT_EXACT_INT for v in values
            ):
                return None
            array = np.array(values, dtype=np.float64)
        else:
            return None
        return cls(array, valid)

    def where_valid(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` with the NULL rows cleared (NULL compares to
        nothing, SQL's three-valued logic)."""
        return mask if self.valid is None else mask & self.valid


@dataclass(frozen=True)
class CachedPartition:
    """A decoded partition: row identities plus the vector matrix.

    The matrix is float32 for full-precision partitions and uint8 for
    SQ8 code partitions — the byte accounting below works for both, and
    a code entry is ~4x smaller, which is exactly why the codes cache
    holds 4x more partitions in the same budget.

    ``lease`` is set only on entries decoded into a pipeline scratch
    buffer (loads the partition cache would not admit): the matrix is a
    view into pooled memory, the entry must never be cached, and the
    consumer returns the lease to its :class:`ScratchBufferPool` once
    the partition has been scored.

    ``stored_bytes`` is the on-disk size the storage backend reported
    for this partition's read — layout-dependent (the packed layout
    has no per-row b-tree overhead), so consumers that estimate I/O
    (the serving scheduler's cost model) must prefer it over
    reconstructing bytes from ``nbytes``. ``None`` on entries built
    away from a backend read (e.g. in-memory delta codes).

    ``columns`` holds the rows' attribute columns (name → column, in
    row order; None marks a column that could not be typed), filled
    the first time a filtered scan masks this entry and only through
    the owning cache's ``attach_columns``, which charges their bytes.
    They live and die with the entry: whatever invalidates the vectors
    invalidates the attributes read beside them.
    """

    partition_id: int
    asset_ids: tuple[str, ...]
    vector_ids: tuple[int, ...]
    matrix: np.ndarray
    lease: "ScratchLease | None" = None
    stored_bytes: int | None = None
    columns: dict[str, AttributeColumn | None] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def nbytes(self) -> int:
        # The matrix, a small fixed overhead per row for ids, and the
        # attribute columns attached so far.
        return (
            int(self.matrix.nbytes)
            + ROW_ID_OVERHEAD_BYTES * len(self.asset_ids)
            + sum(c.nbytes for c in self.columns.values() if c is not None)
        )

    def __len__(self) -> int:
        return len(self.asset_ids)


class PartitionCache:
    """Thread-safe LRU over :class:`CachedPartition` entries.

    Entries larger than the whole budget are admitted transiently by the
    caller but never cached (otherwise a single mega-partition would
    evict everything and still not fit).

    Every invalidation bumps a generation counter. A loader reads it
    BEFORE pinning the database snapshot it loads from and hands it
    back to :meth:`put`; a write that committed and invalidated in
    between has moved the counter, so the pre-write entry is rejected
    instead of re-cached behind the invalidation (the same guard as
    :class:`DeltaCodesCache`). The counter is per cache, not per
    partition: a load overlapping any write is simply not cached.
    """

    def __init__(
        self,
        budget_bytes: int,
        tracker: MemoryTracker | None = None,
        category: str = CACHE_CATEGORY,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        self._tracker = tracker
        self._category = category
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, CachedPartition] = OrderedDict()
        self._used = 0
        self._generation = 0

    def generation(self) -> int:
        """Invalidation counter; read BEFORE pinning the read snapshot."""
        return self._generation

    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def would_admit(self, nbytes: int) -> bool:
        """Whether an entry of ``nbytes`` could be cached at all.

        ``put`` evicts LRU entries to make room, so the only entries it
        rejects are those larger than the whole budget. The pipelined
        scan asks this *before* decoding, to decode never-cacheable
        partitions into a reusable scratch buffer instead of a fresh
        allocation per scan.
        """
        return nbytes <= self._budget

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, partition_id: int) -> bool:
        with self._lock:
            return partition_id in self._entries

    def get(self, partition_id: int) -> CachedPartition | None:
        """Return the cached partition and mark it most-recently used."""
        with self._lock:
            entry = self._entries.get(partition_id)
            if entry is not None:
                self._entries.move_to_end(partition_id)
            return entry

    def get_all(
        self, partition_ids: Sequence[int]
    ) -> list[CachedPartition] | None:
        """:meth:`get` of each id under one lock, or None at the first
        id the cache does not hold."""
        with self._lock:
            entries = self._entries
            found = []
            for partition_id in partition_ids:
                entry = entries.get(partition_id)
                if entry is None:
                    return None
                entries.move_to_end(partition_id)
                found.append(entry)
            return found

    def put(
        self, entry: CachedPartition, generation: int | None = None
    ) -> bool:
        """Insert a partition, evicting LRU entries to fit the budget.

        Returns ``True`` if the entry was cached, ``False`` if it was
        too large for the budget, or was loaded at a ``generation``
        that an invalidation has since moved past, and was rejected.
        """
        nbytes = entry.nbytes
        if nbytes > self._budget:
            return False
        with self._lock:
            if generation is not None and generation != self._generation:
                return False
            old = self._entries.pop(entry.partition_id, None)
            if old is not None:
                self._used -= old.nbytes
            self._entries[entry.partition_id] = entry
            self._used += nbytes
            self._evict_to_budget()
        return True

    def attach_columns(
        self,
        entry: CachedPartition,
        columns: Mapping[str, AttributeColumn | None],
        generation: int,
    ) -> None:
        """Park attribute columns read at ``generation`` on ``entry``.

        The same guard as :meth:`put`: columns read from a snapshot
        that an invalidation has since moved past may predate the
        write, while ``entry`` may already be its post-write reload —
        they serve the scan that read them and are not kept. While the
        cache holds ``entry`` their bytes are charged to it, evicting
        LRU entries if that overruns the budget; an entry the cache
        does not hold (never admitted, evicted) dies with its scan.
        """
        with self._lock:
            if generation != self._generation:
                return
            before = entry.nbytes
            for name, column in columns.items():
                entry.columns.setdefault(name, column)
            if self._entries.get(entry.partition_id) is entry:
                self._used += entry.nbytes - before
                self._evict_to_budget()

    def _evict_to_budget(self) -> None:
        # Caller holds self._lock. The LRU end never reaches an entry
        # just put: it fits the budget alone.
        while self._used > self._budget and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted.nbytes
        self._sync_tracker()

    def invalidate(self, partition_id: int) -> None:
        """Drop one partition (called by writers that touched it)."""
        with self._lock:
            self._generation += 1
            entry = self._entries.pop(partition_id, None)
            if entry is not None:
                self._used -= entry.nbytes
                self._sync_tracker()

    def invalidate_containing(self, asset_ids: set[str]) -> None:
        """Drop every partition holding any of ``asset_ids``.

        The generation moves even when no cached entry matches: the
        partition that held a rewritten row may be mid-load from a
        pre-write snapshot right now.
        """
        with self._lock:
            self._generation += 1
            entries = list(self._entries.values())
        for entry in entries:
            if asset_ids.intersection(entry.asset_ids):
                self.invalidate(entry.partition_id)

    def clear(self) -> None:
        """Drop everything (cold-start scenario, or full rebuild)."""
        with self._lock:
            self._generation += 1
            self._entries.clear()
            self._used = 0
            self._sync_tracker()

    def _sync_tracker(self) -> None:
        # Caller holds self._lock.
        if self._tracker is not None:
            self._tracker.set_category(self._category, self._used)


class DeltaCodesCache:
    """Single-slot cache of the lazily quantized delta partition.

    The delta partition is deliberately full-precision *on disk* — an
    upsert stays one row write — but it is also scanned by EVERY query,
    so a delta that has grown to thousands of vectors makes each scan
    re-read (and exactly score) the one partition quantization cannot
    shrink. Once the delta crosses ``delta_quantize_threshold``, the
    engine encodes it with the active quantizer on first scan and parks
    the codes here; later scans score the cached codes through the
    same rerank machinery as any coded partition.

    A single slot rather than a seat in the byte-budgeted LRUs because
    the entry's lifetime is write-bound, not capacity-bound: every
    delta write invalidates it (the very next scan must see the new
    vector), and it must survive even a zero cache budget — the
    cache-less device profile is exactly where re-reading the float32
    delta hurts most. Residency is tracked under
    :data:`DELTA_CODES_CATEGORY`; the entry is at most
    ``delta_rows x code_width`` bytes.
    """

    def __init__(self, tracker: MemoryTracker | None = None) -> None:
        self._tracker = tracker
        self._lock = threading.Lock()
        self._entry: CachedPartition | None = None
        self._generation = 0

    def generation(self) -> int:
        """Invalidation counter; read BEFORE loading the delta rows.

        The write-visibility guard: an encoder snapshots this value,
        reads and encodes the delta, and hands the value back to
        :meth:`put`. A delta write that commits in between bumps the
        counter (via :meth:`invalidate`), so the stale entry is
        rejected instead of cached — without this, a scan racing an
        upsert could install pre-upsert codes that every later scan
        would serve, hiding the fresh vector until the next write.
        """
        with self._lock:
            return self._generation

    def get(self) -> CachedPartition | None:
        with self._lock:
            return self._entry

    def put(self, entry: CachedPartition, generation: int) -> bool:
        """Install codes encoded at ``generation``; False if stale."""
        with self._lock:
            if generation != self._generation:
                return False
            self._entry = entry
            self._sync_tracker()
            return True

    def attach_columns(
        self,
        entry: CachedPartition,
        columns: Mapping[str, AttributeColumn | None],
        generation: int,
    ) -> None:
        """Park attribute columns read at ``generation`` on ``entry``
        (see :meth:`PartitionCache.attach_columns`)."""
        with self._lock:
            if generation != self._generation:
                return
            for name, column in columns.items():
                entry.columns.setdefault(name, column)
            self._sync_tracker()

    def invalidate(self) -> None:
        """Drop the cached codes (any delta write, purge, or retrain)."""
        with self._lock:
            self._generation += 1
            self._entry = None
            self._sync_tracker()

    def invalidate_containing(self, asset_ids: set[str]) -> None:
        """Drop the codes if they hold any of ``asset_ids`` (a delete);
        an encode in flight from a pre-write snapshot is rejected
        either way."""
        with self._lock:
            self._generation += 1
            if self._entry is not None and asset_ids.intersection(
                self._entry.asset_ids
            ):
                self._entry = None
                self._sync_tracker()

    def __len__(self) -> int:
        with self._lock:
            return 0 if self._entry is None else len(self._entry)

    def _sync_tracker(self) -> None:
        # Caller holds self._lock.
        if self._tracker is not None:
            nbytes = 0 if self._entry is None else self._entry.nbytes
            self._tracker.set_category(DELTA_CODES_CATEGORY, nbytes)


#: Scratch buffers are rounded up to a multiple of this, so buffers are
#: shared across partitions of slightly different sizes instead of the
#: pool fragmenting into one exact-fit buffer per partition size.
_SCRATCH_GRANULE = 64 * 1024


class ScratchLease:
    """One checked-out scratch buffer (pinned until checked back in).

    ``array(shape, dtype)`` views the leased bytes as the matrix the
    decoder fills; the view dies with the lease, so returning the lease
    while a kernel still reads the matrix is a use-after-free bug the
    pipeline's ownership handoff (I/O stage → queue → compute stage)
    exists to prevent.
    """

    __slots__ = ("_buffer", "nbytes", "_pool")

    def __init__(
        self, buffer: np.ndarray, pool: "ScratchBufferPool"
    ) -> None:
        self._buffer = buffer
        self.nbytes = int(buffer.nbytes)
        self._pool = pool

    def array(self, shape: tuple[int, ...], dtype: object) -> np.ndarray:
        """A writable ndarray view of the leased bytes."""
        needed = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if needed > self.nbytes:
            raise ValueError(
                f"lease holds {self.nbytes} bytes, view needs {needed}"
            )
        flat = self._buffer[:needed].view(dtype)
        return flat.reshape(shape)

    def release(self) -> None:
        """Return this lease to its pool (idempotent).

        Also drops the buffer reference, so any stale view used after
        release fails fast instead of silently reading pooled memory
        that may already be checked out to another worker.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.checkin(self)
            self._buffer = None


class ScratchBufferPool:
    """Reusable decode buffers for the pipelined partition scan.

    Cold scans through a zero/tiny partition-cache budget previously
    allocated a fresh matrix per partition per query; the pipeline
    instead checks a buffer out, decodes into it, scores, and checks it
    back in — the steady state is ``pipeline_depth + compute workers``
    buffers recycled forever.

    Accounting: *pinned* bytes (checked out) plus *pooled* bytes (free,
    awaiting reuse) are both resident and tracked under
    :data:`SCRATCH_CATEGORY` against the device memory budget. When a
    checkout would push residency past the budget the buffer is still
    handed out — queries must proceed — but flagged transient: on
    checkin it is freed, not pooled, so the pool never holds more than
    the budget in steady state.
    """

    def __init__(
        self,
        budget_bytes: int,
        tracker: MemoryTracker | None = None,
        category: str = SCRATCH_CATEGORY,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        self._tracker = tracker
        self._category = category
        self._lock = threading.Lock()
        self._free: list[np.ndarray] = []
        self._pinned = 0
        self._pooled = 0
        self._checkouts = 0
        self._reuses = 0

    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def pinned_bytes(self) -> int:
        with self._lock:
            return self._pinned

    @property
    def pooled_bytes(self) -> int:
        with self._lock:
            return self._pooled

    @property
    def checkouts(self) -> int:
        with self._lock:
            return self._checkouts

    @property
    def reuses(self) -> int:
        """Checkouts served by recycling a pooled buffer."""
        with self._lock:
            return self._reuses

    def has_headroom(self) -> bool:
        """Whether pinned residency is still inside the budget.

        ``checkout`` never fails — in-flight queries must proceed, so an
        over-budget checkout is handed out transiently — which makes
        this the back-pressure signal instead: the serving layer's
        admission control defers *new* queries while the pinned bytes
        alone exceed the budget, letting in-flight scans return their
        leases before more decode memory is committed. A zero budget
        disables pooling, not serving, so it always has headroom.
        """
        with self._lock:
            return self._budget == 0 or self._pinned < self._budget

    def checkout(self, nbytes: int) -> ScratchLease:
        """Lease a buffer of at least ``nbytes`` (pinned until checkin)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        size = max(
            _SCRATCH_GRANULE,
            -(-nbytes // _SCRATCH_GRANULE) * _SCRATCH_GRANULE,
        )
        with self._lock:
            self._checkouts += 1
            # Smallest pooled buffer that fits; the granule rounding
            # keeps partition-size jitter from defeating reuse.
            best = None
            for i, buf in enumerate(self._free):
                if buf.nbytes >= size and (
                    best is None or buf.nbytes < self._free[best].nbytes
                ):
                    best = i
            if best is not None:
                buf = self._free.pop(best)
                self._pooled -= buf.nbytes
                self._pinned += buf.nbytes
                self._reuses += 1
                self._sync_tracker()
                return ScratchLease(buf, self)
            buf = np.empty(size, dtype=np.uint8)
            self._pinned += size
            self._sync_tracker()
        return ScratchLease(buf, self)

    def checkin(self, lease: ScratchLease) -> None:
        """Return a lease; pool the buffer if the budget allows."""
        buf = lease._buffer
        with self._lock:
            self._pinned -= buf.nbytes
            if self._pinned + self._pooled + buf.nbytes <= self._budget:
                self._free.append(buf)
                self._pooled += buf.nbytes
            self._sync_tracker()

    def drain(self) -> None:
        """Free all pooled (unpinned) buffers — cold start / close.

        Leases still checked out stay pinned and accounted; they return
        through ``checkin`` as their scans finish.
        """
        with self._lock:
            self._free.clear()
            self._pooled = 0
            self._sync_tracker()

    def _sync_tracker(self) -> None:
        # Caller holds self._lock.
        if self._tracker is not None:
            self._tracker.set_category(
                self._category, self._pinned + self._pooled
            )
