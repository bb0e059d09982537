"""Byte-budgeted LRU cache of decoded IVF partitions.

This is the library's page-cache analog: the unit of disk transfer in
MicroNN is one IVF partition (vectors are clustered on disk by partition
id, paper §3.2), so the cache holds decoded partitions — the asset ids
plus the contiguous float32 matrix the distance kernels consume.

The budget comes from the :class:`~repro.core.config.DeviceProfile`;
evicting whole partitions keeps accounting exact and mirrors how the
clustered layout makes partition reads sequential. Cold-start scenarios
purge the cache (``clear``); warm-cache scenarios pre-populate it by
running warm-up queries. A committed write *patches* the entries it
touches — deleted and moved rows leave them, upserted and flushed rows
join them — so each resident entry keeps holding exactly the rows a
fresh load would, and a workload that keeps writing keeps its cache
warm. A write plans its patch inside its transaction
(:meth:`PartitionCache.plan`), stamps the checksums of the partitions
it touched from the post-write copies at hand, and installs the plan
once it has committed (:meth:`PartitionCache.install`).

A cached partition also carries the attribute columns of its rows
(:class:`AttributeColumn`) once a filtered scan has asked for them: the
hybrid post-filter plan masks a partition with one NumPy comparison
over them instead of consulting SQL per query. A patch that removes
rows slices the columns with the same mask; one that adds rows drops
them, and the next filtered scan reads them again.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from itertools import chain
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

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
    away from a backend read (in-memory delta codes, patched entries).

    ``columns`` holds the rows' attribute columns (name → column, in
    row order; None marks a column that could not be typed), filled
    the first time a filtered scan masks this entry and only through
    the owning cache's ``attach_columns``, which charges their bytes.
    They follow the entry's rows: a patch that removes rows slices
    them, one that adds rows drops them.
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


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def _joined_tuple(pieces: list[tuple]) -> tuple:
    return tuple(chain.from_iterable(pieces))


def _positions(values: tuple, items: Collection[str]) -> list[int]:
    """Ascending positions in ``values`` of those ``items`` it holds:
    a binary search per item while they are few — an entry's rows are
    in ascending ``asset_id`` order, the backends' contract — one
    membership scan otherwise."""
    if 8 * len(items) < len(values):
        found = []
        for item in items:
            i = bisect.bisect_left(values, item)
            if i < len(values) and values[i] == item:
                found.append(i)
        return sorted(found)
    wanted = items if isinstance(items, (set, frozenset)) else set(items)
    return [i for i, value in enumerate(values) if value in wanted]


def _patched(
    entry: CachedPartition,
    gone: list[int],
    rows: list[tuple[str, int, np.ndarray]],
    columns: Mapping[str, AttributeColumn | None],
) -> CachedPartition:
    """``entry`` less the rows at the positions ``gone``, plus ``rows``
    — ``(asset_id, vector_id, one-row matrix)`` — in one copy.

    The result keeps ``asset_id`` order, the order every backend reads
    a partition in, so it is row for row what a fresh load returns. It
    is joined from slices of the entry: the cost is the pieces, not
    the rows. The entry's attribute ``columns`` are cut alike when
    rows only leave; rows that join drop them, and the next filtered
    scan reads them.
    """
    rows = sorted(rows, key=itemgetter(0))
    # Removed rows as runs [start, stop): a flush emptying the delta
    # is one cut, not one per row.
    runs: list[list[int]] = []
    for i in gone:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    # An insertion before a position (kind 0) sorts ahead of a run
    # removed from there (kind 1): an overwritten row's successor takes
    # its place.
    events = sorted(
        [
            (bisect.bisect_left(entry.asset_ids, row[0]), 0, j)
            for j, row in enumerate(rows)
        ]
        + [(start, 1, stop) for start, stop in runs]
    )

    def splice(values, items, join=np.concatenate):
        pieces, start = [], 0
        for position, removal, j in events:
            pieces.append(values[start:position])
            if removal:
                start = j
            else:
                # Inside a removed run, ``start`` is already past it.
                pieces.append(items[j])
                start = max(start, position)
        pieces.append(values[start:])
        return join(pieces)

    kept = {}
    if not rows:
        kept = {
            name: None
            if column is None
            else AttributeColumn(
                splice(column.values, ()),
                None if column.valid is None else splice(column.valid, ()),
            )
            for name, column in columns.items()
        }
    return CachedPartition(
        partition_id=entry.partition_id,
        asset_ids=splice(
            entry.asset_ids, [(a,) for a, _, _ in rows], _joined_tuple
        ),
        vector_ids=splice(
            entry.vector_ids, [(v,) for _, v, _ in rows], _joined_tuple
        ),
        matrix=_frozen(splice(entry.matrix, [m for _, _, m in rows])),
        columns=kept,
    )


@dataclass
class PatchPlan:
    """One write's patch of a :class:`PartitionCache`: built by
    :meth:`PartitionCache.plan` before the write commits, applied by
    :meth:`PartitionCache.install` after.

    ``entries`` maps each partition the write touches whose entry the
    cache held at planning to its post-write copy — the rows a fresh
    load returns once the write commits — or to the entry itself when
    the write leaves it as it is. A partition whose entry is to be
    dropped has none. ``bases`` are the entries the copies were built
    from: install swaps a copy in only while its base is still cached.
    """

    asset_ids: Collection[str]
    holders: set[int]
    moved_in: dict[int, list[str]]
    joining: dict[int, list[tuple[str, int, np.ndarray]]]
    drop: set[int]
    # Moved rows by asset id: (vector id, one-row matrix).
    carried: dict[str, tuple[int, np.ndarray]] = field(
        default_factory=dict
    )
    bases: dict[int, CachedPartition] = field(default_factory=dict)
    entries: dict[int, CachedPartition] = field(default_factory=dict)

    @property
    def touched(self) -> set[int]:
        return self.holders.union(self.moved_in, self.joining)

    def gone_from(self, pid: int, entry: CachedPartition) -> list[int]:
        """Positions of the rows ``entry`` loses; moved ones are kept
        in ``carried`` for their destinations."""
        # An entry loaded after the commit holds a written row only
        # where the write put it.
        candidates = self.asset_ids
        if pid not in self.holders:
            candidates = self.moved_in.get(pid, []) + [
                row[0] for row in self.joining.get(pid, [])
            ]
        gone = _positions(entry.asset_ids, candidates)
        if self.moved_in:
            for i in gone:
                self.carried[entry.asset_ids[i]] = (
                    entry.vector_ids[i],
                    entry.matrix[i : i + 1],
                )
        return gone

    def rebuilt(
        self,
        pid: int,
        entry: CachedPartition,
        gone: list[int],
        columns: Mapping[str, AttributeColumn | None],
    ) -> CachedPartition | None:
        """``entry`` after the write, or None when it is to be dropped:
        a destination gaining a row that no cached entry held."""
        ids = self.moved_in.get(pid, [])
        if pid in self.drop or not all(a in self.carried for a in ids):
            return None
        rows = self.joining.get(pid, []) + [
            (a, *self.carried[a]) for a in ids
        ]
        if not rows and not gone:
            return entry
        return _patched(entry, gone, rows, columns)


class PartitionCache:
    """Thread-safe LRU over :class:`CachedPartition` entries.

    Entries larger than the whole budget are admitted transiently by the
    caller but never cached (otherwise a single mega-partition would
    evict everything and still not fit).

    Every invalidation and every :meth:`install` bumps a generation
    counter. A loader reads it BEFORE pinning the database snapshot it
    loads from and hands it back to :meth:`put`; a write that committed
    and patched in between has moved the counter, so the pre-write
    entry is rejected instead of re-cached behind the patch (the same
    guard as :class:`DeltaCodesCache`). The counter is per cache, not
    per partition: a load overlapping any write is simply not cached.
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
        that a write (or an invalidation) has since moved past, and
        was rejected.
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
        that a write has since moved past may predate the write, while
        the cache may already hold ``entry`` patched — they serve the
        scan that read them and are not kept. While the
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
        # just put (it fits the budget alone); an entry a patch grew
        # past the budget goes like any other.
        while self._used > self._budget and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted.nbytes
        self._sync_tracker()

    def invalidate(self, partition_id: int) -> None:
        """Drop one partition (a quarantined one)."""
        with self._lock:
            self._generation += 1
            entry = self._entries.pop(partition_id, None)
            if entry is not None:
                self._used -= entry.nbytes
                self._sync_tracker()

    def plan(
        self,
        asset_ids: Collection[str],
        partitions: Iterable[int],
        *,
        moves: Mapping[str, int] | None = None,
        fresh: CachedPartition | None = None,
        drop: Iterable[int] = (),
    ) -> PatchPlan:
        """Build the post-write copy of every resident entry one write
        touches, installing nothing (:meth:`install` does, after the
        write commits).

        1. The cached entries of ``partitions`` — and of every partition
           the write adds rows to — lose their rows of ``asset_ids``.
        2. ``moves`` (asset id → destination partition) carries each
           moved row from the entry step 1 took it out of into its
           destination's entry. A destination gaining a row that no
           cached entry held is to be dropped instead.
        3. The rows of ``fresh`` join the entry of its partition.
        4. The entries of ``drop`` are to be dropped.

        Each entry is built once, whatever it loses and gains, from the
        entry the cache holds now. The lock is held only to take those
        entries and their attribute columns: entries never change once
        cached, but for the columns :meth:`attach_columns` adds.
        """
        moves = moves or {}
        # The rows each partition gains: moved in, or fresh.
        moved_in: dict[int, list[str]] = {}
        for asset_id, pid in moves.items():
            moved_in.setdefault(pid, []).append(asset_id)
        joining: dict[int, list[tuple[str, int, np.ndarray]]] = {}
        if fresh is not None:
            joining[fresh.partition_id] = [
                (asset_id, vector_id, fresh.matrix[j : j + 1])
                for j, (asset_id, vector_id) in enumerate(
                    zip(fresh.asset_ids, fresh.vector_ids)
                )
            ]
        plan = PatchPlan(
            asset_ids, set(partitions), moved_in, joining, set(drop)
        )
        with self._lock:
            for pid in plan.touched:
                entry = self._entries.get(pid)
                if entry is not None:
                    plan.bases[pid] = entry
            columns = {
                pid: dict(entry.columns) for pid, entry in plan.bases.items()
            }
        gone = {
            pid: plan.gone_from(pid, entry)
            for pid, entry in plan.bases.items()
        }
        for pid, entry in plan.bases.items():
            post = plan.rebuilt(pid, entry, gone[pid], columns[pid])
            if post is not None:
                plan.entries[pid] = post
        return plan

    def install(self, plan: PatchPlan) -> None:
        """Apply a committed write's :meth:`plan` under one lock, moving
        the generation as an invalidation does.

        A planned copy replaces its base if the cache still holds the
        base. An entry that changed since the plan — a load cached in
        between, before the commit or after it — is patched here the
        same way, from the rows the plan carries. Every row added is
        one of the written ``asset_ids``, so either way the entry ends
        up holding the post-write rows. Entries the cache does not hold
        are left to load cold; the generation move keeps a load from a
        pre-write snapshot from being cached after this.
        """
        with self._lock:
            self._generation += 1
            entries = self._entries
            stale = {}
            for pid in plan.touched:
                entry = entries.get(pid)
                if entry is not None and entry is not plan.bases.get(pid):
                    stale[pid] = entry
            gone = {
                pid: plan.gone_from(pid, entry) for pid, entry in stale.items()
            }
            drop = set(plan.drop)
            for pid in plan.touched:
                entry = entries.get(pid)
                if entry is None:
                    continue
                if pid in stale:
                    post = plan.rebuilt(
                        pid, entry, gone[pid], entry.columns
                    )
                else:
                    post = plan.entries.get(pid)
                if post is None:
                    drop.add(pid)
                elif post is not entry:
                    self._replace(post)
            for pid in drop:
                entry = entries.pop(pid, None)
                if entry is not None:
                    self._used -= entry.nbytes
            self._evict_to_budget()

    def _replace(self, entry: CachedPartition) -> None:
        # Caller holds self._lock; the entry keeps its LRU position.
        old = self._entries[entry.partition_id]
        self._entries[entry.partition_id] = entry
        self._used += entry.nbytes - old.nbytes

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
