"""The storage-backend protocol: the physical-layout surface.

:class:`~repro.storage.engine.StorageEngine` owns everything a layout
does not care about — caches, scratch buffers, byte accounting, the
quantizer lifecycle, attribute/token/centroid/meta SQL (identical
across backends) — and delegates the *vector payload* surface to a
:class:`StorageBackend`: how vector rows and quantized code rows are
physically laid out, read and rewritten, plus how connections to the
underlying store are made.

Three implementations ship (see the package ``__init__``):

- ``sqlite-row`` — the paper's layout: one SQLite row per vector,
  clustered by ``(partition_id, asset_id, vector_id)``. Byte-identical
  on disk to every previous version of this repo.
- ``sqlite-packed`` — one contiguous blob per partition (ids array +
  packed float32/sq8/pq payload in a single row), eliminating the
  ~40 bytes/row of key+record overhead that dominates partition reads
  once codes shrink to 8–16 bytes (the "decoupling vector data and
  index storage" design; see PAPERS.md).
- ``memory`` — the row layout on a single shared in-memory SQLite
  connection: zero disk I/O, for tests and benchmarks.

The contract every backend must honor for cross-backend bit-identity:
partition reads return rows ordered by ``(asset_id, vector_id)``,
full-collection iteration orders by ``(partition_id, asset_id,
vector_id)`` with the delta partition (id ``-1``) first, and id
point-fetches return each request chunk in ascending ``asset_id``
order. The row-stable distance kernels then produce identical results
over identical row orders.
"""

from __future__ import annotations

import abc
import os
import sqlite3
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence

import numpy as np

#: Estimated fixed per-row storage overhead of one SQLite row (b-tree
#: key + record header), used for byte accounting of row-per-vector
#: reads and of per-row point fetches on every backend.
SQLITE_ROW_OVERHEAD_BYTES = 24

#: Estimated fixed per-partition overhead of one packed blob row.
PACKED_PARTITION_OVERHEAD_BYTES = 24

#: Meta-table key recording which backend laid out the database file.
BACKEND_META_KEY = "storage_backend"

#: Checksum kinds in the ``partition_checksums`` table.
CHECKSUM_KIND_VECTORS = "vectors"
CHECKSUM_KIND_CODES = "codes"

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Content of the placeholder file a memory backend leaves at its path
#: (so path-existence checks, e.g. the shard manifest's, keep working).
MEMORY_MARKER = (
    b"MicroNN memory-backend placeholder: the data lives in process "
    b"memory and does not survive process exit.\n"
)


@dataclass
class PartitionPayload:
    """One partition's rows as read from a backend, before decoding.

    ``packed`` is the row payloads as ONE contiguous buffer in row
    order — the stored blob of a packed layout, the joined row blobs
    of a row-per-vector layout, empty for an empty partition — so the
    engine CRC-verifies and reinterprets a single buffer with no
    per-row work.

    ``stored_bytes`` is the backend's estimate of the physical bytes
    this read pulled from storage (payload plus layout overhead) —
    what the I/O accountant charges, and what makes the packed
    layout's smaller reads visible end to end.
    """

    asset_ids: tuple[str, ...]
    vector_ids: tuple[int, ...]
    packed: bytes | memoryview
    stored_bytes: int

    def __len__(self) -> int:
        return len(self.asset_ids)

    @classmethod
    def of_entry(cls, entry) -> "PartitionPayload":
        """A decoded partition entry (ids, vector ids, matrix) viewed
        as the payload a read of the same rows returns: the matrix's
        bytes are the joined row payloads."""
        return cls(
            entry.asset_ids, entry.vector_ids, memoryview(entry.matrix), 0
        )


#: Little-endian int64: how vector ids are stored in packed id arrays
#: and the width each one is checksummed at.
VID_DTYPE = np.dtype("<i8")


def payload_checksum(payload: PartitionPayload) -> int:
    """CRC32 over a partition payload's logical content.

    Covers the ids as well as the stored bytes, so a flipped byte in a
    packed asset-id array is caught just like one in the vector
    payload. Computed from the SAME object ``read_partition`` returns,
    or from a decoded entry of the same rows viewed as one
    (:meth:`PartitionPayload.of_entry`), so write-side stamping and
    read-side verification agree by construction within a backend.

    CRC32 chains over concatenation, so three calls over the joined
    UTF-8 ids, the ``<i8`` vector-id array and the payload buffer give
    the same integer as one call per row id, row vector id and row
    blob: stamps written by the per-row form verify unchanged.
    """
    crc = zlib.crc32("".join(payload.asset_ids).encode("utf-8"))
    crc = zlib.crc32(np.array(payload.vector_ids, dtype=VID_DTYPE), crc)
    return zlib.crc32(payload.packed, crc)


class StorageBackend(abc.ABC):
    """Physical layout + connection strategy behind a StorageEngine."""

    #: Registry name, persisted in the meta table and the shard
    #: manifest fingerprint.
    kind: ClassVar[str]

    #: Whether readers and the writer share one connection (the memory
    #: backend). The engine then serializes reads behind
    #: :attr:`writer_lock` instead of relying on WAL snapshots.
    shared_connection: ClassVar[bool] = False

    #: Whether the database lives in a real file (vacuum/size checks).
    file_backed: ClassVar[bool] = True

    #: Whether ``read_partition``/``read_partition_codes`` return
    #: ``packed`` buffers that are long-lived zero-copy views (e.g.
    #: into an ``mmap``). The engine then hands the scan kernels a
    #: read-only NumPy view over the buffer instead of copying it into
    #: a scratch lease or a fresh array.
    serves_mmap_views: ClassVar[bool] = False

    def __init__(self, path: str, config) -> None:
        self._path = path
        self._config = config
        #: The engine's write serialization lock. Owned here so a
        #: shared-connection backend can serialize its internal reads
        #: against the same lock.
        self.writer_lock = threading.RLock()

    @property
    def path(self) -> str:
        return self._path

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def connect_writer(self) -> sqlite3.Connection:
        """Open (or hand out) the single writer connection."""

    @abc.abstractmethod
    def connect_reader(self) -> sqlite3.Connection:
        """Open (or hand out) a reader connection for this thread."""

    def close_connection(self, conn: sqlite3.Connection) -> None:
        """Close one connection handed out by this backend."""
        conn.close()

    def shutdown(self) -> None:
        """Release backend-held resources after connections closed."""

    # ------------------------------------------------------------------
    # Commit points
    # ------------------------------------------------------------------

    def before_begin_write(self) -> None:
        """Hook fired just before a write transaction's BEGIN.

        The fault-injecting test backend raises transient ``database
        is locked`` errors here to exercise the engine's bounded
        busy-retry deterministically.
        """

    def before_commit(self, label: str) -> None:
        """Hook fired by the engine just before a write txn commits.

        ``label`` names the commit point (``"upsert"``, ``"flush"``,
        …). No-op for real backends; the fault-injecting test backend
        counts these and raises :class:`SimulatedCrash` on scripted
        ordinals to prove every commit point is crash-consistent.
        """

    def after_commit(self, label: str) -> None:
        """Hook fired right after a write txn committed durably."""

    # ------------------------------------------------------------------
    # Schema & stored-kind validation
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_layout_tables(
        self, conn: sqlite3.Connection, use_quantization: bool
    ) -> None:
        """Create this layout's vector/code tables (idempotent)."""

    def validate_stored_kind(self, conn: sqlite3.Connection) -> None:
        """Refuse to open a database laid out by a different backend.

        Runs BEFORE any DDL so a mismatched open never pollutes the
        file with the wrong layout's empty tables. A database that
        predates the backend abstraction (meta table present, no
        ``storage_backend`` key) is by definition ``sqlite-row``.
        """
        from repro.core.errors import StorageError

        has_meta = conn.execute(
            "SELECT 1 FROM sqlite_master "
            "WHERE type='table' AND name='meta'"
        ).fetchone()
        if has_meta is None:
            return  # fresh database; this backend claims it
        row = conn.execute(
            "SELECT value FROM meta WHERE key=?", (BACKEND_META_KEY,)
        ).fetchone()
        stored = str(row[0]) if row is not None else "sqlite-row"
        if stored != self.kind:
            raise StorageError(
                f"database at {self._path!r} was created with "
                f"storage_backend={stored!r}; config says "
                f"storage_backend={self.kind!r}. Reopen it with the "
                "backend it was created with."
            )

    # ------------------------------------------------------------------
    # Vector writes
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def remove_assets(
        self,
        conn: sqlite3.Connection,
        asset_ids: Sequence[str],
        drop_codes: bool,
    ) -> int:
        """Remove the assets' vector (and code) rows; return count."""

    @abc.abstractmethod
    def insert_delta_rows(
        self,
        conn: sqlite3.Connection,
        rows: Sequence[tuple[str, int, bytes]],
    ) -> None:
        """Insert fresh ``(asset_id, vector_id, blob)`` delta rows."""

    @abc.abstractmethod
    def apply_assignments(
        self,
        conn: sqlite3.Connection,
        moves: Sequence[tuple[str, int]],
        code_rows: Sequence[tuple[int, str, int, bytes]] | None,
        use_quantization: bool,
    ) -> None:
        """Move vectors (and their codes) between partitions."""

    @abc.abstractmethod
    def rewrite_codes(
        self,
        conn: sqlite3.Connection,
        encode_blobs: Callable[[list[bytes]], list[bytes]],
        batch_size: int,
    ) -> int:
        """Drop all codes, re-encode every indexed vector; return count.

        ``encode_blobs`` maps a batch of float32 vector blobs to the
        same-length list of code blobs (the engine closes over the
        trained quantizer).
        """

    @abc.abstractmethod
    def drop_partition(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        use_quantization: bool,
    ) -> int:
        """Delete one partition's vector (and code) rows; return count.

        The unrecoverable-corruption escape hatch of ``repair()``: the
        caller is responsible for the layout-independent cleanup
        (centroid row, checksum rows).
        """

    # ------------------------------------------------------------------
    # Checksums
    # ------------------------------------------------------------------

    def partitions_of(
        self, conn: sqlite3.Connection, asset_ids: Sequence[str]
    ) -> set[int]:
        """Distinct partitions currently holding any of the assets."""
        out: set[int] = set()
        for asset_id in asset_ids:
            pid = self.get_partition_of(conn, asset_id)
            if pid is not None:
                out.add(int(pid))
        return out

    def stored_checksums(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> dict[str, int]:
        """The recorded CRCs of one partition (absent kinds missing)."""
        rows = conn.execute(
            "SELECT kind, crc32 FROM partition_checksums "
            "WHERE partition_id=?",
            (partition_id,),
        ).fetchall()
        return {str(kind): int(crc) for kind, crc in rows}

    def checksummed_partitions(self, conn: sqlite3.Connection) -> set[int]:
        """Every partition with at least one recorded checksum."""
        rows = conn.execute(
            "SELECT DISTINCT partition_id FROM partition_checksums"
        ).fetchall()
        return {int(r[0]) for r in rows}

    def refresh_checksums(
        self,
        conn: sqlite3.Connection,
        partition_ids: Iterable[int] | None,
        use_quantization: bool,
        kinds: tuple[str, ...] = (
            CHECKSUM_KIND_VECTORS,
            CHECKSUM_KIND_CODES,
        ),
        planned: Mapping[str, Mapping[int, object]] | None = None,
    ) -> None:
        """Recompute and store the CRCs of the given partitions.

        Must run inside the same write transaction as the mutation it
        covers, so payload and checksum commit (or roll back)
        together. ``None`` refreshes every indexed partition plus any
        partition that still has a stale checksum row. The delta
        partition is never checksummed: every upsert rewrites it, and
        its scans are always full-precision and reranked exactly.

        ``planned`` maps a checksum kind to the post-write entries the
        caller has at hand (the cache's planned patch: each holds the
        rows a fresh read returns once the write commits). A partition
        with one is stamped from the post-write copy at hand; only the
        others are re-read. :func:`payload_checksum` computes every
        stamp either way.
        """
        from repro.core.config import DELTA_PARTITION_ID

        if partition_ids is None:
            pids = set(self.partition_sizes(conn, include_delta=False))
            pids.update(self.checksummed_partitions(conn))
        else:
            pids = {int(p) for p in partition_ids}
        pids.discard(DELTA_PARTITION_ID)
        reads = []
        if CHECKSUM_KIND_VECTORS in kinds:
            reads.append((CHECKSUM_KIND_VECTORS, self.read_partition))
        if CHECKSUM_KIND_CODES in kinds and use_quantization:
            reads.append((CHECKSUM_KIND_CODES, self.read_partition_codes))
        planned = planned or {}
        for pid in sorted(pids):
            for kind, read in reads:
                entry = planned.get(kind, {}).get(pid)
                payload = (
                    read(conn, pid)
                    if entry is None
                    else PartitionPayload.of_entry(entry)
                )
                self._stamp_checksum(conn, pid, kind, payload)

    def _stamp_checksum(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        kind: str,
        payload: PartitionPayload,
    ) -> None:
        if len(payload):
            conn.execute(
                "INSERT OR REPLACE INTO partition_checksums "
                "(partition_id, kind, crc32) VALUES (?, ?, ?)",
                (partition_id, kind, payload_checksum(payload)),
            )
        else:
            conn.execute(
                "DELETE FROM partition_checksums "
                "WHERE partition_id=? AND kind=?",
                (partition_id, kind),
            )

    # ------------------------------------------------------------------
    # Vector reads
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def read_partition(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        """One partition's float32 rows, ordered by (asset, vector) id."""

    @abc.abstractmethod
    def read_partition_codes(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        """One partition's code rows, same order as the float rows."""

    @abc.abstractmethod
    def fetch_vector_blobs(
        self,
        conn: sqlite3.Connection,
        asset_ids: Sequence[str],
        chunk_size: int,
    ) -> tuple[list[str], list[bytes], int]:
        """Point-fetch: (found_ids, blobs, stored_bytes), chunk-sorted."""

    @abc.abstractmethod
    def get_vector_blob(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> bytes | None:
        """One asset's float32 blob, or None."""

    @abc.abstractmethod
    def get_partition_of(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> int | None:
        """The partition currently holding the asset, or None."""

    @abc.abstractmethod
    def iter_row_batches(
        self,
        conn: sqlite3.Connection,
        include_delta: bool,
        batch_size: int,
    ) -> Iterator[tuple[list[str], list[bytes], int]]:
        """Stream all rows as (ids, blobs, stored_bytes) batches.

        Global order is ``(partition_id, asset_id, vector_id)`` with
        the delta partition first — index builds sample and assign in
        this order, so it must be identical across backends.
        """

    @abc.abstractmethod
    def all_asset_ids(self, conn: sqlite3.Connection) -> list[str]:
        """Every stored asset id, ascending."""

    @abc.abstractmethod
    def count_vectors(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> int:
        ...

    @abc.abstractmethod
    def delta_size(self, conn: sqlite3.Connection) -> int:
        ...

    @abc.abstractmethod
    def partition_sizes(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> dict[int, int]:
        ...

    @abc.abstractmethod
    def count_codes(self, conn: sqlite3.Connection) -> int:
        ...

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def integrity_problems(
        self,
        conn: sqlite3.Connection,
        use_quantization: bool,
        quantizer_trained: bool,
    ) -> list[str]:
        """Layout-specific invariant violations (empty = healthy)."""


class SQLiteFileConnectionsMixin:
    """WAL-mode file connections shared by the SQLite file backends.

    One writer + per-thread readers, exactly the paper's concurrency
    design: the pragmas here are THE pragmas the engine has always
    used, so the row backend's files stay byte-identical to databases
    created before the backend abstraction existed.
    """

    def _connect(self) -> sqlite3.Connection:
        self._validate_file()
        conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        page_budget = self._config.device.sqlite_cache_bytes
        conn.execute(f"PRAGMA cache_size=-{max(1, page_budget // 1024)}")
        return conn

    def _validate_file(self) -> None:
        from repro.core.errors import StorageError

        if os.path.exists(self.path) and file_looks_like_memory_marker(
            self.path
        ):
            raise StorageError(
                f"{self.path!r} is a memory-backend placeholder, not a "
                "SQLite database; its data lived in process memory. "
                "Open it with storage_backend='memory' (same process) "
                "or rebuild it."
            )

    def connect_writer(self) -> sqlite3.Connection:
        return self._connect()

    def connect_reader(self) -> sqlite3.Connection:
        conn = self._connect()
        conn.execute("PRAGMA query_only=ON")
        return conn


def file_looks_like_memory_marker(path: str) -> bool:
    """Whether ``path`` holds a memory backend's placeholder file."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MEMORY_MARKER)) == MEMORY_MARKER
    except OSError:
        return False


def file_looks_like_sqlite(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(SQLITE_MAGIC))
    except OSError:
        return False
    # A zero-length file is what sqlite3.connect leaves behind before
    # the first page is written; treat it as a (fresh) database.
    return head == SQLITE_MAGIC or (
        len(head) == 0 and os.path.exists(path)
    )
