"""Blob-file layout: mmap'd append-only record file + SQLite locator.

The packed layout removed the per-row b-tree tax, but every cold scan
still funnels partition bytes through SQLite's blob read path into a
fresh Python buffer. This backend takes the remaining step (the
"decoupling vector data and index storage" design; see PAPERS.md):
partition vector/code payloads live as length-prefixed, CRC-stamped
records in an append-only ``<db>.blob.<gen>`` file accessed through
``mmap``, while SQLite keeps everything else — metadata, the delta
store, the asset locator, and the ``blob_locator`` table mapping each
``(partition_id, kind)`` to its record's byte range.

Why this is fast AND crash-safe with almost no new machinery:

- **Zero-copy scans.** ``read_partition`` returns a ``memoryview``
  over the mapping; the engine wraps it in a read-only NumPy view
  (``serves_mmap_views``), so a cold scan materializes no float32 or
  code buffer at all — the kernels read the page cache directly.
- **Point reads are offset slices.** The rerank fetch of one row is
  ``mmap[payload_off + i*width : ...]`` — the same bytes the packed
  layout's ``substr`` ranged read charges, without the SQL detour.
- **Torn appends are unreachable garbage.** A rewrite appends the new
  record, fsyncs, and flips the locator row inside the SAME SQLite
  transaction. If the transaction rolls back (or the process dies
  mid-append) the bytes are never referenced; no committed state can
  point at a half-written record, so the PR 7 kill-point sweep and
  the scrub/repair machinery apply unchanged.
- **Compaction is an atomic swap.** Dead bytes (superseded records
  plus rolled-back appends) are reclaimed by copying live records
  into generation ``N+1`` and updating every locator row plus the
  ``blob_generation`` meta key in one transaction (commit label
  ``"compact"``). A crash on either side leaves one coherent
  generation; the stale file is swept on the next open.

Row order inside every record is ``(asset_id, vector_id)`` — the
shared cross-backend contract — so results stay bit-identical to the
row and packed layouts.
"""

from __future__ import annotations

import mmap
import os
import sqlite3
import struct
import threading
import zlib
from typing import Callable, Iterator

import numpy as np

from repro.core.config import DELTA_PARTITION_ID
from repro.core.errors import StorageError
from repro.storage import schema as schema_mod
from repro.storage.backends.base import (
    CHECKSUM_KIND_CODES,
    CHECKSUM_KIND_VECTORS,
    SQLITE_ROW_OVERHEAD_BYTES,
    VID_DTYPE,
    PartitionPayload,
)
from repro.storage.backends.sqlite_packed import (
    SQLitePackedBackend,
    pack_asset_ids,
    unpack_asset_ids,
)

#: First bytes of every blob record.
RECORD_MAGIC = b"MNB1"

#: Record header: magic, version, kind code, partition id, row count,
#: asset-id-blob bytes, payload bytes, CRC32 of the body (asset-id
#: blob + vector-id array + payload). Vector-id bytes are derived
#: (``row_count * 8`` for vector records, 0 for code records).
RECORD_HEADER = struct.Struct("<4sBBqIIII")

RECORD_VERSION = 1

_KIND_CODE = {CHECKSUM_KIND_VECTORS: 0, CHECKSUM_KIND_CODES: 1}

#: Meta-table key naming the live blob-file generation.
BLOB_GENERATION_META_KEY = "blob_generation"

#: File-offset alignment of every record's payload. Zero padding is
#: inserted between the vector-id array and the payload so the payload
#: begins on a 64-byte file offset; mmap is page-aligned, so that is a
#: 64-byte *memory* alignment. This matters for more than SIMD loads:
#: NumPy flags an array over an unaligned buffer, which routes BLAS
#: GEMMs through different micro-kernels and shifts low-order bits —
#: breaking the cross-backend bit-identical-results contract. The
#: padding is derived from the record's offset and field lengths (the
#: header does not store it) and is excluded from the record CRC, so
#: relocating a record during compaction re-pads without re-stamping.
PAYLOAD_ALIGN = 64


def _payload_pad(payload_file_off: int) -> int:
    """Zero bytes needed to 64-align a payload at this file offset."""
    return -payload_file_off % PAYLOAD_ALIGN


def blob_file_path(db_path: str, gen: int) -> str:
    """The blob file sitting next to ``db_path`` for generation gen."""
    return f"{db_path}.blob.{gen}"


class BlobFileBackend(SQLitePackedBackend):
    """Append-only mmap'd blob file; SQLite metadata + locators.

    Subclasses the packed backend: the delta store, asset locator and
    every partition-level mutation algorithm are identical — only the
    physical home of the packed bytes changes, so this class overrides
    exactly the blob plumbing (`_load_rows`/`_write_rows`/…) plus the
    partition readers, and inherits the rest.
    """

    kind = "blobfile"
    shared_connection = False
    file_backed = True
    serves_mmap_views = True

    def __init__(self, path: str, config) -> None:
        super().__init__(path, config)
        self._gen = 0
        self._append_fh = None
        self._append_dirty = False
        #: gen -> (mmap | None, mapped size); maps are only dropped
        #: two generations back, so readers whose SQLite snapshot
        #: predates a compaction can still resolve old-gen records
        #: (the unlinked file stays readable through its mapping).
        self._maps: dict[int, tuple[mmap.mmap | None, int]] = {}
        self._map_lock = threading.Lock()
        self._pending_gen: int | None = None
        # Telemetry counters, exported by the engine as gauges.
        self.appends_total = 0
        self.appended_bytes_total = 0
        self.compactions_total = 0
        self.mmap_bytes_served_total = 0

    # ------------------------------------------------------------------
    # Open / schema / lifecycle
    # ------------------------------------------------------------------

    def validate_stored_kind(self, conn: sqlite3.Connection) -> None:
        super().validate_stored_kind(conn)
        self._load_generation(conn)
        self._sweep_stale_generations()

    def create_layout_tables(
        self, conn: sqlite3.Connection, use_quantization: bool
    ) -> None:
        conn.execute(schema_mod.PACKED_DELTA_TABLE)
        conn.execute(schema_mod.PACKED_LOCATOR_TABLE)
        conn.execute(schema_mod.BLOB_LOCATOR_TABLE)

    def before_commit(self, label: str) -> None:
        """Make this transaction's appends durable before COMMIT.

        The locator rows become visible at COMMIT; the bytes they
        point at must already be on disk by then, so a post-commit
        crash can never expose a reference to unwritten data.
        """
        if self._append_dirty and self._append_fh is not None:
            self._append_fh.flush()
            os.fsync(self._append_fh.fileno())
            self._append_dirty = False

    def after_commit(self, label: str) -> None:
        if label == "compact" and self._pending_gen is not None:
            self._switch_generation(self._pending_gen)
            self._pending_gen = None

    def shutdown(self) -> None:
        if self._append_fh is not None:
            try:
                self._append_fh.close()
            except OSError:
                pass
            self._append_fh = None
        with self._map_lock:
            for mapping, _size in self._maps.values():
                if mapping is not None:
                    try:
                        mapping.close()
                    except (BufferError, OSError):
                        # Views exported to still-cached NumPy arrays
                        # keep the mapping alive; dropping our
                        # reference lets GC reclaim it when they die.
                        pass
            self._maps.clear()
        self._pending_gen = None

    def _load_generation(self, conn: sqlite3.Connection) -> None:
        has_meta = conn.execute(
            "SELECT 1 FROM sqlite_master "
            "WHERE type='table' AND name='meta'"
        ).fetchone()
        gen = 0
        if has_meta is not None:
            row = conn.execute(
                "SELECT value FROM meta WHERE key=?",
                (BLOB_GENERATION_META_KEY,),
            ).fetchone()
            if row is not None:
                try:
                    gen = int(row[0])
                except ValueError:
                    raise StorageError(
                        f"meta key {BLOB_GENERATION_META_KEY!r} holds "
                        f"{row[0]!r}, expected an integer generation"
                    ) from None
        self._gen = gen

    def _sweep_stale_generations(self) -> None:
        """Remove blob files of other generations (crash leftovers).

        A crash before a compaction's commit strands generation N+1;
        a crash right after strands generation N. Either way exactly
        one generation is referenced by the committed locators — the
        one named by the meta key — and every other file is garbage.
        """
        directory = os.path.dirname(self._path) or "."
        prefix = os.path.basename(self._path) + ".blob."
        current = f"{prefix}{self._gen}"
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            if not name.startswith(prefix) or name == current:
                continue
            if name[len(prefix):].isdigit():
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Blob file: append + mmap views
    # ------------------------------------------------------------------

    def blob_path(self, gen: int | None = None) -> str:
        return blob_file_path(
            self._path, self._gen if gen is None else gen
        )

    def _append_handle(self):
        if self._append_fh is None:
            self._append_fh = open(self.blob_path(), "ab")
        return self._append_fh

    def _append_record(
        self,
        kind: str,
        partition_id: int,
        row_count: int,
        ids_blob: bytes,
        vids_blob: bytes,
        payload: bytes,
    ) -> tuple[int, int]:
        """Append one record; return its (offset, total length).

        The bytes are flushed to the OS immediately — same-transaction
        re-reads (checksum stamping) go through the mmap — but only
        fsynced once per transaction, in :meth:`before_commit`.
        """
        crc = zlib.crc32(ids_blob)
        crc = zlib.crc32(vids_blob, crc)
        crc = zlib.crc32(payload, crc)
        header = RECORD_HEADER.pack(
            RECORD_MAGIC,
            RECORD_VERSION,
            _KIND_CODE[kind],
            partition_id,
            row_count,
            len(ids_blob),
            len(payload),
            crc,
        )
        fh = self._append_handle()
        offset = os.fstat(fh.fileno()).st_size
        pad = _payload_pad(
            offset + RECORD_HEADER.size + len(ids_blob) + len(vids_blob)
        )
        fh.write(header)
        fh.write(ids_blob)
        if vids_blob:
            fh.write(vids_blob)
        if pad:
            fh.write(b"\x00" * pad)
        fh.write(payload)
        fh.flush()
        self._append_dirty = True
        length = (
            RECORD_HEADER.size
            + len(ids_blob) + len(vids_blob) + pad + len(payload)
        )
        self.appends_total += 1
        self.appended_bytes_total += length
        return offset, length

    def _view(self, gen: int, offset: int, length: int) -> memoryview:
        """A zero-copy view over one record's bytes."""
        with self._map_lock:
            entry = self._maps.get(gen)
            if entry is None or offset + length > entry[1]:
                entry = self._remap_locked(gen)
            mapping, size = entry
            if mapping is None or offset + length > size:
                raise StorageError(
                    f"blob record at gen {gen} offset {offset} "
                    f"(+{length} bytes) extends past the end of "
                    f"{self.blob_path(gen)!r} ({size} bytes mapped)"
                )
            return memoryview(mapping)[offset : offset + length]

    def _remap_locked(self, gen: int) -> tuple[mmap.mmap | None, int]:
        """(Re)map one generation's file at its current size."""
        path = self.blob_path(gen)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size == 0:
            entry: tuple[mmap.mmap | None, int] = (None, 0)
        else:
            with open(path, "rb") as fh:
                entry = (
                    mmap.mmap(
                        fh.fileno(), size, access=mmap.ACCESS_READ
                    ),
                    size,
                )
        # The superseded mapping may have exported views; dropping the
        # reference (not close()) lets them keep it alive until GC.
        self._maps[gen] = entry
        return entry

    def drop_mappings(self) -> None:
        """Forget every cached mapping; the next read remaps.

        Test hook for out-of-band file mutation (fault injection):
        a shrunk file must be re-stat'ed, not served from a mapping
        sized before the mutation.
        """
        with self._map_lock:
            self._maps.clear()

    def _switch_generation(self, new_gen: int) -> None:
        """Install a compacted generation and retire the old file."""
        old_gen = self._gen
        old_path = self.blob_path(old_gen)
        if self._append_fh is not None:
            try:
                self._append_fh.close()
            except OSError:
                pass
            self._append_fh = None
        with self._map_lock:
            # Map the retiring file at full size first: readers whose
            # snapshot predates the swap still resolve old-gen
            # records through this mapping even after the unlink.
            self._remap_locked(old_gen)
            for gen in list(self._maps):
                if gen not in (old_gen, new_gen):
                    self._maps.pop(gen)
        self._gen = new_gen
        self.compactions_total += 1
        try:
            os.remove(old_path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def _locator_row(
        self, conn: sqlite3.Connection, partition_id: int, kind: str
    ) -> tuple[int, int, int, int] | None:
        row = conn.execute(
            "SELECT gen, offset, length, row_count FROM blob_locator "
            "WHERE partition_id=? AND kind=?",
            (partition_id, kind),
        ).fetchone()
        if row is None:
            return None
        return int(row[0]), int(row[1]), int(row[2]), int(row[3])

    def _parse_record(
        self,
        partition_id: int,
        kind: str,
        view: memoryview,
        row_count: int,
        offset: int,
    ) -> tuple[int, int, int]:
        """Validate the header; return (ids_off, vids_off, payload_off)
        relative offsets plus implicit lengths via the header fields.
        ``offset`` is the record's absolute file offset — the payload
        alignment padding is a function of it (see ``PAYLOAD_ALIGN``).
        """
        if len(view) < RECORD_HEADER.size:
            raise StorageError(
                f"blob record of partition {partition_id} ({kind}): "
                f"{len(view)} bytes is shorter than the header"
            )
        magic, version, kind_code, pid, count, ids_nbytes, \
            payload_nbytes, _crc = RECORD_HEADER.unpack_from(view, 0)
        if magic != RECORD_MAGIC or version != RECORD_VERSION:
            raise StorageError(
                f"blob record of partition {partition_id} ({kind}): "
                "bad magic/version (torn or corrupt record)"
            )
        vids_nbytes = (
            count * 8 if kind == CHECKSUM_KIND_VECTORS else 0
        )
        data_end = RECORD_HEADER.size + ids_nbytes + vids_nbytes
        pad = _payload_pad(offset + data_end)
        if (
            kind_code != _KIND_CODE[kind]
            or pid != partition_id
            or count != row_count
            or data_end + pad + payload_nbytes != len(view)
        ):
            raise StorageError(
                f"blob record of partition {partition_id} ({kind}): "
                "header disagrees with the locator row"
            )
        ids_off = RECORD_HEADER.size
        vids_off = ids_off + ids_nbytes
        return ids_off, vids_off, data_end + pad

    def _record_crc_ok(self, view: memoryview, offset: int) -> bool:
        """CRC the record body (ids + vector ids + payload, pad
        excluded — padding is placement-dependent, data is not)."""
        (_m, _v, kind_code, _p, count, ids_nbytes, _pl, crc) = (
            RECORD_HEADER.unpack_from(view, 0)
        )
        vids_nbytes = count * 8 if kind_code == 0 else 0
        data_end = RECORD_HEADER.size + ids_nbytes + vids_nbytes
        pad = _payload_pad(offset + data_end)
        calc = zlib.crc32(view[RECORD_HEADER.size:data_end])
        calc = zlib.crc32(view[data_end + pad:], calc)
        return calc == crc

    def _write_locator(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        kind: str,
        offset: int,
        length: int,
        row_count: int,
    ) -> None:
        conn.execute(
            "INSERT OR REPLACE INTO blob_locator "
            "(partition_id, kind, gen, offset, length, row_count) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (partition_id, kind, self._gen, offset, length, row_count),
        )

    # ------------------------------------------------------------------
    # Blob plumbing (the packed backend's extension points)
    # ------------------------------------------------------------------

    def _load_rows(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> dict[str, tuple[int, bytes]]:
        loc = self._locator_row(
            conn, partition_id, CHECKSUM_KIND_VECTORS
        )
        if loc is None:
            return {}
        gen, offset, length, count = loc
        view = self._view(gen, offset, length)
        ids_off, vids_off, payload_off = self._parse_record(
            partition_id, CHECKSUM_KIND_VECTORS, view, count, offset
        )
        asset_ids = unpack_asset_ids(
            bytes(view[ids_off:vids_off]), count
        )
        vector_ids = np.frombuffer(
            view, dtype=VID_DTYPE, count=count, offset=vids_off
        )
        width = self._row_bytes
        return {
            asset_ids[i]: (
                int(vector_ids[i]),
                bytes(
                    view[
                        payload_off + i * width
                        : payload_off + (i + 1) * width
                    ]
                ),
            )
            for i in range(count)
        }

    def _write_rows(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        rows: dict[str, tuple[int, bytes]],
    ) -> None:
        if not rows:
            conn.execute(
                "DELETE FROM blob_locator "
                "WHERE partition_id=? AND kind=?",
                (partition_id, CHECKSUM_KIND_VECTORS),
            )
            return
        ordered = sorted(rows.items())
        ids_blob = pack_asset_ids(aid for aid, _ in ordered)
        vids_blob = np.array(
            [vid for _, (vid, _) in ordered], dtype=VID_DTYPE
        ).tobytes()
        payload = b"".join(blob for _, (_, blob) in ordered)
        offset, length = self._append_record(
            CHECKSUM_KIND_VECTORS,
            partition_id,
            len(ordered),
            ids_blob,
            vids_blob,
            payload,
        )
        self._write_locator(
            conn,
            partition_id,
            CHECKSUM_KIND_VECTORS,
            offset,
            length,
            len(ordered),
        )
        conn.executemany(
            "INSERT OR REPLACE INTO vector_locator "
            "(asset_id, partition_id, vector_id, row_index) "
            "VALUES (?, ?, ?, ?)",
            [
                (aid, partition_id, vid, index)
                for index, (aid, (vid, _)) in enumerate(ordered)
            ],
        )

    def _load_codes(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> dict[str, bytes]:
        loc = self._locator_row(conn, partition_id, CHECKSUM_KIND_CODES)
        if loc is None:
            return {}
        gen, offset, length, count = loc
        view = self._view(gen, offset, length)
        ids_off, vids_off, payload_off = self._parse_record(
            partition_id, CHECKSUM_KIND_CODES, view, count, offset
        )
        asset_ids = unpack_asset_ids(
            bytes(view[ids_off:vids_off]), count
        )
        width = self._code_bytes
        return {
            asset_ids[i]: bytes(
                view[
                    payload_off + i * width
                    : payload_off + (i + 1) * width
                ]
            )
            for i in range(count)
        }

    def _write_codes(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        codes: dict[str, bytes],
    ) -> None:
        if not codes:
            conn.execute(
                "DELETE FROM blob_locator "
                "WHERE partition_id=? AND kind=?",
                (partition_id, CHECKSUM_KIND_CODES),
            )
            return
        ordered = sorted(codes.items())
        ids_blob = pack_asset_ids(aid for aid, _ in ordered)
        payload = b"".join(blob for _, blob in ordered)
        offset, length = self._append_record(
            CHECKSUM_KIND_CODES, partition_id, len(ordered),
            ids_blob, b"", payload,
        )
        self._write_locator(
            conn,
            partition_id,
            CHECKSUM_KIND_CODES,
            offset,
            length,
            len(ordered),
        )

    # ------------------------------------------------------------------
    # Partition reads (zero-copy)
    # ------------------------------------------------------------------

    def read_partition(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        if partition_id == DELTA_PARTITION_ID:
            return super().read_partition(conn, partition_id)
        loc = self._locator_row(
            conn, partition_id, CHECKSUM_KIND_VECTORS
        )
        if loc is None:
            return PartitionPayload((), (), b"", 0)
        gen, offset, length, count = loc
        view = self._view(gen, offset, length)
        ids_off, vids_off, payload_off = self._parse_record(
            partition_id, CHECKSUM_KIND_VECTORS, view, count, offset
        )
        asset_ids = unpack_asset_ids(
            bytes(view[ids_off:vids_off]), count
        )
        vector_ids = tuple(
            np.frombuffer(
                view, dtype=VID_DTYPE, count=count, offset=vids_off
            ).tolist()
        )
        self.mmap_bytes_served_total += length
        return PartitionPayload(
            asset_ids, vector_ids, view[payload_off:], length
        )

    def read_partition_codes(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        if partition_id == DELTA_PARTITION_ID:
            return PartitionPayload((), (), b"", 0)
        loc = self._locator_row(conn, partition_id, CHECKSUM_KIND_CODES)
        if loc is None:
            return PartitionPayload((), (), b"", 0)
        gen, offset, length, count = loc
        view = self._view(gen, offset, length)
        ids_off, vids_off, payload_off = self._parse_record(
            partition_id, CHECKSUM_KIND_CODES, view, count, offset
        )
        asset_ids = unpack_asset_ids(
            bytes(view[ids_off:vids_off]), count
        )
        self.mmap_bytes_served_total += length
        return PartitionPayload(
            asset_ids, (0,) * count, view[payload_off:], length
        )

    def _slice_vector(
        self, conn: sqlite3.Connection, pid: int, row_index: int
    ) -> bytes | None:
        """Read ONE row as an offset slice of the mapping."""
        loc = self._locator_row(conn, pid, CHECKSUM_KIND_VECTORS)
        if loc is None:
            return None
        gen, offset, length, count = loc
        if not 0 <= row_index < count:
            return None
        view = self._view(gen, offset, length)
        _ids_off, _vids_off, payload_off = self._parse_record(
            pid, CHECKSUM_KIND_VECTORS, view, count, offset
        )
        width = self._row_bytes
        self.mmap_bytes_served_total += width
        return bytes(
            view[
                payload_off + row_index * width
                : payload_off + (row_index + 1) * width
            ]
        )

    # ------------------------------------------------------------------
    # Rewrites / iteration over the blob-resident tables
    # ------------------------------------------------------------------

    def rewrite_codes(
        self,
        conn: sqlite3.Connection,
        encode_blobs: Callable[[list[bytes]], list[bytes]],
        batch_size: int,
    ) -> int:
        conn.execute(
            "DELETE FROM blob_locator WHERE kind=?",
            (CHECKSUM_KIND_CODES,),
        )
        written = 0
        pids = [
            int(r[0])
            for r in conn.execute(
                "SELECT partition_id FROM blob_locator WHERE kind=? "
                "ORDER BY partition_id",
                (CHECKSUM_KIND_VECTORS,),
            ).fetchall()
        ]
        width = self._row_bytes
        for pid in pids:
            loc = self._locator_row(conn, pid, CHECKSUM_KIND_VECTORS)
            gen, offset, length, count = loc
            view = self._view(gen, offset, length)
            ids_off, vids_off, payload_off = self._parse_record(
                pid, CHECKSUM_KIND_VECTORS, view, count, offset
            )
            blobs = [
                bytes(
                    view[
                        payload_off + i * width
                        : payload_off + (i + 1) * width
                    ]
                )
                for i in range(count)
            ]
            code_parts: list[bytes] = []
            for start in range(0, count, batch_size):
                code_parts.extend(
                    encode_blobs(blobs[start : start + batch_size])
                )
            ids_blob = bytes(view[ids_off:vids_off])
            code_off, code_len = self._append_record(
                CHECKSUM_KIND_CODES, pid, count, ids_blob, b"",
                b"".join(code_parts),
            )
            self._write_locator(
                conn, pid, CHECKSUM_KIND_CODES, code_off, code_len,
                count,
            )
            written += count
        return written

    def drop_partition(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        use_quantization: bool,
    ) -> int:
        loc = self._locator_row(
            conn, partition_id, CHECKSUM_KIND_VECTORS
        )
        dropped = 0 if loc is None else loc[3]
        conn.execute(
            "DELETE FROM blob_locator WHERE partition_id=?",
            (partition_id,),
        )
        conn.execute(
            "DELETE FROM vector_locator WHERE partition_id=?",
            (partition_id,),
        )
        return dropped

    def iter_row_batches(
        self,
        conn: sqlite3.Connection,
        include_delta: bool,
        batch_size: int,
    ) -> Iterator[tuple[list[str], list[bytes], int]]:
        buf_ids: list[str] = []
        buf_blobs: list[bytes] = []

        def flush(force: bool):
            while len(buf_ids) >= batch_size or (force and buf_ids):
                ids = buf_ids[:batch_size]
                blobs = buf_blobs[:batch_size]
                del buf_ids[:batch_size]
                del buf_blobs[:batch_size]
                stored = sum(
                    len(b) for b in blobs
                ) + SQLITE_ROW_OVERHEAD_BYTES * len(ids)
                yield ids, blobs, stored

        if include_delta:
            cursor = conn.execute(
                "SELECT asset_id, vector FROM delta_vectors "
                "ORDER BY asset_id, vector_id"
            )
            while True:
                rows = cursor.fetchmany(batch_size)
                if not rows:
                    break
                for aid, blob in rows:
                    buf_ids.append(aid)
                    buf_blobs.append(blob)
                yield from flush(force=False)
        width = self._row_bytes
        pids = [
            int(r[0])
            for r in conn.execute(
                "SELECT partition_id FROM blob_locator WHERE kind=? "
                "ORDER BY partition_id",
                (CHECKSUM_KIND_VECTORS,),
            ).fetchall()
        ]
        for pid in pids:
            loc = self._locator_row(conn, pid, CHECKSUM_KIND_VECTORS)
            if loc is None:
                continue
            gen, offset, length, count = loc
            view = self._view(gen, offset, length)
            ids_off, vids_off, payload_off = self._parse_record(
                pid, CHECKSUM_KIND_VECTORS, view, count, offset
            )
            asset_ids = unpack_asset_ids(
                bytes(view[ids_off:vids_off]), count
            )
            for i in range(count):
                buf_ids.append(asset_ids[i])
                buf_blobs.append(
                    bytes(
                        view[
                            payload_off + i * width
                            : payload_off + (i + 1) * width
                        ]
                    )
                )
            yield from flush(force=False)
        yield from flush(force=True)

    def partition_sizes(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> dict[int, int]:
        rows = conn.execute(
            "SELECT partition_id, row_count FROM blob_locator "
            "WHERE kind=?",
            (CHECKSUM_KIND_VECTORS,),
        ).fetchall()
        sizes = {int(pid): int(count) for pid, count in rows}
        if include_delta:
            delta = self.delta_size(conn)
            if delta:
                sizes[DELTA_PARTITION_ID] = delta
        return sizes

    def count_codes(self, conn: sqlite3.Connection) -> int:
        cur = conn.execute(
            "SELECT COALESCE(SUM(row_count), 0) FROM blob_locator "
            "WHERE kind=?",
            (CHECKSUM_KIND_CODES,),
        )
        return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # Dead-byte accounting + compaction
    # ------------------------------------------------------------------

    def dead_bytes(self, conn: sqlite3.Connection) -> tuple[int, int]:
        """(dead bytes, total blob-file bytes) of the live generation.

        Dead bytes are everything the locators do not reference:
        superseded records, rolled-back appends, and records of
        dropped partitions.
        """
        try:
            total = os.path.getsize(self.blob_path())
        except OSError:
            total = 0
        live = int(
            conn.execute(
                "SELECT COALESCE(SUM(length), 0) FROM blob_locator "
                "WHERE gen=?",
                (self._gen,),
            ).fetchone()[0]
        )
        return max(0, total - live), total

    def compact(self, conn: sqlite3.Connection) -> int:
        """Copy live records into generation N+1; return bytes freed.

        Must run inside a write transaction labelled ``"compact"``:
        the locator updates and the ``blob_generation`` bump commit
        atomically, and :meth:`after_commit` performs the swap (close
        old handles, unlink the retired file). A crash on either side
        of the commit leaves exactly one referenced generation.
        """
        new_gen = self._gen + 1
        new_path = self.blob_path(new_gen)
        rows = conn.execute(
            "SELECT partition_id, kind, gen, offset, length "
            "FROM blob_locator ORDER BY offset"
        ).fetchall()
        _dead, old_total = self.dead_bytes(conn)
        new_offset = 0
        updates: list[tuple[int, int, int, int, str]] = []
        with open(new_path, "wb") as out:
            for pid, kind, gen, offset, length in rows:
                view = self._view(int(gen), int(offset), int(length))
                if not self._record_crc_ok(view, int(offset)):
                    raise StorageError(
                        f"blob record of partition {pid} ({kind}) "
                        "fails its CRC; refusing to compact — run "
                        "scrub/repair first"
                    )
                # Relocation changes the alignment padding between the
                # id arrays and the payload (it is a function of the
                # record's file offset), so re-pad instead of copying
                # the record verbatim. The CRC covers only real data
                # and survives the move unchanged.
                (_m, _v, kind_code, _p, count, ids_nbytes, _pl, _crc) = (
                    RECORD_HEADER.unpack_from(view, 0)
                )
                vids_nbytes = count * 8 if kind_code == 0 else 0
                data_end = (
                    RECORD_HEADER.size + ids_nbytes + vids_nbytes
                )
                old_pad = _payload_pad(int(offset) + data_end)
                new_pad = _payload_pad(new_offset + data_end)
                out.write(view[:data_end])
                if new_pad:
                    out.write(b"\x00" * new_pad)
                out.write(view[data_end + old_pad:])
                new_length = int(length) - old_pad + new_pad
                updates.append(
                    (new_gen, new_offset, new_length, int(pid), str(kind))
                )
                new_offset += new_length
            out.flush()
            os.fsync(out.fileno())
        conn.executemany(
            "UPDATE blob_locator SET gen=?, offset=?, length=? "
            "WHERE partition_id=? AND kind=?",
            updates,
        )
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (BLOB_GENERATION_META_KEY, str(new_gen)),
        )
        self._pending_gen = new_gen
        return max(0, old_total - new_offset)

    def blob_stats(self) -> dict[str, int]:
        """Counters for the telemetry gauges (appends/compactions/…)."""
        return {
            "appends": self.appends_total,
            "appended_bytes": self.appended_bytes_total,
            "compactions": self.compactions_total,
            "mmap_bytes_served": self.mmap_bytes_served_total,
        }

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def integrity_problems(
        self,
        conn: sqlite3.Connection,
        use_quantization: bool,
        quantizer_trained: bool,
    ) -> list[str]:
        problems: list[str] = []
        for (line,) in conn.execute("PRAGMA integrity_check"):
            if line != "ok":
                problems.append(f"sqlite: {line}")
        orphans = conn.execute(
            "SELECT COALESCE(SUM(b.row_count), 0) FROM blob_locator b "
            "WHERE b.kind=? AND NOT EXISTS (SELECT 1 FROM centroids c "
            "WHERE c.partition_id = b.partition_id)",
            (CHECKSUM_KIND_VECTORS,),
        ).fetchone()[0]
        if orphans:
            problems.append(
                f"{orphans} vectors assigned to partitions "
                "with no centroid"
            )
        drift = conn.execute(
            "SELECT c.partition_id, c.vector_count, "
            "COALESCE(b.row_count, 0) FROM centroids c "
            "LEFT JOIN blob_locator b "
            "ON b.partition_id = c.partition_id AND b.kind=? "
            "WHERE COALESCE(b.row_count, 0) > c.vector_count",
            (CHECKSUM_KIND_VECTORS,),
        ).fetchall()
        for pid, recorded, actual in drift:
            problems.append(
                f"partition {pid}: centroid records {recorded} "
                f"vectors, table holds {actual}"
            )
        locator_rows = conn.execute(
            "SELECT COUNT(*) FROM vector_locator"
        ).fetchone()[0]
        blob_rows = conn.execute(
            "SELECT COALESCE(SUM(row_count), 0) FROM blob_locator "
            "WHERE kind=?",
            (CHECKSUM_KIND_VECTORS,),
        ).fetchone()[0]
        delta_rows = self.delta_size(conn)
        if int(locator_rows) != int(blob_rows) + delta_rows:
            problems.append(
                f"vector_locator holds {locator_rows} rows but "
                f"partitions hold {int(blob_rows) + delta_rows}"
            )
        # Every record must parse, sit inside its file, and pass its
        # own CRC — the blob file is self-describing on purpose.
        for pid, kind, gen, offset, length, count in conn.execute(
            "SELECT partition_id, kind, gen, offset, length, "
            "row_count FROM blob_locator"
        ).fetchall():
            try:
                view = self._view(int(gen), int(offset), int(length))
                self._parse_record(
                    int(pid), str(kind), view, int(count), int(offset)
                )
            except StorageError as exc:
                problems.append(str(exc))
                continue
            if not self._record_crc_ok(view, int(offset)):
                problems.append(
                    f"blob record of partition {pid} ({kind}) fails "
                    "its stamped CRC"
                )
        if use_quantization and quantizer_trained:
            uncoded = conn.execute(
                "SELECT COALESCE(SUM(v.row_count - "
                "COALESCE(c.row_count, 0)), 0) "
                "FROM blob_locator v LEFT JOIN blob_locator c "
                "ON c.partition_id = v.partition_id AND c.kind=? "
                "WHERE v.kind=? "
                "AND v.row_count > COALESCE(c.row_count, 0)",
                (CHECKSUM_KIND_CODES, CHECKSUM_KIND_VECTORS),
            ).fetchone()[0]
            if uncoded:
                problems.append(
                    f"{uncoded} indexed vectors have no "
                    "quantized code (invisible to quantized "
                    "scans; rebuild the index to re-encode)"
                )
        if use_quantization:
            stale = conn.execute(
                "SELECT COALESCE(SUM(c.row_count), 0) "
                "FROM blob_locator c "
                "WHERE c.kind=? "
                "AND NOT EXISTS (SELECT 1 FROM blob_locator v "
                "WHERE v.partition_id = c.partition_id AND v.kind=?)",
                (CHECKSUM_KIND_CODES, CHECKSUM_KIND_VECTORS),
            ).fetchone()[0]
            if stale:
                problems.append(
                    f"{stale} quantized code rows do not match any "
                    "vector row"
                )
        return problems
