"""Packed-blob SQLite layout: one contiguous blob per partition.

The row-per-vector layout pays ~40 bytes of b-tree key + record
overhead per row. At float32 payloads (hundreds of bytes) that is
noise; at 8–16 byte PQ codes it dominates, capping the end-to-end
bytes-read reduction far below the payload compression ratio. This
backend stores each partition as ONE row — a length-prefixed asset-id
blob, an int64 vector-id array and the packed vector/code payload —
so a partition scan reads one contiguous blob and the per-row
overhead collapses to a per-partition constant.

Layout contracts that keep results bit-identical to the row backend:

- Rows inside every blob are sorted by ``(asset_id, vector_id)`` —
  the exact order ``ORDER BY asset_id, vector_id`` yields.
- ``packed_codes`` blobs order rows by asset id over the *coded*
  subset, matching the row layout's codes range scan.
- Point reads slice a single row out of the blob with ``substr`` via
  the ``vector_locator`` row index, charging only that row's bytes —
  the same cost the row layout pays for an index point read.

Trade-offs (documented, not hidden): upserting or deleting an asset
rewrites its whole partition blob, and mass reassignment loads every
touched partition's rows into memory for the rewrite. Packed is a
read-optimized layout for scan-heavy, update-light workloads.
"""

from __future__ import annotations

import sqlite3
import struct
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import DELTA_PARTITION_ID
from repro.core.errors import StorageError
from repro.storage import schema as schema_mod
from repro.storage.backends.base import (
    PACKED_PARTITION_OVERHEAD_BYTES,
    SQLITE_ROW_OVERHEAD_BYTES,
    VID_DTYPE,
    PartitionPayload,
    SQLiteFileConnectionsMixin,
    StorageBackend,
)
from repro.storage.backends.sqlite_row import payload_of_rows


def pack_asset_ids(asset_ids: Iterable[str]) -> bytes:
    """uint16-length-prefixed UTF-8 concatenation of the ids."""
    parts: list[bytes] = []
    for asset_id in asset_ids:
        raw = asset_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise StorageError(
                f"asset id longer than 65535 bytes: {asset_id[:40]!r}…"
            )
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def unpack_asset_ids(blob: bytes, count: int) -> tuple[str, ...]:
    out: list[str] = []
    view = memoryview(blob)
    offset = 0
    for _ in range(count):
        if offset + 2 > len(view):
            raise StorageError(
                "packed asset-id blob truncated "
                f"({len(blob)} bytes for {count} rows)"
            )
        (length,) = struct.unpack_from("<H", view, offset)
        offset += 2
        if offset + length > len(view):
            raise StorageError(
                "packed asset-id blob truncated "
                f"({len(blob)} bytes for {count} rows)"
            )
        out.append(bytes(view[offset : offset + length]).decode("utf-8"))
        offset += length
    if offset != len(view):
        raise StorageError(
            f"packed asset-id blob has {len(blob) - offset} trailing "
            "bytes"
        )
    return tuple(out)


class SQLitePackedBackend(SQLiteFileConnectionsMixin, StorageBackend):
    """One blob per partition; row-per-vector delta; id locator."""

    kind = "sqlite-packed"
    shared_connection = False
    file_backed = True

    def __init__(self, path: str, config) -> None:
        super().__init__(path, config)
        self._row_bytes = config.dim * 4
        self._code_bytes = (
            config.scan_code_width if config.uses_quantization else 0
        )

    def create_layout_tables(
        self, conn: sqlite3.Connection, use_quantization: bool
    ) -> None:
        conn.execute(schema_mod.PACKED_PARTITIONS_TABLE)
        conn.execute(schema_mod.PACKED_DELTA_TABLE)
        conn.execute(schema_mod.PACKED_LOCATOR_TABLE)
        if use_quantization:
            conn.execute(schema_mod.PACKED_CODES_TABLE)

    # ------------------------------------------------------------------
    # Blob plumbing
    # ------------------------------------------------------------------

    def _locate(
        self, conn: sqlite3.Connection, asset_ids: Sequence[str]
    ) -> dict[str, tuple[int, int, int]]:
        """asset -> (partition_id, vector_id, row_index), found only."""
        out: dict[str, tuple[int, int, int]] = {}
        ids = list(asset_ids)
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            placeholders = ", ".join("?" for _ in chunk)
            rows = conn.execute(
                "SELECT asset_id, partition_id, vector_id, row_index "
                f"FROM vector_locator WHERE asset_id IN ({placeholders})",
                chunk,
            ).fetchall()
            for asset_id, pid, vid, ridx in rows:
                out[asset_id] = (int(pid), int(vid), int(ridx))
        return out

    def _load_rows(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> dict[str, tuple[int, bytes]]:
        """One packed partition as {asset_id: (vector_id, vector)}."""
        row = conn.execute(
            "SELECT row_count, asset_ids, vector_ids, vectors "
            "FROM packed_partitions WHERE partition_id=?",
            (partition_id,),
        ).fetchone()
        if row is None:
            return {}
        count = int(row[0])
        asset_ids = unpack_asset_ids(row[1], count)
        vector_ids = np.frombuffer(row[2], dtype=VID_DTYPE)
        payload = memoryview(row[3])
        width = self._row_bytes
        self._check_payload(partition_id, count, len(row[3]), width)
        return {
            asset_ids[i]: (
                int(vector_ids[i]),
                bytes(payload[i * width : (i + 1) * width]),
            )
            for i in range(count)
        }

    def _check_payload(
        self, partition_id: int, count: int, nbytes: int, width: int
    ) -> None:
        if nbytes != count * width:
            raise StorageError(
                f"packed partition {partition_id}: payload holds "
                f"{nbytes} bytes, expected {count} rows of "
                f"{width} bytes"
            )

    def _write_rows(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        rows: dict[str, tuple[int, bytes]],
    ) -> None:
        """Rewrite one partition blob (sorted) and its locator rows."""
        if not rows:
            conn.execute(
                "DELETE FROM packed_partitions WHERE partition_id=?",
                (partition_id,),
            )
            return
        ordered = sorted(rows.items())
        conn.execute(
            "INSERT OR REPLACE INTO packed_partitions "
            "(partition_id, row_count, asset_ids, vector_ids, vectors) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                partition_id,
                len(ordered),
                pack_asset_ids(aid for aid, _ in ordered),
                np.array(
                    [vid for _, (vid, _) in ordered], dtype=VID_DTYPE
                ).tobytes(),
                b"".join(blob for _, (_, blob) in ordered),
            ),
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
        row = conn.execute(
            "SELECT row_count, asset_ids, codes FROM packed_codes "
            "WHERE partition_id=?",
            (partition_id,),
        ).fetchone()
        if row is None:
            return {}
        count = int(row[0])
        asset_ids = unpack_asset_ids(row[1], count)
        payload = memoryview(row[2])
        width = self._code_bytes
        self._check_payload(partition_id, count, len(row[2]), width)
        return {
            asset_ids[i]: bytes(payload[i * width : (i + 1) * width])
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
                "DELETE FROM packed_codes WHERE partition_id=?",
                (partition_id,),
            )
            return
        ordered = sorted(codes.items())
        conn.execute(
            "INSERT OR REPLACE INTO packed_codes "
            "(partition_id, row_count, asset_ids, codes) "
            "VALUES (?, ?, ?, ?)",
            (
                partition_id,
                len(ordered),
                pack_asset_ids(aid for aid, _ in ordered),
                b"".join(blob for _, blob in ordered),
            ),
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def remove_assets(
        self,
        conn: sqlite3.Connection,
        asset_ids: Sequence[str],
        drop_codes: bool,
    ) -> int:
        located = self._locate(conn, list(dict.fromkeys(asset_ids)))
        if not located:
            return 0
        delta_gone = [
            aid for aid, (pid, _, _) in located.items()
            if pid == DELTA_PARTITION_ID
        ]
        if delta_gone:
            conn.executemany(
                "DELETE FROM delta_vectors WHERE asset_id=?",
                [(aid,) for aid in delta_gone],
            )
        by_partition: dict[int, set[str]] = {}
        for aid, (pid, _, _) in located.items():
            if pid != DELTA_PARTITION_ID:
                by_partition.setdefault(pid, set()).add(aid)
        for pid, gone in by_partition.items():
            rows = self._load_rows(conn, pid)
            for aid in gone:
                rows.pop(aid, None)
            self._write_rows(conn, pid, rows)
            if drop_codes:
                codes = self._load_codes(conn, pid)
                if any(aid in codes for aid in gone):
                    for aid in gone:
                        codes.pop(aid, None)
                    self._write_codes(conn, pid, codes)
        conn.executemany(
            "DELETE FROM vector_locator WHERE asset_id=?",
            [(aid,) for aid in located],
        )
        return len(located)

    def insert_delta_rows(
        self,
        conn: sqlite3.Connection,
        rows: Sequence[tuple[str, int, bytes]],
    ) -> None:
        conn.executemany(
            "INSERT INTO delta_vectors (asset_id, vector_id, vector) "
            "VALUES (?, ?, ?)",
            list(rows),
        )
        conn.executemany(
            "INSERT OR REPLACE INTO vector_locator "
            "(asset_id, partition_id, vector_id, row_index) "
            "VALUES (?, ?, ?, -1)",
            [
                (asset_id, DELTA_PARTITION_ID, vector_id)
                for asset_id, vector_id, _ in rows
            ],
        )

    def apply_assignments(
        self,
        conn: sqlite3.Connection,
        moves: Sequence[tuple[str, int]],
        code_rows: Sequence[tuple[int, str, int, bytes]] | None,
        use_quantization: bool,
    ) -> None:
        dest: dict[str, int] = {}
        for asset_id, pid in moves:
            dest[asset_id] = int(pid)
        located = self._locate(conn, list(dest))
        effective = {
            aid: pid
            for aid, pid in dest.items()
            if aid in located and located[aid][0] != pid
        }
        touched: set[int] = set()
        for aid, pid in effective.items():
            if located[aid][0] != DELTA_PARTITION_ID:
                touched.add(located[aid][0])
            if pid != DELTA_PARTITION_ID:
                touched.add(pid)
        part_rows = {
            pid: self._load_rows(conn, pid) for pid in touched
        }
        part_codes: dict[int, dict[str, bytes]] = {}
        if use_quantization:
            part_codes = {
                pid: self._load_codes(conn, pid) for pid in touched
            }
        delta_removed: list[str] = []
        delta_added: list[tuple[str, int, bytes]] = []
        for aid, new_pid in effective.items():
            cur_pid, vid, _ = located[aid]
            if cur_pid == DELTA_PARTITION_ID:
                row = conn.execute(
                    "SELECT vector_id, vector FROM delta_vectors "
                    "WHERE asset_id=?",
                    (aid,),
                ).fetchone()
                vid, blob = int(row[0]), row[1]
                delta_removed.append(aid)
                code = None
            else:
                vid, blob = part_rows[cur_pid].pop(aid)
                code = (
                    part_codes[cur_pid].pop(aid, None)
                    if use_quantization
                    else None
                )
            if new_pid == DELTA_PARTITION_ID:
                delta_added.append((aid, vid, blob))
            else:
                part_rows[new_pid][aid] = (vid, blob)
                if code is not None:
                    part_codes[new_pid][aid] = code
        if code_rows:
            for pid, aid, _vid, blob in code_rows:
                pid = int(pid)
                if pid not in part_codes:
                    part_codes[pid] = self._load_codes(conn, pid)
                part_codes[pid][aid] = blob
        if delta_removed:
            conn.executemany(
                "DELETE FROM delta_vectors WHERE asset_id=?",
                [(aid,) for aid in delta_removed],
            )
        if delta_added:
            conn.executemany(
                "INSERT OR REPLACE INTO delta_vectors "
                "(asset_id, vector_id, vector) VALUES (?, ?, ?)",
                delta_added,
            )
            conn.executemany(
                "INSERT OR REPLACE INTO vector_locator "
                "(asset_id, partition_id, vector_id, row_index) "
                "VALUES (?, ?, ?, -1)",
                [
                    (aid, DELTA_PARTITION_ID, vid)
                    for aid, vid, _ in delta_added
                ],
            )
        for pid, rows in part_rows.items():
            self._write_rows(conn, pid, rows)
        for pid, codes in part_codes.items():
            self._write_codes(conn, pid, codes)

    def rewrite_codes(
        self,
        conn: sqlite3.Connection,
        encode_blobs: Callable[[list[bytes]], list[bytes]],
        batch_size: int,
    ) -> int:
        conn.execute("DELETE FROM packed_codes")
        written = 0
        width = self._row_bytes
        pids = [
            int(r[0])
            for r in conn.execute(
                "SELECT partition_id FROM packed_partitions "
                "ORDER BY partition_id"
            ).fetchall()
        ]
        for pid in pids:
            row = conn.execute(
                "SELECT row_count, asset_ids, vectors "
                "FROM packed_partitions WHERE partition_id=?",
                (pid,),
            ).fetchone()
            count = int(row[0])
            self._check_payload(pid, count, len(row[2]), width)
            payload = memoryview(row[2])
            blobs = [
                bytes(payload[i * width : (i + 1) * width])
                for i in range(count)
            ]
            code_parts: list[bytes] = []
            for start in range(0, count, batch_size):
                code_parts.extend(
                    encode_blobs(blobs[start : start + batch_size])
                )
            conn.execute(
                "INSERT INTO packed_codes "
                "(partition_id, row_count, asset_ids, codes) "
                "VALUES (?, ?, ?, ?)",
                (pid, count, row[1], b"".join(code_parts)),
            )
            written += count
        return written

    def drop_partition(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        use_quantization: bool,
    ) -> int:
        row = conn.execute(
            "SELECT row_count FROM packed_partitions "
            "WHERE partition_id=?",
            (partition_id,),
        ).fetchone()
        dropped = 0 if row is None else int(row[0])
        conn.execute(
            "DELETE FROM packed_partitions WHERE partition_id=?",
            (partition_id,),
        )
        conn.execute(
            "DELETE FROM vector_locator WHERE partition_id=?",
            (partition_id,),
        )
        if use_quantization:
            conn.execute(
                "DELETE FROM packed_codes WHERE partition_id=?",
                (partition_id,),
            )
        return dropped

    def partitions_of(
        self, conn: sqlite3.Connection, asset_ids: Sequence[str]
    ) -> set[int]:
        located = self._locate(conn, list(dict.fromkeys(asset_ids)))
        return {pid for pid, _, _ in located.values()}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_partition(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        if partition_id == DELTA_PARTITION_ID:
            return payload_of_rows(
                conn.execute(
                    "SELECT asset_id, vector_id, vector FROM delta_vectors "
                    "ORDER BY asset_id, vector_id"
                ).fetchall(),
                unstamped=True,
            )
        row = conn.execute(
            "SELECT row_count, asset_ids, vector_ids, vectors "
            "FROM packed_partitions WHERE partition_id=?",
            (partition_id,),
        ).fetchone()
        if row is None:
            return PartitionPayload((), (), b"", 0)
        count = int(row[0])
        asset_ids = unpack_asset_ids(row[1], count)
        vector_ids = tuple(np.frombuffer(row[2], dtype=VID_DTYPE).tolist())
        stored = (
            len(row[1])
            + len(row[2])
            + len(row[3])
            + PACKED_PARTITION_OVERHEAD_BYTES
        )
        return PartitionPayload(asset_ids, vector_ids, row[3], stored)

    def read_partition_codes(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        if partition_id == DELTA_PARTITION_ID:
            return PartitionPayload((), (), b"", 0)
        row = conn.execute(
            "SELECT row_count, asset_ids, codes FROM packed_codes "
            "WHERE partition_id=?",
            (partition_id,),
        ).fetchone()
        if row is None:
            return PartitionPayload((), (), b"", 0)
        count = int(row[0])
        asset_ids = unpack_asset_ids(row[1], count)
        stored = (
            len(row[1]) + len(row[2]) + PACKED_PARTITION_OVERHEAD_BYTES
        )
        # Vector ids are not materialized in the codes blob; scan
        # consumers identify rows by asset id.
        return PartitionPayload(asset_ids, (0,) * count, row[2], stored)

    def _slice_vector(
        self, conn: sqlite3.Connection, pid: int, row_index: int
    ) -> bytes | None:
        """Read ONE row out of a packed blob (substr = ranged read)."""
        width = self._row_bytes
        row = conn.execute(
            "SELECT substr(vectors, ?, ?) FROM packed_partitions "
            "WHERE partition_id=?",
            (row_index * width + 1, width, pid),
        ).fetchone()
        return None if row is None else row[0]

    def fetch_vector_blobs(
        self,
        conn: sqlite3.Connection,
        asset_ids: Sequence[str],
        chunk_size: int,
    ) -> tuple[list[str], list[bytes], int]:
        found: list[str] = []
        blobs: list[bytes] = []
        for start in range(0, len(asset_ids), chunk_size):
            chunk = list(asset_ids[start : start + chunk_size])
            located = self._locate(conn, chunk)
            for aid in sorted(located):
                pid, _vid, ridx = located[aid]
                if pid == DELTA_PARTITION_ID:
                    row = conn.execute(
                        "SELECT vector FROM delta_vectors "
                        "WHERE asset_id=?",
                        (aid,),
                    ).fetchone()
                    blob = None if row is None else row[0]
                else:
                    blob = self._slice_vector(conn, pid, ridx)
                if blob is not None:
                    found.append(aid)
                    blobs.append(bytes(blob))
        stored = sum(
            len(b) for b in blobs
        ) + SQLITE_ROW_OVERHEAD_BYTES * len(found)
        return found, blobs, stored

    def get_vector_blob(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> bytes | None:
        located = self._locate(conn, [asset_id])
        if asset_id not in located:
            return None
        pid, _vid, ridx = located[asset_id]
        if pid == DELTA_PARTITION_ID:
            row = conn.execute(
                "SELECT vector FROM delta_vectors WHERE asset_id=?",
                (asset_id,),
            ).fetchone()
            return None if row is None else row[0]
        blob = self._slice_vector(conn, pid, ridx)
        return None if blob is None else bytes(blob)

    def get_partition_of(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> int | None:
        row = conn.execute(
            "SELECT partition_id FROM vector_locator WHERE asset_id=?",
            (asset_id,),
        ).fetchone()
        return None if row is None else int(row[0])

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
                "SELECT partition_id FROM packed_partitions "
                "ORDER BY partition_id"
            ).fetchall()
        ]
        for pid in pids:
            row = conn.execute(
                "SELECT row_count, asset_ids, vectors "
                "FROM packed_partitions WHERE partition_id=?",
                (pid,),
            ).fetchone()
            if row is None:
                continue
            count = int(row[0])
            self._check_payload(pid, count, len(row[2]), width)
            asset_ids = unpack_asset_ids(row[1], count)
            payload = memoryview(row[2])
            for i in range(count):
                buf_ids.append(asset_ids[i])
                buf_blobs.append(
                    bytes(payload[i * width : (i + 1) * width])
                )
            yield from flush(force=False)
        yield from flush(force=True)

    def all_asset_ids(self, conn: sqlite3.Connection) -> list[str]:
        rows = conn.execute(
            "SELECT asset_id FROM vector_locator ORDER BY asset_id"
        ).fetchall()
        return [r[0] for r in rows]

    def count_vectors(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> int:
        if include_delta:
            cur = conn.execute("SELECT COUNT(*) FROM vector_locator")
        else:
            cur = conn.execute(
                "SELECT COUNT(*) FROM vector_locator "
                "WHERE partition_id != ?",
                (DELTA_PARTITION_ID,),
            )
        return int(cur.fetchone()[0])

    def delta_size(self, conn: sqlite3.Connection) -> int:
        cur = conn.execute("SELECT COUNT(*) FROM delta_vectors")
        return int(cur.fetchone()[0])

    def partition_sizes(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> dict[int, int]:
        rows = conn.execute(
            "SELECT partition_id, row_count FROM packed_partitions"
        ).fetchall()
        sizes = {int(pid): int(count) for pid, count in rows}
        if include_delta:
            delta = self.delta_size(conn)
            if delta:
                sizes[DELTA_PARTITION_ID] = delta
        return sizes

    def count_codes(self, conn: sqlite3.Connection) -> int:
        cur = conn.execute(
            "SELECT COALESCE(SUM(row_count), 0) FROM packed_codes"
        )
        return int(cur.fetchone()[0])

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
            "SELECT COALESCE(SUM(p.row_count), 0) "
            "FROM packed_partitions p "
            "WHERE NOT EXISTS (SELECT 1 FROM centroids c "
            "WHERE c.partition_id = p.partition_id)"
        ).fetchone()[0]
        if orphans:
            problems.append(
                f"{orphans} vectors assigned to partitions "
                "with no centroid"
            )
        drift = conn.execute(
            "SELECT c.partition_id, c.vector_count, "
            "COALESCE(p.row_count, 0) FROM centroids c "
            "LEFT JOIN packed_partitions p "
            "ON p.partition_id = c.partition_id "
            "WHERE COALESCE(p.row_count, 0) > c.vector_count"
        ).fetchall()
        for pid, recorded, actual in drift:
            problems.append(
                f"partition {pid}: centroid records {recorded} "
                f"vectors, table holds {actual}"
            )
        # The locator must account for every row — packed and delta.
        locator_rows = conn.execute(
            "SELECT COUNT(*) FROM vector_locator"
        ).fetchone()[0]
        packed_rows = conn.execute(
            "SELECT COALESCE(SUM(row_count), 0) FROM packed_partitions"
        ).fetchone()[0]
        delta_rows = self.delta_size(conn)
        if int(locator_rows) != int(packed_rows) + delta_rows:
            problems.append(
                f"vector_locator holds {locator_rows} rows but "
                f"partitions hold {int(packed_rows) + delta_rows}"
            )
        # Blob sizes must agree with the recorded row counts.
        width = self._row_bytes
        for pid, count, nbytes in conn.execute(
            "SELECT partition_id, row_count, length(vectors) "
            "FROM packed_partitions"
        ).fetchall():
            if int(nbytes) != int(count) * width:
                problems.append(
                    f"packed partition {pid}: payload holds "
                    f"{nbytes} bytes, expected {count} rows of "
                    f"{width} bytes"
                )
        if use_quantization and quantizer_trained:
            uncoded = conn.execute(
                "SELECT COALESCE(SUM(p.row_count - "
                "COALESCE(c.row_count, 0)), 0) "
                "FROM packed_partitions p LEFT JOIN packed_codes c "
                "ON c.partition_id = p.partition_id "
                "WHERE p.row_count > COALESCE(c.row_count, 0)"
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
                "FROM packed_codes c "
                "WHERE NOT EXISTS (SELECT 1 FROM packed_partitions p "
                "WHERE p.partition_id = c.partition_id)"
            ).fetchone()[0]
            if stale:
                problems.append(
                    f"{stale} quantized code rows do not match any "
                    "vector row"
                )
        return problems
