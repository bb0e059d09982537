"""Row-per-vector SQLite layout — the paper's physical design (§3.2).

Every statement here is the engine's original SQL, verbatim: the
clustered ``vectors`` table keyed ``(partition_id, asset_id,
vector_id)``, the parallel ``vector_codes`` table for quantized scan
codes, and the unique asset-id secondary indexes. A database created
by this backend is byte-identical to one created before the backend
abstraction existed, and opens interchangeably.

The layout logic lives in :class:`RowLayoutSQL` so the memory backend
(same tables, different connection strategy) can reuse it unchanged.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Callable, Iterator, Sequence

from repro.core.config import DELTA_PARTITION_ID
from repro.core.errors import StorageError
from repro.storage import schema as schema_mod
from repro.storage.backends.base import (
    SQLITE_ROW_OVERHEAD_BYTES,
    PartitionPayload,
    SQLiteFileConnectionsMixin,
    StorageBackend,
)
from repro.storage.cache import ROW_ID_OVERHEAD_BYTES

#: Per-row accounting constant: decoded-entry overhead (id + vector-id
#: bookkeeping) plus the SQLite b-tree key/record overhead. Partition
#: reads of n rows charge ``payload + 40 * n`` — the formula every
#: previous version of the engine used.
_FULL_ROW_OVERHEAD = ROW_ID_OVERHEAD_BYTES + SQLITE_ROW_OVERHEAD_BYTES


def payload_of_rows(
    rows: list[tuple[str, int, bytes]], unstamped: bool
) -> PartitionPayload:
    """``(asset_id, vector_id, blob)`` rows as one partition payload:
    the columns are split and the blobs joined in one call each.

    The engine validates blob widths by the joined length, which a
    stamped partition's CRC backs up. ``unstamped`` rows (the delta
    carries no checksum) get the per-row check here, or mis-sized
    blobs adding up to the right total would be reinterpreted with
    shifted row boundaries.
    """
    if not rows:
        return PartitionPayload((), (), b"", 0)
    asset_ids, vector_ids, blobs = zip(*rows)
    if unstamped and len(set(map(len, blobs))) > 1:
        raise StorageError("delta rows hold blobs of different widths")
    packed = b"".join(blobs)
    return PartitionPayload(
        asset_ids,
        vector_ids,
        packed,
        len(packed) + _FULL_ROW_OVERHEAD * len(rows),
    )


class RowLayoutSQL(StorageBackend):
    """The row-per-vector table layout, connection strategy left open."""

    def __init__(self, path: str, config) -> None:
        super().__init__(path, config)
        self._row_scan_turn = threading.Lock()

    def create_layout_tables(
        self, conn: sqlite3.Connection, use_quantization: bool
    ) -> None:
        conn.execute(schema_mod.VECTORS_TABLE)
        conn.execute(schema_mod.VECTORS_ASSET_INDEX)
        if use_quantization:
            conn.execute(schema_mod.VECTOR_CODES_TABLE)
            conn.execute(schema_mod.CODES_ASSET_INDEX)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def remove_assets(
        self,
        conn: sqlite3.Connection,
        asset_ids: Sequence[str],
        drop_codes: bool,
    ) -> int:
        params = [(asset_id,) for asset_id in asset_ids]
        cur = conn.executemany("DELETE FROM vectors WHERE asset_id=?", params)
        if drop_codes:
            conn.executemany(
                "DELETE FROM vector_codes WHERE asset_id=?", params
            )
        return max(cur.rowcount, 0)

    def insert_delta_rows(
        self,
        conn: sqlite3.Connection,
        rows: Sequence[tuple[str, int, bytes]],
    ) -> None:
        conn.executemany(
            "INSERT INTO vectors "
            "(partition_id, asset_id, vector_id, vector) "
            "VALUES (?, ?, ?, ?)",
            [
                (DELTA_PARTITION_ID, asset_id, vector_id, blob)
                for asset_id, vector_id, blob in rows
            ],
        )

    def apply_assignments(
        self,
        conn: sqlite3.Connection,
        moves: Sequence[tuple[str, int]],
        code_rows: Sequence[tuple[int, str, int, bytes]] | None,
        use_quantization: bool,
    ) -> None:
        conn.executemany(
            "UPDATE vectors SET partition_id=? WHERE asset_id=?",
            [(pid, asset_id) for asset_id, pid in moves],
        )
        if use_quantization:
            # Codes are clustered by partition id exactly like the
            # float rows; a move must rewrite both or the quantized
            # scan would miss the vector.
            conn.executemany(
                "UPDATE vector_codes SET partition_id=? "
                "WHERE asset_id=?",
                [(pid, asset_id) for asset_id, pid in moves],
            )
        if code_rows:
            conn.executemany(
                "INSERT OR REPLACE INTO vector_codes "
                "(partition_id, asset_id, vector_id, code) "
                "VALUES (?, ?, ?, ?)",
                list(code_rows),
            )

    def rewrite_codes(
        self,
        conn: sqlite3.Connection,
        encode_blobs: Callable[[list[bytes]], list[bytes]],
        batch_size: int,
    ) -> int:
        written = 0
        conn.execute("DELETE FROM vector_codes")
        cursor = conn.execute(
            "SELECT partition_id, asset_id, vector_id, vector "
            "FROM vectors WHERE partition_id != ? "
            "ORDER BY partition_id, asset_id, vector_id",
            (DELTA_PARTITION_ID,),
        )
        while True:
            rows = cursor.fetchmany(batch_size)
            if not rows:
                break
            blobs = encode_blobs([r[3] for r in rows])
            conn.executemany(
                "INSERT INTO vector_codes "
                "(partition_id, asset_id, vector_id, code) "
                "VALUES (?, ?, ?, ?)",
                [
                    (int(r[0]), r[1], int(r[2]), blob)
                    for r, blob in zip(rows, blobs)
                ],
            )
            written += len(rows)
        return written

    def drop_partition(
        self,
        conn: sqlite3.Connection,
        partition_id: int,
        use_quantization: bool,
    ) -> int:
        cur = conn.execute(
            "DELETE FROM vectors WHERE partition_id=?", (partition_id,)
        )
        dropped = max(0, cur.rowcount)
        if use_quantization:
            conn.execute(
                "DELETE FROM vector_codes WHERE partition_id=?",
                (partition_id,),
            )
        return dropped

    def partitions_of(
        self, conn: sqlite3.Connection, asset_ids: Sequence[str]
    ) -> set[int]:
        out: set[int] = set()
        ids = list(asset_ids)
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            placeholders = ", ".join("?" for _ in chunk)
            rows = conn.execute(
                "SELECT DISTINCT partition_id FROM vectors "
                f"WHERE asset_id IN ({placeholders})",
                chunk,
            ).fetchall()
            out.update(int(r[0]) for r in rows)
        return out

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_partition(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        return self._read_rows(
            conn,
            "SELECT asset_id, vector_id, vector FROM vectors "
            "WHERE partition_id=? ORDER BY asset_id, vector_id",
            partition_id,
        )

    def read_partition_codes(
        self, conn: sqlite3.Connection, partition_id: int
    ) -> PartitionPayload:
        return self._read_rows(
            conn,
            "SELECT asset_id, vector_id, code FROM vector_codes "
            "WHERE partition_id=? ORDER BY asset_id, vector_id",
            partition_id,
        )

    def _read_rows(
        self, conn: sqlite3.Connection, sql: str, partition_id: int
    ) -> PartitionPayload:
        """One partition's rows; concurrent callers take turns.

        On this layout a partition read is one ``sqlite3_step`` per
        vector, each a GIL release and re-take, so two reads in flight
        trade the GIL row by row instead of overlapping. Measured with
        two I/O threads under the 2 ms seek model (50k x 128, 17 cold
        loads, serial cold p50 39-41 ms), on a 2-vCPU VM: 31-35 ms
        colliding against 25-26 ms taking turns while cross-CPU
        wake-ups were slow (right after an index build), 21.9 against
        22.5 ms at rest. The price: page reads that block inside a
        step do not overlap across threads on this layout. With the OS
        page cache dropped before every query (0.9 ms per load) that
        was not measurable on the same VM - 16-18 ms with turns,
        without, and serial. The packed and blob-file layouts read one
        row per partition and take no turn.
        """
        with self._row_scan_turn:
            rows = conn.execute(sql, (partition_id,)).fetchall()
        return payload_of_rows(rows, partition_id == DELTA_PARTITION_ID)

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
            placeholders = ", ".join("?" for _ in chunk)
            rows = conn.execute(
                "SELECT asset_id, vector FROM vectors "
                f"WHERE asset_id IN ({placeholders})",
                chunk,
            ).fetchall()
            for asset_id, blob in rows:
                found.append(asset_id)
                blobs.append(blob)
        stored = sum(
            len(b) for b in blobs
        ) + SQLITE_ROW_OVERHEAD_BYTES * len(found)
        return found, blobs, stored

    def get_vector_blob(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> bytes | None:
        cur = conn.execute(
            "SELECT vector FROM vectors WHERE asset_id=?", (asset_id,)
        )
        row = cur.fetchone()
        return None if row is None else row[0]

    def get_partition_of(
        self, conn: sqlite3.Connection, asset_id: str
    ) -> int | None:
        cur = conn.execute(
            "SELECT partition_id FROM vectors WHERE asset_id=?",
            (asset_id,),
        )
        row = cur.fetchone()
        return None if row is None else int(row[0])

    def iter_row_batches(
        self,
        conn: sqlite3.Connection,
        include_delta: bool,
        batch_size: int,
    ) -> Iterator[tuple[list[str], list[bytes], int]]:
        where = "" if include_delta else "WHERE partition_id != ?"
        params: tuple[object, ...] = (
            () if include_delta else (DELTA_PARTITION_ID,)
        )
        cursor = conn.execute(
            "SELECT asset_id, vector FROM vectors "
            f"{where} ORDER BY partition_id, asset_id, vector_id",
            params,
        )
        while True:
            rows = cursor.fetchmany(batch_size)
            if not rows:
                break
            ids = [r[0] for r in rows]
            blobs = [r[1] for r in rows]
            stored = sum(
                len(b) for b in blobs
            ) + SQLITE_ROW_OVERHEAD_BYTES * len(rows)
            yield ids, blobs, stored

    def all_asset_ids(self, conn: sqlite3.Connection) -> list[str]:
        rows = conn.execute(
            "SELECT asset_id FROM vectors ORDER BY asset_id"
        ).fetchall()
        return [r[0] for r in rows]

    def count_vectors(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> int:
        if include_delta:
            cur = conn.execute("SELECT COUNT(*) FROM vectors")
        else:
            cur = conn.execute(
                "SELECT COUNT(*) FROM vectors WHERE partition_id != ?",
                (DELTA_PARTITION_ID,),
            )
        return int(cur.fetchone()[0])

    def delta_size(self, conn: sqlite3.Connection) -> int:
        cur = conn.execute(
            "SELECT COUNT(*) FROM vectors WHERE partition_id = ?",
            (DELTA_PARTITION_ID,),
        )
        return int(cur.fetchone()[0])

    def partition_sizes(
        self, conn: sqlite3.Connection, include_delta: bool
    ) -> dict[int, int]:
        where = "" if include_delta else "WHERE partition_id != ?"
        params: tuple[object, ...] = (
            () if include_delta else (DELTA_PARTITION_ID,)
        )
        rows = conn.execute(
            "SELECT partition_id, COUNT(*) FROM vectors "
            f"{where} GROUP BY partition_id",
            params,
        ).fetchall()
        return {int(pid): int(count) for pid, count in rows}

    def count_codes(self, conn: sqlite3.Connection) -> int:
        cur = conn.execute("SELECT COUNT(*) FROM vector_codes")
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
        orphan_rows = conn.execute(
            "SELECT COUNT(*) FROM vectors v WHERE v.partition_id != ? "
            "AND NOT EXISTS (SELECT 1 FROM centroids c "
            "WHERE c.partition_id = v.partition_id)",
            (DELTA_PARTITION_ID,),
        ).fetchone()[0]
        if orphan_rows:
            problems.append(
                f"{orphan_rows} vectors assigned to partitions "
                "with no centroid"
            )
        # Deletes legitimately leave recorded counts above the
        # actual sizes until the next rebuild; the corrupt
        # direction is a partition holding MORE vectors than its
        # centroid ever accounted for (a flush that forgot to
        # update the count).
        drift = conn.execute(
            "SELECT c.partition_id, c.vector_count, COUNT(v.asset_id)"
            " FROM centroids c LEFT JOIN vectors v "
            "ON v.partition_id = c.partition_id "
            "GROUP BY c.partition_id "
            "HAVING COUNT(v.asset_id) > c.vector_count"
        ).fetchall()
        for pid, recorded, actual in drift:
            problems.append(
                f"partition {pid}: centroid records {recorded} "
                f"vectors, table holds {actual}"
            )
        if use_quantization:
            # Once a quantizer is trained, EVERY indexed (non-
            # delta) vector must carry a code row — an uncoded
            # vector in a quantized partition is invisible to the
            # fast scan path (e.g. a crash between an assignment
            # commit and a code rewrite).
            if quantizer_trained:
                uncoded = conn.execute(
                    "SELECT COUNT(*) FROM vectors v "
                    "WHERE v.partition_id != ? "
                    "AND NOT EXISTS (SELECT 1 FROM vector_codes c "
                    "WHERE c.asset_id = v.asset_id "
                    "AND c.partition_id = v.partition_id)",
                    (DELTA_PARTITION_ID,),
                ).fetchone()[0]
                if uncoded:
                    problems.append(
                        f"{uncoded} indexed vectors have no "
                        "quantized code (invisible to quantized "
                        "scans; rebuild the index to re-encode)"
                    )
            # A code row must shadow a float row in the same
            # partition; the delta is never quantized.
            stale = conn.execute(
                "SELECT COUNT(*) FROM vector_codes c "
                "WHERE NOT EXISTS (SELECT 1 FROM vectors v "
                "WHERE v.asset_id = c.asset_id "
                "AND v.partition_id = c.partition_id)"
            ).fetchone()[0]
            if stale:
                problems.append(
                    f"{stale} quantized code rows do not match any "
                    "vector row"
                )
            delta_codes = conn.execute(
                "SELECT COUNT(*) FROM vector_codes "
                "WHERE partition_id = ?",
                (DELTA_PARTITION_ID,),
            ).fetchone()[0]
            if delta_codes:
                problems.append(
                    f"{delta_codes} quantized code rows in the "
                    "delta partition (delta must stay "
                    "full-precision)"
                )
        return problems


class SQLiteRowBackend(SQLiteFileConnectionsMixin, RowLayoutSQL):
    """The default backend: row layout in a WAL-mode SQLite file."""

    kind = "sqlite-row"
    shared_connection = False
    file_backed = True
