"""Fault-injecting storage backend decorator (test infrastructure).

``storage_backend="fault:<inner>"`` (or ``MICRONN_TEST_BACKEND=
fault:<inner>``) wraps any real backend with scripted faults so tests
can prove the engine's crash-safety story instead of asserting it:

- **Crash points.** Every engine write transaction announces its
  commit through :meth:`StorageBackend.before_commit` /
  :meth:`after_commit`; the wrapper counts those commits and raises
  :class:`~repro.core.errors.SimulatedCrash` before or after the Nth
  one. ``SimulatedCrash`` is not a ``MicroNNError``, so it unwinds
  through every library handler exactly like a process kill — a
  pre-commit crash must roll back, a post-commit crash must leave the
  transaction durable.
- **Torn blob writes.** After the Nth commit the wrapper corrupts one
  stored partition blob in place (truncating it, committed outside
  any checksum refresh) and then crashes — modelling post-commit
  media corruption, the failure the checksum layer exists to catch.
- **Transient lock errors.** The next N write-transaction BEGINs
  raise ``sqlite3.OperationalError("database is locked")``, which the
  engine's bounded busy-retry must absorb.

The wrapper registers under the inner backend's ``kind`` (the meta
table and shard manifests record the *real* layout), so a database
written under fault injection reopens cleanly without it.

Controllers are process-global and keyed by database path: a test
arms a :class:`FaultPlan` via :func:`controller_for` and the plan
survives engine reopen — which is exactly what a kill-point sweep
needs (arm, crash, reopen, inspect).
"""

from __future__ import annotations

import os
import sqlite3
import threading
from dataclasses import dataclass

from repro.core.errors import SimulatedCrash
from repro.storage.backends.base import (
    CHECKSUM_KIND_CODES,
    CHECKSUM_KIND_VECTORS,
    StorageBackend,
)

#: Registry-name prefix selecting this wrapper.
FAULT_PREFIX = "fault:"


@dataclass
class FaultPlan:
    """What to break, and when. Ordinals are 1-based commit counts.

    When ``label`` is set, only commits carrying that label (e.g.
    ``"upsert"``) advance the counter; otherwise every write
    transaction counts.
    """

    #: Raise ``SimulatedCrash`` *before* the Nth commit executes: the
    #: transaction must roll back, so nothing of it may survive.
    crash_before_commit: int | None = None
    #: Raise ``SimulatedCrash`` right *after* the Nth commit: the
    #: transaction is durable but the operation is cut short.
    crash_after_commit: int | None = None
    #: Restrict counting to commits with this label (None = all).
    label: str | None = None
    #: After the Nth commit, truncate one stored partition blob in
    #: place and then crash (post-commit media corruption).
    tear_blob_after_commit: int | None = None
    #: After the Nth commit, truncate the tail of the blobfile
    #: backend's append-only file — tearing the most recently appended
    #: *referenced* record — and then crash. Models the device losing
    #: the tail of a flushed append (a media-level torn write, the one
    #: torn-append case the commit protocol cannot make unreachable).
    #: Only meaningful wrapping the ``blobfile`` backend.
    tear_append_after_commit: int | None = None
    #: Inject this many transient "database is locked" errors on the
    #: next write-transaction BEGINs.
    lock_errors: int = 0


class FaultController:
    """Per-database fault state, surviving engine reopen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.plan = FaultPlan()
        #: Labels of every commit attempt, in order (pre-commit).
        self.attempted: list[str] = []
        #: Labels of every commit that became durable, in order.
        self.committed: list[str] = []
        #: Matching-label commit count under the current plan.
        self.commits = 0
        #: How many lock errors have been injected so far.
        self.lock_errors_injected = 0

    def arm(self, plan: FaultPlan) -> None:
        """Install a plan and reset the counters (not the history)."""
        with self._lock:
            self.plan = plan
            self.commits = 0
            self.lock_errors_injected = 0

    def disarm(self) -> None:
        self.arm(FaultPlan())

    def reset_history(self) -> None:
        with self._lock:
            self.attempted.clear()
            self.committed.clear()


_CONTROLLERS: dict[str, FaultController] = {}
_CONTROLLERS_LOCK = threading.Lock()


def controller_for(path: str | os.PathLike[str]) -> FaultController:
    """The (shared, process-global) fault controller for a database."""
    key = os.path.abspath(os.fspath(path))
    with _CONTROLLERS_LOCK:
        ctrl = _CONTROLLERS.get(key)
        if ctrl is None:
            ctrl = _CONTROLLERS[key] = FaultController()
        return ctrl


def reset_controllers() -> None:
    """Drop every controller (test isolation)."""
    with _CONTROLLERS_LOCK:
        _CONTROLLERS.clear()


class FaultInjectingBackend(StorageBackend):
    """Decorates a real backend with the faults scripted above.

    Pure delegation for every layout operation — the wrapper never
    changes what is stored, only *whether* an operation is allowed to
    finish — so a database written under fault injection is
    byte-identical to one written without it.
    """

    # The ClassVar defaults are placeholders; every instance shadows
    # them with the wrapped backend's values so the meta table, shard
    # manifests and stats report the real layout.
    kind = "fault"
    shared_connection = False
    file_backed = True

    def __init__(self, path: str, config, inner: StorageBackend) -> None:
        super().__init__(path, config)
        self._inner = inner
        self.kind = inner.kind
        self.shared_connection = inner.shared_connection
        self.file_backed = inner.file_backed
        self.serves_mmap_views = inner.serves_mmap_views
        # The inner backend may serialize internal work on its own
        # writer lock; the engine must adopt that same lock.
        self.writer_lock = inner.writer_lock
        self.controller = controller_for(path)

    @property
    def inner(self) -> StorageBackend:
        return self._inner

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------

    def before_begin_write(self) -> None:
        self._inner.before_begin_write()
        ctrl = self.controller
        with ctrl._lock:
            inject = (
                ctrl.lock_errors_injected < ctrl.plan.lock_errors
            )
            if inject:
                ctrl.lock_errors_injected += 1
        if inject:
            raise sqlite3.OperationalError("database is locked")

    def before_commit(self, label: str) -> None:
        # The inner hook first: a real backend uses it to make its
        # side files durable before COMMIT (the blobfile fsync). A
        # scripted pre-commit crash then still models a process kill
        # with everything flushed — the transaction must roll back and
        # any flushed-but-unreferenced bytes must be harmless.
        self._inner.before_commit(label)
        ctrl = self.controller
        with ctrl._lock:
            ctrl.attempted.append(label)
            plan = ctrl.plan
            if plan.label is not None and plan.label != label:
                return
            ctrl.commits += 1
            ordinal = ctrl.commits
        if ordinal == plan.crash_before_commit:
            raise SimulatedCrash(
                f"scripted crash before commit #{ordinal} ({label})"
            )

    def after_commit(self, label: str) -> None:
        # The inner hook first (the blobfile generation swap): a crash
        # scripted here then exercises the post-finalization state,
        # while the reopen sweep covers the pre-finalization one.
        self._inner.after_commit(label)
        ctrl = self.controller
        with ctrl._lock:
            ctrl.committed.append(label)
            plan = ctrl.plan
            if plan.label is not None and plan.label != label:
                return
            ordinal = ctrl.commits
        if ordinal == plan.tear_blob_after_commit:
            self._tear_one_blob()
            raise SimulatedCrash(
                f"scripted crash (torn blob) after commit #{ordinal} "
                f"({label})"
            )
        if ordinal == plan.tear_append_after_commit:
            self._tear_append_tail()
            raise SimulatedCrash(
                f"scripted crash (torn append) after commit "
                f"#{ordinal} ({label})"
            )
        if ordinal == plan.crash_after_commit:
            raise SimulatedCrash(
                f"scripted crash after commit #{ordinal} ({label})"
            )

    def _tear_one_blob(self) -> None:
        """Truncate one indexed partition blob, committed in place."""
        if self.kind == "blobfile":
            self._flip_blobfile_record_tail()
            return
        conn = self._inner.connect_writer()
        try:
            if self.kind == "sqlite-packed":
                conn.execute(
                    "UPDATE packed_partitions "
                    "SET vectors = substr(vectors, 1, "
                    "max(1, length(vectors) - 5)) "
                    "WHERE partition_id = "
                    "(SELECT MIN(partition_id) FROM packed_partitions)"
                )
            else:
                row = conn.execute(
                    "SELECT partition_id, asset_id FROM vectors "
                    "WHERE partition_id >= 0 "
                    "ORDER BY partition_id, asset_id LIMIT 1"
                ).fetchone()
                if row is not None:
                    conn.execute(
                        "UPDATE vectors SET vector = "
                        "substr(vector, 1, max(1, length(vector) - 5)) "
                        "WHERE partition_id=? AND asset_id=?",
                        (row[0], row[1]),
                    )
            conn.commit()
        finally:
            self._inner.close_connection(conn)

    def _flip_blobfile_record_tail(self) -> None:
        """Corrupt the lowest partition's live blob record in place."""
        conn = self._inner.connect_writer()
        try:
            row = conn.execute(
                "SELECT gen, offset, length FROM blob_locator "
                "WHERE kind='vectors' AND partition_id = "
                "(SELECT MIN(partition_id) FROM blob_locator "
                "WHERE kind='vectors')"
            ).fetchone()
        finally:
            self._inner.close_connection(conn)
        if row is None:
            return
        gen, offset, length = (int(v) for v in row)
        path = self._inner.blob_path(gen)
        tail = max(offset, offset + length - 5)
        with open(path, "r+b") as fh:
            fh.seek(tail)
            chunk = fh.read(offset + length - tail)
            fh.seek(tail)
            fh.write(bytes(b ^ 0xFF for b in chunk))
        self._inner.drop_mappings()

    def _tear_append_tail(self) -> None:
        """Truncate the tail of the last referenced blob record.

        Only meaningful for the ``blobfile`` backend: the file loses
        the last bytes of its most recently appended *referenced*
        record (plus any trailing garbage), modelling a flushed append
        the media tore. The next read of that record must detect it
        and quarantine, never serve partial bytes.
        """
        if self.kind != "blobfile":
            return
        conn = self._inner.connect_writer()
        try:
            row = conn.execute(
                "SELECT gen, offset, length FROM blob_locator "
                "ORDER BY offset DESC LIMIT 1"
            ).fetchone()
        finally:
            self._inner.close_connection(conn)
        if row is None:
            return
        gen, offset, length = (int(v) for v in row)
        path = self._inner.blob_path(gen)
        with open(path, "r+b") as fh:
            fh.truncate(max(offset, offset + length - 5))
        self._inner.drop_mappings()

    # ------------------------------------------------------------------
    # Pure delegation
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Backend-specific extensions (the blobfile backend's
        # ``compact``/``dead_bytes``/``blob_stats``/…) delegate
        # transparently; ``hasattr`` stays truthful for backends that
        # lack them. Dunder/private lookups must fail normally.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def connect_writer(self) -> sqlite3.Connection:
        return self._inner.connect_writer()

    def connect_reader(self) -> sqlite3.Connection:
        return self._inner.connect_reader()

    def close_connection(self, conn: sqlite3.Connection) -> None:
        self._inner.close_connection(conn)

    def shutdown(self) -> None:
        self._inner.shutdown()

    def create_layout_tables(self, conn, use_quantization):
        self._inner.create_layout_tables(conn, use_quantization)

    def validate_stored_kind(self, conn) -> None:
        self._inner.validate_stored_kind(conn)

    def remove_assets(self, conn, asset_ids, drop_codes):
        return self._inner.remove_assets(conn, asset_ids, drop_codes)

    def insert_delta_rows(self, conn, rows):
        self._inner.insert_delta_rows(conn, rows)

    def apply_assignments(
        self, conn, moves, code_rows, use_quantization
    ):
        self._inner.apply_assignments(
            conn, moves, code_rows, use_quantization
        )

    def rewrite_codes(self, conn, encode_blobs, batch_size):
        return self._inner.rewrite_codes(conn, encode_blobs, batch_size)

    def drop_partition(self, conn, partition_id, use_quantization):
        return self._inner.drop_partition(
            conn, partition_id, use_quantization
        )

    def partitions_of(self, conn, asset_ids):
        return self._inner.partitions_of(conn, asset_ids)

    def stored_checksums(self, conn, partition_id):
        return self._inner.stored_checksums(conn, partition_id)

    def checksummed_partitions(self, conn):
        return self._inner.checksummed_partitions(conn)

    def refresh_checksums(
        self,
        conn,
        partition_ids,
        use_quantization,
        kinds=(CHECKSUM_KIND_VECTORS, CHECKSUM_KIND_CODES),
        planned=None,
    ):
        self._inner.refresh_checksums(
            conn, partition_ids, use_quantization, kinds, planned
        )

    def read_partition(self, conn, partition_id):
        return self._inner.read_partition(conn, partition_id)

    def read_partition_codes(self, conn, partition_id):
        return self._inner.read_partition_codes(conn, partition_id)

    def fetch_vector_blobs(self, conn, asset_ids, chunk_size):
        return self._inner.fetch_vector_blobs(
            conn, asset_ids, chunk_size
        )

    def get_vector_blob(self, conn, asset_id):
        return self._inner.get_vector_blob(conn, asset_id)

    def get_partition_of(self, conn, asset_id):
        return self._inner.get_partition_of(conn, asset_id)

    def iter_row_batches(self, conn, include_delta, batch_size):
        return self._inner.iter_row_batches(
            conn, include_delta, batch_size
        )

    def all_asset_ids(self, conn):
        return self._inner.all_asset_ids(conn)

    def count_vectors(self, conn, include_delta):
        return self._inner.count_vectors(conn, include_delta)

    def delta_size(self, conn):
        return self._inner.delta_size(conn)

    def partition_sizes(self, conn, include_delta):
        return self._inner.partition_sizes(conn, include_delta)

    def count_codes(self, conn):
        return self._inner.count_codes(conn)

    def integrity_problems(
        self, conn, use_quantization, quantizer_trained
    ):
        return self._inner.integrity_problems(
            conn, use_quantization, quantizer_trained
        )
