"""Kill-point sweep: crash at every commit point, reopen, audit.

The fault-injecting backend (``storage_backend="fault:<inner>"``)
raises :class:`SimulatedCrash` before or after the Nth write commit.
A scripted workload exercises every label in the engine's
``COMMIT_POINTS`` registry; the sweep then replays it once per
(commit ordinal x before/after), crashes, reopens the database and
asserts the durability contract:

- every *acked* write (the call returned) is still there;
- the *in-flight* write is all-or-nothing — a pre-commit crash leaves
  no trace, a post-commit crash leaves it fully durable;
- no stored payload is ever corrupted by a crash (scrub stays clean);
- the database remains recoverable: a fresh ``build_index()`` brings
  it back to a fully consistent, searchable state.

Also here: transient-lock absorption (the engine's bounded busy-retry)
and torn blob writes (post-commit media corruption caught by the
checksum layer, degrading queries instead of corrupting answers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig, WriteConflictError
from repro.core.errors import SimulatedCrash
from repro.core.types import MaintenanceAction
from repro.storage.backends.fault import FaultPlan, controller_for
from repro.storage.engine import commit_points_for
from tests.conftest import _PHYSICAL_BACKEND

FAULT_BACKEND = f"fault:{_PHYSICAL_BACKEND}"

DIM = 4


def make_config(backend: str, **overrides) -> MicroNNConfig:
    kwargs = dict(
        dim=DIM,
        target_cluster_size=5,
        kmeans_iterations=4,
        default_nprobe=4,
        quantization="sq8",
        attributes={"size": "INTEGER"},
        storage_backend=backend,
        busy_backoff_ms=0.1,
    )
    kwargs.update(overrides)
    return MicroNNConfig(**kwargs)


def make_vectors(rng: np.random.Generator) -> dict[str, np.ndarray]:
    ids = [f"a{i:02d}" for i in range(25)] + [f"b{i:02d}" for i in range(8)]
    vecs = rng.normal(size=(len(ids), DIM)).astype(np.float32)
    return dict(zip(ids, vecs))


def build_steps(db: MicroNN, vectors: dict[str, np.ndarray]):
    """The scripted workload: (name, fn, adds, removes) per step.

    Collectively the steps pass every label in
    ``commit_points_for(backend)``: upsert, delete,
    replace_centroids + assign + rebuild_codes + column_stats (build),
    assign + update_centroids (flush), compact (a labelled commit on
    the blobfile backend only; a no-op elsewhere), repair.
    """
    first = [i for i in vectors if i.startswith("a")]
    second = [i for i in vectors if i.startswith("b")]
    doomed = first[:2]

    def strip_checksums():
        # Give repair() real work (re-stamping) so its commit label
        # fires; partition_checksums is a common-schema table, so
        # this is layout-agnostic.
        with db.engine.write_transaction() as conn:
            conn.execute("DELETE FROM partition_checksums")

    return [
        (
            "upsert-initial",
            lambda: db.upsert_batch(
                (i, vectors[i], {"size": n}) for n, i in enumerate(first)
            ),
            set(first),
            set(),
        ),
        ("delete", lambda: db.delete_batch(doomed), set(), set(doomed)),
        ("build", db.build_index, set(), set()),
        (
            "upsert-second",
            lambda: db.upsert_batch((i, vectors[i]) for i in second),
            set(second),
            set(),
        ),
        (
            "flush",
            lambda: db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH),
            set(),
            set(),
        ),
        # Blob-file compaction (generation copy + locator flip) is a
        # labelled commit on the blobfile backend; on the others
        # compact_storage() returns 0 without committing anything, so
        # the step is a harmless no-op there.
        (
            "compact",
            lambda: db.engine.compact_storage(),
            set(),
            set(),
        ),
        ("strip-checksums", strip_checksums, set(), set()),
        ("repair", db.repair, set(), set()),
    ]


def execute(steps):
    """Run steps until a SimulatedCrash; report the acked state.

    Returns ``(present, crashed_step, inflight_adds, inflight_removes)``
    where ``present`` reflects only *acked* steps.
    """
    present: set[str] = set()
    for name, fn, adds, removes in steps:
        try:
            fn()
        except SimulatedCrash:
            return present, name, adds, removes
        present |= adds
        present -= removes
    return present, None, set(), set()


def check_recovered(db, vectors, present, adds, removes):
    """The durability contract, checked on the reopened database."""
    actual = {i for i in vectors if db.get_vector(i) is not None}
    # Acked writes survive (the in-flight delete may have landed).
    assert present - removes <= actual
    # Nothing beyond acked state + the in-flight batch is visible.
    assert actual <= present | adds
    # The in-flight batch is all-or-nothing.
    assert actual & adds in (set(), adds)
    assert actual & removes in (set(), removes)
    # A crash never corrupts stored payloads (missing stamps are
    # fine — the crash may predate a checksum refresh of new rows).
    report = db.engine.scrub()
    assert report.corrupt_vectors == ()
    assert report.corrupt_codes == ()
    assert report.quantizer_ok
    # Exact search still answers correctly over what is stored.
    if actual:
        probe = sorted(actual)[0]
        hits = db.search(vectors[probe], k=3, exact=True)
        assert hits[0].asset_id == probe
    # And the database is recoverable: a rebuild restores full
    # consistency and ANN serving.
    db.build_index()
    assert db.check_integrity() == []
    if actual:
        probe = sorted(actual)[-1]
        hits = db.search(vectors[probe], k=3)
        assert hits[0].asset_id == probe
    return actual


def run_clean(tmp_path, rng):
    """One uncrashed run; returns the commit count and label set."""
    path = tmp_path / "clean" / "db"
    path.parent.mkdir()
    vectors = make_vectors(rng)
    db = MicroNN.open(path, make_config(FAULT_BACKEND))
    ctrl = controller_for(db.path)
    ctrl.reset_history()
    ctrl.arm(FaultPlan())
    present, crashed, _, _ = execute(build_steps(db, vectors))
    assert crashed is None
    commits = ctrl.commits
    labels = set(ctrl.committed)
    db.close()
    return commits, labels


class TestKillPointSweep:
    def test_workload_covers_every_commit_point(self, tmp_path, rng):
        _, labels = run_clean(tmp_path, rng)
        assert set(commit_points_for(_PHYSICAL_BACKEND)) <= labels

    @pytest.mark.parametrize("mode", ["before", "after"])
    def test_sweep(self, tmp_path, rng, mode):
        total, _ = run_clean(tmp_path, rng)
        assert total >= len(commit_points_for(_PHYSICAL_BACKEND))
        for ordinal in range(1, total + 1):
            case = tmp_path / f"{mode}-{ordinal:02d}"
            case.mkdir()
            path = case / "db"
            vectors = make_vectors(rng)
            db = MicroNN.open(path, make_config(FAULT_BACKEND))
            ctrl = controller_for(db.path)
            plan = (
                FaultPlan(crash_before_commit=ordinal)
                if mode == "before"
                else FaultPlan(crash_after_commit=ordinal)
            )
            ctrl.arm(plan)
            present, crashed, adds, removes = execute(
                build_steps(db, vectors)
            )
            assert crashed is not None, (
                f"commit #{ordinal} never reached ({mode})"
            )
            ctrl.disarm()
            db.close()
            db.close()  # crash teardown must be idempotent
            reopened = MicroNN.open(
                path, make_config(_PHYSICAL_BACKEND)
            )
            try:
                if mode == "before":
                    # Pre-commit crash: the interrupted transaction
                    # must have rolled back entirely.
                    actual = check_recovered(
                        reopened, vectors, present, adds, removes
                    )
                    if crashed == "upsert-initial":
                        assert not actual & adds
                else:
                    check_recovered(
                        reopened, vectors, present, adds, removes
                    )
            finally:
                reopened.close()


class TestTransientLocks:
    def test_busy_retry_absorbs_transient_locks(self, tmp_path, rng):
        config = make_config(FAULT_BACKEND, busy_retries=4)
        db = MicroNN.open(tmp_path / "locks.db", config)
        ctrl = controller_for(db.path)
        try:
            ctrl.arm(FaultPlan(lock_errors=3))
            vec = rng.normal(size=DIM).astype(np.float32)
            db.upsert("locked", vec)
            assert ctrl.lock_errors_injected == 3
            assert db.get_vector("locked") is not None
        finally:
            ctrl.disarm()
            db.close()

    def test_busy_retry_exhaustion_raises(self, tmp_path, rng):
        config = make_config(FAULT_BACKEND, busy_retries=1)
        db = MicroNN.open(tmp_path / "locks.db", config)
        ctrl = controller_for(db.path)
        try:
            ctrl.arm(FaultPlan(lock_errors=10))
            vec = rng.normal(size=DIM).astype(np.float32)
            with pytest.raises(WriteConflictError):
                db.upsert("never", vec)
            ctrl.disarm()
            # The lock was transient: once it clears, writes work.
            db.upsert("finally", vec)
            assert db.get_vector("finally") is not None
            assert db.get_vector("never") is None
        finally:
            ctrl.disarm()
            db.close()


class TestStampPath:
    def test_resident_writes_stamp_without_rereading(
        self, tmp_path, rng, monkeypatch
    ):
        """The wrapper hands a write's planned cache entries through to
        the stamp: a delete and an overwrite whose partitions are
        resident (floats and codes) restamp them without reading a
        partition, and every stamp still verifies."""
        db = MicroNN.open(tmp_path / "db", make_config(FAULT_BACKEND))
        try:
            vectors = make_vectors(rng)
            db.upsert_batch(vectors.items())
            db.build_index()
            engine = db.engine
            for pid in engine.load_centroids()[0].tolist():
                engine.load_partition(pid)
                engine.load_partition_codes(pid)
            inner = engine._backend._inner
            reads = []
            for name in ("read_partition", "read_partition_codes"):

                def counted(conn, pid, real=getattr(inner, name)):
                    reads.append(pid)
                    return real(conn, pid)

                monkeypatch.setattr(inner, name, counted)
            ids = list(vectors)
            assert db.delete_batch(ids[:3]) == 3
            db.upsert_batch((i, vectors[i] + 1) for i in ids[5:8])
            assert reads == []
            monkeypatch.undo()
            assert db.verify().healthy
        finally:
            db.close()


class TestTornWrites:
    def test_torn_blob_degrades_then_repairs(self, tmp_path, rng):
        """Post-commit media corruption: checksums catch the tear,
        queries degrade (flagged, never silently wrong), repair()
        restores a healthy database."""
        path = tmp_path / "torn.db"
        vectors = make_vectors(rng)
        # Full-precision scans: the scan path itself reads (and so
        # CRC-verifies) the float blobs the tear damages. Quantized
        # scans read code blobs; their float corruption surfaces via
        # verify()/repair() instead (see test_scrub_repair).
        config = make_config(FAULT_BACKEND, quantization="none")
        db = MicroNN.open(path, config)
        ctrl = controller_for(db.path)
        db.upsert_batch((i, v) for i, v in vectors.items())
        db.build_index()
        ctrl.arm(FaultPlan(tear_blob_after_commit=1))
        extra = rng.normal(size=DIM).astype(np.float32)
        with pytest.raises(SimulatedCrash):
            db.upsert("zz-extra", extra)
        ctrl.disarm()
        db.close()

        db = MicroNN.open(
            path, make_config(_PHYSICAL_BACKEND, quantization="none")
        )
        try:
            # The acked-by-commit upsert survived the crash.
            assert db.get_vector("zz-extra") is not None
            # The torn partition is quarantined on first read; the
            # query degrades instead of erroring or lying.
            probe = next(iter(vectors.values()))
            result = db.search(probe, k=5, nprobe=10_000)
            assert result.stats.degraded
            assert result.stats.partitions_quarantined >= 1
            assert db.engine.quarantined_partitions
            # Only true neighbors among the surviving rows come back.
            for hit in result:
                assert (
                    hit.asset_id == "zz-extra"
                    or hit.asset_id in vectors
                )
            # Torn floats are unrecoverable: repair drops the
            # partition and the database is healthy again.
            report = db.repair()
            assert report.dropped_partitions
            after = db.verify()
            assert after.healthy
            result = db.search(probe, k=5, nprobe=10_000)
            assert not result.stats.degraded
            assert db.engine.quarantined_partitions == ()
        finally:
            db.close()

    def test_torn_append_tail_degrades_then_repairs(self, tmp_path, rng):
        """A torn append — power loss mid-write leaves the blob file's
        last record truncated. The locator points past the end of the
        file, so the partition fails verification, is quarantined, and
        repair() drops it, restoring a clean verify()."""
        if _PHYSICAL_BACKEND != "blobfile":
            pytest.skip("torn appends target the blob file's tail record")
        path = tmp_path / "torn-append.db"
        vectors = make_vectors(rng)
        config = make_config(FAULT_BACKEND, quantization="none")
        db = MicroNN.open(path, config)
        ctrl = controller_for(db.path)
        db.upsert_batch((i, v) for i, v in vectors.items())
        db.build_index()
        ctrl.arm(FaultPlan(tear_append_after_commit=1))
        extra = rng.normal(size=DIM).astype(np.float32)
        with pytest.raises(SimulatedCrash):
            db.upsert("zz-extra", extra)
        ctrl.disarm()
        db.close()

        db = MicroNN.open(
            path, make_config(_PHYSICAL_BACKEND, quantization="none")
        )
        try:
            # The truncated tail record fails verification (bounds or
            # CRC) and only that partition is implicated.
            report = db.verify()
            assert report.corrupt_vectors
            assert len(report.corrupt_vectors) == 1
            # Torn floats are unrecoverable; repair drops the
            # partition and the database verifies clean again.
            report = db.repair()
            assert report.dropped_partitions
            assert db.verify().healthy
            db.build_index()
            assert db.check_integrity() == []
        finally:
            db.close()
