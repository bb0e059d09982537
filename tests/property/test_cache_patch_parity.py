"""Patched cache entries equal fresh loads.

A committed write patches the resident entries it touches instead of
dropping them (``PartitionCache.patch``): deleted and overwritten rows
leave their partitions' entries, upserted rows join the delta's, and a
``maintain()`` flush carries rows from the delta's entry into its
destinations'. Random sequences of upserts, overwrites, deletes,
flushes and filtered searches run on a warm database, on every backend,
with and without ``sq8``. After every step each resident entry — float,
code and delta-code alike — must hold the rows a fresh load of its
partition returns, in the same order, bit for bit; its attribute
columns must match a fresh read; and a warm search must return the ids
and bit-identical distances the same search returns after
``purge_caches()``.

A write stamps the checksums of the partitions it touched from their
planned post-write entries, re-reading only those with none. After
every step each stored stamp — vectors, and codes under ``sq8`` — must
equal ``payload_checksum`` of a fresh read of its partition. The
tiny-cache variant keeps few entries resident, so writes stamp partly
from entries and partly from re-reads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DeviceProfile, Eq, MicroNN, MicroNNConfig
from repro.core.types import MaintenanceAction
from repro.storage.backends.base import (
    CHECKSUM_KIND_CODES,
    CHECKSUM_KIND_VECTORS,
    payload_checksum,
)
from repro.storage.cache import AttributeColumn

DIM = 8
COUNT = 120
BUCKETS = 4

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["upsert", "overwrite", "delete", "maintain", "search"]
        ),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=10,
)


def same_rows(cached, fresh) -> None:
    assert cached.asset_ids == fresh.asset_ids
    assert cached.vector_ids == fresh.vector_ids
    assert cached.matrix.dtype == fresh.matrix.dtype
    assert cached.matrix.tobytes() == fresh.matrix.tobytes()
    assert not cached.matrix.flags.writeable


def same_columns(engine, entry) -> None:
    """The entry's attached columns are what a fresh read returns."""
    got = entry.columns.get("bucket")
    if got is None:
        return
    fetched = engine.get_attributes_many(entry.asset_ids, ["bucket"])
    want = AttributeColumn.from_values(
        [fetched.get(a, {}).get("bucket") for a in entry.asset_ids],
        "INTEGER",
    )
    every = np.ones(len(entry), dtype=bool)
    assert np.array_equal(got.where_valid(every), want.where_valid(every))
    valid = want.where_valid(every)
    assert np.array_equal(got.values[valid], want.values[valid])


def check_resident(db) -> None:
    engine = db.engine
    pids = [int(pid) for pid in engine.load_centroids()[0]] + [-1]
    for pid in pids:
        entry = engine.cache.get(pid)
        if entry is not None:
            same_rows(entry, engine.load_partition(pid, use_cache=False))
            same_columns(engine, entry)
        codes = engine.codes_cache.get(pid)
        if codes is not None:
            fresh = engine.load_partition_codes(pid, use_cache=False)
            same_rows(codes, fresh)
            same_columns(engine, codes)
    delta_codes = engine.delta_codes.get()
    if delta_codes is not None:
        fresh = engine.load_partition(-1, use_cache=False)
        assert delta_codes.asset_ids == fresh.asset_ids
        encoded = engine.load_quantizer().encode(fresh.matrix)
        assert delta_codes.matrix.tobytes() == encoded.tobytes()


def check_stamps(db, quantized: bool) -> None:
    """Every stored stamp is the checksum of a fresh read, and every
    non-empty partition has one."""
    engine = db.engine
    backend = engine._backend
    with engine.read_snapshot() as conn:
        pids = set(backend.partition_sizes(conn, include_delta=False))
        pids |= backend.checksummed_partitions(conn)
        for pid in sorted(pids):
            reads = {CHECKSUM_KIND_VECTORS: backend.read_partition(conn, pid)}
            if quantized:
                reads[CHECKSUM_KIND_CODES] = backend.read_partition_codes(
                    conn, pid
                )
            want = {
                kind: payload_checksum(payload)
                for kind, payload in reads.items()
                if len(payload)
            }
            assert backend.stored_checksums(conn, pid) == want, pid


def warm_up(db, quantized: bool) -> None:
    """Every partition resident, float and codes, columns attached."""
    engine = db.engine
    for pid in engine.load_centroids()[0].tolist() + [-1]:
        engine.load_partition(pid)
        if quantized and pid >= 0:
            engine.load_partition_codes(pid)
    db.search(
        np.zeros(DIM, np.float32), k=5, nprobe=10**6, filters=Eq("bucket", 0)
    )


def resident_floats(db) -> set[int]:
    engine = db.engine
    pids = engine.load_centroids()[0].tolist() + [-1]
    return {pid for pid in pids if pid in engine.cache}


every_backend = pytest.mark.parametrize(
    "backend", ["sqlite-row", "sqlite-packed", "blobfile", "memory"]
)
every_quantization = pytest.mark.parametrize("quantization", ["none", "sq8"])
twenty_examples = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@every_quantization
@every_backend
@given(steps)
@twenty_examples
def test_patched_entries_equal_fresh_loads(backend, quantization, steps):
    run_steps(backend, quantization, steps)


@every_quantization
@every_backend
@given(steps)
@twenty_examples
def test_tiny_cache_stamps_equal_fresh_reads(backend, quantization, steps):
    """A cache holding about three float entries (~12 rows x 48 B):
    writes stamp partly from planned entries, partly from re-reads."""
    device = DeviceProfile(partition_cache_bytes=1800)
    run_steps(backend, quantization, steps, device)


def run_steps(backend, quantization, steps, device=None) -> None:
    roomy = device is None
    config = MicroNNConfig(
        dim=DIM,
        target_cluster_size=10,
        kmeans_iterations=5,
        storage_backend=backend,
        quantization=quantization,
        delta_quantize_threshold=3,
        attributes={"bucket": "INTEGER"},
        **({} if roomy else {"device": device}),
    )
    quantized = quantization != "none"
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(COUNT, DIM)).astype(np.float32)
    with MicroNN.open(config=config) as db:
        db.upsert_batch(
            (f"a{i:04d}", v, {"bucket": i % BUCKETS})
            for i, v in enumerate(vectors)
        )
        db.build_index()
        live = [f"a{i:04d}" for i in range(COUNT)]
        created = 0
        warm_up(db, quantized)
        for kind, seed in steps:
            local = np.random.default_rng(seed)
            count = 1 + seed % 4
            before = resident_floats(db)
            if kind in ("upsert", "overwrite"):
                if kind == "upsert":
                    ids = [f"n{created + j:04d}" for j in range(count)]
                    created += count
                    live += ids
                else:
                    picks = local.choice(len(live), count, replace=False)
                    ids = [live[i] for i in picks]
                fresh = local.normal(size=(count, DIM)).astype(np.float32)
                db.upsert_batch(
                    (a, v, {"bucket": int(local.integers(BUCKETS))})
                    for a, v in zip(ids, fresh)
                )
                if roomy:
                    assert -1 in db.engine.cache
            elif kind == "delete":
                picks = local.choice(len(live), count, replace=False)
                doomed = [live[i] for i in sorted(picks, reverse=True)]
                for i in sorted(picks, reverse=True):
                    del live[i]
                assert db.delete_batch(doomed) == count
            elif kind == "maintain":
                db.maintain(force=MaintenanceAction.INCREMENTAL_FLUSH)
            else:
                query = local.normal(size=DIM).astype(np.float32)
                kwargs = dict(
                    k=10,
                    nprobe=1 + seed % 6,
                    filters=Eq("bucket", seed % BUCKETS) if seed % 3 else None,
                )
                warm = db.search(query, **kwargs)
                db.purge_caches()
                cold = db.search(query, **kwargs)
                assert warm.asset_ids == cold.asset_ids
                assert np.array(warm.distances).tobytes() == np.array(
                    cold.distances
                ).tobytes()
                warm_up(db, quantized)
            check_resident(db)
            check_stamps(db, quantized)
            if kind != "search" and roomy:
                # Patched, not dropped: every float entry stays resident.
                assert resident_floats(db) == before
