"""Property: the chained payload checksum IS the per-row checksum.

``payload_checksum`` verifies a partition with three CRC32 calls over
joined buffers. The definition it must keep computing — the one every
stamp already on disk was written with — is one CRC32 call per row id,
per row vector id and per row blob, kept here as the oracle. Equal for
every payload, so no stored stamp ever needs rewriting; and still a
checksum: a flipped byte anywhere changes it.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MicroNN, MicroNNConfig
from repro.storage.backends.base import PartitionPayload, payload_checksum

BACKENDS = ("sqlite-row", "sqlite-packed", "blobfile", "memory")


def per_row_checksum(asset_ids, vector_ids, blobs) -> int:
    """The checksum as first defined: one CRC32 call per stored value."""
    crc = 0
    for asset_id in asset_ids:
        crc = zlib.crc32(asset_id.encode("utf-8"), crc)
    for vector_id in vector_ids:
        crc = zlib.crc32(
            int(vector_id).to_bytes(8, "little", signed=True), crc
        )
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    return crc


@st.composite
def partitions(draw):
    """(asset_ids, vector_ids, blobs): 0..12 rows of one blob width.

    Ids are any text (multi-byte included) plus one ASCII letter, so a
    test can change exactly one byte of an id.
    """
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(0, 24))
    letter = st.sampled_from("abcdefgh")
    ids = tuple(
        draw(st.text(max_size=6)) + draw(letter) for _ in range(rows)
    )
    vids = tuple(
        draw(st.integers(-(2**63), 2**63 - 1)) for _ in range(rows)
    )
    blobs = [draw(st.binary(min_size=width, max_size=width)) for _ in ids]
    return ids, vids, blobs


def _payloads(ids, vids, blobs):
    """Both shapes a backend hands the engine: the joined row blobs of
    a row layout, the zero-copy view of a packed one."""
    joined = b"".join(blobs)
    yield PartitionPayload(ids, vids, joined, 0)
    yield PartitionPayload(ids, vids, memoryview(joined), 0)


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_chained_checksum_equals_per_row_checksum(partition):
    ids, vids, blobs = partition
    want = per_row_checksum(ids, vids, blobs)
    for payload in _payloads(ids, vids, blobs):
        assert payload_checksum(payload) == want


def test_vector_ids_cover_the_int64_range():
    ids = ("é", "日本", "z")
    vids = (-(2**63), 2**32 + 5, 2**63 - 1)
    blobs = [b"\x00\x01", b"\xff\xfe", b"ab"]
    assert payload_checksum(
        PartitionPayload(ids, vids, b"".join(blobs), 0)
    ) == per_row_checksum(ids, vids, blobs)


@settings(max_examples=200, deadline=None)
@given(partitions(), st.data())
def test_one_changed_byte_changes_the_checksum(partition, data):
    ids, vids, blobs = partition
    if not ids:
        return
    before = payload_checksum(
        PartitionPayload(ids, vids, b"".join(blobs), 0)
    )
    row = data.draw(st.integers(0, len(ids) - 1))
    fields = ["id", "vid"] + (["blob"] if blobs[row] else [])
    field = data.draw(st.sampled_from(fields))
    ids, vids, blobs = list(ids), list(vids), list(blobs)
    if field == "id":
        last = ids[row][-1]
        ids[row] = ids[row][:-1] + ("b" if last == "a" else "a")
    elif field == "vid":
        raw = bytearray(vids[row].to_bytes(8, "little", signed=True))
        raw[data.draw(st.integers(0, 7))] ^= 0x01
        vids[row] = int.from_bytes(raw, "little", signed=True)
    else:
        raw = bytearray(blobs[row])
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 0x80
        blobs[row] = bytes(raw)
    after = payload_checksum(
        PartitionPayload(tuple(ids), tuple(vids), b"".join(blobs), 0)
    )
    assert after != before


@pytest.mark.parametrize("backend", BACKENDS)
def test_stored_stamps_are_per_row_checksums(tmp_path, backend):
    """On every layout, the stamp written beside a partition equals
    the per-row definition over the rows read back (vectors and sq8
    codes, non-ASCII ids) — the two forms are interchangeable on disk
    — and the database scrubs clean."""
    dim = 8
    config = MicroNNConfig(
        dim=dim,
        target_cluster_size=10,
        kmeans_iterations=5,
        quantization="sq8",
        storage_backend=backend,
    )
    rng = np.random.default_rng(3)
    with MicroNN.open(tmp_path / "stamps.db", config) as db:
        db.upsert_batch(
            (f"é{i:03d}-日本", rng.normal(size=dim).astype(np.float32))
            for i in range(120)
        )
        db.build_index()
        engine = db.engine
        backend_impl = engine._backend
        stamped = 0
        with engine.read_snapshot() as conn:
            for pid in engine.partition_sizes():
                stored = backend_impl.stored_checksums(conn, pid)
                for kind, read, width in (
                    ("vectors", backend_impl.read_partition, dim * 4),
                    ("codes", backend_impl.read_partition_codes, dim),
                ):
                    payload = read(conn, pid)
                    raw = bytes(payload.packed)
                    blobs = [
                        raw[i : i + width]
                        for i in range(0, len(raw), width)
                    ]
                    assert len(blobs) == len(payload) > 0
                    assert stored[kind] == per_row_checksum(
                        payload.asset_ids, payload.vector_ids, blobs
                    )
                    stamped += 1
        assert stamped >= 4
        report = db.verify()
        assert report.healthy and not report.unstamped
        assert db.quarantined_partitions == ()
