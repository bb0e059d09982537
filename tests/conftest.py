"""Shared fixtures for the MicroNN test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig

#: Storage backend the suite runs under (the CI matrix sets this; see
#: MicroNNConfig.storage_backend). Most tests are backend-agnostic;
#: the markers below skip the few white-box tests that reach past the
#: public API into one backend's physical layout.
TEST_BACKEND = os.environ.get("MICRONN_TEST_BACKEND", "sqlite-row")

#: The physical layout behind the configured backend: a fault-
#: injecting wrapper (``fault:<inner>``) keeps its inner backend's
#: layout, so the skip markers see through the prefix.
_PHYSICAL_BACKEND = TEST_BACKEND
while _PHYSICAL_BACKEND.startswith("fault:"):
    _PHYSICAL_BACKEND = _PHYSICAL_BACKEND[len("fault:"):]

#: Skip under the memory backend: the test needs a real database file
#: (file sizes, WAL snapshots, surviving process restarts).
requires_file_backend = pytest.mark.skipif(
    _PHYSICAL_BACKEND == "memory",
    reason="test requires an on-disk database file",
)

#: Skip under the packed/blobfile backends: the test issues raw SQL
#: against the row-per-vector tables (``vectors`` / ``vector_codes``).
requires_row_layout = pytest.mark.skipif(
    _PHYSICAL_BACKEND in ("sqlite-packed", "blobfile"),
    reason="white-box test assumes the row-per-vector table layout",
)

#: Skip under the blobfile backend: the test reaches into the packed
#: layout's SQLite blob tables (``partitions`` / ``partition_codes``),
#: which the blobfile layout replaces with the append-only blob file.
requires_sqlite_blob_tables = pytest.mark.skipif(
    _PHYSICAL_BACKEND == "blobfile",
    reason="white-box test assumes partition blobs live in SQLite",
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def force_pipeline(monkeypatch) -> None:
    """Every scan with a cache-missing probe pipelines (given
    ``pipeline_depth >= 1``), whatever its loads are seen to cost: the
    engagement threshold is set to zero. THE way the suites that cover
    the pipelined path reach it on a host whose reads never block."""
    monkeypatch.setattr("repro.query.pipeline.PIPELINE_MIN_LOAD_S", 0.0)


@pytest.fixture
def small_config() -> MicroNNConfig:
    """A config sized for fast unit tests."""
    return MicroNNConfig(
        dim=8,
        metric="l2",
        target_cluster_size=10,
        default_nprobe=3,
        kmeans_iterations=15,
        attributes={"color": "TEXT", "size": "INTEGER", "score": "REAL"},
    )


@pytest.fixture
def fts_config() -> MicroNNConfig:
    """Config with an FTS-enabled text attribute."""
    return MicroNNConfig(
        dim=8,
        metric="l2",
        target_cluster_size=10,
        default_nprobe=3,
        kmeans_iterations=15,
        attributes={"tags": "TEXT", "ts": "INTEGER"},
        fts_attributes=("tags",),
    )


@pytest.fixture
def vectors(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(200, 8)).astype(np.float32)


@pytest.fixture
def empty_db(tmp_path, small_config):
    db = MicroNN.open(tmp_path / "test.db", small_config)
    yield db
    db.close()


@pytest.fixture
def populated_db(tmp_path, small_config, vectors):
    """200 vectors with simple attributes, index built."""
    db = MicroNN.open(tmp_path / "test.db", small_config)
    colors = ["red", "green", "blue", "yellow"]
    db.upsert_batch(
        (
            f"a{i:04d}",
            vectors[i],
            {
                "color": colors[i % 4],
                "size": i,
                "score": float(i) / 200.0,
            },
        )
        for i in range(len(vectors))
    )
    db.build_index()
    yield db
    db.close()


def brute_force_ids(
    vectors: np.ndarray, query: np.ndarray, k: int, metric: str = "l2"
) -> list[str]:
    """Reference exact top-k over the standard test id naming."""
    from repro.query.distance import distances_to_one

    dist = distances_to_one(query, vectors, metric)
    order = sorted(range(len(dist)), key=lambda i: (dist[i], f"a{i:04d}"))
    return [f"a{i:04d}" for i in order[:k]]
