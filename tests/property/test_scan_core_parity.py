"""Parity of the one-cut scan core with a plain Python oracle.

Every scan scores its partitions into slices and cuts them once
(``QueryExecutor._scan_partitions``, :func:`repro.query.heap.rank_scored`).
Fed the same rows, the cut must return what the oracle returns — sort
every row by ``(distance, asset_id)``, keep each id's first occurrence,
take K — with the same ids and bit-identical distances, before and
after surfacing.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DeviceProfile, MicroNN, MicroNNConfig
from repro.core.config import DELTA_PARTITION_ID
from repro.query import executor as executor_module
from repro.query.distance import distances_to_one
from repro.query.executor import _masked
from repro.query.heap import rank_scored, surfaced_neighbors
from repro.storage.cache import CachedPartition

DIM = 4
METRICS = ("l2", "cosine", "dot")

#: Few float32 values, negatives included: heavy exact ties across
#: entries, and internal values that surface to the same 0.0 under
#: l2's clamped sqrt.
tied_distances = st.sampled_from(
    [float(np.float32(v)) for v in (-2e-7, -1e-7, 0.0, 0.25, 1.0, 7.0)]
)
any_distances = st.floats(
    min_value=-0.5, max_value=1e6, allow_nan=False, width=32
)


def same_ranking(got, want) -> None:
    """Equal ids and bit-identical distances, of either a merged
    ``(ids, distances)`` pair or a surfaced neighbor tuple."""
    if isinstance(got, tuple) and len(got) == 2 and isinstance(
        got[1], np.ndarray
    ):
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype
        assert got[1].tobytes() == want[1].tobytes()
        return
    assert [n.asset_id for n in got] == [n.asset_id for n in want]
    assert np.array([n.distance for n in got]).tobytes() == np.array(
        [n.distance for n in want]
    ).tobytes()


@st.composite
def scored_sources(draw):
    """Entries of ``(asset_ids, distances, rows)``: ids drawn from a
    small pool so they repeat across entries, some entries empty, some
    addressed through the row positions a filter kept."""
    sources = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=30).map(
                        "a{:03d}".format
                    ),
                    st.one_of(tied_distances, any_distances),
                ),
                max_size=25,
                unique_by=lambda pair: pair[0],
            )
        )
        ids = [asset_id for asset_id, _ in pairs]
        dist = np.array([d for _, d in pairs], dtype=np.float32)
        if draw(st.booleans()):
            sources.append((ids, dist, None))
            continue
        length = len(ids) + draw(st.integers(min_value=0, max_value=4))
        rows = draw(st.permutations(range(length)))[: len(ids)]
        sequence = ["filtered-out"] * length
        for row, asset_id in zip(rows, ids):
            sequence[row] = asset_id
        sources.append((sequence, dist, np.array(rows, dtype=np.int64)))
    return sources


def reference(sources, k: int):
    """The oracle over the same rows: sorted by ``(distance,
    asset_id)``, each id's first occurrence, the first K."""
    ranked = sorted(
        (d, ids[r])
        for ids, dist, rows in sources
        for r, d in zip(
            range(len(dist)) if rows is None else rows, dist.tolist()
        )
    )
    best: dict[str, float] = {}
    for d, asset_id in ranked:
        best.setdefault(asset_id, d)
    top = list(best.items())[:k]
    return [a for a, _ in top], np.array(
        [d for _, d in top], dtype=np.float32
    )


class TestRankScored:
    @given(
        scored_sources(),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(METRICS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_accumulators(self, sources, k, metric):
        lengths = [len(dist) for _, dist, _ in sources]
        starts = np.cumsum([0, *lengths])[:-1]
        dist = (
            np.concatenate([d for _, d, _ in sources])
            if sources
            else np.empty(0, dtype=np.float32)
        )
        got = rank_scored(
            dist,
            starts,
            [ids for ids, _, _ in sources],
            k,
            [rows for _, _, rows in sources],
        )
        want = reference(sources, k)
        same_ranking(got, want)
        same_ranking(
            surfaced_neighbors(got, metric), surfaced_neighbors(want, metric)
        )

    def test_sqrt_collapse_resorts_on_id(self):
        """Two entries whose internal values differ but both surface
        to 0.0 rank by asset id after surfacing, cut and oracle
        alike."""
        sources = [
            (["zz"], np.array([-2e-7], np.float32), None),
            (["aa"], np.array([-1e-7], np.float32), None),
        ]
        got = rank_scored(
            np.concatenate([d for _, d, _ in sources]),
            np.array([0, 1]),
            [ids for ids, _, _ in sources],
            2,
        )
        surfaced = surfaced_neighbors(got, "l2")
        assert [n.asset_id for n in surfaced] == ["aa", "zz"]
        want = surfaced_neighbors(reference(sources, 2), "l2")
        same_ranking(surfaced, want)


@pytest.fixture(scope="module")
def executors():
    """One executor per metric, pool of three workers."""
    databases = {
        metric: MicroNN.open(
            config=MicroNNConfig(
                dim=DIM,
                metric=metric,
                device=DeviceProfile(
                    name="parity",
                    worker_threads=3,
                    partition_cache_bytes=1 << 20,
                ),
            )
        )
        for metric in METRICS
    }
    yield {metric: db._executor for metric, db in databases.items()}
    for db in databases.values():
        db.close()


class _Masks:
    """A post-filter whose mask of each entry is given up front."""

    def __init__(self, masks: dict[int, np.ndarray]) -> None:
        self._masks = masks

    def mask(self, entry: CachedPartition) -> np.ndarray:
        return self._masks[entry.partition_id]


def small_ints(count: int):
    return st.lists(
        st.integers(min_value=-2, max_value=2),
        min_size=count,
        max_size=count,
    )


@st.composite
def warm_probe_set(draw):
    """Resident entries over small-integer vectors (exact distance ties
    across entries), optionally a delta repeating ids of the
    partitions, and a mask per entry — random, keep-all or drop-all —
    or no filter at all."""
    entries, next_id = [], 0
    for pid in range(draw(st.integers(min_value=0, max_value=5))):
        n = draw(st.integers(min_value=0, max_value=12))
        ids = tuple(f"a{next_id + j:03d}" for j in range(n))
        next_id += n
        entries.append((pid, ids, draw(small_ints(n * DIM))))
    if next_id and draw(st.booleans()):
        repeated = draw(
            st.lists(
                st.integers(min_value=0, max_value=next_id - 1),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        ids = tuple(f"a{i:03d}" for i in repeated)
        entries.append(
            (DELTA_PARTITION_ID, ids, draw(small_ints(len(ids) * DIM)))
        )
    partitions = [
        CachedPartition(
            partition_id=pid,
            asset_ids=ids,
            vector_ids=tuple(range(len(ids))),
            matrix=np.array(values, dtype=np.float32).reshape(-1, DIM),
        )
        for pid, ids, values in entries
    ]
    row_filter = None
    if draw(st.booleans()):
        masks = {}
        for entry in partitions:
            mode = draw(st.sampled_from(["random", "keep", "drop"]))
            if mode == "random":
                masks[entry.partition_id] = np.array(
                    draw(
                        st.lists(
                            st.booleans(),
                            min_size=len(entry),
                            max_size=len(entry),
                        )
                    ),
                    dtype=bool,
                )
            else:
                masks[entry.partition_id] = np.full(
                    len(entry), mode == "keep"
                )
        row_filter = _Masks(masks)
    query = np.array(draw(small_ints(DIM)), dtype=np.float32)
    return partitions, row_filter, query


class TestWarmScanCore:
    @given(
        warm_probe_set(),
        st.integers(min_value=1, max_value=60),
        st.sampled_from(METRICS),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_accumulators(
        self, executors, probe_set, k, metric, fan_out
    ):
        entries, row_filter, query = probe_set
        executor = executors[metric]
        pool = mock.Mock(wraps=executor._worker_pool)
        with mock.patch.object(
            executor._engine, "resident_entries", return_value=entries
        ), mock.patch.object(executor, "_worker_pool", pool), mock.patch(
            "repro.query.executor._PARALLEL_SCAN_ELEMENTS",
            1 if fan_out else executor_module._PARALLEL_SCAN_ELEMENTS,
        ):
            got, outcome = executor._scan_partitions(
                [(entry.partition_id, 0.0) for entry in entries],
                query,
                k,
                row_filter,
            )
        sources = []
        for entry in entries:
            rows, matrix, _ = _masked(entry, row_filter)
            dist = distances_to_one(query, matrix, metric)
            sources.append((entry.asset_ids, dist, rows))
        want = reference(sources, k)
        same_ranking(got, want)
        same_ranking(
            surfaced_neighbors(got, metric), surfaced_neighbors(want, metric)
        )
        scored = sum(len(dist) for _, dist, _ in sources)
        assert outcome.vectors_scanned == sum(map(len, entries))
        assert outcome.distance_computations == scored
        assert outcome.rows_filtered == sum(map(len, entries)) - scored
        scored_entries = sum(len(dist) > 0 for _, dist, _ in sources)
        assert pool.called == (fan_out and scored_entries > 1)
