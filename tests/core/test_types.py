"""Tests for the public result and stats types."""

import pickle

import pytest

from repro.core.types import (
    BatchSearchResult,
    IndexStats,
    Neighbor,
    PlanKind,
    QueryStats,
    SearchResult,
)


def _result(n: int = 3) -> SearchResult:
    neighbors = tuple(
        Neighbor(asset_id=f"a{i}", distance=float(i)) for i in range(n)
    )
    return SearchResult(
        neighbors=neighbors, stats=QueryStats(plan=PlanKind.ANN)
    )


class TestNeighbor:
    def test_unpacking(self):
        asset_id, distance = Neighbor("x", 1.5)
        assert asset_id == "x"
        assert distance == 1.5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Neighbor("x", 1.0).distance = 2.0

    def test_hashable(self):
        same = {Neighbor("x", 1.5), Neighbor("x", 1.5), Neighbor("y", 1.5)}
        assert len(same) == 2
        assert hash(Neighbor("x", 1.5)) == hash(("x", 1.5))

    def test_pickle_round_trip(self):
        original = Neighbor("x", 0.25)
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is Neighbor
        assert restored == original

    def test_equality(self):
        assert Neighbor("x", 1.5) == Neighbor("x", 1.5)
        assert Neighbor("x", 1.5) != Neighbor("x", 2.5)
        assert Neighbor("x", 1.5) != Neighbor("y", 1.5)
        # A plain (asset_id, distance) tuple compares equal too.
        assert Neighbor("x", 1.5) == ("x", 1.5)

    def test_round_trip_through_search_result(self):
        result = _result(3)
        pairs = list(zip(result.asset_ids, result.distances))
        assert tuple(Neighbor(*pair) for pair in pairs) == result.neighbors
        assert [(n.asset_id, n.distance) for n in result] == pairs


class TestSearchResult:
    def test_len_and_indexing(self):
        result = _result(3)
        assert len(result) == 3
        assert result[0].asset_id == "a0"
        assert result[2].distance == 2.0

    def test_iteration(self):
        assert [n.asset_id for n in _result(2)] == ["a0", "a1"]

    def test_asset_ids_and_distances(self):
        result = _result(3)
        assert result.asset_ids == ("a0", "a1", "a2")
        assert result.distances == (0.0, 1.0, 2.0)

    def test_empty_result(self):
        result = SearchResult(
            neighbors=(), stats=QueryStats(plan=PlanKind.EXACT)
        )
        assert len(result) == 0
        assert result.asset_ids == ()


class TestBatchSearchResult:
    def test_amortized_latency(self):
        batch = BatchSearchResult(
            results=[_result(), _result()], latency_s=0.4
        )
        assert batch.amortized_latency_s == pytest.approx(0.2)

    def test_empty_batch_latency(self):
        assert BatchSearchResult(results=[]).amortized_latency_s == 0.0

    def test_scan_sharing_factor(self):
        batch = BatchSearchResult(
            results=[_result()],
            partitions_scanned=10,
            partitions_requested=40,
        )
        assert batch.scan_sharing_factor == pytest.approx(4.0)

    def test_sharing_factor_with_no_scans(self):
        assert BatchSearchResult(results=[]).scan_sharing_factor == 1.0

    def test_sequence_protocol(self):
        batch = BatchSearchResult(results=[_result(1), _result(2)])
        assert len(batch) == 2
        assert len(batch[1]) == 2
        assert [len(r) for r in batch] == [1, 2]


class TestIndexStats:
    def _stats(self, avg: float, baseline: float) -> IndexStats:
        return IndexStats(
            total_vectors=100,
            indexed_vectors=100,
            delta_vectors=0,
            num_partitions=10,
            avg_partition_size=avg,
            max_partition_size=20,
            min_partition_size=5,
            baseline_avg_partition_size=baseline,
        )

    def test_partition_growth(self):
        assert self._stats(15.0, 10.0).partition_growth == pytest.approx(0.5)

    def test_no_growth(self):
        assert self._stats(10.0, 10.0).partition_growth == pytest.approx(0.0)

    def test_zero_baseline_means_zero_growth(self):
        assert self._stats(15.0, 0.0).partition_growth == 0.0
