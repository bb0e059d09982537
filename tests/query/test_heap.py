"""The top-K cut, its chunk collector, and surfacing.

``TestMergeTopK`` pins the merge contract — ranking, de-duplication,
the widening cut — on :func:`rank_scored`, the one cut every scan
makes. ``TestTopKHeap`` and ``TestPushTopK`` cover the chunk collector
kept over the same cut. The running K-th bound adaptive admission reads
is checked by ``tests/property/test_heap_properties.py``.
"""

import numpy as np
import pytest

from repro.query.distance import surface_distance
from repro.query.heap import (
    TopKHeap,
    merge_topk,
    push_topk,
    rank_scored,
    surfaced_neighbors,
)


def push(heap: TopKHeap, asset_id: str, distance: float) -> None:
    push_topk(heap, [asset_id], np.array([distance]))


def ranked(heaps, k):
    ids, dist = merge_topk(heaps, k)
    return list(zip(dist.tolist(), ids))


def cut(slices, k):
    """:func:`rank_scored` over ``(asset_ids, distances)`` slices, as
    ``(distance, asset_id)`` pairs."""
    starts = np.cumsum([0, *(len(d) for _, d in slices)])[:-1]
    dist = np.concatenate([np.asarray(d, dtype=np.float32) for _, d in slices])
    ids, ranked_dist = rank_scored(dist, starts, [i for i, _ in slices], k)
    return list(zip(ranked_dist.tolist(), ids))


class TestTopKHeap:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TopKHeap(0)

    def test_keeps_k_smallest(self):
        heap = TopKHeap(3)
        for i, d in enumerate([5.0, 1.0, 4.0, 2.0, 3.0]):
            push(heap, f"a{i}", d)
        assert [d for d, _ in ranked([heap], 3)] == [1.0, 2.0, 3.0]

    def test_deterministic_ties(self):
        heap = TopKHeap(3)
        push(heap, "b", 1.0)
        push(heap, "a", 1.0)
        push(heap, "c", 1.0)
        assert [a for _, a in ranked([heap], 3)] == ["a", "b", "c"]

    def test_tie_at_capacity_prefers_smaller_id(self):
        heap = TopKHeap(1)
        push(heap, "z", 1.0)
        push(heap, "a", 1.0)  # same distance, smaller id
        push(heap, "x", 1.0)  # larger id loses
        assert ranked([heap], 1) == [(1.0, "a")]

    def test_len(self):
        heap = TopKHeap(5)
        push(heap, "a", 1.0)
        push(heap, "b", 2.0)
        assert len(heap) == 2

    def test_retained_view_is_copied(self):
        """The collector owns what it holds: collecting a row of a 2-D
        array must not keep a view that pins — and follows — the
        parent."""
        parent = np.array(
            [[3.0, 1.0, 2.0], [9.0, 9.0, 9.0]], dtype=np.float32
        )
        heap = TopKHeap(10)
        push_topk(heap, ["a", "b", "c"], parent[0], 10)
        assert all(d.base is None for _, _, d in heap._chunks)
        parent[:] = -1.0
        assert ranked([heap], 10) == [(1.0, "b"), (2.0, "c"), (3.0, "a")]


class TestMergeTopK:
    def test_merge_two_heaps(self):
        slices = [
            (["x0", "x1", "x2"], [1.0, 3.0, 5.0]),
            (["y0", "y1", "y2"], [2.0, 4.0, 6.0]),
        ]
        assert [d for d, _ in cut(slices, 4)] == [1.0, 2.0, 3.0, 4.0]

    def test_merge_dedupes_asset_ids(self):
        slices = [(["same"], [1.0]), (["same", "other"], [2.0, 3.0])]
        # Kept the closer copy.
        assert cut(slices, 3) == [(1.0, "same"), (3.0, "other")]

    def test_dedupe_widens_the_cut(self):
        """When de-duplication empties slots of the distance cut, the
        cut widens to rows beyond it instead of returning short."""
        slices = [(["a", "a", "a", "b", "c"], [1.0, 2.0, 3.0, 4.0, 5.0])]
        assert cut(slices, 2) == [(1.0, "a"), (4.0, "b")]
        assert cut(slices, 3) == [(1.0, "a"), (4.0, "b"), (5.0, "c")]

    def test_merge_empty_heaps(self):
        ids, dist = rank_scored(
            np.empty(0, np.float32), np.array([0, 0]), [[], []], 5
        )
        assert ids == [] and dist.shape == (0,)

    def test_merge_invalid_k(self):
        with pytest.raises(ValueError):
            rank_scored(np.empty(0, np.float32), np.array([0]), [[]], 0)

    def test_merge_matches_global_sort(self, rng):
        slices = []
        all_pairs = []
        for t in range(4):
            ids = [f"t{t}-{i}" for i in range(30)]
            dist = rng.uniform(0, 100, size=30).astype(np.float32)
            slices.append((ids, dist))
            all_pairs.extend(zip(dist.tolist(), ids))
        assert cut(slices, 10) == sorted(all_pairs)[:10]


class TestPushTopK:
    def test_matches_full_sort(self, rng):
        ids = [f"a{i:03d}" for i in range(100)]
        dist = rng.uniform(0, 10, size=100)
        heap = TopKHeap(7)
        push_topk(heap, ids, dist, 7)
        assert ranked([heap], 7) == sorted(zip(dist.tolist(), ids))[:7]

    def test_k_exceeds_n(self):
        heap = TopKHeap(10)
        push_topk(heap, ["a", "b"], np.array([2.0, 1.0]), 10)
        assert [a for _, a in ranked([heap], 10)] == ["b", "a"]

    def test_empty_input(self):
        heap = TopKHeap(5)
        push_topk(heap, [], np.empty(0), 5)
        assert len(heap) == 0 and ranked([heap], 5) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            push_topk(TopKHeap(1), ["a"], np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError):
            push_topk(
                TopKHeap(1),
                ["a", "b"],
                np.array([1.0, 2.0]),
                rows=np.array([0]),
            )

    def test_deterministic_ties(self):
        heap = TopKHeap(2)
        push_topk(heap, ["c", "a", "b"], np.array([1.0, 1.0, 1.0]), 2)
        assert [a for _, a in ranked([heap], 2)] == ["a", "b"]

    def test_rows_select_ids(self):
        """``rows`` maps each distance to its position in the id
        sequence (what a post-filter mask keeps)."""
        heap = TopKHeap(2)
        push_topk(
            heap,
            ["a", "b", "c", "d"],
            np.array([3.0, 1.0, 2.0]),
            rows=np.array([0, 2, 3]),
        )
        assert ranked([heap], 2) == [(1.0, "c"), (2.0, "d")]

    def test_k_argument_does_not_change_the_cut(self):
        """``k`` is accepted for the call shape; the merge's ``k``
        decides."""
        heap = TopKHeap(3)
        push_topk(heap, list("abcde"), np.arange(5.0), 1)
        assert [a for _, a in ranked([heap], 5)] == list("abcde")


class TestSurfacedNeighbors:
    def test_bit_identical_to_scalar_surfacing(self, rng):
        """The vectorised float64 sqrt equals the scalar
        ``surface_distance`` element for element, negatives (GEMM
        round-off) clamped alike."""
        dist = np.concatenate(
            [
                rng.uniform(0.0, 1e6, size=2000),
                rng.uniform(0.0, 1e-6, size=200),
                [-1e-7, 0.0, 4.0],
            ]
        ).astype(np.float32)
        dist.sort()
        ids = [f"a{i:05d}" for i in range(len(dist))]
        for metric in ("l2", "cosine", "dot"):
            got = surfaced_neighbors((ids, dist), metric)
            assert [n.asset_id for n in got] == ids
            for n, d in zip(got, dist):
                assert type(n.distance) is float
                assert n.distance == surface_distance(float(d), metric)

    def test_surfaced_ties_resort_on_id(self):
        """Two internal values that surface equal (negatives clamp to
        zero) are ordered by asset id, whatever their internal order."""
        merged = (["zz", "aa"], np.array([-2e-7, -1e-7], np.float32))
        got = surfaced_neighbors(merged, "l2")
        assert [(n.asset_id, n.distance) for n in got] == [
            ("aa", 0.0),
            ("zz", 0.0),
        ]

    def test_empty(self):
        assert surfaced_neighbors(merge_topk([], 3), "l2") == ()
