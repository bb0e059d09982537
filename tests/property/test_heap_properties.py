"""Property-based tests for the top-K cut and its running bound.

The cut is the correctness core of Algorithm 2: any bug here silently
corrupts every search result, so one plain oracle — sort by
``(distance, asset_id)``, keep each id's first occurrence, take K —
pins :func:`rank_slices`, the chunk collector's ``merge_topk`` and
``surfaced_neighbors`` under arbitrary chunkings, ids repeating within
and across chunks. :class:`KthBound`, adaptive admission's running
K-th distance, is checked after every offer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.distance import surface_distance
from repro.query.heap import (
    KthBound,
    TopKHeap,
    merge_topk,
    push_topk,
    rank_slices,
    surfaced_neighbors,
)

#: A handful of float32 values: heavy ties at every cut.
tied_distances = st.sampled_from(
    [float(np.float32(v)) for v in (0.0, 0.25, 1.0, 1.5, 7.0, 1e6)]
)
any_distances = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, width=32
)
#: Few distinct ids, so they repeat across chunks and accumulators.
scored_ids = st.tuples(
    st.integers(min_value=0, max_value=40).map("a{:03d}".format),
    st.one_of(tied_distances, any_distances),
)


@st.composite
def chunk(draw, part):
    """One partition holding the ``(id, distance)`` rows of ``part``:
    either as-is, or hidden at shuffled positions of a longer id
    sequence and addressed through a row-index array (what a
    post-filter mask keeps)."""
    ids = [asset_id for asset_id, _ in part]
    dist = np.array([d for _, d in part], dtype=np.float32)
    if draw(st.booleans()):
        return ids, dist, None
    length = len(ids) + draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.permutations(range(length)))[: len(ids)]
    sequence = ["filtered-out"] * length
    for row, asset_id in zip(rows, ids):
        sequence[row] = asset_id
    return sequence, dist, np.array(rows, dtype=np.int64)


@st.composite
def chunked(draw):
    """Scored rows, ids repeating anywhere, randomly cut into chunks."""
    pairs = draw(st.lists(scored_ids, max_size=120))
    chunks = []
    while pairs:
        size = draw(st.integers(min_value=1, max_value=len(pairs)))
        chunks.append(draw(chunk(pairs[:size])))
        pairs = pairs[size:]
    return chunks


def oracle(offered: list[tuple[str, float]], k: int):
    """Sorted by (distance, id), each id's first occurrence, first K."""
    best: dict[str, float] = {}
    for dist, asset_id in sorted((d, a) for a, d in offered):
        best.setdefault(asset_id, dist)
    return list(best.items())[:k]


class TestAccumulatorAgainstOracle:
    @given(
        st.lists(chunked(), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["l2", "cosine", "dot"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_accumulators_match_oracle(self, inputs, k, metric):
        """The one cut over every chunk, and the chunk collector's
        merge across any split of them into heaps, equal the oracle."""
        offered: list[tuple[str, float]] = []
        heaps = []
        for chunks in inputs:
            heap = TopKHeap(k)
            heaps.append(heap)
            for ids, dist, rows in chunks:
                push_topk(heap, ids, dist, k, rows)
                picked = ids if rows is None else [ids[r] for r in rows]
                offered.extend(zip(picked, dist.tolist()))

        expected = oracle(offered, k)
        slices = [
            (ids, rows, dist)
            for chunks in inputs
            for ids, dist, rows in chunks
        ]
        merged_ids, merged_dist = rank_slices(slices, k)
        assert list(zip(merged_ids, merged_dist.tolist())) == expected
        heap_ids, heap_dist = merge_topk(heaps, k)
        assert list(zip(heap_ids, heap_dist.tolist())) == expected

        neighbors = surfaced_neighbors((merged_ids, merged_dist), metric)
        assert [(n.distance, n.asset_id) for n in neighbors] == sorted(
            (surface_distance(d, metric), a) for a, d in expected
        )


class TestKthBound:
    @given(
        st.lists(
            st.lists(st.one_of(tied_distances, any_distances), max_size=40),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_kth_smallest_offered(self, offers, k):
        """After every offer the bound is the K-th smallest distance
        offered so far, +inf below K rows."""
        bound = KthBound(k)
        offered = np.empty(0, dtype=np.float32)
        for values in offers:
            dist = np.array(values, dtype=np.float32)
            bound.offer(dist)
            offered = np.concatenate([offered, dist])
            assert bound.value == (
                float(np.sort(offered)[k - 1])
                if len(offered) >= k
                else float("inf")
            )
