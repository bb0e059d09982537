"""Property-based tests for the top-K accumulator machinery.

The accumulators are the correctness core of Algorithm 2: any bug here
silently corrupts every search result, so one oracle pins
``push_topk`` / ``merge_topk`` / ``surfaced_neighbors`` against a
trivial dict-and-sort under arbitrary chunkings.

The object-heap suite this replaces is covered as follows:
``test_heap_keeps_k_smallest``, ``test_sharded_merge_equals_global_topk``,
``test_merge_invariant_to_sharding`` and
``TestVectorizedTopK::test_matches_heap_path`` are all instances of
``test_accumulators_match_oracle`` (any chunking, any split across
accumulators, against the global sort); ``test_heap_size_bounded`` and
``test_worst_distance_is_admission_threshold`` are its per-push
``len`` / ``worst_distance`` checks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.distance import surface_distance
from repro.query.heap import (
    TopKHeap,
    merge_topk,
    push_topk,
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
def accumulator_input(draw, unique_ids: bool):
    """The chunks offered to one accumulator, randomly cut."""
    pairs = draw(
        st.lists(
            scored_ids,
            max_size=120,
            unique_by=(lambda pair: pair[0]) if unique_ids else None,
        )
    )
    chunks = []
    while pairs:
        size = draw(st.integers(min_value=1, max_value=len(pairs)))
        chunks.append(draw(chunk(pairs[:size])))
        pairs = pairs[size:]
    return chunks


#: (sized_to_input, chunks per accumulator). An accumulator of capacity
#: K ranks rows, not ids — K copies of one id fill it — so ids may
#: repeat *inside* one only when it is sized to its input (what
#: ``merge_neighbors`` does, leaving the cut to the de-duplicating
#: merge). Across accumulators ids repeat either way.
scenarios = st.booleans().flatmap(
    lambda sized: st.tuples(
        st.just(sized),
        st.lists(
            accumulator_input(unique_ids=not sized), min_size=1, max_size=4
        ),
    )
)


def oracle(offered: list[tuple[str, float]], k: int):
    """Global sort on (distance, id), each id's closest occurrence."""
    best: dict[str, float] = {}
    for asset_id, dist in offered:
        if asset_id not in best or dist < best[asset_id]:
            best[asset_id] = dist
    return sorted(best.items(), key=lambda kv: (kv[1], kv[0]))[:k]


class TestAccumulatorAgainstOracle:
    @given(
        scenarios,
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["l2", "cosine", "dot"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_accumulators_match_oracle(self, scenario, k, metric):
        sized_to_input, inputs = scenario
        offered: list[tuple[str, float]] = []
        # ``heaps`` are asked for their threshold after every push,
        # which tightens their pruning bound; ``unprobed`` twins prune
        # on the bound their own compactions left behind.
        heaps, unprobed = [], []
        for chunks in inputs:
            total = sum(len(dist) for _, dist, _ in chunks)
            capacity = max(1, total) if sized_to_input else k
            heap = TopKHeap(capacity)
            heaps.append(heap)
            unprobed.append(TopKHeap(capacity))
            seen: list[float] = []
            for ids, dist, rows in chunks:
                push_topk(heap, ids, dist, k, rows)
                push_topk(unprobed[-1], ids, dist, k, rows)
                picked = ids if rows is None else [ids[r] for r in rows]
                offered.extend(zip(picked, dist.tolist()))
                # The admission threshold is the exact capacity-th
                # smallest distance offered so far, +inf below that.
                seen = sorted(seen + dist.tolist())
                assert heap.worst_distance() == (
                    seen[capacity - 1]
                    if len(seen) >= capacity
                    else float("inf")
                )
                assert len(heap) == min(len(seen), capacity)

        expected = oracle(offered, k)
        merged_ids, merged_dist = merge_topk(heaps, k)
        assert list(zip(merged_ids, merged_dist.tolist())) == expected
        quiet_ids, quiet_dist = merge_topk(unprobed, k)
        assert list(zip(quiet_ids, quiet_dist.tolist())) == expected

        neighbors = surfaced_neighbors((merged_ids, merged_dist), metric)
        assert [(n.distance, n.asset_id) for n in neighbors] == sorted(
            (surface_distance(d, metric), a) for a, d in expected
        )
