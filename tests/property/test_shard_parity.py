"""Sharded vs unsharded parity: the gather merge's ordering contract.

The acceptance property of the sharded engine (ISSUE 5): for the same
inserted rows, ``ShardedMicroNN.search()`` must return *identical ids
and distances* to a single ``MicroNN`` database — in all three
quantization modes, filtered and unfiltered — whenever the probe set
is exhaustive on both sides (each side's clustering differs, so only
exhaustive settings make the two pipelines compute the same
mathematical answer; the merge must then reproduce the unsharded
``(distance, asset_id)`` tie-break exactly).

Quantized modes are the sharp edge: every shard trains its *own*
quantizer on its own rows, so the approximate pre-rank differs per
shard — parity then rests on the exact rerank recovering the true
top-k on every shard, which the generous ``rerank_factor`` here
guarantees at these sizes. Data is drawn from a low-intrinsic-dim
analog (as in the PQ sweep bench) so PQ codes carry signal instead of
rate-distortion noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MicroNN, MicroNNConfig, ShardedMicroNN
from repro.core.types import Neighbor
from repro.query.filters import Eq, Ge
from repro.shard.merge import merge_neighbors

#: Exhaustive probing on both sides (far above any partition count
#: these collections produce).
FULL_NPROBE = 1_000_000

DIM = 32


def _dataset(seed: int, n: int) -> np.ndarray:
    """Low-intrinsic-dimension vectors (PQ-compressible, like real
    embeddings; isotropic noise would measure the data, not the merge).
    """
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(10, DIM)).astype(np.float32)
    coeff = rng.normal(size=(n, 10)).astype(np.float32)
    noise = 0.05 * rng.normal(size=(n, DIM)).astype(np.float32)
    return (coeff @ basis + noise).astype(np.float32)


def _config(quantization: str, metric: str = "l2") -> MicroNNConfig:
    return MicroNNConfig(
        dim=DIM,
        metric=metric,
        target_cluster_size=20,
        kmeans_iterations=8,
        quantization=quantization,
        pq_num_subvectors=8,
        rerank_factor=8,
        attributes={"color": "TEXT", "size": "INTEGER"},
    )


def _records(vectors: np.ndarray):
    colors = ["red", "green", "blue"]
    return [
        (
            f"a{i:04d}",
            vectors[i],
            {"color": colors[i % 3], "size": i},
        )
        for i in range(len(vectors))
    ]


def _populated_pair(tmp_path, quantization: str, vectors, shards: int):
    config = _config(quantization)
    sharded = ShardedMicroNN.open(
        tmp_path / f"fleet-{quantization}", config, shards=shards
    )
    single = MicroNN.open(tmp_path / f"single-{quantization}.db", config)
    records = _records(vectors)
    sharded.upsert_batch(records)
    single.upsert_batch(records)
    sharded.build_index()
    single.build_index()
    return sharded, single


def _assert_identical(sharded_result, single_result):
    __tracebackhide__ = True
    assert sharded_result.asset_ids == single_result.asset_ids
    assert sharded_result.distances == single_result.distances


@pytest.mark.parametrize("quantization", ["none", "sq8", "pq"])
class TestShardedParity:
    def test_unfiltered_and_filtered(
        self, tmp_path, quantization
    ):
        vectors = _dataset(seed=7, n=360)
        sharded, single = _populated_pair(
            tmp_path, quantization, vectors, shards=3
        )
        try:
            if quantization != "none":
                assert sharded.scan_mode() == quantization
                assert single.scan_mode() == quantization
            predicates = [
                None,
                Eq("color", "red"),
                Ge("size", 180),
            ]
            for qi in range(0, 360, 23):
                for predicate in predicates:
                    for k in (1, 10):
                        _assert_identical(
                            sharded.search(
                                vectors[qi],
                                k=k,
                                nprobe=FULL_NPROBE,
                                filters=predicate,
                            ),
                            single.search(
                                vectors[qi],
                                k=k,
                                nprobe=FULL_NPROBE,
                                filters=predicate,
                            ),
                        )
        finally:
            sharded.close()
            single.close()

    def test_exact_and_batch(self, tmp_path, quantization):
        vectors = _dataset(seed=11, n=240)
        sharded, single = _populated_pair(
            tmp_path, quantization, vectors, shards=4
        )
        try:
            queries = vectors[::29]
            for q in queries:
                _assert_identical(
                    sharded.search(q, k=7, exact=True),
                    single.search(q, k=7, exact=True),
                )
            sharded_batch = sharded.search_batch(
                queries, k=7, nprobe=FULL_NPROBE
            )
            single_batch = single.search_batch(
                queries, k=7, nprobe=FULL_NPROBE
            )
            for s_res, u_res in zip(sharded_batch, single_batch):
                # Batch MQO scores each partition with one GEMM across
                # every interested query — the §3.4 design — and BLAS
                # rounding shifts with the query-group shape, which
                # differs per layout. Ids must still match exactly;
                # distances match to GEMM noise (the same contract
                # tests/query/test_batch.py pins batch-vs-single to).
                assert s_res.asset_ids == u_res.asset_ids
                np.testing.assert_allclose(
                    s_res.distances,
                    u_res.distances,
                    rtol=1e-4,
                    atol=2e-3,
                )
        finally:
            sharded.close()
            single.close()

    def test_parity_survives_updates_and_maintenance(
        self, tmp_path, quantization
    ):
        """Delta rows, deletes and incremental flushes hit both sides
        identically: parity is a steady-state property, not a
        freshly-built one."""
        vectors = _dataset(seed=3, n=280)
        sharded, single = _populated_pair(
            tmp_path, quantization, vectors, shards=3
        )
        extra = _dataset(seed=5, n=60)
        try:
            new_records = [
                (f"n{i:04d}", extra[i], {"color": "red", "size": i})
                for i in range(len(extra))
            ]
            sharded.upsert_batch(new_records)
            single.upsert_batch(new_records)
            doomed = [f"a{i:04d}" for i in range(0, 280, 9)]
            assert sharded.delete_batch(doomed) == len(doomed)
            assert single.delete_batch(doomed) == len(doomed)
            for qi in range(0, 60, 13):
                _assert_identical(
                    sharded.search(extra[qi], k=10, nprobe=FULL_NPROBE),
                    single.search(extra[qi], k=10, nprobe=FULL_NPROBE),
                )
            sharded.maintain()
            single.maintain()
            for qi in range(0, 60, 13):
                _assert_identical(
                    sharded.search(extra[qi], k=10, nprobe=FULL_NPROBE),
                    single.search(extra[qi], k=10, nprobe=FULL_NPROBE),
                )
        finally:
            sharded.close()
            single.close()


class TestMergeContract:
    """The gather merge against randomized per-shard streams."""

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=400),
                    st.floats(
                        min_value=0.0,
                        max_value=8.0,
                        allow_nan=False,
                        width=32,
                    ),
                ),
                max_size=30,
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=25),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_merge_equals_global_sort(self, shard_pools, k):
        """Merging sorted per-shard streams == sorting the union —
        distance ties included (ids collide across shards on purpose;
        duplicates keep the closest occurrence)."""
        streams = []
        for pool in shard_pools:
            streams.append(
                sorted(
                    (
                        Neighbor(f"a{i:04d}", float(d))
                        for i, d in pool
                    ),
                    key=lambda c: (c.distance, c.asset_id),
                )
            )
        merged = merge_neighbors(streams, k)
        best: dict[str, float] = {}
        for stream in streams:
            for cand in stream:
                if (
                    cand.asset_id not in best
                    or cand.distance < best[cand.asset_id]
                ):
                    best[cand.asset_id] = cand.distance
        expected = sorted(
            (Neighbor(aid, d) for aid, d in best.items()),
            key=lambda c: (c.distance, c.asset_id),
        )[:k]
        assert merged == tuple(expected)

    def test_surfacing_is_injective_and_tie_break_canonical(self):
        """The two properties the cross-shard distance contract rests
        on. First: surfacing cannot merge distinct internal values —
        ``surface_distance`` takes the sqrt in float64, whose
        resolution dwarfs the gap between adjacent float32 squared
        distances, so the sharded merge (which only sees surfaced
        values) observes every ordering distinction the unsharded
        internal sort does. Second: should surfaced values ever tie
        anyway (true duplicates), every pipeline breaks the tie on
        asset_id — ``surfaced_neighbors`` and the gather merge agree
        by construction."""
        from repro.query.distance import surface_distance
        from repro.query.heap import surfaced_neighbors

        rng = np.random.default_rng(0)
        for _ in range(2000):
            d1 = np.float32(rng.uniform(0.0, 1e6))
            d2 = np.nextafter(d1, np.float32(np.inf))
            assert surface_distance(float(d1), "l2") < surface_distance(
                float(d2), "l2"
            )

        tie = surface_distance(4.0, "l2")
        unsharded = surfaced_neighbors(
            (["zz", "aa"], np.array([4.0, 4.0], dtype=np.float32)), "l2"
        )
        one_per_shard = merge_neighbors(
            [[Neighbor("zz", tie)], [Neighbor("aa", tie)]], 2
        )
        assert [n.asset_id for n in unsharded] == ["aa", "zz"]
        assert [c.asset_id for c in one_per_shard] == ["aa", "zz"]
        assert all(n.distance == tie for n in unsharded)

    def test_cosine_and_dot_metrics(self, tmp_path):
        """Parity holds on the non-default metrics too (dot's negated
        internal space exercises the surfaced-distance ordering)."""
        vectors = _dataset(seed=13, n=200)
        for metric in ("cosine", "dot"):
            config = _config("none", metric=metric)
            sharded = ShardedMicroNN.open(
                tmp_path / f"fleet-{metric}", config, shards=3
            )
            single = MicroNN.open(
                tmp_path / f"single-{metric}.db", config
            )
            try:
                records = _records(vectors)
                sharded.upsert_batch(records)
                single.upsert_batch(records)
                sharded.build_index()
                single.build_index()
                for qi in range(0, 200, 31):
                    _assert_identical(
                        sharded.search(
                            vectors[qi], k=10, nprobe=FULL_NPROBE
                        ),
                        single.search(
                            vectors[qi], k=10, nprobe=FULL_NPROBE
                        ),
                    )
            finally:
                sharded.close()
                single.close()
