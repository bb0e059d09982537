"""Pipelined vs serial partition scans: cold/warm p50/p95 latency.

The tentpole claim of the scan pipeline, measured end to end on a
clustered SIFT-shaped collection with a flash-like I/O cost model:
overlapping partition reads with distance kernels (plus prefetch
ordered by centroid distance) must cut cold-cache p50 latency >= 1.3x
at *identical* results — the pipeline changes only when work happens,
never what is computed. Warm-cache scans keep the serial fast path, so
warm latency must not regress. With NO latency model the same file's
loads return at page-cache speed, where the pipeline's hand-offs cost
more than its overlap saves: the default config must then stay on the
caller's thread (cold p50 <= 1.1x the ``pipeline_depth=0`` p50; it was
1.5x before engagement was decided from observed load times). Also
asserts, via tracemalloc, that the
fused int8 kernel allocates no full-precision copy of a code
partition. Emits ``pipeline.json`` (``MICRONN_BENCH_ARTIFACTS``) for
the CI trend diff.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import DeviceProfile, IOCostModel, MicroNN, MicroNNConfig
from repro.bench.harness import populate, print_table
from repro.query.distance import (
    asymmetric_pairwise_distances,
    dequantized_pairwise_distances,
)
from repro.storage.quantization import SQ8Quantizer
from repro.workloads.datasets import load_dataset
from repro.workloads.groundtruth import compute_ground_truth
from repro.workloads.metrics import mean_recall_at_k, summarize_latencies

K = 10
NPROBE = 16

#: Flash-like storage latency charged to cache-cold reads (matches the
#: Fig. 4/5 bench's Large-DUT model).
FLASH_IO = IOCostModel(seek_latency_s=0.002, per_byte_latency_s=2e-9)


def _artifact_dir() -> Path:
    return Path(os.environ.get("MICRONN_BENCH_ARTIFACTS", "bench-artifacts"))


def _config(dataset, pipelined: bool, cache_bytes: int) -> MicroNNConfig:
    return MicroNNConfig(
        dim=dataset.dim,
        metric=dataset.metric,
        target_cluster_size=100,
        # The A/B knob: depth 0 is the serial load-then-score baseline.
        pipeline_depth=4 if pipelined else 0,
        io_prefetch_threads=2 if pipelined else 1,
        device=DeviceProfile(
            name="bench-pipeline",
            worker_threads=4,
            partition_cache_bytes=cache_bytes,
            sqlite_cache_bytes=1024 * 1024,
            scratch_buffer_bytes=8 * 1024 * 1024,
            io_model=FLASH_IO,
        ),
    )


def _measure_cold(db: MicroNN, queries) -> tuple[list[float], list[tuple]]:
    """Per-query cold latency: caches purged before every query.

    Centroids are re-warmed after each purge so both modes measure the
    partition scan itself, not the (identical, unpipelined) centroid
    table read.
    """
    latencies, retrieved = [], []
    for query in queries:
        db.purge_caches()
        db.engine.load_centroids()
        start = time.perf_counter()
        result = db.search(query, k=K, nprobe=NPROBE)
        latencies.append(time.perf_counter() - start)
        retrieved.append(result.asset_ids)
    return latencies, retrieved


def _measure_warm(db: MicroNN, queries) -> list[float]:
    """Steady-state latency: every partition already cached."""
    db.warm_cache(queries, k=K, nprobe=NPROBE)
    latencies = []
    for query in queries:
        start = time.perf_counter()
        db.search(query, k=K, nprobe=NPROBE)
        latencies.append(time.perf_counter() - start)
    return latencies


def _run_mode(db_path, dataset, pipelined: bool) -> dict:
    # Cold scenario: zero partition cache, flash-cost reads.
    with MicroNN.open(db_path, _config(dataset, pipelined, 0)) as db:
        cold_lat, retrieved = _measure_cold(db, dataset.queries)
        sample = db.search(dataset.queries[0], k=K, nprobe=NPROBE)
        stats = sample.stats
        bytes_read = stats.bytes_read
    # Warm scenario: cache holds the working set; the pipeline must
    # stand aside (serial fast path) and cost nothing.
    with MicroNN.open(
        db_path, _config(dataset, pipelined, 256 * 1024 * 1024)
    ) as db:
        warm_lat = _measure_warm(db, dataset.queries)
        warm_pipelined = db.search(
            dataset.queries[0], k=K, nprobe=NPROBE
        ).stats.scan_pipelined
    cold = summarize_latencies(cold_lat)
    warm = summarize_latencies(warm_lat)
    return {
        "pipelined": pipelined,
        "cold_p50_ms": cold.p50_ms,
        "cold_p95_ms": cold.p95_ms,
        "warm_p50_ms": warm.p50_ms,
        "warm_p95_ms": warm.p95_ms,
        "bytes_read_per_query": bytes_read,
        "io_time_ms": stats.io_time_ms,
        "compute_time_ms": stats.compute_time_ms,
        "scan_pipelined_cold": stats.scan_pipelined,
        "scan_pipelined_warm": warm_pipelined,
        "retrieved": retrieved,
    }


def _no_latency_cold_p50(db_path, dataset) -> dict[str, float]:
    """Cold p50 without a latency model: default knobs vs depth 0.

    Zero partition cache, so every load misses; no purge is needed and
    no read blocks. The two configs take turns over the same queries
    and each keeps the best of its three p50s, which drops a noisy
    pass without favouring either side.
    """
    device = DeviceProfile(
        name="bench-pipeline-no-latency",
        worker_threads=4,
        partition_cache_bytes=0,
        sqlite_cache_bytes=1024 * 1024,
    )
    base = dict(
        dim=dataset.dim,
        metric=dataset.metric,
        target_cluster_size=100,
        device=device,
    )
    configs = {
        "default": MicroNNConfig(**base),
        "depth0": MicroNNConfig(pipeline_depth=0, **base),
    }
    best = dict.fromkeys(configs, float("inf"))
    pipelined = scans = 0
    for _ in range(3):
        for name, config in configs.items():
            with MicroNN.open(db_path, config) as db:
                latencies = []
                for query in dataset.queries:
                    start = time.perf_counter()
                    stats = db.search(query, k=K, nprobe=NPROBE).stats
                    latencies.append(time.perf_counter() - start)
                    pipelined += stats.scan_pipelined
                    scans += 1
                best[name] = min(
                    best[name], summarize_latencies(latencies).p50_ms
                )
    return {
        "default_p50_ms": best["default"],
        "depth0_p50_ms": best["depth0"],
        "scans_pipelined": pipelined,
        "scans": scans,
    }


def _fused_kernel_memory(dataset) -> dict:
    """tracemalloc peaks: fused int8 kernel vs dequantize-then-GEMM."""
    rng = np.random.default_rng(0)
    sample = dataset.train[
        rng.choice(len(dataset.train), min(len(dataset.train), 20_000),
                   replace=False)
    ]
    quantizer = SQ8Quantizer.train(sample)
    codes = quantizer.encode(sample)
    query = dataset.queries[:1]

    tracemalloc.start()
    asymmetric_pairwise_distances(query, codes, quantizer, dataset.metric)
    _, fused_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    dequantized_pairwise_distances(query, codes, quantizer, dataset.metric)
    _, ref_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "code_partition_bytes": int(codes.nbytes),
        "float32_copy_bytes": int(codes.size * 4),
        "fused_peak_bytes": int(fused_peak),
        "dequantize_peak_bytes": int(ref_peak),
    }


def test_pipelined_vs_serial(benchmark, bench_dir):
    from benchmarks.conftest import scaled

    dataset = load_dataset(
        "sift",
        num_vectors=scaled(50_000, minimum=5_000),
        num_queries=scaled(30, minimum=10),
    )
    db_path = bench_dir / "pipeline.db"
    # Build once; both modes open the same file (the knobs are
    # open-time config, not on-disk state).
    with MicroNN.open(db_path, _config(dataset, False, 0)) as db:
        populate(db, dataset.train_ids, dataset.train)
        db.build_index()

    serial = _run_mode(db_path, dataset, pipelined=False)
    pipelined = _run_mode(db_path, dataset, pipelined=True)
    speedup_p50 = serial["cold_p50_ms"] / max(pipelined["cold_p50_ms"], 1e-9)
    speedup_p95 = serial["cold_p95_ms"] / max(pipelined["cold_p95_ms"], 1e-9)

    truth = compute_ground_truth(
        dataset.train_ids, dataset.train, dataset.queries, K, dataset.metric
    )
    recall_serial = mean_recall_at_k(truth, serial["retrieved"], K)
    recall_pipelined = mean_recall_at_k(truth, pipelined["retrieved"], K)
    kernel = _fused_kernel_memory(dataset)
    no_latency = _no_latency_cold_p50(db_path, dataset)

    print_table(
        "Pipelined vs serial partition scan (flash-like I/O model)",
        ["Quantity", "serial", "pipelined"],
        [
            ("vectors", len(dataset), len(dataset)),
            ("cold p50", f"{serial['cold_p50_ms']:.2f} ms",
             f"{pipelined['cold_p50_ms']:.2f} ms"),
            ("cold p95", f"{serial['cold_p95_ms']:.2f} ms",
             f"{pipelined['cold_p95_ms']:.2f} ms"),
            ("warm p50", f"{serial['warm_p50_ms']:.2f} ms",
             f"{pipelined['warm_p50_ms']:.2f} ms"),
            ("warm p95", f"{serial['warm_p95_ms']:.2f} ms",
             f"{pipelined['warm_p95_ms']:.2f} ms"),
            ("recall@10", f"{recall_serial:.3f}", f"{recall_pipelined:.3f}"),
            ("cold speedup", "1.00x", f"{speedup_p50:.2f}x"),
            ("cold p50, no latency model (depth 0 / default)",
             f"{no_latency['depth0_p50_ms']:.2f} ms",
             f"{no_latency['default_p50_ms']:.2f} ms"),
            ("io+compute (1 cold query)",
             f"{serial['io_time_ms'] + serial['compute_time_ms']:.1f} ms",
             f"{pipelined['io_time_ms'] + pipelined['compute_time_ms']:.1f}"
             " ms"),
        ],
        note="identical neighbors by construction; the pipeline overlaps "
        "partition reads with distance kernels on cache-cold scans.",
    )

    artifact_dir = _artifact_dir()
    artifact_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": "pipeline",
        "dataset": dataset.name,
        "num_vectors": len(dataset),
        "nprobe": NPROBE,
        "k": K,
        "results": {
            mode: {k: v for k, v in r.items() if k != "retrieved"}
            for mode, r in (("serial", serial), ("pipelined", pipelined))
        },
        "cold_p50_speedup": speedup_p50,
        "cold_p95_speedup": speedup_p95,
        "recall_at_k": recall_pipelined,
        "fused_kernel": kernel,
        "no_latency_model": no_latency,
    }
    (artifact_dir / "pipeline.json").write_text(json.dumps(payload, indent=2))

    # Hard regression gates for the CI smoke job.
    assert pipelined["scan_pipelined_cold"]
    assert not pipelined["scan_pipelined_warm"]
    # Equal recall@10 is implied by the stronger contract: identical
    # neighbors, query by query.
    assert pipelined["retrieved"] == serial["retrieved"]
    assert speedup_p50 >= 1.3, (
        f"cold p50 speedup collapsed: {speedup_p50:.2f}x"
    )
    # Loads that do not block never engage the pipeline, so the default
    # config costs what the serial one does.
    # (A load caught by a scheduling hiccup of several ms can tip the
    # running estimate for one query on a shared runner; no more.)
    assert no_latency["scans_pipelined"] <= 0.02 * no_latency["scans"]
    assert (
        no_latency["default_p50_ms"] <= 1.1 * no_latency["depth0_p50_ms"]
    ), no_latency
    # Warm scans bypass the pipeline; allow measurement jitter plus an
    # absolute floor — warm p50s are sub-millisecond, where shared-
    # runner noise swamps any relative margin.
    assert pipelined["warm_p50_ms"] <= serial["warm_p50_ms"] * 1.5 + 0.5
    # The fused kernel must not materialize a float32 copy of the code
    # partition (the dequantize reference's defining allocation).
    assert kernel["dequantize_peak_bytes"] >= kernel["float32_copy_bytes"]
    assert kernel["fused_peak_bytes"] < kernel["code_partition_bytes"]

    with MicroNN.open(db_path, _config(dataset, True, 0)) as db:
        query = dataset.queries[0]

        def cold_query():
            db.purge_caches()
            db.engine.load_centroids()
            return db.search(query, k=K, nprobe=NPROBE)

        benchmark(cold_query)
