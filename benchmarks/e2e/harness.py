"""Shared protocol: sizes, set-up (populate, build, tune), timing
rounds, the NumPy floor and the failure tally.

End-to-end numbers go through the public surface re-exported by
``repro`` only.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro import (
    DeviceProfile,
    MicroNN,
    MicroNNConfig,
    ShardedMicroNN,
    VectorRecord,
)

from benchmarks.e2e.data import (
    Dataset,
    asset_id,
    exact_mismatch,
    make_dataset,
    recall,
    topk_rows,
)

DIM = 128
K = 100
TARGET_RECALL = 0.90
RECALL_QUERIES = 1000  # the first timed queries, at most this many
EXACT_QUERIES = 20  # the last queries of the pool
POPULATE_CHUNK = 2000
SHARDS = 4
MIN_ROUNDS = 5
FLOOR_REPS = 200
#: Vectors at which the paper's ~10 MB envelope (5 MiB partition cache,
#: 5 MiB SQLite cache, 4 MiB scratch) holds a twenty-fifth of the
#: vector bytes: about as many partitions as one query probes, so a
#: query finds little of what it needs. (The paper runs the envelope at
#: 1M vectors, a hundredth; here that cache would hold two partitions.)
ENVELOPE_VECTORS = 250_000


@dataclass(frozen=True)
class Scale:
    name: str
    vectors: int
    queries: int
    #: Tuning queries, fixed with the collection; they also warm up.
    tuning: int
    #: Times the whole set-up is repeated; ``setup_s`` is the median.
    setups: int
    #: Searches in one round of a fast workload (>= 200 leaves ten
    #: samples beyond the 95th percentile). Slower workloads take a
    #: share of it, so that five rounds fit the window.
    round_searches: int
    #: Queries of the traced run, half searched and half replayed.
    replay_queries: int


STANDARD = Scale("standard", 20_000, 4096, 100, 3, 200, 300)
SMOKE = Scale("smoke", 5_000, 1024, 30, 1, 30, 40)


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            self.reasons[why] = self.reasons.get(why, 0) + 1


@dataclass
class Ctx:
    seed: int
    seconds: float
    scale: Scale
    workdir: Path
    tally: Tally = field(default_factory=Tally)


def base_config() -> MicroNNConfig:
    """The default configuration: large profile, ``sqlite-row``."""
    return MicroNNConfig(
        dim=DIM, metric="l2", attributes={"bucket": "INTEGER"}
    )


def constrained_profile(vectors: int) -> DeviceProfile:
    """The paper's ~10 MB envelope, scaled to the collection so the
    partition cache stays a twenty-fifth of the vector bytes."""
    share = vectors / ENVELOPE_VECTORS
    mib = 1024 * 1024
    return DeviceProfile(
        name="constrained",
        worker_threads=min(2, os.cpu_count() or 1),
        partition_cache_bytes=int(5 * mib * share),
        sqlite_cache_bytes=int(5 * mib * share),
        scratch_buffer_bytes=int(4 * mib * share),
    )


@dataclass
class Base:
    """A populated, indexed and tuned collection."""

    data: Dataset
    db: MicroNN | ShardedMicroNN
    path: Path
    config: MicroNNConfig
    nprobe: int
    populate_s: float
    build_s: float
    kmeans_iterations: int

    def search(self, query: np.ndarray):
        return self.db.search(query, k=K, nprobe=self.nprobe)

    def timed_queries(self, start: int, count: int) -> np.ndarray:
        """``count`` queries of the timed stream from position
        ``start``; the stream wraps around the pool."""
        pool = self.data.queries
        return pool[(start + np.arange(count)) % len(pool)]


def records(data_vectors, buckets, rows) -> list[VectorRecord]:
    return [
        VectorRecord(
            asset_id(int(r)), data_vectors[i], {"bucket": int(buckets[i])}
        )
        for i, r in enumerate(rows)
    ]


def build_base(ctx: Ctx, name: str, shards: int | None = None) -> Base:
    """Generate, populate, build the index, tune nprobe.

    ``nprobe`` is the smallest value whose mean recall@K over the
    tuning queries reaches TARGET_RECALL against brute force.
    """
    scale = ctx.scale
    data = make_dataset(
        ctx.seed, scale.vectors, DIM, scale.tuning, scale.queries
    )
    path = ctx.workdir / name
    config = base_config()
    if shards is None:
        path.mkdir(parents=True)
        db = MicroNN.open(path / "micronn.db", config)
    else:
        db = ShardedMicroNN.open(path, config, shards=shards)
    start = time.perf_counter()
    for lo in range(0, scale.vectors, POPULATE_CHUNK):
        rows = np.arange(lo, min(lo + POPULATE_CHUNK, scale.vectors))
        db.upsert_batch(
            records(data.vectors[rows], data.buckets[rows], rows)
        )
    populate_s = time.perf_counter() - start
    report = db.build_index()
    truth = topk_rows(data.vectors, data.tuning, K)

    def tune_recall(nprobe: int) -> float:
        return mean_recall(
            [db.search(q, k=K, nprobe=nprobe) for q in data.tuning], truth
        )

    return Base(
        data=data,
        db=db,
        path=path,
        config=config,
        nprobe=smallest_reaching(tune_recall, TARGET_RECALL),
        populate_s=populate_s,
        build_s=report.duration_s,
        kmeans_iterations=report.iterations,
    )


def smallest_reaching(measure, target: float) -> int:
    """Smallest n >= 1 with ``measure(n) >= target``, for a measure
    that does not decrease in n: doubling, then bisection."""
    low, high = 0, 1
    while measure(high) < target:
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if measure(mid) >= target:
            high = mid
        else:
            low = mid
    return high


def warm_up(base: Base, everything: bool) -> None:
    """Untimed warm-up with the tuning queries; ``everything`` first
    loads every partition through one exhaustive-probe search, so the
    window is all hits."""
    if everything:
        base.db.search(base.data.tuning[0], k=K, nprobe=10**6)
    for query in base.data.tuning:
        base.search(query)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------


def median_iqr(values) -> tuple[float, float]:
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def run_rounds(ctx: Ctx, one_round) -> list[dict[str, float]]:
    """Repeat ``one_round(index)`` until ``ctx.seconds`` have passed,
    and at least MIN_ROUNDS times. A round is a fixed operation count,
    so the first MIN_ROUNDS see the same inputs and history whatever
    the speed of the machine."""
    rounds = []
    deadline = time.perf_counter() + ctx.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(one_round(len(rounds)))
    return rounds


@dataclass
class Timed:
    """One round of sequential calls: latencies, wall time, results."""

    latency_s: np.ndarray
    wall_s: float
    results: list


def timed_calls(call, items) -> Timed:
    """Call ``call(item)`` for each item, one at a time. A call that
    raises leaves ``None`` in ``results``."""
    latency = np.empty(len(items))
    results = []
    clock = time.perf_counter
    start = clock()
    for i, item in enumerate(items):
        t0 = clock()
        try:
            result = call(item)
        except Exception:  # counted as a failed operation
            result = None
        latency[i] = clock() - t0
        results.append(result)
    return Timed(latency, clock() - start, results)


def check_result(result) -> str | None:
    """Why a search counts as failed, or ``None``. Fewer than K
    neighbours is a failure only when the scan met more candidates
    than it returned: a probe set too small to hold K rows shows in
    recall, which counts every missing neighbour as a miss."""
    if result is None:
        return "raised"
    stats = result.stats
    if stats.degraded:
        return "degraded"
    found = stats.vectors_scanned - stats.rows_filtered
    if len(result.neighbors) < min(K, found):
        return "short_result"
    return None


class Floor:
    """The NumPy floor: one ``einsum`` pass of dot products plus
    ``argpartition`` top-K over a contiguous float32 matrix of as many
    rows as a search scans. Not ``M @ q``: a BLAS GEMV this small runs
    on two threads and lands in one of two modes a tenth apart,
    depending on where its worker thread was scheduled."""

    def __init__(self, data: Dataset, rows: float) -> None:
        rows = int(min(max(rows, K + 1), len(data.vectors)))
        self.matrix = data.vectors[:rows].copy()
        self.queries = data.queries[:FLOOR_REPS]

    def p50_ms(self) -> float:
        latency = np.empty(len(self.queries))
        clock = time.perf_counter
        for i, query in enumerate(self.queries):
            t0 = clock()
            dist = np.einsum("ij,j->i", self.matrix, query)
            np.argpartition(dist, K - 1)[:K]
            latency[i] = clock() - t0
        return float(np.median(latency)) * 1e3


def latency_round(timed: Timed, floor: Floor, per_call: int = 1) -> dict:
    """The per-round end-to-end timings of a latency workload."""
    latency_ms = timed.latency_s * (1e3 / per_call)
    p50 = float(np.percentile(latency_ms, 50))
    return {
        "search_p50_ms": p50,
        "search_p95_ms": float(np.percentile(latency_ms, 95)),
        "search_qps": len(latency_ms) * per_call / timed.wall_s,
        "search_p50_over_floor": p50 / floor.p50_ms(),
    }


def disk_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# Correctness probes
# ----------------------------------------------------------------------


def mean_recall(results, truth: list[np.ndarray]) -> float:
    """Mean recall of ``results`` (``None`` where a search raised)
    against the brute-force rows of the same queries."""
    return float(
        np.mean(
            [
                recall(result.asset_ids, rows)
                for result, rows in zip(results, truth)
                if result is not None
            ]
        )
    )


def probe_exact(ctx: Ctx, base: Base, search) -> None:
    """``search(query)`` must return the exact top-K of brute force."""
    queries = base.data.queries[-EXACT_QUERIES:]
    truth = topk_rows(base.data.vectors, queries, K)
    for query, rows in zip(queries, truth):
        why = exact_mismatch(
            search(query).neighbors, query, base.data.vectors, rows
        )
        ctx.tally.record(None if why is None else f"exact: {why}")
