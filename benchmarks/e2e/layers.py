"""The traced run: per-layer numbers timed from outside the program.

Spans are recorded here, around calls into each layer's public
functions; the program itself is not instrumented. Half the queries go
through ``db.search`` under a root span, the other half are replayed
layer by layer in the executor's order, and the two halves are compared
by their means. A layer entry point that no longer exists makes the
replay unavailable (its metrics read 0 and the layer is listed in
``layers_unavailable``); it never fails the end-to-end run.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

import numpy as np
from repro import MicroNN

from benchmarks.e2e.harness import DIM, K, Base, Ctx

DECODE_BLOBS = 1000
DECODE_REPS = 20

#: (span name, module, attribute) of every entry point the replay calls.
ENTRY_POINTS = (
    ("index.select", "repro.query.executor", "QueryExecutor"),
    ("query.kernel", "repro.query.distance", "distances_to_one"),
    ("query.topk", "repro.query.heap", "push_topk"),
    ("query.topk", "repro.query.heap", "TopKHeap"),
    ("query.merge", "repro.query.heap", "merge_topk"),
    ("query.surface", "repro.query.heap", "surfaced_neighbors"),
    ("shard.merge", "repro.shard.merge", "merge_search_results"),
    ("storage.decode", "repro.storage.codec", "decode_matrix"),
)


def resolve_entry_points() -> tuple[dict, list[str]]:
    """``{attribute: object}`` of what exists, and the layers missing."""
    found, missing = {}, []
    for layer, module, attribute in ENTRY_POINTS:
        try:
            found[attribute] = getattr(
                importlib.import_module(module), attribute
            )
        except (ImportError, AttributeError):
            missing.append(layer)
    return found, sorted(set(missing))


class Spans:
    """In-memory span log, written out as Chrome-trace JSON at exit."""

    def __init__(self) -> None:
        # (name, start_s, end_s, parent index or -1, query id, tag)
        self.rows: list[tuple] = []

    def add(self, name, start, end, parent=-1, query=-1, tag="") -> int:
        self.rows.append((name, start, end, parent, query, tag))
        return len(self.rows) - 1

    def open(self, name: str, query: int) -> int:
        """Reserve a parent span; ``close`` fills in its times."""
        return self.add(name, 0.0, 0.0, -1, query)

    def close(self, index: int, start: float, end: float) -> None:
        name, _, _, parent, query, tag = self.rows[index]
        self.rows[index] = (name, start, end, parent, query, tag)

    def chrome_trace(self) -> dict:
        events = [
            {
                "name": name,
                "cat": "e2e",
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"query": query, "parent": parent, "tag": tag},
            }
            for name, start, end, parent, query, tag in self.rows
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def durations(self, name: str, tag: str | None = None) -> np.ndarray:
        return np.array(
            [
                end - start
                for n, start, end, _, _, t in self.rows
                if n == name and (tag is None or t == tag)
            ]
        )

    def per_query(self, name: str, queries: int) -> float:
        """Mean time per query spent in spans called ``name``, in us."""
        return float(self.durations(name).sum()) / queries * 1e6


def _mean_us(values: np.ndarray) -> float:
    return float(values.mean()) * 1e6 if len(values) else 0.0


def replay_single(
    ctx: Ctx, base: Base, spans: Spans, entry: dict, first_query: int
) -> dict[str, float]:
    """Interleave searched and replayed queries on one database."""
    db = base.db
    engine = db.engine
    metric = base.config.metric
    executor = entry["QueryExecutor"](engine, base.config)
    kernel, push = entry["distances_to_one"], entry["push_topk"]
    heap_type, merge = entry["TopKHeap"], entry["merge_topk"]
    surface = entry["surfaced_neighbors"]
    clock = time.perf_counter
    queries = base.timed_queries(first_query, ctx.scale.replay_queries)
    replayed = vectors = 0
    try:
        for qid, raw in enumerate(queries):
            if qid % 2 == 0:
                t0 = clock()
                base.search(raw)
                spans.add("core.search", t0, clock(), query=qid)
                continue
            root = spans.open("core.replay", qid)
            root_start = clock()
            query = executor.as_query(raw)
            t0 = clock()
            partitions = executor.select_partitions(query, base.nprobe)
            spans.add("index.select", t0, clock(), root, qid)
            entries = []
            for pid, _ in partitions:
                misses = db.io().cache_misses
                t0 = clock()
                loaded = engine.load_partition(pid)
                t1 = clock()
                tag = "cold" if db.io().cache_misses > misses else "hot"
                spans.add("storage.load", t0, t1, root, qid, tag)
                if len(loaded):
                    entries.append(loaded)
            heap = heap_type(K)
            for loaded in entries:
                t0 = clock()
                dist = kernel(query, loaded.matrix, metric)
                t1 = clock()
                push(heap, loaded.asset_ids, dist, K)
                t2 = clock()
                spans.add("query.kernel", t0, t1, root, qid)
                spans.add("query.topk", t1, t2, root, qid)
                vectors += len(loaded)
            t0 = clock()
            merged = merge([heap], K)
            t1 = clock()
            neighbors = surface(merged, metric)
            t2 = clock()
            spans.add("query.merge", t0, t1, root, qid)
            spans.add("query.surface", t1, t2, root, qid)
            spans.close(root, root_start, t2)
            replayed += 1
            same = tuple(n.asset_id for n in neighbors) == tuple(
                base.search(raw).asset_ids
            )
            ctx.tally.record(None if same else "replay ids != search ids")
    finally:
        executor.close()

    wall = _mean_us(spans.durations("core.search"))
    layers = {
        "index.select_us": spans.per_query("index.select", replayed),
        "storage.load_us_per_query": spans.per_query(
            "storage.load", replayed
        ),
        "query.kernel_us_per_query": spans.per_query(
            "query.kernel", replayed
        ),
        "query.topk_us_per_query": spans.per_query("query.topk", replayed),
        "query.merge_us": spans.per_query("query.merge", replayed),
        "query.surface_us": spans.per_query("query.surface", replayed),
    }
    layer_sum = sum(layers.values())
    layers.update(
        {
            "core.search_wall_us": wall,
            "core.residual_us": wall - layer_sum,
            "core.residual_share": (wall - layer_sum) / wall,
            "index.centroids_scanned": float(
                len(engine.load_centroids()[0])
            ),
            "storage.load_hot_us": _mean_us(
                spans.durations("storage.load", "hot")
            ),
            "storage.load_cold_us": _mean_us(
                spans.durations("storage.load", "cold")
            ),
            "query.kernel_ns_per_vector": float(
                spans.durations("query.kernel").sum() / vectors * 1e9
            ),
            "query.topk_ns_per_vector": float(
                spans.durations("query.topk").sum() / vectors * 1e9
            ),
            "bench.replay_overhead_ratio": _mean_us(
                spans.durations("core.replay")
            )
            / wall,
        }
    )
    return layers


def replay_sharded(
    ctx: Ctx, base: Base, spans: Spans, entry: dict, first_query: int
) -> dict[str, float]:
    """Even queries go through the facade; odd ones are scattered to
    the shards one by one and merged by the benchmark."""
    db = base.db
    merge = entry["merge_search_results"]
    clock = time.perf_counter
    queries = base.timed_queries(first_query, ctx.scale.replay_queries)
    slowest, serial = [], []
    for qid, raw in enumerate(queries):
        if qid % 2 == 0:
            t0 = clock()
            base.search(raw)
            spans.add("core.search", t0, clock(), query=qid)
            continue
        root = spans.open("core.replay", qid)
        root_start = clock()
        results, took = [], []
        for i, shard in enumerate(db.shards):
            t0 = clock()
            results.append(shard.search(raw, k=K, nprobe=base.nprobe))
            t1 = clock()
            spans.add("shard.search", t0, t1, root, qid, f"shard{i}")
            took.append(t1 - t0)
        t0 = clock()
        merged = merge(results, K, sum(took))
        t1 = clock()
        spans.add("shard.merge", t0, t1, root, qid)
        spans.close(root, root_start, t1)
        slowest.append(max(took))
        serial.append(sum(took))
        same = merged.asset_ids == base.search(raw).asset_ids
        ctx.tally.record(None if same else "replay ids != search ids")
    walls = spans.durations("core.search")
    wall = _mean_us(walls)
    merge_us = _mean_us(spans.durations("shard.merge"))
    serial_us = _mean_us(np.array(serial))
    return {
        "core.search_wall_us": wall,
        "core.residual_us": wall - serial_us - merge_us,
        "core.residual_share": (wall - serial_us - merge_us) / wall,
        "shard.slowest_shard_us": _mean_us(np.array(slowest)),
        "shard.scatter_serial_us": serial_us,
        "shard.merge_us": merge_us,
        "shard.fanout_overhead_ratio": float(
            np.median(walls) / np.median(slowest)
        ),
        "bench.replay_overhead_ratio": _mean_us(
            spans.durations("core.replay")
        )
        / wall,
    }


def p50_ms(call, queries) -> float:
    clock = time.perf_counter
    latency = np.empty(len(queries))
    for i, query in enumerate(queries):
        t0 = clock()
        call(query)
        latency[i] = clock() - t0
    return float(np.median(latency)) * 1e3


def trace_overhead(
    ctx: Ctx, base: Base, first_query: int
) -> dict[str, float]:
    """``search(trace=True)`` p50 over untraced p50, on alternating
    queries of one stream."""
    db, nprobe = base.db, base.nprobe
    clock = time.perf_counter
    took: tuple[list, list] = ([], [])
    queries = base.timed_queries(first_query, ctx.scale.replay_queries)
    for i, query in enumerate(queries):
        t0 = clock()
        db.search(query, k=K, nprobe=nprobe, trace=i % 2 == 1)
        took[i % 2].append(clock() - t0)
    plain, traced = (float(np.median(t)) for t in took)
    return {"obs.trace_overhead_ratio": traced / plain}


def telemetry_overhead(ctx: Ctx, base: Base, warm_up) -> dict[str, float]:
    """p50 with the default configuration over p50 with
    ``telemetry_enabled=False``, each on a fresh, warmed reopen. Leaves
    ``base.db`` closed."""
    base.db.close()
    queries = base.timed_queries(0, ctx.scale.replay_queries)
    p50 = {}
    for enabled in (False, True):
        config = dataclasses.replace(base.config, telemetry_enabled=enabled)
        with MicroNN.open(base.path / "micronn.db", config) as db:
            reopened = dataclasses.replace(base, db=db, config=config)
            warm_up(reopened)
            p50[enabled] = p50_ms(reopened.search, queries)
    return {"obs.telemetry_overhead_ratio": p50[True] / p50[False]}


def decode_cost(base: Base, entry: dict) -> dict[str, float]:
    """``codec.decode_matrix`` on DECODE_BLOBS row blobs, per 1000."""
    decode = entry["decode_matrix"]
    blobs = [v.tobytes() for v in base.data.vectors[:DECODE_BLOBS]]
    clock = time.perf_counter
    took = []
    for _ in range(DECODE_REPS):
        t0 = clock()
        decode(blobs, DIM)
        took.append(clock() - t0)
    per_kvec = float(np.median(took)) * 1e6 * 1000 / DECODE_BLOBS
    return {"storage.decode_us_per_kvec": per_kvec}


def index_shape(base: Base) -> dict[str, float]:
    """Partition count and the spread of partition sizes."""
    shards = getattr(base.db, "shards", (base.db,))
    sizes = np.array(
        [
            size
            for shard in shards
            for size in shard.engine.partition_sizes().values()
        ],
        dtype=np.float64,
    )
    return {
        "index.partitions": float(len(sizes)),
        "index.partition_size_cv": float(sizes.std() / sizes.mean()),
    }
