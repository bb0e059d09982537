"""The seven workloads. README.md says why each exists.

Every loop is closed: one generator thread and one request in flight,
except ``serve_closed`` (``nproc`` in flight from one thread). A round
is a fixed operation count; a timing is the median of its per-round
values, a count is read over the first MIN_ROUNDS rounds, whose inputs
and history do not depend on the machine's speed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

import numpy as np
from repro import Lt, MicroNN, PlanKind

from benchmarks.e2e import layers
from benchmarks.e2e.data import BUCKETS, asset_id, recall, row_of, topk_rows
from benchmarks.e2e.harness import (
    K,
    MIN_ROUNDS,
    RECALL_QUERIES,
    SHARDS,
    TARGET_RECALL,
    Base,
    Ctx,
    Floor,
    Timed,
    build_base,
    check_result,
    constrained_profile,
    disk_bytes,
    latency_round,
    mean_recall,
    probe_exact,
    records,
    run_rounds,
    timed_calls,
    warm_up,
)

MIB = 1024 * 1024
#: The tuning reached 0.90 on its own 100 queries; the timed queries are
#: another draw, whose mean recall has a standard error near 0.01 and
#: may read a little under it. The gate fails a run three of those below.
RECALL_GATE = TARGET_RECALL - 0.03
BATCH_SIZE = 128
#: hybrid_filter: one query in four admits 1% of the rows (the
#: optimizer pre-filters), the others 30% (it post-filters). Uneven, so
#: that the median and the 95th percentile each sit inside one mode.
SELECTIVE, BROAD = 1, 30
CHURN_NEW, CHURN_OVERWRITE, CHURN_DELETE = 80, 20, 80
CHURN_SEARCHES = 10  # per cycle
CHURN_MAINTAIN_EVERY = 12  # cycles: 1 200 delta rows, over the threshold
CHURN_NOISE = 0.05
CHURN_RECALL_QUERIES = 500


@dataclass
class Window:
    """What a timed window measured."""

    #: Per-round values of the end-to-end timings.
    rounds: list[dict[str, float]]
    #: End-to-end metrics that are one value per window.
    values: dict[str, float]
    #: Per-layer counters collected in the window's bookkeeping.
    layer: dict[str, float]


class SearchLog:
    """Untimed bookkeeping of a window's searches."""

    def __init__(self, ctx: Ctx, base: Base) -> None:
        self.ctx = ctx
        self.base = base
        self.stats: list = []  # QueryStats of the first MIN_ROUNDS rounds
        self.first: list = []  # results of those rounds, for recall
        self.latency_s: list[np.ndarray] = []
        self.values: dict[str, float] = {}
        self.io_start = base.db.io()
        self.io_fixed = self.io_start  # after the first MIN_ROUNDS rounds

    def take(
        self,
        index: int,
        timed: Timed,
        results=None,
        stats=None,
        live=None,
    ) -> None:
        """Book one round. ``results`` default to the round's own and
        ``stats`` to theirs (a batch round passes its per-query results
        and per-batch stats), ``live`` to ``len(db)``."""
        results = timed.results if results is None else results
        for result in results:
            self.ctx.tally.record(check_result(result))
        if index < MIN_ROUNDS:
            if stats is None:
                stats = [r.stats for r in results if r is not None]
            self.stats.extend(stats)
            if len(self.first) < RECALL_QUERIES:
                self.first.extend(results)
        self.latency_s.append(timed.latency_s)
        if index == MIN_ROUNDS - 1:
            db = self.base.db
            self.io_fixed = db.io()
            live = len(db) if live is None else live
            self.values["query_mem_peak_mb"] = db.memory().peak_bytes / MIB
            self.values["disk_bytes_per_vector"] = (
                disk_bytes(self.base.path) / live
            )

    def finish_recall(self) -> None:
        """Recall of the first timed results against brute force, and
        the gate every unfiltered ANN workload must pass."""
        results = self.first[:RECALL_QUERIES]
        queries = self.base.timed_queries(0, len(results))
        truth = topk_rows(self.base.data.vectors, queries, K)
        self.values["recall_at_100"] = mean_recall(results, truth)
        gate_recall(self.ctx, self.values["recall_at_100"])

    def counters(self, per_call: int = 1) -> dict[str, float]:
        """Per-query counters; ``per_call`` queries share each stats
        object (the size of a batch)."""
        stats = self.stats
        queries = len(stats) * per_call

        def total(name: str) -> float:
            return float(sum(getattr(s, name) for s in stats))

        hits = total("cache_hits")
        loads = hits + total("cache_misses")
        scanned = total("partitions_scanned")
        reads = self.io_fixed.read_requests - self.io_start.read_requests
        pooled_ms = np.concatenate(self.latency_s) * (1e3 / per_call)
        return {
            "query.vectors_scanned_per_query": total("vectors_scanned")
            / queries,
            "query.partitions_scanned_per_query": scanned / queries,
            "query.io_time_ms": total("io_time_ms") / queries,
            "query.compute_time_ms": total("compute_time_ms") / queries,
            "query.rows_filtered_per_query": total("rows_filtered")
            / queries,
            "storage.cache_hit_ratio": hits / loads if loads else 0.0,
            "storage.bytes_read_per_query": total("bytes_read") / queries,
            "storage.read_requests_per_query": reads / queries,
            "serve.queue_wait_ms_p50": float(
                np.median([s.queue_wait_ms for s in stats])
            ),
            "serve.io_shared_ratio": total("io_shared_hits")
            / max(1.0, scanned),
            "core.search_p99_ms": float(np.percentile(pooled_ms, 99)),
        }


def gate_recall(ctx: Ctx, value: float) -> None:
    ctx.tally.record(
        None if value >= RECALL_GATE else f"recall {value:.3f} under gate"
    )


def scanned_rows(base: Base, search=None) -> float:
    """Mean rows a search scans, from a few tuning queries."""
    search = search or base.search
    return float(
        np.mean(
            [search(q).stats.vectors_scanned for q in base.data.tuning[:20]]
        )
    )


class Workload:
    """A single-database workload on the default configuration."""

    name = ""
    shards: int | None = None

    def prepare(self, ctx: Ctx) -> Base:
        """Everything up to the first timed operation (``setup_s``)."""
        base = build_base(ctx, self.name, shards=self.shards)
        self.warm(base)
        return base

    def warm(self, base: Base) -> None:
        warm_up(base, everything=True)

    def measure(self, ctx: Ctx, base: Base) -> Window:
        raise NotImplementedError

    def layers(self, ctx: Ctx, base: Base, spans, entry, missing) -> dict:
        """The traced run. Leaves ``base.db`` closed."""
        out = layers.index_shape(base)
        half = len(base.data.queries) // 2
        if "storage.decode" not in missing:
            out.update(layers.decode_cost(base, entry))
        if not any(m.startswith(("index", "query")) for m in missing):
            out.update(layers.replay_single(ctx, base, spans, entry, half))
        out.update(
            layers.trace_overhead(ctx, base, half + ctx.scale.replay_queries)
        )
        out.update(layers.telemetry_overhead(ctx, base, self.warm))
        return out


class WarmAnn(Workload):
    """Sequential unfiltered searches."""

    name = "warm_ann"
    #: Share of ``round_searches`` in one round.
    round_divisor = 1

    def exact(self, base: Base, query: np.ndarray):
        return base.db.search(query, k=K, exact=True)

    def measure(self, ctx: Ctx, base: Base) -> Window:
        n = ctx.scale.round_searches // self.round_divisor
        log = SearchLog(ctx, base)
        floor = Floor(base.data, scanned_rows(base))

        def one_round(index: int) -> dict[str, float]:
            timed = timed_calls(
                base.search, base.timed_queries(index * n, n)
            )
            log.take(index, timed)
            return latency_round(timed, floor)

        rounds = run_rounds(ctx, one_round)
        log.finish_recall()
        probe_exact(ctx, base, lambda q: self.exact(base, q))
        return Window(rounds, log.values, log.counters())


class ConstrainedAnn(WarmAnn):
    name = "constrained_ann"

    def prepare(self, ctx: Ctx) -> Base:
        base = build_base(ctx, self.name)
        base.db.close()
        config = dataclasses.replace(
            base.config, device=constrained_profile(ctx.scale.vectors)
        )
        base = dataclasses.replace(
            base,
            config=config,
            db=MicroNN.open(base.path / "micronn.db", config),
        )
        self.warm(base)
        return base

    def warm(self, base: Base) -> None:
        # The cache cannot hold every partition: the warm-up queries
        # alone bring it to its steady LRU state.
        warm_up(base, everything=False)


class ShardedAnn(WarmAnn):
    name = "sharded_ann"
    shards = SHARDS
    round_divisor = 2  # a sharded search costs seven unsharded ones

    def exact(self, base: Base, query: np.ndarray):
        # Sharded must equal unsharded at exhaustive probes, and
        # unsharded exhaustive search equals brute force.
        return base.db.search(query, k=K, nprobe=10**6)

    def layers(self, ctx: Ctx, base: Base, spans, entry, missing) -> dict:
        out = layers.index_shape(base)
        if "shard.merge" not in missing:
            half = len(base.data.queries) // 2
            out.update(layers.replay_sharded(ctx, base, spans, entry, half))
        base.db.close()
        return out


class HybridFilter(Workload):
    name = "hybrid_filter"

    def measure(self, ctx: Ctx, base: Base) -> Window:
        # Filtered searches cost ten times an unfiltered one: a shorter
        # round keeps five of them inside the window.
        n = ctx.scale.round_searches * 2 // 5
        db, data = base.db, base.data
        # Probe enough partitions for a post-filtered scan to meet as
        # many qualifying rows as an unfiltered scan meets rows: at
        # nprobe* it often finds fewer than K and recall drops to 0.8.
        nprobe = math.ceil(base.nprobe * BUCKETS / BROAD)
        log = SearchLog(ctx, base)
        qualifying = {
            t: np.flatnonzero(data.buckets < t) for t in (SELECTIVE, BROAD)
        }
        thresholds = [SELECTIVE if i % 4 == 0 else BROAD for i in range(n)]

        def search(item):
            query, threshold = item
            return db.search(
                query, k=K, nprobe=nprobe, filters=Lt("bucket", threshold)
            )

        floor = Floor(
            data, scanned_rows(base, lambda q: search((q, BROAD)))
        )
        by_plan: dict[PlanKind, list[float]] = {}

        def one_round(index: int) -> dict[str, float]:
            queries = base.timed_queries(index * n, n)
            timed = timed_calls(search, list(zip(queries, thresholds)))
            log.take(index, timed)
            if index < MIN_ROUNDS:
                for result, took in zip(timed.results, timed.latency_s):
                    if result is not None:
                        by_plan.setdefault(result.stats.plan, []).append(
                            took
                        )
            return latency_round(timed, floor)

        rounds = run_rounds(ctx, one_round)
        first = log.first[:RECALL_QUERIES]
        queries = base.timed_queries(0, len(first))
        recalls = []
        for t in (SELECTIVE, BROAD):
            at = [i for i in range(len(first)) if thresholds[i % n] == t]
            truth = topk_rows(data.vectors, queries[at], K, qualifying[t])
            allowed = set(qualifying[t].tolist())
            for i, rows in zip(at, truth):
                if first[i] is None:
                    continue
                ids = first[i].asset_ids
                recalls.append(recall(ids, rows))
                only = all(row_of(a) in allowed for a in ids)
                ctx.tally.record(
                    None if only else "filtered result has unqualified id"
                )
        log.values["recall_at_100"] = float(np.mean(recalls))
        layer = log.counters()
        pre = by_plan.get(PlanKind.PRE_FILTER, [])
        post = by_plan.get(PlanKind.POST_FILTER, [])
        # An empty plan reads 0: the optimizer never chose it.
        layer["query.prefilter_p50_ms"] = float(np.median(pre or [0])) * 1e3
        layer["query.postfilter_p50_ms"] = float(np.median(post or [0])) * 1e3
        layer["query.plan_prefilter_share"] = len(pre) / (len(pre) + len(post))
        return Window(rounds, log.values, layer)


class BatchMqo(Workload):
    name = "batch_mqo"

    def measure(self, ctx: Ctx, base: Base) -> Window:
        db, nprobe = base.db, base.nprobe
        batches = max(1, ctx.scale.round_searches // 40)
        per_round = BATCH_SIZE * batches
        log = SearchLog(ctx, base)
        floor = Floor(base.data, scanned_rows(base))
        requested = scanned = 0

        def one_round(index: int) -> dict[str, float]:
            nonlocal requested, scanned
            queries = base.timed_queries(index * per_round, per_round)
            timed = timed_calls(
                lambda batch: db.search_batch(batch, k=K, nprobe=nprobe),
                np.split(queries, batches),
            )
            results, stats = [], []
            for batch in timed.results:
                if batch is None:
                    results.extend([None] * BATCH_SIZE)
                    continue
                results.extend(batch.results)
                stats.append(batch.stats)
                if index < MIN_ROUNDS:
                    requested += batch.partitions_requested
                    scanned += batch.partitions_scanned
            log.take(index, timed, results, stats)
            # A query's latency is its batch's wall time over the
            # batch size.
            return latency_round(timed, floor, per_call=BATCH_SIZE)

        rounds = run_rounds(ctx, one_round)
        log.finish_recall()
        layer = log.counters(per_call=BATCH_SIZE)
        layer["query.batch_ms_per_query"] = float(
            np.mean(np.concatenate(log.latency_s)) * 1e3 / BATCH_SIZE
        )
        layer["query.batch_scan_sharing"] = requested / max(1, scanned)
        return Window(rounds, log.values, layer)


class ServeClosed(Workload):
    name = "serve_closed"

    def measure(self, ctx: Ctx, base: Base) -> Window:
        n = ctx.scale.round_searches
        inflight = os.cpu_count() or 1
        log = SearchLog(ctx, base)
        floor = Floor(base.data, scanned_rows(base))

        def one_round(index: int) -> dict[str, float]:
            timed = closed_loop(
                base, base.timed_queries(index * n, n), inflight
            )
            log.take(index, timed)
            return latency_round(timed, floor)

        rounds = run_rounds(ctx, one_round)
        log.finish_recall()
        layer = log.counters()
        service_ms = 1e3 / float(
            np.median([r["search_qps"] for r in rounds])
        )
        layer["serve.service_ms_per_query"] = service_ms
        # Over the p50 of the same searches made one at a time on the
        # same warm database.
        layer["serve.overhead_ratio"] = service_ms / layers.p50_ms(
            base.search, base.timed_queries(0, n)
        )
        return Window(rounds, log.values, layer)


def closed_loop(base: Base, queries: np.ndarray, inflight: int) -> Timed:
    """``search_async`` with ``inflight`` requests outstanding, one
    submitting thread that refills as soon as a request completes.
    Latency runs from submission to the moment the result is set."""
    db, nprobe = base.db, base.nprobe
    clock = time.perf_counter
    n = len(queries)
    submitted = np.zeros(n)
    done = np.zeros(n)
    futures = []
    pending = set()
    start = clock()
    while len(futures) < n or pending:
        while len(futures) < n and len(pending) < inflight:
            i = len(futures)
            submitted[i] = clock()
            future = db.search_async(queries[i], k=K, nprobe=nprobe)
            future.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, clock())
            )
            futures.append(future)
            pending.add(future)
        _, pending = wait(pending, return_when=FIRST_COMPLETED)
    wall = clock() - start
    results = [
        f.result() if f.exception() is None else None for f in futures
    ]
    return Timed(done - submitted, wall, results)


class LiveModel:
    """The reference copy of a collection under churn."""

    def __init__(self, base: Base, rng: np.random.Generator) -> None:
        self.rng = rng
        self.vectors = base.data.vectors.copy()
        self.buckets = base.data.buckets.copy()
        self.size = len(self.vectors)  # rows ever created
        self.live = list(range(self.size))
        self.alive = [True] * self.size

    def perturbed(self, count: int) -> np.ndarray:
        """Fresh vectors near existing ones, so they stay within the
        distribution the index was built for."""
        parents = self.rng.integers(0, self.size, count)
        noise = self.rng.normal(
            0.0, CHURN_NOISE, (count, self.vectors.shape[1])
        )
        return self.vectors[parents] + noise.astype(np.float32)

    def add(self, count: int) -> np.ndarray:
        block = self.perturbed(count)
        if self.size + count > len(self.vectors):
            self.vectors = np.concatenate(
                [self.vectors, np.empty_like(self.vectors)]
            )
            self.buckets = np.concatenate(
                [self.buckets, np.empty_like(self.buckets)]
            )
        rows = np.arange(self.size, self.size + count)
        self.vectors[rows] = block
        self.buckets[rows] = self.rng.integers(0, BUCKETS, count)
        self.size += count
        self.live.extend(rows.tolist())
        self.alive.extend([True] * count)
        return rows

    def overwrite(self, count: int) -> np.ndarray:
        picks = self.rng.choice(len(self.live), count, replace=False)
        rows = np.array([self.live[i] for i in picks])
        self.vectors[rows] = self.perturbed(count)
        return rows

    def remove(self, count: int) -> list[int]:
        rows = []
        for _ in range(count):
            i = int(self.rng.integers(0, len(self.live)))
            self.live[i], self.live[-1] = self.live[-1], self.live[i]
            row = self.live.pop()
            self.alive[row] = False
            rows.append(row)
        return rows


class Churn(Workload):
    name = "churn"

    def measure(self, ctx: Ctx, base: Base) -> Window:
        db, tally = base.db, ctx.tally
        cycles = max(3, ctx.scale.round_searches * 3 // 50)
        wal = base.path / "micronn.db-wal"
        model = LiveModel(base, np.random.default_rng(ctx.seed + 1))
        log = SearchLog(ctx, base)
        floor = Floor(base.data, scanned_rows(base))
        clock = time.perf_counter
        # Totals over the first MIN_ROUNDS rounds.
        total = dict.fromkeys(
            (
                "upsert_s",
                "upserted",
                "delete_s",
                "deleted",
                "maintain_s",
                "flushed",
                "flushes",
                "delta_max",
                "wal_peak",
            ),
            0.0,
        )

        def one_round(index: int) -> dict[str, float]:
            fixed = index < MIN_ROUNDS
            busy = 0.0
            latency, results = [], []
            for cycle in range(cycles):
                new_rows = model.add(CHURN_NEW)
                rows = np.concatenate(
                    [new_rows, model.overwrite(CHURN_OVERWRITE)]
                )
                batch = records(
                    model.vectors[rows], model.buckets[rows], rows
                )
                t0 = clock()
                written = db.upsert_batch(batch)
                upsert_s = clock() - t0
                tally.record(
                    None if written == len(batch) else "upsert count"
                )
                doomed = [asset_id(r) for r in model.remove(CHURN_DELETE)]
                t0 = clock()
                deleted = db.delete_batch(doomed)
                delete_s = clock() - t0
                tally.record(
                    None if deleted == len(doomed) else "delete count"
                )
                # The first search of the cycle looks up a vector that
                # was just upserted: it must be its own nearest.
                fresh = next(int(r) for r in new_rows if model.alive[r])
                queries = base.timed_queries(
                    (index * cycles + cycle) * CHURN_SEARCHES,
                    CHURN_SEARCHES,
                )
                queries[0] = model.vectors[fresh]
                timed = timed_calls(base.search, queries)
                busy += upsert_s + delete_s + float(timed.latency_s.sum())
                latency.append(timed.latency_s)
                results.extend(timed.results)
                own = timed.results[0]
                tally.record(
                    None
                    if own is not None
                    and own.asset_ids[:1] == (asset_id(fresh),)
                    else "upserted vector is not its own nearest"
                )
                for result in timed.results:
                    if result is not None and not all(
                        model.alive[row_of(a)] for a in result.asset_ids
                    ):
                        tally.record("deleted id returned")
                if fixed:
                    total["upsert_s"] += upsert_s
                    total["upserted"] += len(batch)
                    total["delete_s"] += delete_s
                    total["deleted"] += len(doomed)
                    total["wal_peak"] = max(
                        total["wal_peak"],
                        wal.stat().st_size if wal.exists() else 0,
                    )
                if (index * cycles + cycle + 1) % CHURN_MAINTAIN_EVERY == 0:
                    delta = db.index_stats().delta_vectors
                    t0 = clock()
                    report = db.maintain()
                    maintain_s = clock() - t0
                    busy += maintain_s
                    tally.record(None)
                    if fixed:
                        total["delta_max"] = max(total["delta_max"], delta)
                        total["maintain_s"] += maintain_s
                        total["flushed"] += report.vectors_flushed
                        total["flushes"] += report.vectors_flushed > 0
            tally.record(
                None if len(db) == len(model.live) else "len(db) != model"
            )
            # The round's wall time is the time spent inside the
            # program: writes and maintenance count against search_qps,
            # the model's bookkeeping does not.
            whole = Timed(np.concatenate(latency), busy, results)
            log.take(index, whole, live=len(model.live))
            if index == MIN_ROUNDS - 1:
                # Recall on the live set five rounds leave behind,
                # un-flushed delta and all; untimed.
                queries = base.data.queries[-CHURN_RECALL_QUERIES:]
                truth = topk_rows(
                    model.vectors[: model.size],
                    queries,
                    K,
                    np.array(model.live),
                )
                log.values["recall_at_100"] = mean_recall(
                    [base.search(q) for q in queries], truth
                )
            return latency_round(whole, floor)

        rounds = run_rounds(ctx, one_round)
        gate_recall(ctx, log.values["recall_at_100"])
        layer = log.counters()
        written = log.io_fixed.rows_written - log.io_start.rows_written
        layer.update(
            {
                "storage.upsert_vps": total["upserted"] / total["upsert_s"],
                "storage.upsert_us_per_vector": total["upsert_s"]
                / total["upserted"]
                * 1e6,
                "storage.delete_us_per_vector": total["delete_s"]
                / total["deleted"]
                * 1e6,
                "storage.rows_written_per_vector": written
                / total["upserted"],
                "storage.wal_bytes_peak": total["wal_peak"],
                "index.maintain_ms_per_kvec": total["maintain_s"]
                * 1e6
                / max(1.0, total["flushed"]),
                "index.maintain_runs": total["flushes"],
                "index.delta_vectors_max": total["delta_max"],
            }
        )
        return Window(rounds, log.values, layer)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        WarmAnn(),
        ConstrainedAnn(),
        HybridFilter(),
        BatchMqo(),
        ServeClosed(),
        Churn(),
        ShardedAnn(),
    )
}
