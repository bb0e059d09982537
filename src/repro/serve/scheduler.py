"""Concurrent query scheduler: shared I/O, admission control, futures.

This is the serving engine behind ``MicroNN.search_async`` and
:class:`repro.serve.Session`. The single-query pipeline
(:mod:`repro.query.pipeline`) overlaps one query's reads with its own
kernels; the scheduler generalizes that producer/consumer into a
**shared I/O stage** multiplexed across every in-flight query — and,
like that pipeline, pays a thread hand-off only for work that blocks:

- **Inline** — a query's probe set is split at launch by the
  pipeline's own residency rule (``has_cold_partition``). Partitions the
  cache holds are loaded (a hit, no scratch lease) and scored on the
  launching thread, in centroid-distance order, by the same
  ``_ScanTask.score_entry`` the shared stage calls; a fully warm query
  finalizes there too — one hand-off per query, not two per partition.
  (A quantized query's finalize reranks through blocking point reads,
  so it alone is handed to the compute pool: on a 10 ms seek the lane
  would serve 87 QPS, 1/seek, where the pool serves 330+.)
- **Shared** — cache-missing partitions are registered with the I/O
  stage *before* the inline scoring starts, so their reads overlap it,
  and keep everything below: coalescing, prioritization, the
  load-ahead cap, scratch back-pressure. Whichever thread resolves a
  query's last partition finalizes it.
- **One scan lane** — plain scans under the executor's fan-out gate
  (``nprobe x target_cluster_size x dim < _PARALLEL_SCAN_ELEMENTS``:
  interpreter-bound, a pool round-trip would dominate) launch back to
  back on a single ``micronn-serve-lane`` thread, because two GIL-bound
  scans on two threads are slower than the same two in a row. Call
  plans, tasks with a ``setup`` step, larger scans and the scoring of
  loaded payloads stay on the compute pool.
- **Parked I/O threads** — the I/O loop waits on its own condition
  (same lock as the one ``drain()``/``close()`` wait on), notified only
  when a load job is pushed, a load-ahead slot frees or the scheduler
  stops: a warm server never wakes them.

What each step bought — 20k x 128, ``nprobe`` 8, warm cache, 2 vCPUs,
closed loop of 400 ``search_async`` from one thread, served p50 in ms
/ QPS, ids identical in every row:

    in flight                               1          2          8
    every partition: I/O thread + pool      2.4/370    3.8/420    14.7/320
    + cached partitions scored at launch               2.36/680
    + I/O threads on their own condition               2.0/840
    + launches on one scan lane (all three) 0.68/1260  1.3/1400   6.1/1220
    ThreadPoolExecutor(1).submit(db.search) 0.57/1600  1.26/1400  5.5/1400
    the same with 8 pool threads            0.70/1300  1.8/900    7.9/850

The stage itself:

- **Admission control** — at most ``max_inflight_queries`` queries run
  at once; further submissions queue FIFO (their wait is surfaced as
  ``QueryStats.queue_wait_ms``). Admission additionally defers while
  the scratch-buffer pool's pinned bytes exceed its budget, so a burst
  of cold queries cannot commit unbounded decode memory — unless
  nothing is in flight at all, in which case one query is always
  admitted (liveness).
- **Cross-query I/O coalescing** — each admitted query registers
  interest in its probe set; a partition wanted by several queries is
  read and decoded **once** and scored for every interested query (the
  multi-query optimization of §3.4, applied to the cache-cold case).
  Loads are prioritized by centroid distance across *all* queries, so
  the most promising partitions of every query are scored first.
- **Fair attribution** — a shared load's bytes and I/O time are split
  across its consumers; ``io_shared_hits`` counts how many of a
  query's partitions were served by a shared read.

Results are **bit-identical** to serial ``search()``: the scheduler
reuses the executor's selection, its score step
(:func:`~repro.query.executor.score_partition`: ``distances_to_one``
per query — never a cross-query GEMM, whose accumulation order could
differ) and its finish (:meth:`QueryExecutor.finish_scan`: rerank and
the one cut, over the query's :class:`ScanState` slices). Only the I/O
schedule changes. One carve-out: with ``adaptive_nprobe_margin``
set, pruning decisions depend on the order partitions happen to be
scored in — true of every concurrent path, the single-query pipeline
included — so adaptive runs are recall-equivalent within the margin
rather than bit-identical; the contract holds exactly when the margin
is unset (the default).

Error isolation: a failed load fails exactly the queries waiting on
it; a failed scoring or finalize step fails exactly that query. The
shared stage itself keeps running either way.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro.core.config import DELTA_PARTITION_ID, MicroNNConfig
from repro.core.errors import DatabaseClosedError
from repro.core.types import PlanKind, QueryStats, SearchResult
from repro.obs.metrics import WAIT_MS_BUCKETS
from repro.query.distance import make_code_scorer
from repro.query.executor import (
    _PARALLEL_SCAN_ELEMENTS,
    QueryExecutor,
    RowFilter,
    ScanState,
    adaptive_skip,
    score_partition,
)
from repro.query.heap import surfaced_neighbors
from repro.query.pipeline import has_cold_partition
from repro.storage.engine import _ROW_OVERHEAD_BYTES, StorageEngine

#: Load-job lifecycle: queued (joinable), loading (joinable), done
#: (no longer in the registry — later interest starts a fresh job).
_PENDING, _RUNNING, _DONE = 0, 1, 2


class _LoadJob:
    """One shared partition read plus the queries waiting on it."""

    __slots__ = ("pid", "use_codes", "state", "waiters", "priority")

    def __init__(self, pid: int, use_codes: bool, priority: float) -> None:
        self.pid = pid
        self.use_codes = use_codes
        self.state = _PENDING
        #: ``(task, centroid_distance)`` per interested query.
        self.waiters: list[tuple["_ScanTask", float]] = []
        self.priority = priority

    @property
    def key(self) -> tuple[int, bool]:
        return (self.pid, self.use_codes)


class _ScanTask:
    """Per-query state of one scheduled ANN / post-filter search."""

    __slots__ = (
        "query", "k", "nprobe", "row_filter", "plan", "stats_extra",
        "setup_fn", "future", "quantizer", "scorer", "state", "pending",
        "num_selected", "lock", "failed", "finished", "skipped",
        "shared_hits", "cache_hits", "cache_misses",
        "bytes_read", "io_s", "compute_s", "submit_t", "admit_t",
        "quarantined",
    )

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        row_filter: RowFilter | None,
        plan: PlanKind,
        stats_extra: dict | None,
        setup_fn: Callable | None = None,
    ) -> None:
        self.query = query
        self.k = k
        self.nprobe = nprobe
        self.row_filter = row_filter
        self.plan = plan
        self.stats_extra = stats_extra
        self.setup_fn = setup_fn
        self.future: Future = Future()
        self.quantizer = None
        self.scorer = None
        self.state: ScanState | None = None
        self.pending: set[int] = set()
        self.num_selected = 0
        self.lock = threading.Lock()
        self.failed = False
        self.finished = False
        self.skipped = 0
        self.shared_hits = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.quarantined = 0
        self.bytes_read = 0
        self.io_s = 0.0
        self.compute_s = 0.0
        self.submit_t = time.perf_counter()
        self.admit_t = self.submit_t

    def prepare(
        self,
        partitions: list[tuple[int, float]],
        quantizer,
        config: MicroNNConfig,
    ) -> None:
        """Set up the scan state + pending set once the probe set is
        known.

        The code scorer is per-query state by construction: under PQ
        it closes over THIS query's ADC lookup table, so a partition
        read coalesced across N queries is decoded once and scored N
        times, each consumer against its own table.
        """
        self.quantizer = quantizer
        self.num_selected = len(partitions)
        self.pending = {pid for pid, _ in partitions}
        if quantizer is not None:
            self.scorer = make_code_scorer(
                self.query, quantizer, config.metric
            )
        self.state = ScanState(
            self.k,
            max(self.k, config.rerank_factor * self.k),
            config.adaptive_nprobe_margin is not None,
        )

    def score_entry(
        self,
        entry,
        is_codes: bool,
        centroid_dist: float,
        metric: str,
        margin: float | None,
    ) -> None:
        """Score one loaded partition into this query's state.

        Exactly the serial scan's per-partition numerics: the
        executor's :func:`score_partition` for this query alone, its
        slice added under the task's lock.
        """
        with self.lock:
            if self.finished or self.failed:
                return
            if margin is not None and adaptive_skip(
                centroid_dist, self.state.kth(), margin
            ):
                self.skipped += 1
                return
        if not len(entry):
            return
        scored = score_partition(
            entry, is_codes, self.row_filter, self.query, self.scorer, metric
        )
        with self.lock:
            if not (self.finished or self.failed):
                self.state.add(entry, is_codes, scored)

    def partition_done(self, pid: int) -> bool:
        """Mark one probe-set partition resolved; True when last."""
        with self.lock:
            if self.finished:
                return False
            self.pending.discard(pid)
            if self.pending:
                return False
            self.finished = True
            return True

class QueryScheduler:
    """The concurrent serving engine over one storage engine."""

    def __init__(
        self,
        engine: StorageEngine,
        executor: QueryExecutor,
        config: MicroNNConfig,
    ) -> None:
        self._engine = engine
        self._executor = executor
        self._config = config
        # One lock, two conditions: ``_cv`` is what drain()/close()
        # wait on (every ``_active`` shrink notifies it), ``_io_cv``
        # is where idle I/O threads park — notified only when a load
        # job is pushed, a load-ahead slot frees or the scheduler
        # stops, so a warm server never wakes them.
        lock = threading.RLock()
        self._cv = threading.Condition(lock)
        self._io_cv = threading.Condition(lock)
        self._closed = False
        self._stop = False
        self._seq = 0
        self._waiting: deque = deque()
        self._active: set = set()
        self._jobs: dict[tuple[int, bool], _LoadJob] = {}
        self._io_heap: list[tuple[float, int, _LoadJob]] = []
        #: Lifetime counters (Session.stats / benches read these).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        metrics = engine.metrics
        self._m_submitted = metrics.counter(
            "micronn_serve_submitted_total",
            "Queries submitted to the serving scheduler.",
        )
        self._m_resolved = metrics.counter(
            "micronn_serve_resolved_total",
            "Scheduled queries resolved, by outcome.",
            labels=("outcome",),
        )
        self._m_queue_wait = metrics.histogram(
            "micronn_serve_queue_wait_ms",
            "Milliseconds queries waited for admission.",
            buckets=WAIT_MS_BUCKETS,
        )
        self._m_coalesced = metrics.counter(
            "micronn_serve_coalesced_loads_total",
            "Physical partition loads shared by 2+ concurrent queries.",
        )
        io_threads = config.resolved_serve_io_threads
        # Load-ahead bound: the scheduler's generalization of the
        # single-query pipeline's `depth`. At most this many decoded
        # payloads may sit loaded-but-unscored at once; io threads
        # stall past it, so a slow compute stage back-pressures reads
        # instead of letting scratch leases pile up unboundedly.
        self._load_ahead_cap = (
            max(1, config.pipeline_depth)
            + config.device.worker_threads
            + io_threads
        )
        self._outstanding = 0
        self._compute_pool = ThreadPoolExecutor(
            max_workers=config.device.worker_threads,
            thread_name_prefix="micronn-serve",
        )
        # The scan lane: launches of small plain scans (see _pump) run
        # back to back on this one thread.
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="micronn-serve-lane"
        )
        self._io_threads = [
            threading.Thread(
                target=self._io_loop,
                name=f"micronn-serve-io-{i}",
                daemon=True,
            )
            for i in range(io_threads)
        ]
        for thread in self._io_threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission + admission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        row_filter: RowFilter | None = None,
        plan: PlanKind = PlanKind.ANN,
        stats_extra: dict | None = None,
        setup: Callable | None = None,
    ) -> Future:
        """Schedule one ANN / post-filter query; returns its future.

        Validation happens synchronously (bad vectors raise here, like
        the serial path); everything else — plan setup, selection,
        loads, kernels, rerank — runs on the serving stages' threads,
        never the submitter's (an asyncio loop can submit without
        stalling).

        ``setup``, when given, runs on the compute pool at admission
        and returns either ``("call", fn, extra)`` — the query resolves
        to one serial call (e.g. the optimizer picked pre-filtering) —
        or ``("scan", row_filter, extra)`` to proceed through the
        shared scan stage. This keeps plan resolution off the caller's
        thread and inside admission control; the filter itself is
        evaluated where partitions are scored (its SQL fallback's one
        statement included, on first use).

        Caller contract (``MicroNN.search_async`` is the sole caller):
        ``query`` is already canonicalized via ``executor.as_query``
        and ``k`` validated — one owner for the input rules, no
        re-validation here.
        """
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        task = _ScanTask(
            query, k, nprobe, row_filter, plan, stats_extra,
            setup_fn=setup,
        )
        self._enqueue(task)
        return task.future

    def submit_call(
        self,
        fn: Callable[[], SearchResult],
        stats_extra: dict | None = None,
    ) -> Future:
        """Schedule a query that runs as one serial call (exact KNN,
        pre-filter plans — no partition scan to share), still under the
        same admission control as scanned queries."""
        task = _CallTask(fn)
        task.stats_extra = stats_extra
        self._enqueue(task)
        return task.future

    def _enqueue(self, task) -> None:
        with self._cv:
            if self._closed:
                raise DatabaseClosedError("scheduler is closed")
            self._submitted += 1
            self._waiting.append(task)
        self._m_submitted.inc()
        self._pump()

    def _pump(self) -> None:
        """Admit queued queries while slots + memory headroom allow."""
        while True:
            with self._cv:
                if not self._waiting:
                    return
                if len(self._active) >= self._config.max_inflight_queries:
                    return
                # Memory-aware back-pressure: while in-flight scans
                # keep the scratch pool pinned past its budget, hold
                # new admissions — but never starve an idle scheduler.
                if self._active and not self._engine.scratch.has_headroom():
                    return
                task = self._waiting.popleft()
                self._active.add(task)
            if not task.future.set_running_or_notify_cancel():
                # Cancelled while queued: this is an _active shrink
                # like any other, so drain()/close() waiters must be
                # woken or they sleep forever on an empty scheduler.
                with self._cv:
                    self._active.discard(task)
                    self._cv.notify_all()
                continue
            task.admit_t = time.perf_counter()
            self._m_queue_wait.observe(
                (task.admit_t - task.submit_t) * 1e3
            )
            # Launch off the submitting thread (which may be an asyncio
            # event loop): plan setup, predicate evaluation and
            # centroid selection are real storage work. A plain scan
            # under the executor's fan-out gate is interpreter-bound —
            # two of them on two threads only trade the GIL — so those
            # run back to back on the one scan lane; call plans, tasks
            # with a setup step and larger scans keep the compute pool.
            # Measured on 2 vCPUs only (module docstring), and no bench
            # row sits on the large side of the gate: NumPy kernels
            # release the GIL, so re-measure the gate and the lane's
            # width on a wider machine before trusting either there.
            config = self._config
            small_scan = (
                isinstance(task, _ScanTask)
                and task.setup_fn is None
                and task.nprobe * config.target_cluster_size * config.dim
                < _PARALLEL_SCAN_ELEMENTS
            )
            pool = self._lane if small_scan else self._compute_pool
            pool.submit(self._launch_guarded, task)

    def _launch_guarded(self, task) -> None:
        try:
            self._launch(task)
        except BaseException as exc:
            self._fail_task(task, exc)

    def _launch(self, task) -> None:
        if isinstance(task, _CallTask):
            self._execute_call(task, task.fn, task.stats_extra)
            return
        if task.setup_fn is not None:
            kind, payload, extra = task.setup_fn()
            if kind == "call":
                self._execute_call(task, payload, extra)
                return
            task.row_filter = payload
            if extra:
                task.stats_extra = extra
        # Selection reads the centroid table; register with the purge
        # guard like every other storage-touching serving step. (The
        # setup() call above is deliberately outside: a pre-filter
        # plan's fn takes its own scan_session, and the guard is not
        # reentrant.)
        with self._engine.scan_session():
            partitions = self._executor.select_partitions(
                task.query, task.nprobe
            )
        quantizer = self._executor.scan_quantizer()
        task.prepare(partitions, quantizer, self._config)
        use_codes = quantizer is not None
        cold: list[tuple[int, float]] = []
        warm: list[tuple[int, float]] = []
        for pid, cdist in partitions:
            missing = has_cold_partition(self._engine, (pid,), use_codes)
            (cold if missing else warm).append((pid, cdist))
        # Misses go to the shared stage first, so their reads overlap
        # the inline scoring of the hits below.
        if cold:
            self._register_loads(task, cold, use_codes)
        if warm and self._score_cached(task, warm, use_codes):
            if use_codes:
                # A quantized finalize reranks through blocking point
                # reads: on the one lane they would run one query at
                # a time, so that step is handed to the pool.
                self._compute_pool.submit(self._finalize_task, task)
            else:
                self._finalize_task(task)

    def _register_loads(
        self, task: _ScanTask, probes, use_codes: bool
    ) -> None:
        """Register ``task``'s interest in its cache-missing probes
        with the shared I/O stage (joining loads already queued or in
        flight) and wake one I/O thread per job pushed."""
        pushed = 0
        with self._io_cv:
            for pid, cdist in probes:
                key = (pid, use_codes)
                job = self._jobs.get(key)
                fresh = job is None
                if fresh:
                    job = self._jobs[key] = _LoadJob(pid, use_codes, cdist)
                job.waiters.append((task, cdist))
                if fresh or (
                    cdist < job.priority and job.state == _PENDING
                ):
                    # For a queued job this is a lazy decrease-key: a
                    # duplicate entry is pushed and the stale one is
                    # skipped by the state check when popped.
                    job.priority = cdist
                    self._seq += 1
                    heapq.heappush(
                        self._io_heap, (cdist, self._seq, job)
                    )
                    pushed += 1
            self._io_cv.notify(pushed)

    def _score_cached(
        self, task: _ScanTask, probes, use_codes: bool
    ) -> bool:
        """Load (a cache hit, no scratch lease) and score ``task``'s
        cache-resident probes on the launching thread, in
        centroid-distance order, with the scoring function the shared
        stage uses. True when this resolved the query's last partition
        and the caller must finalize it.

        A probe evicted since the residency check is simply read here,
        as the serial scan would, and still attributed as the hit that
        routed it. The adaptive admission check runs before the load,
        like the serial ordered scan's.
        """
        engine = self._engine
        metric = self._config.metric
        margin = self._config.adaptive_nprobe_margin
        last = False
        with engine.scan_session():
            for pid, cdist in probes:
                if margin is not None:
                    with task.lock:
                        skip = not task.finished and adaptive_skip(
                            cdist, task.state.kth(), margin
                        )
                        task.skipped += skip
                    if skip:
                        engine.workload.record_skip(pid)
                        last = task.partition_done(pid)
                        continue
                start = time.perf_counter()
                entry, is_codes = engine.load_scan_entry(
                    pid, quantized=use_codes
                )
                loaded = time.perf_counter()
                task.score_entry(entry, is_codes, cdist, metric, None)
                with task.lock:
                    task.cache_hits += 1
                    task.io_s += loaded - start
                    task.compute_s += time.perf_counter() - loaded
                    task.quarantined += self._is_quarantined(pid, entry)
                last = task.partition_done(pid)
        return last

    def _is_quarantined(self, pid: int, entry) -> bool:
        """A quarantined partition loads as empty: the query consulted
        a partition that could not be served, so it is degraded."""
        return (
            len(entry) == 0
            and pid != DELTA_PARTITION_ID
            and self._engine.is_quarantined(pid)
        )

    # ------------------------------------------------------------------
    # Shared I/O stage
    # ------------------------------------------------------------------

    def _io_loop(self) -> None:
        while True:
            with self._io_cv:
                while not self._stop and (
                    not self._io_heap
                    or self._outstanding >= self._load_ahead_cap
                ):
                    self._io_cv.wait()
                if self._stop and not self._io_heap:
                    return
                if self._outstanding >= self._load_ahead_cap:
                    continue
                _, _, job = heapq.heappop(self._io_heap)
                if job.state != _PENDING:
                    continue
                job.state = _RUNNING
            self._run_load(job)

    def _release_load_slot(self) -> None:
        with self._io_cv:
            self._outstanding -= 1
            if self._io_heap:
                self._io_cv.notify()

    def _run_load(self, job: _LoadJob) -> None:
        if self._retire_job_without_load(job):
            return
        engine = self._engine
        was_cold = has_cold_partition(engine, (job.pid,), job.use_codes)
        # The load-ahead slot is held from here until the payload has
        # been scored (or the load failed).
        with self._cv:
            self._outstanding += 1
        start = time.perf_counter()
        try:
            with engine.scan_session():
                entry, is_codes = engine.load_scan_entry(
                    job.pid, quantized=job.use_codes, use_scratch=True
                )
        except BaseException as exc:
            self._release_load_slot()
            waiters = self._complete_job(job)
            for task, _ in waiters:
                self._fail_task(task, exc)
            return
        load_s = time.perf_counter() - start
        waiters = self._complete_job(job)
        self._compute_pool.submit(
            self._score_job, job, entry, is_codes, waiters, was_cold,
            load_s,
        )

    def _retire_job_without_load(self, job: _LoadJob) -> bool:
        """Skip the read when no live waiter still needs it.

        Two reasons a popped job may be dead I/O: every waiter already
        finished (e.g. the sole interested query failed on an earlier
        partition), or — with ``adaptive_nprobe_margin`` set, mirroring
        the pipeline's producer-side ``admit`` check — every live
        waiter's current k-th candidate already beats the partition's
        centroid distance by the margin. Decided under the registry
        lock so a new waiter cannot join between the verdict and the
        job's retirement; if any waiter still needs the partition, it
        is loaded for everyone and the per-waiter check at scoring time
        settles the rest.
        """
        margin = self._config.adaptive_nprobe_margin
        with self._cv:
            for task, cdist in job.waiters:
                # Under the task lock: a compute thread may be adding a
                # partition to the bound being read.
                with task.lock:
                    if task.finished:
                        continue
                    if margin is None or not adaptive_skip(
                        cdist, task.state.kth(), margin
                    ):
                        return False
            job.state = _DONE
            self._jobs.pop(job.key, None)
            waiters = list(job.waiters)
        self._engine.workload.record_skip(job.pid)
        for task, _ in waiters:
            with task.lock:
                if not task.finished:
                    task.skipped += 1
            if task.partition_done(job.pid):
                # Finalize (SQ8 rerank I/O + the cut) belongs on the
                # compute pool — this path runs on a shared io thread,
                # which must get back to other queries' loads.
                self._compute_pool.submit(self._finalize_task, task)
        return True

    def _complete_job(self, job: _LoadJob) -> list[tuple]:
        """DONE transition: freeze the waiter list, leave the registry.

        Interest arriving after this point starts a fresh job — the
        payload may be a scratch lease that is released as soon as the
        frozen waiters have been scored, so it must never gain new
        consumers.
        """
        with self._cv:
            job.state = _DONE
            self._jobs.pop(job.key, None)
            return list(job.waiters)

    # ------------------------------------------------------------------
    # Compute stage
    # ------------------------------------------------------------------

    def _score_job(
        self, job, entry, is_codes, waiters, was_cold, load_s
    ) -> None:
        """One decode, N scoring consumers (then finalize finished
        queries). Runs on the compute pool."""
        metric = self._config.metric
        margin = self._config.adaptive_nprobe_margin
        # Attribute the physical read among waiters alive at snapshot
        # time — a query that failed earlier must not swallow a byte
        # share. Attribution within the snapshot is then
        # unconditional: a task that fails *after* the snapshot still
        # absorbs its share (its stats are never surfaced, and
        # re-splitting would drop the leader's remainder and cache
        # miss on the floor), so summed shares always equal the
        # physical read. A warm load (LRU hit) records NO bytes —
        # exactly as the engine's accountant treats cache hits, so
        # serving and serial stats stay comparable.
        live = []
        for task, cdist in waiters:
            with task.lock:
                if not task.finished:
                    live.append((task, cdist))
        sharers = max(len(live), 1)
        if sharers > 1:
            self._m_coalesced.inc()
        quarantined = self._is_quarantined(job.pid, entry)
        if was_cold:
            # The backend reports the layout's true stored size (the
            # packed layout has no per-row overhead); fall back to the
            # row-layout estimate for entries built without one (the
            # in-memory delta codes).
            if entry.stored_bytes is not None:
                total_bytes = int(entry.stored_bytes)
            else:
                total_bytes = (
                    int(entry.nbytes) + _ROW_OVERHEAD_BYTES * len(entry)
                )
        else:
            total_bytes = 0
        share = total_bytes // sharers
        try:
            with self._engine.scan_session():
                for i, (task, cdist) in enumerate(live):
                    with task.lock:
                        task.io_s += load_s / sharers
                        if quarantined:
                            task.quarantined += 1
                        if sharers > 1:
                            task.shared_hits += 1
                        # The leader's read was the physical one; it
                        # alone carries the hit/miss so per-query
                        # misses sum to the engine's physical misses.
                        if i == 0:
                            task.bytes_read += (
                                total_bytes - share * (sharers - 1)
                            )
                            if was_cold:
                                task.cache_misses += 1
                            else:
                                task.cache_hits += 1
                        else:
                            task.bytes_read += share
                        if task.finished:
                            continue
                    start = time.perf_counter()
                    try:
                        task.score_entry(
                            entry, is_codes, cdist, metric, margin
                        )
                    except BaseException as exc:
                        self._fail_task(task, exc)
                        continue
                    with task.lock:
                        task.compute_s += time.perf_counter() - start
        finally:
            if entry.lease is not None:
                entry.lease.release()
                # Returning a lease may restore scratch headroom;
                # re-pump so a memory-deferred query is admitted now,
                # not when some whole query eventually retires.
                self._pump()
            self._release_load_slot()
        for task, _ in waiters:
            if task.partition_done(job.pid):
                self._finalize_task(task)

    def _finalize_task(self, task: _ScanTask) -> None:
        try:
            result = self._build_result(task)
        except BaseException as exc:
            self._resolve(task, exc=exc)
            return
        self._resolve(task, result=result)

    def _build_result(self, task: _ScanTask) -> SearchResult:
        executor = self._executor
        state = task.state
        # The rerank point-fetch is storage work: under the purge guard.
        with self._engine.scan_session() if state.approx else nullcontext():
            merged, reranked = executor.finish_scan(state, task.query)
        # That fetch is this query's alone; charge it with the same
        # formula the engine's accountant uses.
        task.bytes_read += reranked * (
            4 * self._config.dim + _ROW_OVERHEAD_BYTES
        )
        neighbors = surfaced_neighbors(merged, self._config.metric)
        now = time.perf_counter()
        stats = QueryStats(
            plan=task.plan,
            nprobe=task.nprobe,
            partitions_scanned=task.num_selected - task.skipped,
            vectors_scanned=state.scanned,
            distance_computations=state.computed + reranked,
            rows_filtered=state.filtered,
            cache_hits=task.cache_hits,
            cache_misses=task.cache_misses,
            bytes_read=task.bytes_read,
            latency_s=now - task.submit_t,
            scan_mode=(
                task.quantizer.kind
                if task.quantizer is not None
                else "float32"
            ),
            candidates_reranked=reranked,
            io_time_ms=task.io_s * 1e3,
            compute_time_ms=task.compute_s * 1e3,
            partitions_skipped=task.skipped,
            io_shared_hits=task.shared_hits,
            queue_wait_ms=(task.admit_t - task.submit_t) * 1e3,
            partitions_quarantined=task.quarantined,
            degraded=task.quarantined > 0,
        )
        if task.stats_extra:
            stats = dataclasses.replace(stats, **task.stats_extra)
        # The scheduler's scan path bypasses the executor's entry
        # points, so it funnels through the same per-query recording —
        # serial and served queries land in one metric family, and the
        # quality funnel (workload sketch + shadow recall audit) sees
        # scheduled queries exactly like serial ones.
        executor.record_query_stats(stats)
        executor.observe_completed_query(
            task.query, task.k, stats, neighbors
        )
        return SearchResult(neighbors=neighbors, stats=stats)

    def _execute_call(self, task, fn, extra: dict | None) -> None:
        """Run a call-plan query inline (already on the compute pool).

        ``latency_s`` is rebased to submit→now so call-plan and
        scan-plan queries measure end-to-end on the same clock (the
        inner serial call's latency excludes the admission wait).
        """
        result = fn()
        stats = dataclasses.replace(
            result.stats,
            latency_s=time.perf_counter() - task.submit_t,
            queue_wait_ms=(task.admit_t - task.submit_t) * 1e3,
            **(extra or {}),
        )
        self._resolve(
            task,
            result=SearchResult(neighbors=result.neighbors, stats=stats),
        )

    # ------------------------------------------------------------------
    # Completion + lifecycle
    # ------------------------------------------------------------------

    def _fail_task(self, task, exc: BaseException) -> None:
        """Fail exactly one query without poisoning the shared stage."""
        with task.lock:
            if task.failed:
                return
            task.failed = True
            already_finished = task.finished
            task.finished = True
        if not already_finished:
            self._m_resolved.inc(outcome="failed")
        if not task.future.done():
            task.future.set_exception(exc)
        if not already_finished:
            self._retire(task, failed=True)

    def _resolve(self, task, result=None, exc=None) -> None:
        with task.lock:
            task.finished = True
            if exc is not None:
                task.failed = True
        # Counted before the future resolves: a caller back from
        # result() must find its query in the metrics.
        self._m_resolved.inc(
            outcome="failed" if exc is not None else "completed"
        )
        if exc is not None:
            if not task.future.done():
                task.future.set_exception(exc)
            self._retire(task, failed=True)
            return
        if not task.future.done():
            task.future.set_result(result)
        self._retire(task, failed=False)

    def _retire(self, task, failed: bool) -> None:
        with self._cv:
            self._active.discard(task)
            if failed:
                self._failed += 1
            else:
                self._completed += 1
            self._cv.notify_all()
        self._pump()

    @property
    def inflight(self) -> int:
        with self._cv:
            return len(self._active)

    @property
    def queued(self) -> int:
        with self._cv:
            return len(self._waiting)

    def counters(self) -> tuple[int, int, int]:
        """(submitted, completed, failed) lifetime counters."""
        with self._cv:
            return self._submitted, self._completed, self._failed

    def drain(self) -> None:
        """Block until every admitted query has resolved."""
        with self._cv:
            while self._active or self._waiting:
                self._cv.wait()

    def close(self) -> None:
        """Deterministic shutdown: reject new queries, cancel the
        admission queue, complete in-flight ones, join every thread.

        Idempotent; after it returns no ``micronn-serve*`` thread of
        this scheduler is alive.
        """
        with self._cv:
            self._closed = True
            cancelled = list(self._waiting)
            self._waiting.clear()
        for task in cancelled:
            task.future.cancel()
        with self._cv:
            while self._active:
                self._cv.wait()
            self._stop = True
            self._io_cv.notify_all()
        # Join unconditionally (Thread.join is idempotent): a second
        # concurrent close() must not return while the first is still
        # reaping micronn-serve-io-* threads.
        for thread in self._io_threads:
            thread.join()
        self._lane.shutdown(wait=True)
        self._compute_pool.shutdown(wait=True)


class _CallTask:
    """A query executed as one serial call under admission control."""

    __slots__ = (
        "fn", "future", "lock", "failed", "finished", "submit_t",
        "admit_t", "stats_extra",
    )

    def __init__(self, fn: Callable[[], SearchResult]) -> None:
        self.fn = fn
        self.future: Future = Future()
        self.lock = threading.Lock()
        self.failed = False
        self.finished = False
        self.submit_t = time.perf_counter()
        self.admit_t = self.submit_t
        self.stats_extra: dict | None = None
