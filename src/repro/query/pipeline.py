"""Two-stage partition-scan pipeline: I/O–compute overlap (§3.3).

The serial scan alternates between an I/O-bound phase (read + decode a
partition from SQLite) and a compute-bound phase (mask + distance
kernel), so the cores idle during reads and the disk idles during
kernels. This module overlaps them:

- **I/O stage** — ``io_threads`` producer tasks pull work items in the
  order given (the executors pass partitions sorted by centroid
  distance, so the most promising partitions are loaded — and therefore
  scored — first), call ``load`` and feed a bounded queue of decoded
  partitions. The queue depth caps how many loaded-but-unscored
  partitions (and therefore scratch buffers) are in flight.
- **Compute stage** — ``compute_workers`` consumer tasks drain the
  queue, each scoring into its own private state (the scored slices
  of its partitions); the caller joins the per-worker states and cuts
  them once, exactly as the serial scan cuts its own, so results are
  bit-identical with the pipeline on or off.

The caller's thread acts as one of the consumers. That guarantees
liveness even when the shared worker pool is saturated by concurrent
queries: the queue always has at least one live drain, so producers
can never block forever on a full queue.

Engagement (:func:`pipeline_engages`): the overlap is paid for in queue
hand-offs and, in CPython, a GIL exchange at every SQLite row step
between the loading and the scoring threads, so it only wins when
loads *block* — a cold flash read, the latency model's sleep — and
another thread can run meanwhile. Scans whose probes all hit the cache
never come here, and neither do cache-missing scans while the engine
observes cold loads at page-cache speed: those load and score on the
caller's thread.

Ownership: a loaded item belongs to the I/O stage until queued, then to
whichever consumer dequeues it. Items that are never consumed (a
failing scan aborts the pipeline) are handed to ``discard`` so scratch
leases are returned rather than leaked.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import Empty, Full, Queue
from typing import Callable, Sequence

from repro.core.config import DELTA_PARTITION_ID

#: Queue marker telling one consumer to exit (one is emitted per
#: consumer once every producer has finished).
_SENTINEL = object()


def release_scratch_payload(payload) -> None:
    """Discard callback shared by both executors: return the scratch
    lease of a loaded-but-never-scored payload (a bare entry, or a
    tuple whose first element is the entry)."""
    entry = payload[0] if isinstance(payload, tuple) else payload
    if entry.lease is not None:
        entry.lease.release()


def is_partition_cold(
    cache,
    codes_cache,
    partition_id: int,
    use_codes: bool,
    delta_partition_id: int,
    delta_codes=None,
) -> bool:
    """Whether one partition misses its (float or codes) cache.

    The per-partition coldness rule behind pipeline engagement and the
    serving scheduler's per-query cache attribution: with ``use_codes``
    (a quantized scan), non-delta partitions are read from the codes
    cache and the delta from its lazily-encoded codes slot
    (``delta_codes``, the engine's ``DeltaCodesCache``) falling back
    to the float cache, exactly mirroring the load path — including
    the fallback: a cached *empty* codes entry marks a code-less
    partition (pre-quantization data, mid-build) whose scan falls
    through to the full float32 read, so it only counts as warm if the
    float cache holds it too. Single-query and batch executors must
    agree on all of this or their pipelines silently diverge.
    """
    if use_codes and partition_id != delta_partition_id:
        entry = codes_cache.get(partition_id)
        if entry is None:
            return True
        return len(entry) == 0 and partition_id not in cache
    if (
        use_codes
        and delta_codes is not None
        and delta_codes.get() is not None
    ):
        return False
    return partition_id not in cache


def has_cold_partition(engine, partition_ids, use_codes: bool) -> bool:
    """Whether any selected partition misses its (float or codes) cache."""
    return any(
        is_partition_cold(
            engine.cache,
            engine.codes_cache,
            pid,
            use_codes,
            DELTA_PARTITION_ID,
            delta_codes=engine.delta_codes,
        )
        for pid in partition_ids
    )


#: Seconds per cold partition load (the engine's running estimate) at
#: and above which a cache-missing scan pipelines; below it the scan
#: loads and scores on the caller's thread. Set by measurement, not
#: config — 20k x 128 under the constrained envelope, caches purged
#: before every query (8 probes + delta, ~6 non-empty loads), one seek
#: latency per row, p50 of 120 searches as serial / depth 2 with 1 I/O
#: thread / depth 4 with 2 I/O threads:
#:
#:   0.20 ms per load (no model)   1.5 /  2.7 / 3.4 ms
#:   0.57 ms                       4.1 /  4.9 / 3.6 ms
#:   0.85 ms                       5.6 /  6.4 / 4.4 ms
#:   1.1 ms                        7.1 /  7.4 / 4.5 ms
#:   1.4 ms                        8.6 /  8.9 / 5.3 ms
#:   2.3 ms (seek 2 ms)           14.9 / 15.2 / 8.4 ms
#:
#: One I/O thread (the default) only overlaps a load with a ~30 us
#: kernel: it trails serial by 2-4% from 1 ms up and by 13-70% below.
#: Two overlapped waits win 1.6-1.8x from 1 ms up, still win a little
#: at 0.6 ms and lose 2x at page-cache speed. 1 ms is where engaging
#: costs the default config nothing measurable.
PIPELINE_MIN_LOAD_S = 0.001


def loads_block(engine) -> bool:
    """Whether the engine's cold partition loads block long enough for
    another thread to be worth handing work to. The engine observes
    what its cold loads cost; no observation yet counts as fast. The
    scan pipeline (below) and the sharded facade's single-query
    scatter both engage on this."""
    return (engine.cold_load_seconds or 0.0) >= PIPELINE_MIN_LOAD_S


def pipeline_engages(engine, depth: int, items: int) -> bool:
    """Whether a cache-missing scan of ``items`` partitions pipelines.

    THE engagement rule (see the module docstring for why) — the
    single-query and batch executors and ``explain()`` all ask here.
    ``depth`` 0 means never.
    """
    return depth >= 1 and items > 1 and loads_block(engine)


#: How long blocked queue operations wait before re-checking the abort
#: flag. Purely a shutdown-latency knob; the happy path never waits.
_POLL_S = 0.05


@dataclass(frozen=True)
class PipelineOutcome:
    """Merged result of one pipelined scan."""

    #: One per compute worker, in no particular order.
    states: list
    #: Total seconds spent inside ``load`` across all I/O tasks.
    io_s: float
    #: Total seconds spent inside ``score`` across all compute tasks.
    #: Summed thread time: ``io_s + compute_s`` exceeding the query's
    #: wall latency is the direct signature of overlap.
    compute_s: float
    #: Work items the ``admit`` callback rejected — never loaded, never
    #: scored (adaptive-nprobe early termination).
    skipped: int = 0
    #: High-water mark of the bounded queue: the most loaded-but-not-
    #: yet-scored payloads observed in flight at once. At most
    #: ``depth``; persistently hitting it means compute is the
    #: bottleneck, persistently ~1 means I/O is.
    max_depth: int = 0


def run_scan_pipeline(
    work_items: Sequence,
    load: Callable,
    make_state: Callable,
    score: Callable,
    *,
    io_pool: Callable[[], ThreadPoolExecutor],
    compute_pool: Callable[[], ThreadPoolExecutor],
    io_threads: int,
    compute_workers: int,
    depth: int,
    discard: Callable | None = None,
    admit: Callable | None = None,
) -> PipelineOutcome:
    """Run ``load`` / ``score`` over ``work_items`` as a pipeline.

    ``load(item)`` returns a loaded payload or ``None`` to skip;
    ``make_state()`` builds one private state per compute worker;
    ``score(state, payload)`` scores a payload into a state (and owns
    releasing any scratch lease the payload carries, success or not).
    ``io_pool`` / ``compute_pool`` are factories so pools are only
    materialized when a stage actually fans out.

    ``admit(item)``, when given, is the pipeline's admission check:
    producers consult it immediately before loading, so a work item
    rejected late in the scan (e.g. adaptive nprobe deciding the
    partition can no longer beat the current k-th candidate) skips the
    read *and* the kernel. Rejections are tallied in
    :attr:`PipelineOutcome.skipped`. The callback runs on I/O threads
    concurrently — it must be thread-safe and cheap.

    Raises the first stage exception after the pipeline has fully shut
    down and unconsumed payloads have been ``discard``-ed.
    """
    if io_threads < 1:
        raise ValueError("io_threads must be >= 1")
    if compute_workers < 1:
        raise ValueError("compute_workers must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    queue: Queue = Queue(maxsize=depth)
    abort = threading.Event()
    lock = threading.Lock()
    cursor = 0
    producers_left = io_threads
    io_seconds = [0.0]
    skipped = [0]
    depth_hwm = [0]
    errors: list[BaseException] = []

    def next_item():
        nonlocal cursor
        with lock:
            if cursor >= len(work_items):
                return None, False
            item = work_items[cursor]
            cursor += 1
            return item, True

    def offer(payload) -> bool:
        while not abort.is_set():
            try:
                queue.put(payload, timeout=_POLL_S)
            except Full:
                continue
            if payload is not _SENTINEL:
                occupancy = queue.qsize()  # approximate is fine
                with lock:
                    if occupancy > depth_hwm[0]:
                        depth_hwm[0] = occupancy
            return True
        return False

    def produce() -> None:
        nonlocal producers_left
        spent = 0.0
        try:
            while not abort.is_set():
                item, ok = next_item()
                if not ok:
                    break
                if admit is not None and not admit(item):
                    with lock:
                        skipped[0] += 1
                    continue
                start = time.perf_counter()
                payload = load(item)
                spent += time.perf_counter() - start
                if payload is None:
                    continue
                if not offer(payload):
                    if discard is not None:
                        discard(payload)
                    break
        except BaseException as exc:  # propagate through the main thread
            with lock:
                errors.append(exc)
            abort.set()
        finally:
            with lock:
                producers_left -= 1
                last = producers_left == 0
                io_seconds[0] += spent
            if last:
                # One exit marker per consumer. ``offer`` (not ``put``)
                # so a consumer crash — which sets ``abort`` — can
                # never leave the last producer wedged on a full queue.
                for _ in range(compute_workers):
                    if not offer(_SENTINEL):
                        break

    def consume():
        state = None
        spent = 0.0
        try:
            state = make_state()
            while not abort.is_set():
                try:
                    payload = queue.get(timeout=_POLL_S)
                except Empty:
                    continue
                if payload is _SENTINEL:
                    break
                start = time.perf_counter()
                score(state, payload)
                spent += time.perf_counter() - start
        except BaseException as exc:
            with lock:
                errors.append(exc)
            abort.set()
        return state, spent

    io_futures = [io_pool().submit(produce) for _ in range(io_threads)]
    compute_futures = (
        [compute_pool().submit(consume) for _ in range(compute_workers - 1)]
        if compute_workers > 1
        else []
    )
    results = [consume()]  # the caller's thread is always one consumer
    for future in compute_futures:
        results.append(future.result())
    for future in io_futures:
        future.result()

    # Anything still queued was loaded but never scored (abort path).
    while True:
        try:
            payload = queue.get_nowait()
        except Empty:
            break
        if payload is not _SENTINEL and discard is not None:
            discard(payload)
    if errors:
        raise errors[0]

    return PipelineOutcome(
        # None states can only occur on the (raised-above) error path.
        states=[state for state, _ in results if state is not None],
        io_s=io_seconds[0],
        compute_s=sum(spent for _, spent in results),
        skipped=skipped[0],
        max_depth=depth_hwm[0],
    )
