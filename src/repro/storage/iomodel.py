"""I/O accounting and optional synthetic storage latency.

Two jobs, both about reproducing the paper's disk story on arbitrary
hosts:

1. **Accounting** — count bytes read from storage, cache hits/misses,
   and rows written. Figure 10d reports "number of DB row changes" as
   the I/O (flash-wear) cost of index maintenance; :class:`IOStats`
   is where those counters live.
2. **Latency injection** — the paper's cold-start numbers come from a
   device whose storage is far slower than a server's warm page cache.
   When a :class:`~repro.core.config.IOCostModel` is enabled, uncached
   reads sleep for ``seek + bytes * per_byte``, giving cold/warm and
   Small/Large the published shape without real hardware. Disabled by
   default so tests run at full speed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.config import IOCostModel


@dataclass(frozen=True, slots=True)
class IOSnapshot:
    """Point-in-time view of I/O counters."""

    bytes_read: int
    read_requests: int
    cache_hits: int
    cache_misses: int
    rows_written: int
    simulated_latency_s: float
    #: Partition loads answered by the quarantine list instead of
    #: storage: a checksum mismatch was detected (now or earlier) and
    #: the partition was served as empty, degrading the query.
    partitions_quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total


class IOAccountant:
    """Thread-safe I/O counters with optional latency injection."""

    def __init__(self, model: IOCostModel | None = None) -> None:
        self._model = model or IOCostModel()
        self._lock = threading.Lock()
        self._bytes_read = 0
        self._read_requests = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._rows_written = 0
        self._simulated_latency = 0.0
        self._partitions_quarantined = 0

    @property
    def model(self) -> IOCostModel:
        return self._model

    def record_read(self, nbytes: int, charge_cost: bool = True) -> None:
        """Record a read; charge the cost model unless the bytes came
        from the (simulated) OS page cache.

        The distinction mirrors real devices: the paper's WarmCache
        scenario is fast because SQLite reads hit the OS page cache —
        memory that is *not* charged to the process — while ColdStart
        pays storage latency. ``charge_cost=False`` still counts the
        bytes (they were read through the storage API) but sleeps for
        nothing.
        """
        cost = self._model.cost(nbytes) if charge_cost else 0.0
        with self._lock:
            self._bytes_read += nbytes
            self._read_requests += 1
            self._simulated_latency += cost
        if cost > 0:
            time.sleep(cost)

    def record_cache_hit(self, count: int = 1) -> None:
        with self._lock:
            self._cache_hits += count

    def record_cache_miss(self) -> None:
        with self._lock:
            self._cache_misses += 1

    def record_quarantined(self) -> None:
        """Record one partition load served from the quarantine list."""
        with self._lock:
            self._partitions_quarantined += 1

    def record_rows_written(self, count: int) -> None:
        """Record rows inserted/updated/deleted (flash-wear proxy)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        with self._lock:
            self._rows_written += count

    def snapshot(self) -> IOSnapshot:
        with self._lock:
            return IOSnapshot(
                bytes_read=self._bytes_read,
                read_requests=self._read_requests,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                rows_written=self._rows_written,
                simulated_latency_s=self._simulated_latency,
                partitions_quarantined=self._partitions_quarantined,
            )

    def delta_since(self, before: IOSnapshot) -> IOSnapshot:
        """Counters accumulated since ``before`` was captured."""
        now = self.snapshot()
        return IOSnapshot(
            bytes_read=now.bytes_read - before.bytes_read,
            read_requests=now.read_requests - before.read_requests,
            cache_hits=now.cache_hits - before.cache_hits,
            cache_misses=now.cache_misses - before.cache_misses,
            rows_written=now.rows_written - before.rows_written,
            simulated_latency_s=(
                now.simulated_latency_s - before.simulated_latency_s
            ),
            partitions_quarantined=(
                now.partitions_quarantined - before.partitions_quarantined
            ),
        )

    @property
    def rows_written(self) -> int:
        with self._lock:
            return self._rows_written
