"""The sharded multi-database engine: N MicroNN shards, one facade.

A single MicroNN database caps out at one SQLite writer lock, one
quantizer codebook and one storage file's I/O path. A
:class:`ShardedMicroNN` composes ``N`` complete, independent MicroNN
databases (each with its own file, IVF index, quantizer, caches and
serving scheduler) behind the same public API:

- **Writes route.** A stable hash of the asset id
  (:class:`~repro.shard.router.HashRouter`) picks the owning shard, so
  upserts and deletes touch exactly one shard's writer lock and write
  throughput scales with the shard count.
- **Reads scatter-gather.** Every search fans out to all shards —
  concurrently through each shard's own serving scheduler
  (:mod:`repro.serve`) when the fan-out is wide enough *and* some
  shard's reads are seen to block and to miss the cache (or a
  per-shard timeout needs enforcing), one shard after the other on
  the caller's thread when there is nothing to overlap —
  and the per-shard top-k streams merge into a global top-k through
  the *same* ``(distance, asset_id)`` ordering contract the unsharded
  executor uses (:mod:`repro.shard.merge`).
- **Maintenance fans out.** ``build_index``/``maintain`` run per shard
  (concurrently) and report aggregates; ``rebalance()`` re-routes
  every row into a new shard count, with the manifest rewrite as the
  atomic commit point.

The shard map (count, router scheme, shard filenames, config
fingerprint) persists in the directory's ``MANIFEST.json``
(:mod:`repro.shard.manifest`); reopening validates it so a missing or
renamed shard file, a wrong shard count, or a mismatched config fails
loudly before any query runs.

Approximation semantics: each shard clusters its own rows, so a
sharded IVF probe set is *per shard* — ``nprobe`` partitions on every
shard. Exhaustive settings (``exact=True``, or ``nprobe`` covering all
partitions) return exactly what a single database over the same rows
returns, neighbor for neighbor; at equal ``nprobe`` a sharded scan
probes more partitions in total and recall is at least as high in
practice, at proportionally higher scan cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import re
import shutil
import sqlite3
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.config import MicroNNConfig, ShardConfig
from repro.core.database import MicroNN, _as_record
from repro.core.errors import (
    ConfigError,
    DatabaseClosedError,
    FilterError,
    StorageError,
)
from repro.core.types import (
    BatchSearchResult,
    BuildReport,
    IndexStats,
    MaintenanceAction,
    MaintenanceReport,
    PlanKind,
    SearchResult,
)
from repro.obs import (
    AuditSummary,
    MetricsSnapshot,
    Recommendation,
    build_recommendations,
    combine_audit_summaries,
    merge_snapshots,
)
from repro.query import pipeline
from repro.query.filters import Predicate
from repro.shard.manifest import ShardManifest
from repro.shard.merge import (
    ACTION_SEVERITY,
    ShardedSearchResult,
    aggregate_build_reports,
    aggregate_index_stats,
    aggregate_maintenance_reports,
    merge_batch_results,
    merge_search_results,
)
from repro.shard.router import Router, make_router
from repro.storage.engine import ScrubReport, VectorRecord
from repro.storage.iomodel import IOSnapshot
from repro.storage.memory import MemorySnapshot

logger = logging.getLogger(__name__)

#: Shard failures a scatter treats as "this shard is unavailable" —
#: the query degrades to the surviving shards instead of erroring.
#: Anything else (bad k, closed facade, programming errors) still
#: propagates: degraded serving must never mask caller mistakes.
_DEGRADABLE_SHARD_ERRORS = (
    StorageError,
    sqlite3.Error,
    OSError,
    TimeoutError,
)

#: Filename shape of a fleet member (``shard_filename``); the stale-
#: file sweep only ever touches names of this shape, so user files in
#: the directory are never at risk.
_SHARD_FILE_RE = re.compile(
    r"^shard-\d{4}-of-\d{4}\.db(?:-wal|-shm|\.blob\.\d+)?$"
)


def _sweep_stale_shard_files(
    root: str, listed: tuple[str, ...]
) -> list[str]:
    """Delete crash-leftover shard files the manifest does not list.

    A rebalance that crashed between creating the new fleet's files
    and committing the manifest leaves unlisted ``shard-*.db`` files
    (plus WAL/SHM side files, plus the blobfile backend's
    ``.blob.<gen>`` payload files) behind. They are dead weight — the
    manifest is the single source of truth — so reopening sweeps them,
    logging each removal.
    """
    keep: set[str] = set()
    keep_blob_prefixes: tuple[str, ...] = tuple(
        name + ".blob." for name in listed
    )
    for name in listed:
        keep.update((name, name + "-wal", name + "-shm"))
    removed: list[str] = []
    for entry in sorted(os.listdir(root)):
        if entry in keep or not _SHARD_FILE_RE.match(entry):
            continue
        if entry.startswith(keep_blob_prefixes):
            # Blob generations of a listed shard: the shard's own
            # stale-generation sweep owns their lifecycle (the current
            # generation is recorded in its meta table, not here).
            continue
        with contextlib.suppress(OSError):
            os.remove(os.path.join(root, entry))
            removed.append(entry)
    if removed:
        logger.warning(
            "removed stale shard files not listed in the manifest "
            "(crash-leftover from an interrupted rebalance?): %s",
            ", ".join(removed),
        )
    return removed


class _WriteGate:
    """Shared/exclusive gate protecting the facade's shard map.

    Everything that touches the fleet — writes, maintenance, reads —
    enters *shared* and runs concurrently (each shard's engine
    serializes its own writer internally, so per-shard write scaling
    is preserved; readers never block each other). ``rebalance()``
    alone takes *exclusive*: it closes and deletes the old shard
    files, so every other operation must wait out the swap rather
    than race a fleet that is disappearing under it. Exclusive entry
    blocks new shared entrants first, then drains the in-flight ones
    — a steady stream of queries cannot starve a rebalance.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._shared = 0
        self._exclusive = False

    def acquire_shared(self) -> None:
        with self._cv:
            while self._exclusive:
                self._cv.wait()
            self._shared += 1

    def release_shared(self) -> None:
        with self._cv:
            self._shared -= 1
            self._cv.notify_all()

    @contextlib.contextmanager
    def shared(self):
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextlib.contextmanager
    def exclusive(self):
        with self._cv:
            while self._exclusive:
                self._cv.wait()
            self._exclusive = True
            # New shared entrants now queue behind us; wait for the
            # in-flight ones to drain.
            while self._shared:
                self._cv.wait()
        try:
            yield
        finally:
            with self._cv:
                self._exclusive = False
                self._cv.notify_all()


@dataclasses.dataclass(frozen=True)
class RebalanceReport:
    """Outcome of a shard-count change (:meth:`ShardedMicroNN.rebalance`)."""

    shards_before: int
    shards_after: int
    vectors_moved: int
    #: Whether the new shards were re-indexed after the move (done
    #: whenever the fleet holds any vectors).
    rebuilt: bool
    duration_s: float
    #: Errors raised while tearing down the *old* shards after the
    #: manifest commit. The rebalance itself succeeded (the new fleet
    #: is live and durable); these record cleanup debris — at worst
    #: stale unlisted files — without masking the successful outcome.
    teardown_errors: tuple[str, ...] = ()


class ShardedMicroNN:
    """N per-shard MicroNN databases behind the MicroNN public API."""

    def __init__(
        self,
        path: str | os.PathLike[str] | None,
        config: MicroNNConfig,
        shard_config: ShardConfig | None = None,
        router: Router | None = None,
    ) -> None:
        self._config = config
        self._tempdir: str | None = None
        if path is None:
            self._tempdir = tempfile.mkdtemp(prefix="micronn-shards-")
            path = self._tempdir
        self._path = os.fspath(path)
        requested = shard_config
        router_kind = router.kind if router is not None else (
            (shard_config or ShardConfig()).router
        )

        if ShardManifest.exists(self._path):
            manifest = ShardManifest.load(self._path)
            manifest.validate(
                self._path,
                config,
                requested.num_shards if requested is not None else None,
                router_kind,
            )
            shard_config = dataclasses.replace(
                requested or ShardConfig(),
                num_shards=manifest.num_shards,
                router=manifest.router_kind,
            )
            # Crash hygiene: an interrupted rebalance may have left
            # unlisted shard files; the manifest validated, so they
            # are provably not part of this database.
            swept = _sweep_stale_shard_files(
                self._path, manifest.shard_files
            )
        else:
            swept = []
            shard_config = dataclasses.replace(
                requested or ShardConfig(), router=router_kind
            )
            if router is not None and (
                router.num_shards != shard_config.num_shards
            ):
                raise ConfigError(
                    f"router covers {router.num_shards} shards but "
                    f"config declares {shard_config.num_shards}"
                )
            if os.path.exists(self._path) and not os.path.isdir(
                self._path
            ):
                raise StorageError(
                    f"{self._path} exists and is not a directory — a "
                    "sharded database needs a directory (is this a "
                    "single-database file?)"
                )
            os.makedirs(self._path, exist_ok=True)
            manifest = ShardManifest.create(
                shard_config.num_shards, router_kind, config
            )
            manifest.save(self._path)

        self._shard_config = shard_config
        self._manifest = manifest
        self._router = router or make_router(
            manifest.router_kind, manifest.num_shards
        )
        if self._router.num_shards != manifest.num_shards:
            raise ConfigError(
                f"router covers {self._router.num_shards} shards but "
                f"the manifest records {manifest.num_shards}"
            )
        per_shard = self._per_shard_config(config, manifest.num_shards)
        self._shards: tuple[MicroNN, ...] = _open_fleet(
            self._path, manifest.shard_files, per_shard
        )
        if swept:
            # The sweep ran before any shard existed; shard 0's log is
            # the fleet's designated carrier for facade-level events.
            self._shards[0].engine.events.emit(
                "crash_recovery_sweep",
                files_removed=len(swept),
                files=",".join(swept),
            )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Guards facade-level writes and maintenance against
        # rebalance(): a write routed by the old shard map while rows
        # stream to the new fleet would be copied-from-a-stale-
        # snapshot and then deleted with the old files. Writes run
        # concurrently with each other (shared mode — per-shard
        # engines serialize their own writers); rebalance is
        # exclusive, so everyone else simply waits out the move.
        self._write_gate = _WriteGate()
        # Whether a search() can expect cache-missing probes: true of
        # an opened or purged fleet, afterwards what the last search()
        # saw. Half of the single-query scatter rule.
        self._last_search_missed = True
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | os.PathLike[str] | None = None,
        config: MicroNNConfig | None = None,
        *,
        shards: int | ShardConfig | None = None,
        router: Router | None = None,
        dim: int | None = None,
        **config_kwargs: object,
    ) -> "ShardedMicroNN":
        """Open (creating if needed) a sharded database directory.

        Mirrors :meth:`MicroNN.open`: pass a full config or ``dim`` +
        keywords. ``shards`` is the shard count (or a full
        :class:`ShardConfig`); omit it when reopening to adopt the
        manifest's count. ``path=None`` creates an ephemeral directory
        removed on close.
        """
        if config is None:
            if dim is None:
                raise FilterError(
                    "open() needs either a config or at least dim=..."
                )
            config = MicroNNConfig(
                dim=dim, **config_kwargs  # type: ignore[arg-type]
            )
        elif dim is not None or config_kwargs:
            raise FilterError(
                "pass either a config object or keyword arguments, "
                "not both"
            )
        if isinstance(shards, int):
            shards = ShardConfig(num_shards=shards)
        return cls(path, config, shard_config=shards, router=router)

    def close(self) -> None:
        """Close every shard; the facade is unusable afterwards.

        Deterministic even under failure: every shard's ``close()``
        (which drains that shard's serving scheduler and joins its
        worker pools) is attempted — a raising shard never strands the
        remaining shards' schedulers — and the first exception is
        re-raised once the whole fleet is down.
        """
        if self._closed:
            return
        self._closed = True
        first_exc: BaseException | None = None
        for shard in self._shards:
            try:
                shard.close()
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
        self._shutdown_pool()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
        if first_exc is not None:
            raise first_exc

    def __enter__(self) -> "ShardedMicroNN":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("sharded database is closed")

    @property
    def config(self) -> MicroNNConfig:
        return self._config

    @property
    def path(self) -> str:
        return self._path

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[MicroNN, ...]:
        """The per-shard databases (benchmarks introspect them)."""
        return self._shards

    @property
    def router(self) -> Router:
        return self._router

    @property
    def shard_config(self) -> ShardConfig:
        return self._shard_config

    @staticmethod
    def _per_shard_config(
        config: MicroNNConfig, num_shards: int
    ) -> MicroNNConfig:
        """Derive each shard's config from the facade-level one.

        Admission sharing: the serving layer's shared I/O stage width
        is a per-*database* knob, and a scatter query is in flight on
        every shard at once — left alone, N shards would spin up N
        full-width I/O stages for the same device. The resolved width
        is split across shards with a ceiling (every shard keeps at
        least one I/O thread), bounding the fleet's total at the
        single-database budget plus at most ``num_shards - 1`` rounding
        threads — never N full stages. Per-shard admission
        (``max_inflight_queries``) is left intact: a scatter query
        occupies one slot on every shard, which *is* the shared bound
        — S concurrent scatters saturate every shard's admission
        together.
        """
        if num_shards <= 1:
            return config
        total_io = config.resolved_serve_io_threads
        return dataclasses.replace(
            config,
            serve_io_threads=max(
                1, -(-total_io // num_shards)
            ),
        )

    def _gather_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._check_open()
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, len(self._shards)),
                    thread_name_prefix="micronn-shard-gather",
                )
            return self._pool

    def _shutdown_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _map_shards(self, fn, *args_lists):
        """Run ``fn`` once per shard concurrently; results shard-order.

        Serial fallback when only one shard exists (no threads to pay
        for). Every future is waited on — even when one shard fails —
        before the first exception (in shard order) propagates: the
        caller typically holds the write gate in shared mode, and
        releasing it while sibling shard operations are still running
        would let a rebalance delete files under them.
        """
        if len(self._shards) == 1:
            return [fn(self._shards[0], *(a[0] for a in args_lists))]
        pool = self._gather_pool()
        futures = [
            pool.submit(fn, shard, *(a[i] for a in args_lists))
            for i, shard in enumerate(self._shards)
        ]
        wait_futures(futures)
        return [f.result() for f in futures]

    def _use_schedulers(self, num_queries: int) -> bool:
        """Is the fan-out (shards x concurrent queries) wide enough
        for a concurrent scatter — the gather pool for a batch, the
        shard schedulers for a single query (which asks
        :meth:`_single_query_scatter` for the rest of the rule)? Both
        the concurrent and the serial path return bit-identical
        results (the PR 3 contract; the one carve-out is
        ``adaptive_nprobe_margin``, schedule-dependent on every
        concurrent path).
        """
        return (
            len(self._shards) > 1
            and len(self._shards) * num_queries
            >= self._shard_config.serve_scatter_threshold
        )

    def _single_query_scatter(self) -> tuple[bool, str]:
        """(scheduled?, why) for one query — what :meth:`search` does
        and :meth:`explain` prints.

        Like the scan pipeline, the scheduled scatter buys overlap of
        the shards' reads with thread hand-offs, so it engages only
        when the fan-out is wide enough *and* a read can block now:
        some shard's cold loads are seen to block
        (:func:`repro.query.pipeline.loads_block`) and the last
        ``search()`` missed the cache somewhere (the estimate alone
        never decays: a fleet warmed on slow storage would scatter
        forever) — or a per-shard timeout is set, which only the
        scheduled gather can enforce. Otherwise the shards are
        searched one after the other on the caller's thread.
        """
        cfg = self._shard_config
        if not self._use_schedulers(1):
            return False, (
                f"{len(self._shards)} shard(s) is too narrow a fan-out "
                f"(serve_scatter_threshold {cfg.serve_scatter_threshold})"
            )
        if cfg.shard_timeout_s is not None:
            return True, "per-shard timeout set"
        slowest = max(
            shard.engine.cold_load_seconds or 0.0 for shard in self._shards
        )
        blocking = any(
            pipeline.loads_block(shard.engine) for shard in self._shards
        )
        if blocking and not self._last_search_missed:
            return False, (
                "the last search found every probe cached, so no load "
                "is expected to block"
            )
        if not slowest:
            return blocking, "no cold partition load observed yet"
        return blocking, (
            f"the slowest shard's cold loads take {slowest * 1e3:.2f} ms "
            f"each, {'at least' if blocking else 'under'} the "
            f"{pipeline.PIPELINE_MIN_LOAD_S * 1e3:g} ms that count as "
            "blocking"
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def upsert(
        self,
        asset_id: str,
        vector: np.ndarray,
        attributes: Mapping[str, object] | None = None,
    ) -> None:
        self.upsert_batch(
            [VectorRecord(asset_id, np.asarray(vector), attributes or {})]
        )

    def upsert_batch(
        self, records: Iterable[VectorRecord | tuple]
    ) -> int:
        """Route each record to its owning shard; one write
        transaction per touched shard."""
        self._check_open()
        normalized = [_as_record(r) for r in records]
        # Under the write gate: routing and writing must see one
        # consistent shard map (see rebalance()).
        with self._write_gate.shared():
            by_shard: dict[int, list[VectorRecord]] = {}
            for rec in normalized:
                by_shard.setdefault(
                    self._router.shard_for(rec.asset_id), []
                ).append(rec)
            return sum(
                self._fanout_writes(
                    [
                        (idx, self._shards[idx].upsert_batch, batch)
                        for idx, batch in sorted(by_shard.items())
                    ]
                )
            )

    def delete(self, asset_id: str) -> bool:
        return self.delete_batch([asset_id]) > 0

    def delete_batch(self, asset_ids: Iterable[str]) -> int:
        self._check_open()
        ids = [str(a) for a in asset_ids]
        with self._write_gate.shared():
            by_shard: dict[int, list[str]] = {}
            for asset_id in ids:
                by_shard.setdefault(
                    self._router.shard_for(asset_id), []
                ).append(asset_id)
            return sum(
                self._fanout_writes(
                    [
                        (idx, self._shards[idx].delete_batch, batch)
                        for idx, batch in sorted(by_shard.items())
                    ]
                )
            )

    def _fanout_writes(self, calls) -> list[int]:
        """Run per-shard write calls, concurrently when several shards
        are touched — this is where one bulk caller actually gets the
        N-writer-lock scaling (each shard's engine takes only its own
        lock). A single-shard batch skips the pool. All futures settle
        before the first error (in shard order) propagates, keeping
        the shared write gate honest."""
        if len(calls) <= 1:
            return [fn(batch) for _, fn, batch in calls]
        pool = self._gather_pool()
        futures = [pool.submit(fn, batch) for _, fn, batch in calls]
        wait_futures(futures)
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Reads (point lookups)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._write_gate.shared():
            return sum(len(shard) for shard in self._shards)

    def __contains__(self, asset_id: str) -> bool:
        with self._write_gate.shared():
            return asset_id in self._shard_of(asset_id)

    def get_vector(self, asset_id: str) -> np.ndarray | None:
        with self._write_gate.shared():
            return self._shard_of(asset_id).get_vector(asset_id)

    def get_attributes(self, asset_id: str) -> dict[str, object] | None:
        with self._write_gate.shared():
            return self._shard_of(asset_id).get_attributes(asset_id)

    def _shard_of(self, asset_id: str) -> MicroNN:
        self._check_open()
        return self._shards[self._router.shard_for(asset_id)]

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def build_index(self) -> BuildReport:
        """Build every shard's IVF index (concurrently); aggregate."""
        self._check_open()
        start = time.perf_counter()
        with self._write_gate.shared():
            reports = self._map_shards(
                lambda shard: shard.build_index()
            )
        return aggregate_build_reports(
            reports, time.perf_counter() - start
        )

    def maintain(
        self, force: MaintenanceAction | None = None
    ) -> MaintenanceReport:
        """Fan :meth:`MicroNN.maintain` out to every shard.

        Each shard's monitor makes its own recommendation (shards
        drift independently — hash routing spreads *rows* evenly, but
        flush thresholds trip per shard), unless ``force`` overrides
        them all. The report aggregates: heaviest action taken, summed
        flush/row counters, fleet-wide stats snapshots.
        """
        self._check_open()
        start = time.perf_counter()
        with self._write_gate.shared():
            reports = self._map_shards(
                lambda shard: shard.maintain(force=force)
            )
        return aggregate_maintenance_reports(
            reports, time.perf_counter() - start
        )

    def index_stats(self) -> IndexStats:
        self._check_open()
        with self._write_gate.shared():
            return aggregate_index_stats(
                [shard.index_stats() for shard in self._shards]
            )

    def recommended_action(self) -> MaintenanceAction:
        """The heaviest action any shard's monitor recommends."""
        self._check_open()
        return max(
            (shard.recommended_action() for shard in self._shards),
            key=ACTION_SEVERITY.__getitem__,
        )

    def verify(self) -> dict[str, "ScrubReport"]:
        """Checksum-scrub every shard; reports keyed by shard file."""
        self._check_open()
        with self._write_gate.shared():
            reports = self._map_shards(lambda shard: shard.verify())
        return dict(zip(self._manifest.shard_files, reports))

    def repair(self) -> dict[str, "ScrubReport"]:
        """Scrub and repair every shard; reports keyed by shard file."""
        self._check_open()
        with self._write_gate.exclusive():
            reports = self._map_shards(lambda shard: shard.repair())
        return dict(zip(self._manifest.shard_files, reports))

    # ------------------------------------------------------------------
    # Search (scatter-gather)
    # ------------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
    ) -> ShardedSearchResult:
        """Scatter the query to every shard, gather the global top-k.

        Same parameters as :meth:`MicroNN.search`. Each shard runs the
        full single-database path (its own optimizer decision for
        hybrid queries, its own quantized scan + exact rerank), so
        exhaustive settings return exactly the single-database result
        over the same rows. ``result.stats`` aggregates shard costs
        (``shards_probed`` = fan-out width); ``result.shard_stats``
        keeps the per-shard attribution.

        **Degraded serving.** A shard that is dead (files removed,
        corrupt beyond open), raising storage/OS errors, or over the
        per-shard timeout (``ShardConfig.shard_timeout_s``) is retried
        up to ``shard_retries`` times with exponential backoff, then
        EXCLUDED: the query returns the exact top-k over the surviving
        shards, with the dead shard named in
        ``result.degraded_shards`` and ``result.stats.degraded`` set.
        Only when every shard fails does the first error propagate.
        Caller mistakes (bad ``k``, closed facade) always raise.
        """
        self._check_open()
        start = time.perf_counter()

        def run(shard: MicroNN) -> SearchResult:
            return shard.search(
                query,
                k=k,
                nprobe=nprobe,
                filters=filters,
                exact=exact,
                plan=plan,
            )

        # Shared gate: a concurrent rebalance() must not close the
        # old fleet while this scatter is reading from it.
        def submit(shard: MicroNN) -> Future:
            return shard.search_async(
                query,
                k=k,
                nprobe=nprobe,
                filters=filters,
                exact=exact,
                plan=plan,
            )

        with self._write_gate.shared():
            if self._single_query_scatter()[0]:
                outcomes = self._gather_scheduled(submit, run)
            else:
                outcomes = [
                    self._run_shard_guarded(run, shard)
                    for shard in self._shards
                ]
        result = self._merge_outcomes(outcomes, k, start)
        self._last_search_missed = result.stats.cache_misses > 0
        return result

    def _run_shard_guarded(
        self,
        run: Callable[[MicroNN], SearchResult],
        shard: MicroNN,
        attempts_left: int | None = None,
    ) -> tuple[SearchResult | None, BaseException | None]:
        """One shard's search with bounded, backed-off retries.

        Returns ``(result, None)`` on success, ``(None, error)`` once
        the degradable-error budget is exhausted. Non-degradable
        exceptions propagate immediately.
        """
        cfg = self._shard_config
        attempts = (
            cfg.shard_retries + 1
            if attempts_left is None
            else max(1, attempts_left)
        )
        backoff_s = cfg.shard_retry_backoff_ms / 1000.0
        error: BaseException | None = None
        for attempt in range(attempts):
            try:
                return run(shard), None
            except _DEGRADABLE_SHARD_ERRORS as exc:
                error = exc
                if attempt + 1 < attempts and backoff_s > 0:
                    time.sleep(backoff_s * (2**attempt))
        return None, error

    def _gather_scheduled(
        self,
        submit: Callable[[MicroNN], Future],
        run: Callable[[MicroNN], SearchResult],
    ) -> list[tuple[SearchResult | None, BaseException | None]]:
        """Scatter through shard schedulers with timeout + retry.

        Shards run concurrently, so one deadline is the per-shard
        timeout. A shard whose future fails with a degradable error is
        retried serially (its scheduler already failed the query); a
        shard still running at the deadline is marked degraded without
        retry — waiting again would double the latency budget. Its
        in-flight query is left to its own scheduler, which owns it.
        """
        futures = self._scatter_async_guarded(submit)
        timeout = self._shard_config.shard_timeout_s
        wait_futures([f for f, _ in futures], timeout=timeout)
        outcomes: list[
            tuple[SearchResult | None, BaseException | None]
        ] = []
        for future, shard in futures:
            if not future.done():
                outcomes.append(
                    (None, TimeoutError("per-shard timeout exceeded"))
                )
                continue
            exc = future.exception()
            if exc is None:
                outcomes.append((future.result(), None))
            elif isinstance(exc, _DEGRADABLE_SHARD_ERRORS):
                # One scheduler attempt is spent; retry the remainder
                # of the budget serially against the shard.
                outcomes.append(
                    self._run_shard_guarded(
                        run, shard, self._shard_config.shard_retries
                    )
                    if self._shard_config.shard_retries > 0
                    else (None, exc)
                )
            else:
                raise exc
        return outcomes

    def _scatter_async_guarded(
        self, submit: Callable[[MicroNN], Future]
    ) -> list[tuple[Future, MicroNN]]:
        """Submit to every shard's scheduler; a shard whose *submit*
        already fails degradably gets a pre-failed future instead of
        aborting the scatter."""
        out: list[tuple[Future, MicroNN]] = []
        for shard in self._shards:
            try:
                future = submit(shard)
            except _DEGRADABLE_SHARD_ERRORS as exc:
                failed: Future = Future()
                failed.set_exception(exc)
                future = failed
            out.append((future, shard))
        return out

    def _merge_outcomes(
        self,
        outcomes: list[tuple[SearchResult | None, BaseException | None]],
        k: int,
        start: float,
    ) -> ShardedSearchResult:
        results: list[SearchResult] = []
        degraded: list[str] = []
        first_error: BaseException | None = None
        for (result, error), name in zip(
            outcomes, self._manifest.shard_files
        ):
            if error is None and result is not None:
                results.append(result)
            else:
                degraded.append(name)
                if first_error is None:
                    first_error = error
        if not results:
            raise first_error if first_error is not None else StorageError(
                "every shard failed"
            )
        if degraded:
            logger.warning(
                "degraded scatter-gather: excluded shards %s",
                ", ".join(degraded),
            )
            self._emit_degraded(degraded)
        return merge_search_results(
            results,
            k,
            time.perf_counter() - start,
            degraded_shards=degraded,
        )

    def _emit_degraded(self, degraded: list[str]) -> None:
        """Record a degraded scatter on the first *surviving* shard's
        event log (a dead shard's log may be unreachable)."""
        excluded = set(degraded)
        for shard, name in zip(self._shards, self._manifest.shard_files):
            if name not in excluded:
                shard.engine.events.emit(
                    "degraded_shard", shards=",".join(degraded)
                )
                return

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
    ) -> BatchSearchResult:
        """Scatter the whole batch to every shard's MQO executor.

        Each shard amortizes partition reads across the batch exactly
        as a single database would (§3.4); the scatter adds the
        cross-shard axis — all shards scan concurrently, each on its
        own I/O path — and the gather merges per query. Falls back to
        a serial per-shard loop when ``shards x queries`` is under the
        scatter threshold.
        """
        self._check_open()
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        start = time.perf_counter()
        with self._write_gate.shared():
            if self._use_schedulers(q.shape[0]):
                batches = self._map_shards(
                    lambda shard: shard.search_batch(
                        q, k=k, nprobe=nprobe
                    )
                )
            else:
                batches = [
                    shard.search_batch(q, k=k, nprobe=nprobe)
                    for shard in self._shards
                ]
        return merge_batch_results(
            batches, k, time.perf_counter() - start
        )

    def _scatter_async(
        self, query, k, nprobe, filters, exact, plan
    ) -> list[Future]:
        """Submit one query to every shard's serving scheduler.

        Input validation happens synchronously in the first shard's
        ``search_async`` (all shards share the config, so one shard's
        verdict is the fleet's). If a later submission fails anyway
        (e.g. a racing close), the already-submitted futures are left
        to complete — their shards' schedulers own them — and the
        error propagates to the caller.
        """
        return [
            shard.search_async(
                query,
                k=k,
                nprobe=nprobe,
                filters=filters,
                exact=exact,
                plan=plan,
            )
            for shard in self._shards
        ]

    def search_async(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
    ) -> Future:
        """Scatter asynchronously; the future resolves to the merged
        :class:`ShardedSearchResult`.

        The scatter goes through every shard's own scheduler (shared
        cross-query I/O coalescing and admission per shard); the
        gather runs as a completion callback on whichever shard
        finishes last, so no thread blocks waiting. A failing shard
        fails the merged future with that shard's exception (earliest
        shard in shard order wins when several fail) once all shards
        have settled — error isolation stays per query, exactly as in
        the single-database scheduler. The facade's write gate is
        held (shared) until the merged future resolves, so a
        concurrent ``rebalance()`` waits for every in-flight async
        query before swapping the fleet.
        """
        self._check_open()
        start = time.perf_counter()
        self._write_gate.acquire_shared()
        try:
            futures = self._scatter_async(
                query, k, nprobe, filters, exact, plan
            )
        except BaseException:
            self._write_gate.release_shared()
            raise
        outer: Future = Future()
        remaining = [len(futures)]
        lock = threading.Lock()

        def on_done(_f: Future) -> None:
            with lock:
                remaining[0] -= 1
                if remaining[0] > 0:
                    return
            # Last shard settled: the gate releases HERE — tied to the
            # shard futures, not the outer future, so a caller
            # cancelling the merged future cannot strip rebalance
            # protection from still-running shard queries.
            try:
                try:
                    results: list[SearchResult] = []
                    degraded: list[str] = []
                    first_error: BaseException | None = None
                    for f, name in zip(
                        futures, self._manifest.shard_files
                    ):
                        exc = f.exception()
                        if exc is None:
                            results.append(f.result())
                        elif isinstance(exc, _DEGRADABLE_SHARD_ERRORS):
                            degraded.append(name)
                            if first_error is None:
                                first_error = exc
                        else:
                            raise exc
                    if not results:
                        raise (
                            first_error
                            if first_error is not None
                            else StorageError("every shard failed")
                        )
                    if degraded:
                        logger.warning(
                            "degraded scatter-gather: excluded "
                            "shards %s",
                            ", ".join(degraded),
                        )
                        self._emit_degraded(degraded)
                    merged = merge_search_results(
                        results,
                        k,
                        time.perf_counter() - start,
                        degraded_shards=degraded,
                    )
                except BaseException as exc:
                    if not outer.done():
                        outer.set_exception(exc)
                    return
                if not outer.done():
                    outer.set_result(merged)
            finally:
                self._write_gate.release_shared()

        for f in futures:
            f.add_done_callback(on_done)
        return outer

    async def search_asyncio(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        filters: Predicate | None = None,
        exact: bool = False,
        plan: PlanKind | None = None,
    ) -> SearchResult:
        """Awaitable :meth:`search` for asyncio applications."""
        import asyncio

        return await asyncio.wrap_future(
            self.search_async(
                query,
                k=k,
                nprobe=nprobe,
                filters=filters,
                exact=exact,
                plan=plan,
            )
        )

    def serve_session(self):
        """Open a :class:`repro.serve.Session` over the whole fleet.

        Sessions are facade-agnostic — submission goes through
        ``search_async``, so every submitted query scatter-gathers and
        the session's stats aggregate merged (fleet-level) results.
        """
        from repro.serve.session import Session

        self._check_open()
        return Session(self)

    # ------------------------------------------------------------------
    # Rebalancing (shard-count changes)
    # ------------------------------------------------------------------

    def rebalance(self, num_shards: int) -> RebalanceReport:
        """Move every row into a fleet of ``num_shards`` shards.

        The only way to change a deployment's shard count (open()
        refuses a mismatched ``shards=``): streams all rows out of the
        current shards in bounded batches, routes them through a fresh
        router for the new count, builds the new shards' indexes, then
        commits by atomically rewriting the manifest — the moment the
        new manifest is on disk, the new fleet is the database. Old
        shard files are deleted after the commit; a crash in between
        leaves stale (unlisted, ignored) files, never a half-routed
        fleet.

        Concurrency: the facade's write gate is held exclusively for
        the whole move — every other facade operation (writes,
        maintenance, *and* reads) blocks until the swap instead of
        racing a fleet whose files are being deleted. A rebalance is
        a stop-the-world event for this facade; schedule it off-peak.
        In-flight handles on old shard objects are invalid afterwards.
        Old-shard teardown errors *after* the commit do not raise —
        the rebalance succeeded and the report says so — they are
        surfaced in ``RebalanceReport.teardown_errors``.
        """
        self._check_open()
        # Full ShardConfig validation up front: the same count/cap
        # rules open() enforces must fail HERE, before any copying —
        # an out-of-range count discovered at swap time would strand
        # a committed manifest no open() could ever validate.
        new_shard_config = dataclasses.replace(
            self._shard_config, num_shards=num_shards
        )
        if self._router.kind != "hash":
            raise ConfigError(
                "rebalance() supports the built-in hash router only; "
                "re-shard custom-routed deployments manually"
            )
        start = time.perf_counter()
        if num_shards == len(self._shards):
            return RebalanceReport(
                shards_before=num_shards,
                shards_after=num_shards,
                vectors_moved=0,
                rebuilt=False,
                duration_s=time.perf_counter() - start,
            )
        with self._write_gate.exclusive():
            return self._rebalance_locked(
                num_shards, new_shard_config, start
            )

    def _rebalance_locked(
        self,
        num_shards: int,
        new_shard_config: ShardConfig,
        start: float,
    ) -> RebalanceReport:
        new_router = make_router("hash", num_shards)
        new_manifest = ShardManifest.create(
            num_shards, "hash", self._config
        )
        per_shard = self._per_shard_config(self._config, num_shards)
        for name in new_manifest.shard_files:
            _remove_sqlite_files(os.path.join(self._path, name))
        new_shard_list: list[MicroNN] = []
        try:
            for name in new_manifest.shard_files:
                new_shard_list.append(
                    MicroNN(os.path.join(self._path, name), per_shard)
                )
            new_shards = tuple(new_shard_list)
            moved = self._copy_rows_into(new_shards, new_router)
            rebuilt = moved > 0
            if rebuilt:
                # Transient pool sized for the NEW fleet: the shared
                # gather pool is sized for the old count, which would
                # serialize a grow-path rebuild (1 -> 8 shards would
                # build one index at a time inside the exclusive
                # gate). All builds settle before the first error
                # propagates, so the abort path never closes a shard
                # under its own in-flight build.
                with ThreadPoolExecutor(
                    max_workers=max(1, num_shards),
                    thread_name_prefix="micronn-shard-rebuild",
                ) as build_pool:
                    futures = [
                        build_pool.submit(shard.build_index)
                        for shard in new_shards
                    ]
                    wait_futures(futures)
                    for f in futures:
                        f.result()
        except BaseException:
            # Abort: tear the (possibly partial) new fleet down and
            # leave the manifest — and therefore the live database —
            # untouched. Cleanup failures are swallowed: every new
            # shard must be attempted, and the root-cause copy/build/
            # open error is the one the caller needs to see.
            for shard in new_shard_list:
                with contextlib.suppress(BaseException):
                    shard.close()
                _remove_sqlite_files(shard.path)
            raise

        new_manifest.save(self._path)  # the commit point
        old_shards, old_manifest = self._shards, self._manifest
        self._shards = new_shards
        self._manifest = new_manifest
        self._router = new_router
        self._shard_config = new_shard_config
        self._shutdown_pool()  # resized lazily on next use
        teardown_errors: list[str] = []
        for shard, name in zip(old_shards, old_manifest.shard_files):
            try:
                shard.close()
            except BaseException as exc:
                teardown_errors.append(f"{name}: {exc!r}")
            finally:
                _remove_sqlite_files(os.path.join(self._path, name))
        return RebalanceReport(
            shards_before=len(old_shards),
            shards_after=num_shards,
            vectors_moved=moved,
            rebuilt=rebuilt,
            duration_s=time.perf_counter() - start,
            teardown_errors=tuple(teardown_errors),
        )

    def _copy_rows_into(
        self, new_shards: tuple[MicroNN, ...], new_router: Router
    ) -> int:
        """Stream every row to its new shard in bounded batches."""
        has_attrs = bool(self._config.attributes)
        moved = 0
        for old in self._shards:
            engine = old.engine
            for ids, matrix in engine.iter_vector_batches(
                batch_size=2048
            ):
                attrs_by_id = (
                    engine.get_attributes_many(ids) if has_attrs else {}
                )
                by_shard: dict[int, list[VectorRecord]] = {}
                for i, asset_id in enumerate(ids):
                    by_shard.setdefault(
                        new_router.shard_for(asset_id), []
                    ).append(
                        VectorRecord(
                            asset_id,
                            matrix[i],
                            attrs_by_id.get(asset_id, {}),
                        )
                    )
                for idx, batch in sorted(by_shard.items()):
                    moved += new_shards[idx].upsert_batch(batch)
        return moved

    # ------------------------------------------------------------------
    # Statistics, telemetry, cache scenarios
    # ------------------------------------------------------------------

    def refresh_statistics(self) -> None:
        self._check_open()
        with self._write_gate.shared():
            for shard in self._shards:
                shard.refresh_statistics()

    def purge_caches(self) -> None:
        """Cold-start scenario on every shard."""
        self._check_open()
        with self._write_gate.shared():
            for shard in self._shards:
                shard.purge_caches()
        self._last_search_missed = True

    def warm_cache(
        self, queries: np.ndarray, k: int = 10, nprobe: int | None = None
    ) -> None:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        for row in q:
            self.search(row, k=k, nprobe=nprobe)

    def compact(self) -> int:
        """Compact every shard; returns total bytes reclaimed."""
        self._check_open()
        with self._write_gate.shared():
            return sum(shard.compact() for shard in self._shards)

    def check_integrity(self) -> list[str]:
        """Every shard's integrity problems, prefixed by shard file."""
        self._check_open()
        with self._write_gate.shared():
            problems: list[str] = []
            for shard, name in zip(
                self._shards, self._manifest.shard_files
            ):
                problems.extend(
                    f"{name}: {p}" for p in shard.check_integrity()
                )
            return problems

    def scan_mode(self) -> str:
        """The fleet's scan mode ("mixed" while shards disagree)."""
        self._check_open()
        with self._write_gate.shared():
            modes = {shard.scan_mode() for shard in self._shards}
        return modes.pop() if len(modes) == 1 else "mixed"

    def scan_mode_description(self, k: int = 10) -> str:
        """One-line account of the active scan mode (fleet-uniform
        config, so shard 0 speaks for everyone)."""
        self._check_open()
        return self._shards[0].scan_mode_description(k)

    def memory(self) -> MemorySnapshot:
        """Summed tracked memory across shards."""
        self._check_open()
        with self._write_gate.shared():
            snapshots = [shard.memory() for shard in self._shards]
        by_category: dict[str, int] = {}
        for snap in snapshots:
            for category, nbytes in snap.by_category.items():
                by_category[category] = (
                    by_category.get(category, 0) + nbytes
                )
        return MemorySnapshot(
            current_bytes=sum(s.current_bytes for s in snapshots),
            # Per-shard peaks need not coincide; the sum is the
            # conservative fleet envelope.
            peak_bytes=sum(s.peak_bytes for s in snapshots),
            by_category=by_category,
        )

    def metrics(self) -> MetricsSnapshot:
        """The fleet's merged telemetry snapshot.

        Every sample carries a prepended ``shard="<index>"`` label, so
        per-shard attribution survives the merge (sum over the label
        for fleet totals; the exposition stays valid Prometheus text).
        """
        self._check_open()
        with self._write_gate.shared():
            snapshots = [shard.metrics() for shard in self._shards]
        return merge_snapshots(
            snapshots,
            extra_labels=[
                {"shard": str(i)} for i in range(len(snapshots))
            ],
        )

    def events(
        self, limit: int | None = None, kind: str | None = None
    ) -> tuple:
        """The fleet's newest structured events, merged by timestamp.

        Same contract as :meth:`MicroNN.events`; each shard's ring is
        read and the union is ordered oldest-first before ``limit``
        keeps the newest entries.
        """
        self._check_open()
        with self._write_gate.shared():
            per_shard = self._map_shards(
                lambda shard: shard.events(kind=kind)
            )
        merged = sorted(
            (event for events in per_shard for event in events),
            key=lambda event: event.timestamp,
        )
        if limit is not None:
            merged = merged[-limit:]
        return tuple(merged)

    def audit_summary(self) -> AuditSummary | None:
        """Fleet-wide shadow-audit summary (``None`` if auditing is
        off everywhere)."""
        self._check_open()
        with self._write_gate.shared():
            summaries = [
                s for s in self._map_shards(
                    lambda shard: shard.audit_summary()
                )
                if s is not None
            ]
        if not summaries:
            return None
        return combine_audit_summaries(summaries)

    def advise(self) -> tuple[Recommendation, ...]:
        """Fleet-wide tuning recommendations.

        Per-shard audit summaries fan in shard-labeled (so the
        evidence shows which shard is dragging recall down), stats
        aggregate, and metrics merge; the manifest's config applies to
        every shard, so one recommendation set covers the fleet.
        """
        self._check_open()
        with self._write_gate.shared():
            per_shard = [
                (f"shard{i}", s)
                for i, s in enumerate(
                    self._map_shards(
                        lambda shard: shard.audit_summary()
                    )
                )
                if s is not None
            ]
        summaries = [s for _, s in per_shard]
        audit = (
            combine_audit_summaries(summaries) if summaries else None
        )
        return build_recommendations(
            self._shards[0].config,
            self.index_stats(),
            self.metrics(),
            audit,
            None,
            per_shard_audit=tuple(per_shard),
        )

    def explain(
        self,
        filters: Predicate | None = None,
        nprobe: int | None = None,
        k: int = 10,
    ) -> str:
        """Human-readable account of how a scatter would execute.

        The sharded EXPLAIN analog: the fan-out shape, then one line
        per shard — its scan mode, row count, cumulative bytes read
        and quarantine state — plus, when ``filters`` is given, each
        shard's own optimizer decision (shards estimate selectivity
        from their own statistics, so plans can legitimately differ)
        and how that plan evaluates the filter.
        Nothing is executed.
        """
        self._check_open()
        with self._write_gate.shared():
            num = len(self._shards)
            scheduled, why = self._single_query_scatter()
            lines = [
                (
                    f"sharded scatter-gather plan (k={k}, "
                    f"shards={num}, router={self._router.kind})"
                ),
                (
                    "  scatter:  every query fans out to all "
                    f"{num} shard(s); nprobe applies per shard"
                ),
                (
                    "  gather:   per-shard top-k merged by "
                    "(distance, asset_id); serving via "
                    + (
                        "shard schedulers"
                        if scheduled
                        else "serial per-shard loop"
                    )
                    + f" — {why}"
                ),
            ]
            for shard, name in zip(
                self._shards, self._manifest.shard_files
            ):
                io = shard.io()
                line = (
                    f"  {name}: scan={shard.scan_mode()}, "
                    f"vectors={len(shard)}, "
                    f"bytes_read={io.bytes_read}"
                )
                quarantined = len(shard.quarantined_partitions)
                if quarantined:
                    line += (
                        f", DEGRADED ({quarantined} partition(s) "
                        "quarantined)"
                    )
                lines.append(line)
                if filters is not None:
                    decision = shard.plan_for(filters, nprobe)
                    lines.append(
                        f"    plan: {decision.kind.value} "
                        "(estimated selectivity "
                        f"{decision.estimated_selectivity:.6f})"
                    )
                    how = shard.filter_description(filters, decision)
                    lines.append(f"    filter: {how}")
        return "\n".join(lines)

    def io(self) -> IOSnapshot:
        """Summed cumulative I/O counters across shards."""
        self._check_open()
        with self._write_gate.shared():
            snapshots = [shard.io() for shard in self._shards]
        return IOSnapshot(
            bytes_read=sum(s.bytes_read for s in snapshots),
            read_requests=sum(s.read_requests for s in snapshots),
            cache_hits=sum(s.cache_hits for s in snapshots),
            cache_misses=sum(s.cache_misses for s in snapshots),
            rows_written=sum(s.rows_written for s in snapshots),
            simulated_latency_s=sum(
                s.simulated_latency_s for s in snapshots
            ),
            partitions_quarantined=sum(
                s.partitions_quarantined for s in snapshots
            ),
        )


def _open_fleet(
    root: str, names: tuple[str, ...], config: MicroNNConfig
) -> tuple[MicroNN, ...]:
    """Open every shard, closing the partial fleet if one fails.

    A corrupt or mismatched shard file must not leak the SQLite
    connections of the shards already opened before it.
    """
    shards: list[MicroNN] = []
    try:
        for name in names:
            shards.append(MicroNN(os.path.join(root, name), config))
    except BaseException:
        for shard in shards:
            with contextlib.suppress(BaseException):
                shard.close()
        raise
    return tuple(shards)


def _remove_sqlite_files(path: str) -> None:
    """Remove a database file and its side files.

    Covers SQLite's WAL/SHM files plus any ``.blob.<gen>`` payload
    generations the blobfile backend keeps next to the database.
    """
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass
    base = os.path.basename(path) + ".blob."
    root = os.path.dirname(path) or "."
    try:
        entries = os.listdir(root)
    except OSError:
        return
    for entry in entries:
        if entry.startswith(base):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(root, entry))
