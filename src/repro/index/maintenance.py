"""Index monitoring and incremental maintenance (paper §3.6).

Two cooperating pieces:

- :class:`IndexMonitor` tracks index health — delta-store backlog and
  the growth of the average partition size relative to the baseline
  recorded at the last full build — and recommends an action: nothing,
  an incremental flush, or a full rebuild (the paper's client-visible
  "threshold on average partition size growth").

- :class:`IncrementalMaintainer` performs the incremental flush: every
  delta vector is assigned to the IVF partition with the closest
  centroid and the affected centroids are updated to reflect their new
  content via a running mean (the VLAD-style update [1] the paper
  cites). Cost is proportional to the *delta* size — a handful of row
  rewrites and centroid updates — instead of rewriting the whole table,
  which is the entire point of Figure 10d's I/O comparison.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.core.config import MicroNNConfig
from repro.core.types import (
    IndexStats,
    MaintenanceAction,
    MaintenanceReport,
)
from repro.index.delta import DeltaStore
from repro.index.ivf import IVFBuilder, META_BASELINE_AVG
from repro.query.distance import pairwise_distances
from repro.storage.codec import encode_code_matrix
from repro.storage.engine import StorageEngine

#: Fraction of flushed vector components allowed to clip outside the
#: trained SQ8 range before maintenance retrains it. Clipped
#: components carry unbounded quantization error, so a drifting upsert
#: stream must eventually trigger a retrain ("Quantization for Vector
#: Search under Streaming Updates" keeps recall by retraining on
#: distribution shift, not on every insert).
QUANTIZER_DRIFT_CLIP_FRACTION = 0.01

#: Fraction of flushed vectors whose PQ reconstruction error may
#: exceed the trained-error envelope before maintenance retrains the
#: codebooks. PQ has no clipping — a drifted vector still encodes, just
#: badly — so its drift signal is reconstruction error against the
#: training-time baseline (see ProductQuantizer.drift_fraction).
PQ_DRIFT_FRACTION = 0.05


def quantizer_drifted(quantizer, matrix) -> bool:
    """Whether ``matrix`` has drifted off the trained quantizer.

    The kind-specific drift signals behind maintenance retrains: SQ8
    watches the clip fraction (components outside the trained ranges),
    PQ the fraction of vectors whose reconstruction error leaves the
    trained envelope.
    """
    if quantizer.kind == "pq":
        return quantizer.drift_fraction(matrix) > PQ_DRIFT_FRACTION
    return (
        quantizer.clip_fraction(matrix) > QUANTIZER_DRIFT_CLIP_FRACTION
    )


class IndexMonitor:
    """Tracks index quality signals and recommends maintenance actions."""

    def __init__(self, engine: StorageEngine, config: MicroNNConfig) -> None:
        self._engine = engine
        self._config = config

    def stats(self, sizes: Mapping[int, int] | None = None) -> IndexStats:
        """Current index shape, straight from the catalog tables
        (``sizes``: the partition sizes, if the caller just read them)."""
        if sizes is None:
            sizes = self._engine.partition_sizes(include_delta=False)
        delta = self._engine.delta_size()
        num_partitions = self._engine.centroid_count()
        indexed = sum(sizes.values())
        values = list(sizes.values())
        avg = indexed / num_partitions if num_partitions else 0.0
        baseline_raw = self._engine.get_meta(META_BASELINE_AVG)
        baseline = float(baseline_raw) if baseline_raw else 0.0
        quantized = self._engine.count_codes()
        # Code bytes/vector and the achieved compression come from the
        # TRAINED quantizer, not the config: a database reopened under
        # the other scheme still holds the old codes until the next
        # build, and load_quantizer() is None for the new scheme then —
        # reporting the config's width would describe codes that do not
        # exist. Until a quantizer is trained (and codes with it, they
        # commit together) scans are full-precision: honest 0 and 1.0.
        quantizer = (
            self._engine.load_quantizer()
            if self._config.uses_quantization
            else None
        )
        code_bytes = (
            quantizer.code_width
            if quantizer is not None and quantized
            else 0
        )
        compression = (
            (4.0 * self._config.dim) / code_bytes if code_bytes else 1.0
        )
        dead_bytes, blob_bytes = self._engine.blob_dead_bytes()
        return IndexStats(
            total_vectors=indexed + delta,
            indexed_vectors=indexed,
            delta_vectors=delta,
            num_partitions=num_partitions,
            avg_partition_size=avg,
            max_partition_size=max(values) if values else 0,
            min_partition_size=min(values) if values else 0,
            baseline_avg_partition_size=baseline,
            quantization=self._config.quantization,
            quantized_vectors=quantized,
            code_bytes_per_vector=code_bytes,
            compression_ratio=compression,
            storage_backend=self._engine.storage_backend,
            telemetry_enabled=self._engine.metrics.enabled,
            quarantined_partitions=len(
                self._engine.quarantined_partitions
            ),
            events_logged=self._engine.events.total_emitted,
            slow_queries=self._engine.events.count("slow_query"),
            storage_dead_bytes=dead_bytes,
            storage_dead_ratio=(
                dead_bytes / blob_bytes if blob_bytes else 0.0
            ),
        )

    def recommend(
        self, sizes: Mapping[int, int] | None = None
    ) -> MaintenanceAction:
        """Decide what maintenance, if any, the index needs now
        (``sizes``: the partition sizes, as :meth:`stats` takes them).

        A full rebuild is recommended when folding the current delta
        into the index would push the average partition size past the
        configured growth limit (or when there is no index yet); an
        incremental flush when the delta backlog alone crossed its
        threshold; otherwise nothing.
        """
        stats = self.stats(sizes)
        if stats.total_vectors == 0:
            return MaintenanceAction.NONE
        if stats.num_partitions == 0:
            # Nothing has ever been clustered; only a build helps.
            return MaintenanceAction.FULL_REBUILD
        threshold = self._config.rebuild_growth_threshold
        if self._projected_growth(stats) >= threshold:
            return MaintenanceAction.FULL_REBUILD
        if stats.delta_vectors >= self._config.delta_flush_threshold:
            return MaintenanceAction.INCREMENTAL_FLUSH
        return MaintenanceAction.NONE

    def _projected_growth(self, stats: IndexStats) -> float:
        """Average-partition growth if the delta were flushed now."""
        if stats.baseline_avg_partition_size <= 0 or stats.num_partitions == 0:
            return 0.0
        projected_avg = stats.total_vectors / stats.num_partitions
        return (projected_avg / stats.baseline_avg_partition_size) - 1.0


class IncrementalMaintainer:
    """Drains the delta-store into the IVF index without re-clustering."""

    def __init__(self, engine: StorageEngine, config: MicroNNConfig) -> None:
        self._engine = engine
        self._config = config
        self._delta = DeltaStore(engine)
        self._monitor = IndexMonitor(engine, config)

    def flush(
        self, sizes: Mapping[int, int] | None = None
    ) -> MaintenanceReport:
        """Assign every delta vector to its nearest partition.

        Centroids of the receiving partitions are updated with the
        running mean of their new content so later queries and flushes
        see centroids that reflect what the partitions actually hold.
        ``sizes`` are the partition sizes if the caller just read them;
        the report's ``stats_after`` adds the moves to them instead of
        reading them again.
        """
        engine = self._engine
        start = time.perf_counter()
        counts = dict(
            engine.partition_sizes() if sizes is None else sizes
        )
        stats_before = self._monitor.stats(counts)
        rows_before = engine.accountant.rows_written

        delta = self._delta.load()
        if len(delta) == 0:
            return MaintenanceReport(
                action=MaintenanceAction.NONE,
                duration_s=time.perf_counter() - start,
                stats_before=stats_before,
                stats_after=stats_before,
            )

        partition_ids, centroids = engine.load_centroids()
        if len(partition_ids) == 0:
            raise RuntimeError(
                "incremental flush requires an existing IVF index; "
                "run a full build first"
            )

        metric = (
            "l2" if self._config.metric == "dot" else self._config.metric
        )
        dist = pairwise_distances(delta.matrix, centroids, metric)
        nearest = np.argmin(dist, axis=1)

        centroid_updates: dict[int, tuple[np.ndarray, int]] = {}
        moves: list[tuple[str, int]] = []
        working = {}
        for row, choice in enumerate(nearest):
            pid = int(partition_ids[choice])
            moves.append((delta.asset_ids[row], pid))
            if pid not in working:
                working[pid] = [
                    centroids[choice].astype(np.float64),
                    counts.get(pid, 0),
                ]
            centroid, count = working[pid]
            # Running mean: c <- (c*n + x) / (n + 1), the cited
            # incremental VLAD-style centroid adjustment.
            count += 1
            centroid += (
                delta.matrix[row].astype(np.float64) - centroid
            ) / count
            working[pid][1] = count
        for pid, (centroid, count) in working.items():
            centroid_updates[pid] = (centroid.astype(np.float32), count)

        code_rows, retrain_needed = self._plan_flush_codes(delta, moves)
        # Moves and codes commit atomically: a crash can never leave
        # flushed vectors sitting uncoded (= invisible) inside a
        # quantized partition.
        engine.set_partition_assignments(moves, code_rows=code_rows)
        engine.update_centroids(centroid_updates)
        if retrain_needed:
            # Drain pending shadow audits before the quantizer changes
            # underneath them, and re-arm the dip window afterwards so
            # pre-retrain recall never triggers a post-retrain dip.
            auditor = getattr(engine, "auditor", None)
            if auditor is not None:
                auditor.flush()
            IVFBuilder(engine, self._config).refresh_quantizer()
            engine.metrics.counter(
                "micronn_maintenance_actions_total",
                "Maintenance actions taken, by kind.",
                labels=("action",),
            ).inc(action="retrain")
            engine.events.emit(
                "retrain",
                quantization=self._config.quantization,
                vectors_flushed=len(moves),
            )
            if auditor is not None:
                auditor.reset_window()

        # ``working`` holds each receiving partition's size after it.
        counts.update((pid, count) for pid, (_, count) in working.items())
        stats_after = self._monitor.stats(counts)
        return MaintenanceReport(
            action=MaintenanceAction.INCREMENTAL_FLUSH,
            vectors_flushed=len(moves),
            centroids_updated=len(centroid_updates),
            row_changes=engine.accountant.rows_written - rows_before,
            duration_s=time.perf_counter() - start,
            stats_before=stats_before,
            stats_after=stats_after,
        )

    def _plan_flush_codes(
        self, delta, moves: list[tuple[str, int]]
    ) -> tuple[list[tuple[int, str, int, bytes]] | None, bool]:
        """Quantized codes for the vectors a flush is about to move.

        Returns ``(code_rows, retrain_needed)``. The cheap common case
        encodes just the flushed vectors with the *existing* quantizer
        — cost proportional to the delta, like the flush itself — and
        the caller commits the rows atomically with the moves. Two
        situations force the expensive path (full retrain + code
        rewrite after the moves) instead: no quantizer exists yet (a
        pre-quantization database being upgraded in place), or the
        incoming vectors drifted past the kind-specific threshold
        (:func:`quantizer_drifted`), meaning the data distribution has
        moved. A crash before the retrain finishes leaves uncoded
        vectors, which ``integrity_check`` reports explicitly.
        """
        if not self._config.uses_quantization:
            return None, False
        quantizer = self._engine.load_quantizer()
        if quantizer is None or quantizer_drifted(
            quantizer, delta.matrix
        ):
            return None, True
        pid_of = dict(moves)
        blobs = encode_code_matrix(quantizer.encode(delta.matrix))
        code_rows = [
            (pid_of[aid], aid, vid, blob)
            for aid, vid, blob in zip(
                delta.asset_ids, delta.vector_ids, blobs
            )
        ]
        return code_rows, False
