"""Sharded serving: 4-shard ingest, mixed traffic, a rebalance.

A walkthrough of the sharded multi-database engine (repro.shard):

- **hash-routed ingest** — ``ShardedMicroNN`` spreads writes over N
  independent per-shard databases by a stable hash of the asset id;
  each shard has its own SQLite file, writer lock, IVF index and
  quantizer, so write throughput and cold-read bandwidth scale with
  the shard count,
- **scatter-gather search** — every query fans out to all shards
  (through each shard's serving scheduler once the fan-out is wide
  enough and some shard's reads block) and the per-shard top-k
  streams merge under the unsharded ``(distance, asset_id)`` ordering
  contract;
  ``QueryStats.shards_probed`` and ``ShardedSearchResult.shard_stats``
  show the fan-out and the per-shard cost split,
- **concurrent mixed traffic** — upserts keep routing to single
  shards while a burst of async searches is in flight; one shard's
  writer lock never blocks the other shards' reads,
- **rebalance()** — changing the shard count re-routes every row into
  a fresh fleet and atomically swaps the manifest; the directory
  stays a valid database throughout.

Degraded serving: a dead or corrupt shard does not take the fleet
down. The scatter retries it (``ShardConfig.shard_retries`` with
``shard_retry_backoff_ms``), optionally bounds it with a per-shard
``shard_timeout_s`` budget, and on failure merges the surviving
shards' answers, naming the casualty in
``ShardedSearchResult.degraded_shards`` (``stats.degraded`` is set).
Check that field when serving user traffic — a degraded answer has
fewer candidates, never wrong ones. Run ``db.verify()`` /
``db.repair()`` (or ``python -m repro.cli scrub <dir> --repair``) to
bring the shard back; see README "Durability & recovery".

Tuning rules of thumb, demonstrated below:

- shard when one database's writer lock or one file's I/O path is the
  bottleneck, not for raw collection size alone — a shard is a full
  database's worth of threads and caches,
- split your single-database ``nprobe`` across shards
  (``nprobe // num_shards``) for equal scan volume; recall stays
  comparable because every shard contributes candidates,
- reopen with ``ShardedMicroNN.open(path, config)`` (no ``shards=``):
  the manifest remembers the count and validates the shard files.

Run:  python examples/sharded_serving.py
"""

import time

from repro import DeviceProfile, IOCostModel, MicroNNConfig
from repro.shard import ShardedMicroNN
from repro.workloads.datasets import load_dataset

DIM = 128
NUM_VECTORS = 8000
SHARDS = 4
K = 10
NPROBE_TOTAL = 16
BURST = 24


def main() -> None:
    dataset = load_dataset(
        "sift", num_vectors=NUM_VECTORS, num_queries=BURST
    )
    device = DeviceProfile(
        name="sharded-phone",
        worker_threads=4,
        partition_cache_bytes=0,
        sqlite_cache_bytes=1024 * 1024,
        scratch_buffer_bytes=8 * 1024 * 1024,
        io_model=IOCostModel(seek_latency_s=0.002, per_byte_latency_s=2e-9),
    )
    config = MicroNNConfig(
        dim=DIM,
        target_cluster_size=100,
        max_inflight_queries=16,
        device=device,
    )
    nprobe = max(1, NPROBE_TOTAL // SHARDS)

    with ShardedMicroNN.open(config=config, shards=SHARDS) as db:
        # --- 4-shard ingest: writes route by asset-id hash ---------
        start = time.perf_counter()
        db.upsert_batch(
            (dataset.train_ids[i], dataset.train[i])
            for i in range(len(dataset.train_ids))
        )
        report = db.build_index()
        print(
            f"ingested {len(db)} vectors into {db.num_shards} shards "
            f"({[len(s) for s in db.shards]} per shard) and built "
            f"{report.num_partitions} partitions in "
            f"{time.perf_counter() - start:.2f}s"
        )

        # --- scatter-gather anatomy --------------------------------
        result = db.search(dataset.queries[0], k=K, nprobe=nprobe)
        stats = result.stats
        print(
            f"scatter: {stats.shards_probed} shards, "
            f"{stats.partitions_scanned} partitions, "
            f"{stats.bytes_read / 1e6:.2f} MB total "
            "(per-shard bytes: "
            f"{[s.bytes_read for s in result.shard_stats]})"
        )

        # --- concurrent mixed upsert + search traffic --------------
        db.purge_caches()
        start = time.perf_counter()
        futures = [
            db.search_async(dataset.queries[i % BURST], k=K, nprobe=nprobe)
            for i in range(BURST)
        ]
        # Writers interleave with the in-flight burst: each upsert
        # takes one shard's writer lock while every other shard keeps
        # serving its share of the scatter.
        for i in range(200):
            db.upsert(f"live-{i:04d}", dataset.train[i % NUM_VECTORS])
        results = [f.result() for f in futures]
        wall = time.perf_counter() - start
        shared = sum(r.stats.io_shared_hits for r in results)
        print(
            f"mixed burst: {BURST} searches + 200 upserts in "
            f"{wall:.2f}s ({BURST / wall:.0f} QPS, {shared} coalesced "
            f"loads, delta now {db.index_stats().delta_vectors} rows)"
        )

        # New writes are visible immediately (delta scan, every shard).
        hit = db.search(dataset.train[0], k=1, nprobe=nprobe)
        print(f"freshest row lookup -> {hit[0].asset_id}")

        # --- shard-count rebalance ---------------------------------
        before = db.search(dataset.queries[1], k=K, nprobe=1_000_000)
        report = db.rebalance(2)
        after = db.search(dataset.queries[1], k=K, nprobe=1_000_000)
        print(
            f"rebalanced {report.shards_before} -> "
            f"{report.shards_after} shards: {report.vectors_moved} "
            f"rows moved in {report.duration_s:.2f}s; exhaustive "
            "top-k unchanged: "
            f"{before.asset_ids == after.asset_ids}"
        )
        print(
            f"fleet after rebalance: {db.num_shards} shards, "
            f"{[len(s) for s in db.shards]} rows per shard"
        )


if __name__ == "__main__":
    main()
