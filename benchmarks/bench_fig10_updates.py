"""Figure 10: full vs incremental index rebuild across insertion epochs.

Bootstraps the InternalA analog with 50% of the collection, then
inserts 3% per epoch, comparing two maintenance strategies:

- **FullBuild** — full re-cluster after every epoch (the ideal);
- **IncrementalBuild** — incremental flush per epoch, with the index
  monitor triggering a full rebuild when the average partition size
  grows past 50% (the paper's threshold).

Per epoch, measured exactly like the paper: average single-query
latency over a 128-query batch, recall@100, maintenance time, and the
number of database row changes (the flash-wear proxy, 10d).

Shape expectations:
- 10a: latency comparable between strategies (n is re-derived so the
  scanned-vector budget stays constant);
- 10b: incremental recall deviates slightly below full rebuild and
  recovers when the growth threshold triggers a rebuild;
- 10c: incremental maintenance is much faster than a rebuild except at
  the epoch where the threshold fires;
- 10d: incremental row changes are a few percent of a full rebuild's.
"""

from repro import MicroNN, MicroNNConfig
from repro.core.types import MaintenanceAction
from repro.bench.harness import populate, print_table
from repro.workloads.datasets import load_dataset
from repro.workloads.groundtruth import compute_ground_truth
from repro.workloads.metrics import mean_recall_at_k

K = 100
EPOCHS = 12
QUERY_BATCH = 128
TARGET_SCANNED_FRACTION = 0.12  # fraction of the collection per query


def _nprobe_for_target(db, total):
    """Re-derive n so the expected scanned-vector count stays fixed
    (the paper keeps "the target number of vectors scanned same")."""
    stats = db.index_stats()
    avg = max(stats.avg_partition_size, 1.0)
    target_vectors = TARGET_SCANNED_FRACTION * total
    return max(1, round(target_vectors / avg))


def _epoch_measurements(db, queries, truth, total):
    nprobe = _nprobe_for_target(db, total)
    batch = db.search_batch(queries, k=K, nprobe=nprobe)
    retrieved = [list(r.asset_ids) for r in batch]
    recall = mean_recall_at_k(truth, retrieved, K)
    return batch.amortized_latency_s * 1e3, recall


def test_fig10_updates(benchmark, bench_dir):
    from benchmarks.conftest import scaled

    dataset = load_dataset(
        "internala",
        num_vectors=scaled(4000, minimum=2000),
        num_queries=QUERY_BATCH,
    )
    half = len(dataset.train) // 2
    epoch_size = max(1, int(len(dataset.train) * 0.03))

    def make_db(tag):
        config = MicroNNConfig(
            dim=dataset.dim,
            metric=dataset.metric,
            target_cluster_size=50,
            delta_flush_threshold=1,
            rebuild_growth_threshold=0.5,
        )
        db = MicroNN.open(bench_dir / f"fig10-{tag}.db", config)
        populate(db, dataset.train_ids[:half], dataset.train[:half])
        db.build_index()
        return db

    full_db, incr_db = make_db("full"), make_db("incr")
    rows = []
    try:
        inserted = half
        for epoch in range(1, EPOCHS + 1):
            hi = min(inserted + epoch_size, len(dataset.train))
            chunk = list(
                zip(dataset.train_ids[inserted:hi],
                    dataset.train[inserted:hi])
            )
            inserted = hi
            full_db.upsert_batch(chunk)
            incr_db.upsert_batch(chunk)

            truth = compute_ground_truth(
                dataset.train_ids[:inserted],
                dataset.train[:inserted],
                dataset.queries,
                K,
                dataset.metric,
            )

            full_report = full_db.maintain(
                force=MaintenanceAction.FULL_REBUILD
            )
            incr_report = incr_db.maintain()  # monitor decides

            full_ms, full_recall = _epoch_measurements(
                full_db, dataset.queries, truth, inserted
            )
            incr_ms, incr_recall = _epoch_measurements(
                incr_db, dataset.queries, truth, inserted
            )
            rows.append(
                (
                    epoch,
                    round(full_ms, 3),
                    round(incr_ms, 3),
                    f"{full_recall * 100:.1f}%",
                    f"{incr_recall * 100:.1f}%",
                    round(full_report.duration_s, 3),
                    round(incr_report.duration_s, 3),
                    full_report.row_changes,
                    incr_report.row_changes,
                    incr_report.action.value,
                )
            )
    finally:
        recalls_full = [float(r[3][:-1]) for r in rows]
        recalls_incr = [float(r[4][:-1]) for r in rows]
        full_db.close()
        incr_db.close()

    print_table(
        "Figure 10: full vs incremental rebuild per insertion epoch",
        [
            "Epoch",
            "Full ms/q",
            "Incr ms/q",
            "Full R@100",
            "Incr R@100",
            "Full build s",
            "Incr build s",
            "Full rows",
            "Incr rows",
            "Incr action",
        ],
        rows,
        note="InternalA analog; bootstrap 50%, +3%/epoch, query batch "
        f"{QUERY_BATCH}, rebuild threshold 50% avg-partition growth.",
    )

    # 10b shape: incremental recall deviates only slightly from full.
    deviations = [f - i for f, i in zip(recalls_full, recalls_incr)]
    assert max(deviations) < 12.0, f"recall deviation too large: {deviations}"
    # 10c/d shapes: flush epochs are much cheaper than full rebuilds.
    flush_rows = [r for r in rows if r[9] == "incremental_flush"]
    assert flush_rows, "expected at least one incremental epoch"
    for r in flush_rows:
        assert r[8] < 0.25 * r[7], f"epoch {r[0]}: incr rows not << full"
    # The growth threshold must fire at least once over the run.
    assert any(r[9] == "full_rebuild" for r in rows)

    # Benchmark one incremental flush cycle.
    config = MicroNNConfig(
        dim=dataset.dim, metric=dataset.metric, target_cluster_size=50,
        kmeans_iterations=10,
    )

    def flush_cycle():
        with MicroNN.open(config=config) as db:
            populate(db, dataset.train_ids[:800], dataset.train[:800])
            db.build_index()
            db.upsert_batch(
                zip(dataset.train_ids[800:850], dataset.train[800:850])
            )
            return db.maintain(
                force=MaintenanceAction.INCREMENTAL_FLUSH
            )

    report = benchmark(flush_cycle)
    assert report.vectors_flushed == 50
