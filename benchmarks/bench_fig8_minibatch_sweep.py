"""Figure 8: impact of mini-batch size on recall and memory.

The InternalA analog, clustering with mini-batch fractions from ~0.1%
to 100% of the collection. The probe count is fixed from the smallest
batch size (as in the paper: "we identify the n parameter … on the
index trained using the smallest batch size and use that n throughout").

Shape expectations from the paper:
- 8a: recall is essentially flat across the whole sweep — tiny
  mini-batches train quantizers as good as full k-means;
- 8b: construction memory grows with the batch fraction, with the
  100% point (regular k-means) an order of magnitude or more above the
  small-batch points.
"""

from repro import MicroNN, MicroNNConfig
from repro.bench.harness import fmt_mib, populate, print_table, tune_nprobe
from repro.workloads.datasets import load_dataset
from repro.workloads.groundtruth import compute_ground_truth
from repro.workloads.metrics import mean_recall_at_k

K = 100
FRACTIONS = [0.002, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0]


def test_fig8_minibatch_sweep(benchmark, bench_dir):
    from benchmarks.conftest import scaled

    dataset = load_dataset(
        "internala",
        num_vectors=scaled(3000, minimum=1500),
        num_queries=scaled(30, minimum=20),
    )
    truth = compute_ground_truth(
        dataset.train_ids, dataset.train, dataset.queries, K,
        dataset.metric,
    )

    results = []
    fixed_nprobe = None
    for fraction in FRACTIONS:
        config = MicroNNConfig(
            dim=dataset.dim,
            metric=dataset.metric,
            target_cluster_size=100,
            minibatch_fraction=fraction,
        )
        db = MicroNN.open(
            bench_dir / f"fig8-{fraction}.db", config
        )
        try:
            populate(db, dataset.train_ids, dataset.train)
            report = db.build_index()

            def search_ids(query, nprobe):
                return list(
                    db.search(query, k=K, nprobe=nprobe).asset_ids
                )

            if fixed_nprobe is None:
                # Tune on the smallest batch size, reuse everywhere so
                # every configuration scans ~the same vector count.
                fixed_nprobe, _ = tune_nprobe(
                    search_ids, dataset.queries, truth, K, 0.9
                )
            retrieved = [
                search_ids(q, fixed_nprobe) for q in dataset.queries
            ]
            recall = mean_recall_at_k(truth, retrieved, K)
            results.append(
                (fraction, recall, report.peak_memory_bytes,
                 report.minibatch_size)
            )
        finally:
            db.close()

    print_table(
        "Figure 8: mini-batch fraction vs recall and build memory",
        [
            "Batch %",
            "Batch rows",
            f"Recall@{K}",
            "Build memory MiB",
        ],
        [
            (
                f"{fraction * 100:g}%",
                batch_rows,
                f"{recall * 100:.1f}%",
                round(fmt_mib(peak), 3),
            )
            for fraction, recall, peak, batch_rows in results
        ],
        note=f"nprobe fixed at {fixed_nprobe} (tuned on the smallest "
        "batch), as in the paper.",
    )

    recalls = [r for _, r, _, _ in results]
    peaks = [p for _, _, p, _ in results]
    # 8a shape: flat recall — the worst configuration stays within a
    # few points of the best.
    assert min(recalls) > max(recalls) - 0.1
    assert min(recalls) >= 0.8
    # 8b shape: full-batch construction uses far more memory than the
    # smallest mini-batch.
    assert peaks[-1] > 5 * peaks[0]
    # Memory grows (weakly) with the batch fraction.
    assert peaks[-1] == max(peaks)

    config = MicroNNConfig(
        dim=dataset.dim, metric=dataset.metric,
        target_cluster_size=100, minibatch_fraction=0.05,
        kmeans_iterations=10,
    )

    def small_build():
        with MicroNN.open(config=config) as db:
            populate(db, dataset.train_ids[:800], dataset.train[:800])
            return db.build_index()

    benchmark(small_build)
