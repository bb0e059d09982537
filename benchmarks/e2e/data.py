"""Seeded inputs and NumPy reference answers.

Nothing here imports ``repro``: the program under test receives only
the arrays generated below, and its answers are judged against a
brute-force scan written independently of its kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Mixture components of the SIFT analog (clusterable, so IVF pruning
#: behaves as on real embeddings; Zipf-ish weights make some clusters
#: much denser than others).
COMPONENTS = 64
#: The one filterable attribute: ``bucket`` uniform in [0, BUCKETS).
BUCKETS = 100


#: The collection and its tuning queries are the dataset, generated
#: from this constant like a file on disk: every run builds the same
#: index and tunes the same nprobe, so a run-to-run difference is the
#: program's or the machine's, not the draw's. ``--seed`` draws the
#: timed queries (and churn's picks and vectors).
DATASET_SEED = 11


@dataclass(frozen=True)
class Dataset:
    vectors: np.ndarray  # (n, dim) float32, fixed
    buckets: np.ndarray  # (n,) int64, fixed
    tuning: np.ndarray  # (n_tuning, dim) float32, fixed, never timed
    queries: np.ndarray  # (n_queries, dim) float32, drawn from the seed


def asset_id(row: int) -> str:
    return f"v{row:07d}"


def row_of(asset: str) -> int:
    return int(asset[1:])


def make_dataset(
    seed: int, n: int, dim: int, n_tuning: int, n_queries: int
) -> Dataset:
    """Gaussian-mixture vectors; all queries come from the same
    mixture, the in-distribution model of the public ANN benchmarks."""
    fixed = np.random.default_rng(DATASET_SEED)
    means = fixed.normal(0.0, 1.0, (COMPONENTS, dim)).astype(np.float32)
    scales = fixed.uniform(0.15, 0.45, COMPONENTS).astype(np.float32)
    weights = 1.0 / np.arange(1, COMPONENTS + 1) ** 0.7
    weights /= weights.sum()

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        labels = rng.choice(COMPONENTS, size=count, p=weights)
        noise = rng.normal(0.0, 1.0, (count, dim)).astype(np.float32)
        return means[labels] + noise * scales[labels, None]

    vectors = draw(fixed, n)
    tuning = draw(fixed, n_tuning)
    buckets = fixed.integers(0, BUCKETS, n)
    queries = draw(np.random.default_rng(seed), n_queries)
    return Dataset(vectors, buckets, tuning, queries)


def topk_rows(
    vectors: np.ndarray,
    queries: np.ndarray,
    k: int,
    rows: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Brute-force nearest rows (L2) of each query, closest first.

    ``rows`` restricts the scan to those row indices (live rows, or the
    rows a filter admits); fewer than ``k`` rows gives a shorter answer.
    """
    if rows is not None:
        vectors = vectors[rows]
    if len(vectors) == 0:
        return [np.empty(0, dtype=np.int64) for _ in queries]
    v64 = vectors.astype(np.float64)
    norms = np.einsum("ij,ij->i", v64, v64)
    take = min(k, len(vectors))
    out = []
    for lo in range(0, len(queries), 64):
        q64 = queries[lo : lo + 64].astype(np.float64)
        dist = norms[None, :] - 2.0 * (q64 @ v64.T)
        part = np.argpartition(dist, take - 1, axis=1)[:, :take]
        for i in range(len(q64)):
            best = part[i][np.argsort(dist[i, part[i]], kind="stable")]
            out.append(best if rows is None else rows[best])
    return out


def recall(found_ids, truth_rows: np.ndarray) -> float:
    """Share of the true neighbours that were returned."""
    if len(truth_rows) == 0:
        return 1.0
    truth = {asset_id(int(r)) for r in truth_rows}
    return len(truth.intersection(found_ids)) / len(truth)


def exact_mismatch(
    neighbors, query: np.ndarray, vectors: np.ndarray, truth: np.ndarray
) -> str | None:
    """Why ``neighbors`` is not the exact top-k, or ``None`` if it is.

    The program computes float32 distances, so two neighbours closer
    together than float32 resolves may legitimately swap places against
    a float64 reference. The check is therefore on distances: rank by
    rank the returned distance must equal the true one, every returned
    id must really lie at the distance it was returned with, and the
    list must be ordered by ``(distance, asset_id)`` without repeats.
    """
    if len(neighbors) != len(truth):
        return f"{len(neighbors)} neighbours, expected {len(truth)}"
    ids = [n.asset_id for n in neighbors]
    if len(set(ids)) != len(ids):
        return "duplicate asset ids"
    got = np.array([n.distance for n in neighbors], dtype=np.float64)
    keys = [(n.distance, n.asset_id) for n in neighbors]
    if keys != sorted(keys):
        return "not ordered by (distance, asset_id)"
    q64 = query.astype(np.float64)
    rows = [row_of(a) for a in ids]
    own = np.sqrt(((vectors[rows].astype(np.float64) - q64) ** 2).sum(1))
    want = np.sqrt(((vectors[truth].astype(np.float64) - q64) ** 2).sum(1))
    tol = 1e-4 * np.maximum(want, 1e-6)
    if np.any(np.abs(got - want) > tol):
        return "distances differ from brute force"
    if np.any(np.abs(got - own) > tol):
        return "an id was returned with another vector's distance"
    return None
