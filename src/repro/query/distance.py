"""Batched distance kernels (the SIMD numerics-accelerator analog).

The paper batches vectors into matrices so a hardware-accelerated
linear-algebra library can evaluate many distances per instruction
(§3.1, §3.3). numpy's BLAS-backed ``@`` is the same computational shape
in Python: one GEMM per (queries × partition) block, no per-vector
Python loop.

All kernels return values where **smaller means closer**, so heaps and
sort orders are metric-agnostic:

- ``l2`` returns squared Euclidean distance (monotone in true L2, and
  what IVF comparisons need; ``sqrt`` is applied only when results are
  surfaced).
- ``cosine`` returns cosine *distance* ``1 - cos_sim``.
- ``dot`` returns the negated inner product.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError

_EPS = 1e-12

#: Metrics the asymmetric SQ8 kernel supports (same set as the float
#: kernels — it delegates per decoded block).
SUPPORTED_FUSED_METRICS = ("l2", "cosine", "dot")


def pairwise_distances(
    queries: np.ndarray, vectors: np.ndarray, metric: str
) -> np.ndarray:
    """Distance matrix of shape (num_queries, num_vectors).

    ``queries`` is (q, d) and ``vectors`` is (n, d); both are treated as
    float32. This is the single kernel behind ANN scans, exact KNN,
    clustering assignment and MQO batches.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    v = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    if q.shape[1] != v.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries {q.shape[1]} vs vectors {v.shape[1]}"
        )
    if v.shape[0] == 0:
        return np.empty((q.shape[0], 0), dtype=np.float32)
    if metric == "l2":
        return _squared_l2(q, v)
    if metric == "cosine":
        return _cosine_distance(q, v)
    if metric == "dot":
        return -(q @ v.T)
    raise ConfigError(f"unsupported metric {metric!r}")


#: Rows processed per block by the single-query kernels: bounds the
#: transient ``diff`` buffer (2 MB at dim=128) without affecting any
#: per-row value — blocks only slice the row axis, and every reduction
#: below runs along the fixed dimension axis.
_ROW_BLOCK = 4096


def distances_to_one(
    query: np.ndarray, vectors: np.ndarray, metric: str
) -> np.ndarray:
    """Distances from one query to each row of ``vectors`` (1-D result).

    Deliberately NOT the 1-row case of :func:`pairwise_distances`:
    BLAS picks different micro-kernels by matrix shape, so a GEMM's
    value for a given (query, row) pair shifts by rounding noise with
    the *other* rows sharing the matrix. This kernel is **row-stable**
    — each output depends only on the query and that row (einsum
    reductions along the fixed dimension axis, never a shape-chosen
    GEMM) — which is what lets two databases with different partition
    layouts over the same rows surface bit-identical distances: the
    property the sharded engine's scatter-gather parity contract
    (:mod:`repro.shard.merge`) is built on. The L2 form is also the
    well-conditioned one: ``sum((v - q)^2)`` cannot cancel, unlike the
    norm expansion (whose residue scales with the squared magnitudes).
    """
    q = np.asarray(query, dtype=np.float32).reshape(-1)
    v = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    if q.shape[0] != v.shape[1]:
        raise ValueError(
            f"dimension mismatch: query {q.shape[0]} vs vectors "
            f"{v.shape[1]}"
        )
    out = np.empty(v.shape[0], dtype=np.float32)
    distances_into(q, [v], metric, out)
    return out


def distances_into(
    query: np.ndarray,
    matrices: list[np.ndarray],
    metric: str,
    out: np.ndarray,
) -> None:
    """:func:`distances_to_one` of each matrix, written back to back
    into the float32 ``out`` (one slot per row of all of them).

    The one implementation of the row-stable kernel: a query's whole
    probe set is scored into one array with no stacked copy of the
    matrices, and every value is bit-identical to scoring its matrix
    alone. ``query`` is a 1-D float32 vector of the matrices' width.
    """
    if metric == "l2":
        # One diff buffer for every block of every matrix.
        diff = np.empty(
            (min(max(map(len, matrices), default=0), _ROW_BLOCK), len(query)),
            dtype=np.float32,
        )

        def score(block: np.ndarray, seg: np.ndarray) -> None:
            d = diff[: len(block)]
            np.subtract(block, query, out=d)
            np.einsum("ij,ij->i", d, d, out=seg)

    elif metric == "dot":

        def score(block: np.ndarray, seg: np.ndarray) -> None:
            np.einsum("ij,j->i", block, query, out=seg)
            np.negative(seg, out=seg)

    elif metric == "cosine":
        unit = query / max(float(np.sqrt(np.dot(query, query))), _EPS)

        def score(block: np.ndarray, seg: np.ndarray) -> None:
            norms = np.sqrt(np.einsum("ij,ij->i", block, block))
            np.einsum("ij,j->i", block, unit, out=seg)
            np.divide(seg, np.maximum(norms, _EPS), out=seg)
            np.clip(seg, -1.0, 1.0, out=seg)
            np.subtract(1.0, seg, out=seg)

    else:
        raise ConfigError(f"unsupported metric {metric!r}")
    lo = 0
    for v in matrices:
        for start in range(0, len(v), _ROW_BLOCK):
            block = v[start : start + _ROW_BLOCK]
            hi = lo + len(block)
            score(block, out[lo:hi])
            lo = hi


def surface_distance(value: float, metric: str) -> float:
    """Convert an internal comparison value to the user-facing distance.

    Internally L2 is kept squared to skip ``sqrt`` in the hot loop; the
    square root is applied once per *returned* neighbour here. Cosine
    and dot values are already user-facing (dot stays negated so that
    smaller-is-closer holds in returned results too).
    """
    if metric == "l2":
        return float(np.sqrt(max(value, 0.0)))
    return float(value)


def _squared_l2(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    # ||q - v||^2 = ||q||^2 - 2 q.v + ||v||^2, one GEMM + two norms.
    q_norms = np.einsum("ij,ij->i", q, q)[:, None]
    v_norms = np.einsum("ij,ij->i", v, v)[None, :]
    out = q_norms - 2.0 * (q @ v.T) + v_norms
    # GEMM round-off can leave tiny negatives; clamp so sqrt is safe.
    np.maximum(out, 0.0, out=out)
    return out


def _cosine_distance(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    q_norms = np.linalg.norm(q, axis=1, keepdims=True)
    v_norms = np.linalg.norm(v, axis=1, keepdims=True)
    sims = (q / np.maximum(q_norms, _EPS)) @ (v / np.maximum(v_norms, _EPS)).T
    np.clip(sims, -1.0, 1.0, out=sims)
    return 1.0 - sims


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-normalize rows (used by cosine-metric clustering)."""
    m = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, _EPS)


# ----------------------------------------------------------------------
# Asymmetric SQ8 kernels (quantized fast scan path)
# ----------------------------------------------------------------------

#: Rows dequantized per transient block: bounds the decode working
#: buffer at ``chunk * dim * 4`` bytes (512 KB at dim=128) regardless
#: of partition size.
_FUSED_CHUNK = 1024


def asymmetric_pairwise_distances(
    queries: np.ndarray, codes: np.ndarray, quantizer, metric: str
) -> np.ndarray:
    """Distances from float32 queries to SQ8-coded vectors.

    The asymmetric scheme of the quantized scan path: queries stay
    full-precision, stored vectors keep their 1-byte-per-dimension
    codes. Decoding (``v̂ = lo + c ∘ s``) is fused into the distance
    evaluation at block granularity: ``_FUSED_CHUNK`` rows are decoded
    into a transient buffer that immediately feeds the BLAS kernels,
    so — unlike the one-shot dequantize reference — **no float32 copy
    of the code partition is ever materialized**. That removes the one
    allocation that used to give the decode step a float32 cache
    footprint 4x the bytes just read from disk, and measures faster at
    every (queries, partition-size) point than both the reference and
    a fully-fused einsum expansion over the uint8 views (the expansion
    needs float64 accumulation for conditioning — the expanded forms
    cancel catastrophically when the quantizer offsets dwarf the
    residual — which costs it the contest; see PR 2's kernel notes).

    Values approximate the true distances to within the quantization
    step, which is why the scan keeps ``rerank_factor * k`` candidates
    and re-scores them exactly.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    c = np.atleast_2d(np.asarray(codes))
    if c.shape[0] == 0:
        return np.empty((q.shape[0], 0), dtype=np.float32)
    if q.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries {q.shape[1]} vs codes {c.shape[1]}"
        )
    if metric not in SUPPORTED_FUSED_METRICS:
        raise ConfigError(f"unsupported metric {metric!r}")
    out = np.empty((q.shape[0], c.shape[0]), dtype=np.float32)
    for start in range(0, c.shape[0], _FUSED_CHUNK):
        block = quantizer.decode(c[start : start + _FUSED_CHUNK])
        out[:, start : start + _FUSED_CHUNK] = pairwise_distances(
            q, block, metric
        )
        # Drop the binding before the next decode, so only ONE decoded
        # block is ever live — the kernel's whole memory contract.
        del block
    return out


def asymmetric_distances_to_one(
    query: np.ndarray, codes: np.ndarray, quantizer, metric: str
) -> np.ndarray:
    """Asymmetric distances from one query to each coded row (1-D)."""
    return asymmetric_pairwise_distances(
        query.reshape(1, -1), codes, quantizer, metric
    )[0]


def dequantized_pairwise_distances(
    queries: np.ndarray, codes: np.ndarray, quantizer, metric: str
) -> np.ndarray:
    """Reference asymmetric kernel: dequantize, then the GEMM kernels.

    Mathematically identical to the fused kernel (modulo float32
    association) but materializes ``quantizer.decode(codes)`` — a full-
    precision copy of the code partition. Kept as the oracle the fused
    kernel's property tests compare against; the scan path no longer
    calls it. Works for PQ codes too (``decode`` reconstructs from the
    codebooks), which makes it the ADC kernel's oracle as well.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    c = np.atleast_2d(np.asarray(codes))
    if c.shape[0] == 0:
        return np.empty((q.shape[0], 0), dtype=np.float32)
    return pairwise_distances(q, quantizer.decode(c), metric)


# ----------------------------------------------------------------------
# ADC kernels (product-quantized scan path)
# ----------------------------------------------------------------------

#: Metrics the ADC lookup-table kernel supports (same set as the other
#: kernels; cosine needs the additive codeword-norm table).
SUPPORTED_ADC_METRICS = ("l2", "cosine", "dot")


class AdcTable:
    """One query's asymmetric-distance lookup state (M x K tables).

    Because PQ distances decompose over sub-spaces, every per-sub-
    vector term a partition scan could need is a function of (query,
    codebook) alone — so it is computed ONCE per query here, and
    scoring a partition of packed uint8 codes reduces to a vectorized
    table gather plus a row sum. No dequantization, no float32 copy of
    the partition: the only transient is the (n, M) gathered float32
    block, ``4 * M`` bytes per row — the same footprint class as the
    codes themselves.

    ``lut`` holds, per (sub-space, centroid):

    - l2: the partial squared distance ``||q_m - c||^2`` (sums to the
      exact squared distance to the reconstruction);
    - dot: the negated partial inner product (sums to ``-(q · x̂)``);
    - cosine: the raw partial inner product; ``norm2`` then holds
      ``||c||^2`` so ``||x̂||^2`` is a second gather+sum, and the
      distance is assembled as ``1 - ip / (||q|| * ||x̂||)``.
    """

    __slots__ = ("metric", "lut", "norm2", "query_norm", "_rows")

    def __init__(
        self,
        metric: str,
        lut: np.ndarray,
        norm2: np.ndarray | None = None,
        query_norm: float = 0.0,
    ) -> None:
        self.metric = metric
        self.lut = lut
        self.norm2 = norm2
        self.query_norm = query_norm
        self._rows = np.arange(lut.shape[0])[None, :]

    @property
    def num_subvectors(self) -> int:
        return int(self.lut.shape[0])


def adc_lookup_table(
    query: np.ndarray, quantizer, metric: str
) -> AdcTable:
    """Build one query's ``M x K`` ADC table(s) for a PQ quantizer.

    This is per-query state: the executors build it once per scan and
    reuse it for every partition; the serving scheduler builds one per
    admitted query so coalesced reads are scored per-consumer.
    """
    if metric not in SUPPORTED_ADC_METRICS:
        raise ConfigError(f"unsupported metric {metric!r}")
    q = np.asarray(query, dtype=np.float32).reshape(-1)
    books = quantizer.codebooks  # (M, K, dsub) float32
    m, _, dsub = books.shape
    if q.shape[0] != m * dsub:
        raise ValueError(
            f"dimension mismatch: query {q.shape[0]} vs quantizer "
            f"{m * dsub}"
        )
    qm = q.reshape(m, dsub)
    if metric == "l2":
        diff = qm[:, None, :] - books
        lut = np.einsum(
            "mkd,mkd->mk", diff, diff, dtype=np.float64
        ).astype(np.float32)
        return AdcTable("l2", lut)
    ip = np.einsum("md,mkd->mk", qm, books, dtype=np.float64).astype(
        np.float32
    )
    if metric == "dot":
        return AdcTable("dot", -ip)
    return AdcTable(
        "cosine",
        ip,
        norm2=quantizer.codeword_sq_norms,
        query_norm=float(np.linalg.norm(q)),
    )


def adc_scores(table: AdcTable, codes: np.ndarray) -> np.ndarray:
    """Score packed uint8 PQ codes against one query's ADC table (1-D).

    ``table.lut[m, codes[:, m]]`` gathered for all rows at once, then
    one float32 row-sum — the whole scan kernel. Approximates the true
    distances to within the quantization error, which is why the scan
    keeps ``rerank_factor * k`` candidates and re-scores them exactly.
    """
    c = np.atleast_2d(np.asarray(codes))
    if c.shape[0] == 0:
        return np.empty(0, dtype=np.float32)
    if c.shape[1] != table.num_subvectors:
        raise ValueError(
            f"code width {c.shape[1]} does not match the table's "
            f"{table.num_subvectors} sub-vectors"
        )
    total = table.lut[table._rows, c].sum(axis=1, dtype=np.float32)
    if table.metric == "l2":
        np.maximum(total, 0.0, out=total)
        return total
    if table.metric == "dot":
        return total
    norm2 = table.norm2[table._rows, c].sum(axis=1, dtype=np.float32)
    norms = np.sqrt(np.maximum(norm2, 0.0))
    # Each norm is floored by _EPS separately, mirroring the float
    # kernel's normalization so near-zero vectors degrade identically.
    denom = max(table.query_norm, _EPS) * np.maximum(norms, _EPS)
    sims = total / denom
    np.clip(sims, -1.0, 1.0, out=sims)
    return (1.0 - sims).astype(np.float32)


def adc_distances_to_one(
    query: np.ndarray, codes: np.ndarray, quantizer, metric: str
) -> np.ndarray:
    """ADC distances from one query to each coded row (1-D result)."""
    return adc_scores(adc_lookup_table(query, quantizer, metric), codes)


def adc_pairwise_distances(
    queries: np.ndarray, codes: np.ndarray, quantizer, metric: str
) -> np.ndarray:
    """ADC distance matrix of shape (num_queries, num_codes).

    One table per query row, each scored with :func:`adc_scores`, so
    every row is bit-identical to the single-query kernel — the
    property the MQO batch path's parity tests rely on.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    c = np.atleast_2d(np.asarray(codes))
    out = np.empty((q.shape[0], c.shape[0]), dtype=np.float32)
    for row in range(q.shape[0]):
        out[row] = adc_distances_to_one(q[row], c, quantizer, metric)
    return out


# ----------------------------------------------------------------------
# Quantizer-kind dispatch (the executors' single entry points)
# ----------------------------------------------------------------------


def make_code_scorer(query: np.ndarray, quantizer, metric: str):
    """One query's coded-partition scorer: ``scorer(codes) -> dists``.

    The per-query state rule in one place: for PQ the ADC table is
    built here, once, and closed over — every partition of the scan
    (and every coalesced read a served query consumes) reuses it. For
    SQ8 the closure is the block-fused asymmetric kernel, which needs
    no per-query precomputation. Thread-safe: the closed-over state is
    read-only, so pipeline compute workers may share one scorer.
    """
    if quantizer.kind == "pq":
        table = adc_lookup_table(query, quantizer, metric)
        return lambda codes: adc_scores(table, codes)
    q = np.asarray(query, dtype=np.float32)
    return lambda codes: asymmetric_distances_to_one(
        q, codes, quantizer, metric
    )
