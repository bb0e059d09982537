"""Top-K selection over scored partitions, and surfacing (paper §3.3).

A warm scan ends in one cut. Every cache-resident partition of the
probe set is scored into one float32 distance array, and
:func:`rank_scored` cuts that array to the K best once. Only then are
the survivors' slots mapped back to their partitions (a
``searchsorted`` over the entries' start offsets) and their asset-id
strings read: the scan itself handles integer positions only.

Loops that see partitions one at a time — cold and pipelined scans,
quantized scans, the batch executor, the serving scheduler — fold each
one into a :class:`TopKHeap` instead. It is not a heap of objects: a
partition is retained as one *chunk* — a reference to its asset-id
sequence, an owned distance array and the row positions those
distances belong to — by a constant number of NumPy calls
(:func:`push_topk`). Rows that can no longer reach the top K are pruned
against the running K-th distance, and the chunks are compacted with
``np.partition`` once they hold more than a fixed multiple of K rows,
so an accumulator retains O(K + one partition) rows.
:func:`merge_topk` concatenates the chunks of every accumulator and
makes the same cut.

Both cuts apply the library's ordering contract in one place
(:func:`_cut`): rank by ``(distance, asset_id)``, duplicate ids keep
their closest occurrence, and ids are read for the cut's survivors
only. :func:`surfaced_neighbors` then converts the survivors to
user-facing distances in one vectorised pass.

Distances keep the dtype they arrive in: float32 from the scan kernels,
float64 in the sharded gather merge (which ranks surfaced distances).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.types import Neighbor

#: Retained rows, as a multiple of the capacity, above which an
#: accumulator compacts down to its K best (plus ties).
_COMPACT_FACTOR = 8

_INF = float("inf")


def _smallest(dist: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` smallest values and every tie with
    the last of them (all positions when there are no more rows)."""
    if count >= dist.shape[0]:
        return np.arange(dist.shape[0])
    kth = np.partition(dist, count - 1)[count - 1]
    return np.flatnonzero(dist <= kth)


def _within(
    dist: np.ndarray, rows: np.ndarray | None, bound: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``(distances, rows)`` at or under ``bound`` (``rows`` is
    ``None`` for every position in order). Rows tied with the bound
    stay: a tie can still win on the asset-id tie-break."""
    keep = np.flatnonzero(dist <= bound)
    if keep.shape[0] == dist.shape[0]:
        return dist, rows
    return dist[keep], keep if rows is None else rows[keep]


class TopKHeap:
    """Fixed-capacity accumulator of the K smallest distances offered.

    Holds ``(asset_ids, distances, rows)`` chunks: ``distances[i]`` is
    the distance of ``asset_ids[rows[i]]``. Not thread-safe: one per
    worker (or per scheduled query, under the task's lock), merged with
    :func:`merge_topk` after the join.
    """

    __slots__ = ("_capacity", "_chunks", "_retained", "_bound", "_stale")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._chunks: list[tuple[Sequence[str], np.ndarray, np.ndarray]] = []
        self._retained = 0
        # An upper bound on the K-th smallest distance offered so far
        # (the pruning threshold); exact unless rows were retained
        # since it was last computed (``_stale``).
        self._bound = _INF
        self._stale = False

    def __len__(self) -> int:
        """Rows counting toward the top K (at most the capacity)."""
        return min(self._retained, self._capacity)

    def worst_distance(self) -> float:
        """The exact K-th smallest distance offered so far — the
        admission threshold (+inf while fewer than K rows were)."""
        if self._stale:
            self._stale = False
            if self._retained >= self._capacity:
                dist = np.concatenate([d for _, d, _ in self._chunks])
                k = self._capacity
                self._bound = float(np.partition(dist, k - 1)[k - 1])
        return self._bound

    def _fold(
        self,
        asset_ids: Sequence[str],
        dist: np.ndarray,
        rows: np.ndarray | None,
    ) -> None:
        """Retain one partition's rows that can still reach the top K
        (a stale bound only ever keeps a superset of them)."""
        if self._bound != _INF:
            dist, rows = _within(dist, rows, self._bound)
            if not dist.shape[0]:
                return
        if rows is None:
            rows = np.arange(dist.shape[0])
        if dist.base is not None:
            # Own what is retained: a view would pin the buffer it was
            # cut from (a GEMM output row, a scratch-pool lease).
            dist = dist.copy()
        self._chunks.append((asset_ids, dist, rows))
        self._retained += dist.shape[0]
        self._stale = True
        if self._retained > _COMPACT_FACTOR * self._capacity:
            self._compact()

    def _compact(self) -> None:
        """Drop every retained row beyond the K-th smallest distance."""
        bound = self.worst_distance()
        chunks = []
        for asset_ids, dist, rows in self._chunks:
            dist, rows = _within(dist, rows, bound)
            if dist.shape[0]:
                chunks.append((asset_ids, dist, rows))
        self._chunks = chunks
        self._retained = sum(len(dist) for _, dist, _ in chunks)


def push_topk(
    heap: TopKHeap,
    asset_ids: Sequence[str],
    distances,
    k: int | None = None,
    rows: np.ndarray | None = None,
) -> None:
    """Fold one partition's distance vector into an accumulator.

    ``distances[i]`` belongs to ``asset_ids[i]``, or to
    ``asset_ids[rows[i]]`` when ``rows`` (the positions a filter kept)
    is given. ``k`` is accepted for the historical call shape only: the
    cut is always the accumulator's capacity.
    """
    dist = np.asarray(distances)
    if dist.shape[0] != (len(asset_ids) if rows is None else len(rows)):
        raise ValueError("asset_ids and distances length mismatch")
    if dist.shape[0]:
        heap._fold(asset_ids, dist, rows)


def _cut(
    dist: np.ndarray, k: int, ids_at: Callable[[np.ndarray], list[str]]
) -> tuple[list[str], np.ndarray]:
    """The K best of ``dist``, closest first, as ``(asset_ids,
    distances)``.

    ``ids_at`` maps positions in ``dist`` to their asset ids; it is
    called for the rows that survive the distance cut only. Ranked by
    ``(distance, asset_id)``, duplicate ids keeping their closest
    occurrence (an asset can be seen both in its partition and in the
    delta during a concurrent flush); the cut widens when
    de-duplication leaves fewer than K while rows remain.
    """
    take = k
    while True:
        cut = _smallest(dist, take)
        cut = cut[np.argsort(dist[cut], kind="stable")]
        ranked = dist[cut]
        asset_ids = ids_at(cut)
        if (ranked[1:] == ranked[:-1]).any() or len(set(asset_ids)) < len(
            asset_ids
        ):
            # Tied distances rank by asset id; a repeated id keeps its
            # closest occurrence. Otherwise the numeric order stands.
            closest: dict[str, float] = {}
            for d, asset_id in sorted(zip(ranked.tolist(), asset_ids)):
                closest.setdefault(asset_id, d)
            asset_ids = list(closest)
            ranked = np.array(list(closest.values()), dtype=dist.dtype)
        if len(asset_ids) >= k or cut.shape[0] == dist.shape[0]:
            return asset_ids[:k], ranked[:k]
        take = cut.shape[0] + k - len(asset_ids)


def rank_scored(
    dist: np.ndarray,
    starts: np.ndarray,
    asset_ids: Sequence[Sequence[str]],
    k: int,
    rows: Sequence[np.ndarray | None] | None = None,
) -> tuple[list[str], np.ndarray]:
    """One cut over a whole probe set scored into one array.

    Slots ``starts[i]`` up to ``starts[i + 1]`` of ``dist`` (or its
    end) belong to ``asset_ids[i]``: the ``j``-th of them is row ``j``
    of it, or row ``rows[i][j]`` when ``rows[i]`` (the positions a
    filter kept) is given. Returns what :func:`merge_topk` returns for
    the same rows folded through accumulators.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    row_of = None
    if rows is not None and any(kept is not None for kept in rows):
        ends = [*starts[1:].tolist(), dist.shape[0]]
        row_of = np.concatenate(
            [
                np.arange(end - start) if kept is None else kept
                for kept, start, end in zip(rows, starts.tolist(), ends)
            ]
        )

    def ids_at(cut: np.ndarray) -> list[str]:
        which = np.searchsorted(starts, cut, side="right") - 1
        pos = cut - starts[which] if row_of is None else row_of[cut]
        return [
            asset_ids[i][p] for i, p in zip(which.tolist(), pos.tolist())
        ]

    return _cut(dist, k, ids_at)


def merge_topk(
    heaps: list[TopKHeap], k: int
) -> tuple[list[str], np.ndarray]:
    """Merge accumulators into the global top-K, closest first, by
    :func:`_cut`'s ordering contract."""
    if k < 1:
        raise ValueError("k must be >= 1")
    chunks = [chunk for heap in heaps for chunk in heap._chunks]
    if not chunks:
        return [], np.empty(0, dtype=np.float32)
    sequences = [ids for ids, _, _ in chunks]
    rows = np.concatenate([r for _, _, r in chunks])
    source = np.repeat(
        np.arange(len(chunks)), [len(d) for _, d, _ in chunks]
    )

    def ids_at(cut: np.ndarray) -> list[str]:
        return [
            sequences[chunk][row]
            for chunk, row in zip(source[cut].tolist(), rows[cut].tolist())
        ]

    return _cut(np.concatenate([d for _, d, _ in chunks]), k, ids_at)


def neighbors(
    asset_ids: Sequence[str], distances: Sequence[float]
) -> tuple[Neighbor, ...]:
    """``Neighbor`` tuples, built without the per-item constructor."""
    new = tuple.__new__
    return tuple([new(Neighbor, pair) for pair in zip(asset_ids, distances)])


def surfaced_neighbors(
    merged: tuple[list[str], np.ndarray], metric: str
) -> tuple[Neighbor, ...]:
    """Convert :func:`merge_topk` (or :func:`rank_scored`) output to
    surfaced, canonically ordered :class:`~repro.core.types.Neighbor`
    tuples.

    The input is ordered by *internal* distance (squared L2); surfacing
    applies ``sqrt`` — in float64, element-wise what
    :func:`repro.query.distance.surface_distance` computes — which is
    monotone but can collapse two adjacent values into one, leaving a
    pair ordered by an internal difference the caller can no longer
    observe. The re-sort here makes the *public* ordering contract
    self-contained: ranked by ``(surfaced distance, asset_id)``,
    nothing else. Every surface point routes through this function —
    the serial executor, the batch executor, the serving scheduler and
    (transitively) the sharded gather merge — so all of them share one
    contract, and a sharded database (which can only merge on surfaced
    values) orders exactly like an unsharded one even across sqrt
    collisions. Surfacing is monotone, so the input order stands
    unless two surfaced values are equal; only then is it re-sorted.
    """
    asset_ids, dist = merged
    surfaced = dist.astype(np.float64)
    if metric == "l2":
        surfaced = np.sqrt(np.maximum(surfaced, 0.0))
    distances = surfaced.tolist()
    if (surfaced[1:] == surfaced[:-1]).any():
        distances, asset_ids = zip(*sorted(zip(distances, asset_ids)))
    return neighbors(asset_ids, distances)
