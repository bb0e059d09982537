"""Top-K selection over scored partitions, and surfacing (paper §3.3).

Every scan ends in one cut. Each partition a scan scores becomes one
*slice* — its asset-id sequence, the positions of the scored rows in it
(``None`` for every row in order) and their distances — and
:func:`rank_slices` cuts all of a query's slices to the K best once
(:func:`rank_scored` when they already sit in one array). Only then are
the survivors' slots mapped back to their slices (a ``searchsorted``
over the start offsets) and their asset-id strings read: the scan
itself handles integer positions only.

The cut applies the library's ordering contract in one place
(:func:`_cut`): rank by ``(distance, asset_id)``, duplicate ids keep
their closest occurrence, and ids are read for the cut's survivors
only. :func:`surfaced_neighbors` then converts the survivors to
user-facing distances in one vectorised pass.

Adaptive-nprobe admission needs a bound while the scan runs, not the
cut: :class:`KthBound` keeps the running K-th distance offered.

:class:`TopKHeap`, :func:`push_topk` and :func:`merge_topk` are a chunk
collector over the same cut, kept for callers that time the collecting
and the cut apart; the scans do not use them.

Distances keep the dtype they arrive in: float32 from the scan kernels,
float64 in the sharded gather merge (which ranks surfaced distances).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from repro.core.types import Neighbor

#: One scored partition: its asset-id sequence, the positions of the
#: scored rows in it (``None`` = every row in order), their distances.
Slice = tuple[Sequence[str], np.ndarray | None, np.ndarray]

_INF = float("inf")


def _smallest(dist: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` smallest values and every tie with
    the last of them (all positions when there are no more rows)."""
    if count >= dist.shape[0]:
        return np.arange(dist.shape[0])
    kth = np.partition(dist, count - 1)[count - 1]
    return np.flatnonzero(dist <= kth)


class KthBound:
    """The K-th smallest distance offered so far (+inf below K rows):
    the adaptive-nprobe admission bound. Keeps the K smallest values,
    so an :meth:`offer` costs O(K + offered rows)."""

    __slots__ = ("_k", "_best", "value")

    def __init__(self, k: int) -> None:
        self._k = k
        self._best = np.empty(0, dtype=np.float32)
        self.value = _INF

    def offer(self, dist: np.ndarray) -> None:
        best = np.concatenate([self._best, dist])
        if best.shape[0] >= self._k:
            best = np.partition(best, self._k - 1)[: self._k]
            self.value = float(best[-1])
        self._best = best


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
    filter kept) is given.
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


def rank_slices(
    slices: Sequence[Slice], k: int
) -> tuple[list[str], np.ndarray]:
    """:func:`rank_scored` over a query's scored slices."""
    if not slices:
        return rank_scored(np.empty(0, np.float32), np.zeros(1, int), [()], k)
    asset_ids, rows, dists = zip(*slices)
    starts = np.fromiter(
        accumulate(map(len, dists[:-1]), initial=0), np.int64, len(dists)
    )
    return rank_scored(np.concatenate(dists), starts, asset_ids, k, rows)


class TopKHeap:
    """Collects ``(asset_ids, rows, distances)`` chunks for one
    :func:`merge_topk` cut. ``capacity`` is validated, not applied:
    the merge's ``k`` is the cut."""

    __slots__ = ("_chunks",)

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._chunks: list[Slice] = []

    def __len__(self) -> int:
        """Rows collected."""
        return sum(len(dist) for _, _, dist in self._chunks)


def push_topk(
    heap: TopKHeap,
    asset_ids: Sequence[str],
    distances,
    k: int | None = None,
    rows: np.ndarray | None = None,
) -> None:
    """Collect one partition's distance vector.

    ``distances[i]`` belongs to ``asset_ids[i]``, or to
    ``asset_ids[rows[i]]`` when ``rows`` (the positions a filter kept)
    is given. ``k`` is accepted for the historical call shape only.
    """
    dist = np.asarray(distances)
    if dist.shape[0] != (len(asset_ids) if rows is None else len(rows)):
        raise ValueError("asset_ids and distances length mismatch")
    if dist.shape[0]:
        if dist.base is not None:
            # Own what is collected: a view would follow the buffer it
            # was cut from.
            dist = dist.copy()
        heap._chunks.append((asset_ids, rows, dist))


def merge_topk(
    heaps: list[TopKHeap], k: int
) -> tuple[list[str], np.ndarray]:
    """The collected chunks of every heap, cut to the K best
    (:func:`rank_slices`)."""
    return rank_slices([chunk for heap in heaps for chunk in heap._chunks], k)


def neighbors(
    asset_ids: Sequence[str], distances: Sequence[float]
) -> tuple[Neighbor, ...]:
    """``Neighbor`` tuples, built without the per-item constructor."""
    new = tuple.__new__
    return tuple([new(Neighbor, pair) for pair in zip(asset_ids, distances)])


def surfaced_neighbors(
    merged: tuple[list[str], np.ndarray], metric: str
) -> tuple[Neighbor, ...]:
    """Convert a cut's ``(asset_ids, distances)`` to surfaced,
    canonically ordered :class:`~repro.core.types.Neighbor` tuples.

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
