"""Thread-safe metrics registry: counters, gauges, histograms.

The registry is the aggregation layer over the per-query
``QueryStats`` objects: every engine owns one
(:attr:`StorageEngine.metrics`) and the instrumented hot paths fold
their per-operation signals into labelled instruments — partition
temperature (hot/cold), storage-backend kind, scan mode, serve
outcome. ``snapshot()`` produces an immutable, mergeable view that
renders to Prometheus text exposition (format 0.0.4) or JSON;
:func:`merge_snapshots` relabels and folds per-shard snapshots into
the fleet view ``ShardedMicroNN.metrics()`` returns.

Cost model: a disabled registry (``telemetry_enabled=False``) makes
every instrument call a single attribute check — no lock, no dict
touch — so the hot paths stay instrumented unconditionally and the
bench gate (``benchmarks/bench_obs_overhead.py``) bounds the enabled
cost instead.

Instruments are *registered* idempotently: asking for an existing
name returns the existing instrument (kind and label names must
match), so the executor, scheduler, and engine can each declare what
they record without coordinating creation order.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "FamilySnapshot",
    "SampleSnapshot",
    "HistogramValue",
    "merge_snapshots",
    "LATENCY_BUCKETS_S",
    "BYTES_BUCKETS",
    "WAIT_MS_BUCKETS",
    "DEPTH_BUCKETS",
    "RECALL_BUCKETS",
]

#: Query/operation latency buckets, seconds (0.5 ms .. 2.5 s).
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)
#: Per-query / per-load byte-volume buckets (4 KiB .. 64 MiB).
BYTES_BUCKETS = (
    4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0, 67108864.0,
)
#: Scheduler queue-wait buckets, milliseconds.
WAIT_MS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)
#: Pipeline prefetch-depth buckets (work items in flight).
DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: Recall@k buckets (fractions; dense near 1.0 where tuning happens).
RECALL_BUCKETS = (
    0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
)

_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True, slots=True)
class HistogramValue:
    """Immutable histogram state: cumulative bucket counts + sum."""

    #: Upper bounds of the finite buckets (``+Inf`` is implicit).
    buckets: tuple[float, ...]
    #: Cumulative counts per bound, plus the ``+Inf`` count last —
    #: ``len(counts) == len(buckets) + 1`` and ``counts[-1] == count``.
    counts: tuple[int, ...]
    sum: float
    count: int


@dataclass(frozen=True, slots=True)
class SampleSnapshot:
    """One labelled time series inside a family."""

    #: ``(name, value)`` pairs in the family's declared label order
    #: (merge labels, e.g. ``shard``, are prepended).
    labels: tuple[tuple[str, str], ...]
    value: float | None = None
    histogram: HistogramValue | None = None


@dataclass(frozen=True, slots=True)
class FamilySnapshot:
    """All samples of one named metric at snapshot time."""

    name: str
    kind: str
    help: str
    samples: tuple[SampleSnapshot, ...]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Iterable[tuple[str, str]]) -> str:
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in labels
    )
    return f"{{{inner}}}" if inner else ""


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _bound_str(bound: float) -> str:
    return _format_value(bound)


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Point-in-time, immutable view of a registry (or a merged fleet)."""

    families: tuple[FamilySnapshot, ...]

    def family(self, name: str) -> FamilySnapshot | None:
        for fam in self.families:
            if fam.name == name:
                return fam
        return None

    def _sample(
        self, name: str, labels: Mapping[str, str] | None
    ) -> SampleSnapshot | None:
        fam = self.family(name)
        if fam is None:
            return None
        want = {k: str(v) for k, v in (labels or {}).items()}
        for sample in fam.samples:
            have = dict(sample.labels)
            if all(have.get(k) == v for k, v in want.items()):
                return sample
        return None

    def value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        """Sum of matching counter/gauge samples (0.0 when absent).

        ``labels`` is a subset match: ``value("x", {"backend": "memory"})``
        sums every sample whose labels include that pair.
        """
        fam = self.family(name)
        if fam is None:
            return 0.0
        want = {k: str(v) for k, v in (labels or {}).items()}
        total = 0.0
        for sample in fam.samples:
            have = dict(sample.labels)
            if sample.value is not None and all(
                have.get(k) == v for k, v in want.items()
            ):
                total += sample.value
        return total

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> HistogramValue | None:
        """The first histogram sample matching the label subset."""
        sample = self._sample(name, labels)
        return sample.histogram if sample is not None else None

    def histogram_count(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> int:
        """Total observation count across matching histogram samples."""
        fam = self.family(name)
        if fam is None:
            return 0
        want = {k: str(v) for k, v in (labels or {}).items()}
        total = 0
        for sample in fam.samples:
            have = dict(sample.labels)
            if sample.histogram is not None and all(
                have.get(k) == v for k, v in want.items()
            ):
                total += sample.histogram.count
        return total

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition (format 0.0.4)."""
        lines: list[str] = []
        for fam in self.families:
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for sample in fam.samples:
                if sample.histogram is not None:
                    hist = sample.histogram
                    for bound, count in zip(hist.buckets, hist.counts):
                        labels = sample.labels + (
                            ("le", _bound_str(bound)),
                        )
                        lines.append(
                            f"{fam.name}_bucket"
                            f"{_render_labels(labels)} {count}"
                        )
                    labels = sample.labels + (("le", "+Inf"),)
                    lines.append(
                        f"{fam.name}_bucket"
                        f"{_render_labels(labels)} {hist.counts[-1]}"
                    )
                    lines.append(
                        f"{fam.name}_sum{_render_labels(sample.labels)} "
                        f"{_format_value(hist.sum)}"
                    )
                    lines.append(
                        f"{fam.name}_count{_render_labels(sample.labels)} "
                        f"{hist.count}"
                    )
                else:
                    lines.append(
                        f"{fam.name}{_render_labels(sample.labels)} "
                        f"{_format_value(sample.value or 0.0)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        families = []
        for fam in self.families:
            samples = []
            for sample in fam.samples:
                entry: dict = {"labels": dict(sample.labels)}
                if sample.histogram is not None:
                    hist = sample.histogram
                    entry["histogram"] = {
                        "buckets": list(hist.buckets),
                        "counts": list(hist.counts),
                        "sum": hist.sum,
                        "count": hist.count,
                    }
                else:
                    entry["value"] = sample.value
                samples.append(entry)
            families.append(
                {
                    "name": fam.name,
                    "kind": fam.kind,
                    "help": fam.help,
                    "samples": samples,
                }
            )
        return {"families": families}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _Instrument:
    """Base: a named family of labelled samples behind one lock."""

    __slots__ = (
        "name",
        "help",
        "label_names",
        "_enabled",
        "_lock",
        "_samples",
    )

    kind = ""

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        enabled: bool,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._enabled = enabled
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_pairs(
        self, key: tuple[str, ...]
    ) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.label_names, key))

    def _snapshot_samples(self) -> tuple[SampleSnapshot, ...]:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonic counter."""

    __slots__ = ()
    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if self._enabled:
            self._add(self._key(labels), value)

    def bound(self, **labels: object) -> Callable[..., None]:
        """``inc`` for one fixed label set, its key resolved once: what
        a hot path calls instead of re-deriving the key per event."""
        key = self._key(labels)
        if not self._enabled:
            return lambda value=1.0: None
        return lambda value=1.0: self._add(key, value)

    def _add(self, key: tuple[str, ...], value: float) -> None:
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value

    def _snapshot_samples(self) -> tuple[SampleSnapshot, ...]:
        with self._lock:
            items = sorted(self._samples.items())
        return tuple(
            SampleSnapshot(labels=self._label_pairs(key), value=float(val))
            for key, val in items
        )


class Gauge(_Instrument):
    """Last-write-wins gauge; also supports pull-time callbacks."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            current = self._samples.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"{self.name}{key}: cannot add to a callback gauge"
                )
            self._samples[key] = current + value

    def set_fn(self, fn: Callable[[], float], **labels: object) -> None:
        """Register a callback evaluated at snapshot time.

        Re-registering the same label set replaces the callback (so a
        recreated component — e.g. a new scheduler — takes over its
        gauge). A callback that raises is dropped from that snapshot.
        """
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = fn

    def _snapshot_samples(self) -> tuple[SampleSnapshot, ...]:
        with self._lock:
            items = sorted(self._samples.items())
        out = []
        for key, val in items:
            if callable(val):
                try:
                    val = float(val())
                except Exception:
                    continue
            out.append(
                SampleSnapshot(
                    labels=self._label_pairs(key), value=float(val)
                )
            )
        return tuple(out)


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __slots__ = ("buckets",)
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        enabled: bool,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help_text, label_names, enabled)
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"{name}: buckets must be non-empty, sorted, unique"
            )
        self.buckets = ordered

    def observe(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = [[0] * (len(self.buckets) + 1), 0.0]
                self._samples[key] = state
            state[0][idx] += 1
            state[1] += value

    def _snapshot_samples(self) -> tuple[SampleSnapshot, ...]:
        with self._lock:
            items = [
                (key, (list(state[0]), state[1]))
                for key, state in sorted(self._samples.items())
            ]
        out = []
        for key, (raw_counts, total) in items:
            cumulative: list[int] = []
            running = 0
            for count in raw_counts:
                running += count
                cumulative.append(running)
            out.append(
                SampleSnapshot(
                    labels=self._label_pairs(key),
                    histogram=HistogramValue(
                        buckets=self.buckets,
                        counts=tuple(cumulative),
                        sum=float(total),
                        count=running,
                    ),
                )
            )
        return tuple(out)


class MetricsRegistry:
    """Owner of all instruments for one database engine.

    Registration is idempotent and thread-safe; instrument updates are
    lock-per-family. ``enabled=False`` turns every update into a bare
    attribute check (the no-op fast path the overhead bench gates).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: dict[str, _Instrument] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._families.get(instrument.name)
            if existing is None:
                self._families[instrument.name] = instrument
                return instrument
            if (
                existing.kind != instrument.kind
                or existing.label_names != instrument.label_names
            ):
                raise ValueError(
                    f"metric {instrument.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}"
                )
            return existing

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> Counter:
        instrument = self._register(
            Counter(name, help_text, tuple(labels), self._enabled)
        )
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> Gauge:
        instrument = self._register(
            Gauge(name, help_text, tuple(labels), self._enabled)
        )
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labels: Sequence[str] = (),
    ) -> Histogram:
        instrument = self._register(
            Histogram(name, help_text, tuple(labels), self._enabled, buckets)
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            families = sorted(self._families.items())
        return MetricsSnapshot(
            families=tuple(
                FamilySnapshot(
                    name=name,
                    kind=fam.kind,
                    help=fam.help,
                    samples=fam._snapshot_samples(),
                )
                for name, fam in families
            )
        )


def _merge_histograms(
    a: HistogramValue, b: HistogramValue
) -> HistogramValue:
    if a.buckets != b.buckets:
        raise ValueError("cannot merge histograms with different buckets")
    return HistogramValue(
        buckets=a.buckets,
        counts=tuple(x + y for x, y in zip(a.counts, b.counts)),
        sum=a.sum + b.sum,
        count=a.count + b.count,
    )


def merge_snapshots(
    snapshots: Sequence[MetricsSnapshot],
    extra_labels: Sequence[Mapping[str, str]] | None = None,
) -> MetricsSnapshot:
    """Fold N snapshots into one, optionally relabelling each.

    ``extra_labels[i]`` (e.g. ``{"shard": "0"}``) is prepended to every
    sample of ``snapshots[i]`` — the shard-merged ``metrics()`` view.
    Samples that still collide (no distinguishing label) are summed.
    """
    if extra_labels is not None and len(extra_labels) != len(snapshots):
        raise ValueError("extra_labels must parallel snapshots")
    merged: dict[str, tuple[str, str, dict]] = {}
    order: list[str] = []
    for i, snap in enumerate(snapshots):
        prefix: tuple[tuple[str, str], ...] = ()
        if extra_labels is not None:
            prefix = tuple(
                (k, str(v)) for k, v in sorted(extra_labels[i].items())
            )
        for fam in snap.families:
            if fam.name not in merged:
                merged[fam.name] = (fam.kind, fam.help, {})
                order.append(fam.name)
            kind, _, samples = merged[fam.name]
            if kind != fam.kind:
                raise ValueError(
                    f"metric {fam.name!r} has conflicting kinds"
                )
            for sample in fam.samples:
                labels = prefix + sample.labels
                existing = samples.get(labels)
                if existing is None:
                    samples[labels] = (sample.value, sample.histogram)
                else:
                    value, hist = existing
                    if sample.histogram is not None:
                        samples[labels] = (
                            None,
                            _merge_histograms(hist, sample.histogram),
                        )
                    else:
                        samples[labels] = (
                            (value or 0.0) + (sample.value or 0.0),
                            None,
                        )
    families = []
    for name in sorted(order):
        kind, help_text, samples = merged[name]
        families.append(
            FamilySnapshot(
                name=name,
                kind=kind,
                help=help_text,
                samples=tuple(
                    SampleSnapshot(
                        labels=labels, value=value, histogram=hist
                    )
                    for labels, (value, hist) in sorted(samples.items())
                ),
            )
        )
    return MetricsSnapshot(families=tuple(families))
