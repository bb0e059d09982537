"""Evidence-backed tuning recommendations over the observed workload.

``MicroNN.advise()`` / ``ShardedMicroNN.advise()`` (and the CLI's
``repro advise``) funnel here: a pure rule engine over the telemetry
the database already collected — the shadow-audit summary
(:mod:`repro.obs.audit`), the workload sketch and partition heatmap
(:mod:`repro.obs.workload`), the metrics snapshot, and ``IndexStats``.
Every recommendation carries the observed numbers that justify it;
a rule with no evidence stays silent rather than guessing.

The catalog (see README "Quality auditing & advisor"):

- ``default_nprobe`` — raise when audited recall runs below target
  (the paper's latency/recall knob, Fig. 6), lower when recall is
  saturated and probe sets are large;
- ``rerank_factor`` — raise when a quantized scan mode shows the
  recall loss;
- ``adaptive_nprobe_margin`` — tighten when early termination is
  skipping probe-set partitions while recall is low;
- ``device.partition_cache_bytes`` — grow when the hot set misses the
  cache on most loads;
- ``quantization`` — sq8↔pq switch suggestions from code size vs
  observed recall headroom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.audit import AuditSummary
from repro.obs.workload import WorkloadSnapshot

__all__ = [
    "Recommendation",
    "build_recommendations",
    "format_recommendations",
    "combine_audit_summaries",
]

#: Audited queries a recall-based rule needs before it may speak.
_MIN_AUDITS = 8
#: Recall target the rules tune toward (never below the configured
#: dip floor, never demanding the impossible 1.0).
_RECALL_TARGET = 0.95


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One structured tuning recommendation with its evidence."""

    #: Config knob the recommendation targets (dotted path).
    knob: str
    #: "raise" | "lower" | "switch" | "keep" | "enable".
    action: str
    #: Current value, rendered.
    current: str
    #: Suggested value, rendered.
    suggested: str
    #: "warn" (quality/cost problem observed) or "info".
    severity: str
    #: Observed numbers justifying the recommendation.
    evidence: str
    #: One-sentence why.
    rationale: str


def combine_audit_summaries(
    summaries: list[AuditSummary],
) -> AuditSummary:
    """Fold per-shard audit summaries into one fleet summary.

    Counts sum; means weight by audited-query counts; the sliding
    windows concatenate by weight (the fleet "window" is the union of
    the shards' windows).
    """
    audited = sum(s.audited_queries for s in summaries)
    window_size = sum(s.window_size for s in summaries)
    by_label: dict[tuple[str, str, int], list] = {}
    for summary in summaries:
        for key, count, mean in summary.by_label:
            row = by_label.setdefault(key, [0, 0.0])
            row[0] += count
            row[1] += mean * count
    return AuditSummary(
        audited_queries=audited,
        mean_recall=(
            sum(s.mean_recall * s.audited_queries for s in summaries)
            / audited
            if audited
            else 0.0
        ),
        window_mean=(
            sum(s.window_mean * s.window_size for s in summaries)
            / window_size
            if window_size
            else 0.0
        ),
        window_size=window_size,
        recall_dips=sum(s.recall_dips for s in summaries),
        dropped=sum(s.dropped for s in summaries),
        by_label=tuple(
            (key, row[0], row[1] / row[0])
            for key, row in sorted(by_label.items())
        ),
    )


def _audit_evidence(
    audit: AuditSummary,
    floor: float,
    per_shard: tuple[tuple[str, AuditSummary], ...],
) -> str:
    parts = [
        f"audited recall@k mean {audit.mean_recall:.3f} over "
        f"{audit.audited_queries} shadow-audited queries "
        f"(floor {floor:g}, dips {audit.recall_dips})"
    ]
    ladder = audit.recall_at_nprobe()
    if len(ladder) > 1:
        parts.append(
            "recall by nprobe: "
            + ", ".join(
                f"nprobe={n}: {mean:.3f} (n={count})"
                for n, count, mean in ladder
            )
        )
    shard_rows = [
        f"{label}={s.mean_recall:.3f} (n={s.audited_queries})"
        for label, s in per_shard
        if s.audited_queries
    ]
    if shard_rows:
        parts.append("per-shard recall: " + ", ".join(shard_rows))
    return "; ".join(parts)


def build_recommendations(
    config,
    index_stats,
    snapshot,
    audit: AuditSummary | None,
    workload: WorkloadSnapshot | None,
    per_shard_audit: tuple[tuple[str, AuditSummary], ...] = (),
) -> tuple[Recommendation, ...]:
    """The rule engine. Pure: inputs in, recommendations out."""
    recs: list[Recommendation] = []
    floor = config.audit_recall_floor
    sketch = workload.sketch if workload is not None else None
    audited = audit.audited_queries if audit is not None else 0
    recall_known = audited >= _MIN_AUDITS
    mean_recall = audit.mean_recall if audit is not None else 0.0
    low_recall = recall_known and mean_recall < max(floor, _RECALL_TARGET)

    observed_nprobe = config.default_nprobe
    if sketch is not None and sketch.nprobe_counts:
        observed_nprobe = sketch.median_nprobe
    partitions = max(index_stats.num_partitions, 1)

    if low_recall:
        evidence = _audit_evidence(audit, floor, per_shard_audit)
        suggested = min(max(observed_nprobe * 2, observed_nprobe + 1),
                        partitions)
        if suggested > observed_nprobe:
            recs.append(
                Recommendation(
                    knob="default_nprobe",
                    action="raise",
                    current=str(observed_nprobe),
                    suggested=str(suggested),
                    severity="warn",
                    evidence=evidence,
                    rationale=(
                        "observed recall runs below target; probing "
                        "more of the "
                        f"{index_stats.num_partitions} partitions is "
                        "the primary recall knob"
                    ),
                )
            )
        if config.uses_quantization:
            recs.append(
                Recommendation(
                    knob="rerank_factor",
                    action="raise",
                    current=str(config.rerank_factor),
                    suggested=str(config.rerank_factor * 2),
                    severity="warn",
                    evidence=(
                        f"scan mode {config.quantization} at "
                        f"{index_stats.code_bytes_per_vector:.0f} code "
                        f"bytes/vector; {evidence}"
                    ),
                    rationale=(
                        "a deeper exact-rerank pool recovers recall "
                        "lost to quantized scanning without touching "
                        "the probe set"
                    ),
                )
            )
        if (
            config.adaptive_nprobe_margin is not None
            and sketch is not None
            and sketch.skip_fraction > 0.05
        ):
            probed = sketch.partitions_skipped + sketch.partitions_scanned
            recs.append(
                Recommendation(
                    knob="adaptive_nprobe_margin",
                    action="lower",
                    current=f"{config.adaptive_nprobe_margin:g}",
                    suggested=f"{config.adaptive_nprobe_margin / 2:g}",
                    severity="warn",
                    evidence=(
                        "adaptive early termination skipped "
                        f"{sketch.partitions_skipped} of "
                        f"{probed} "
                        f"probe-set partitions "
                        f"({sketch.skip_fraction:.0%}) while "
                        f"{evidence}"
                    ),
                    rationale=(
                        "the margin is pruning partitions the query "
                        "needed; tighten it (or unset it) until "
                        "recall recovers"
                    ),
                )
            )

    # Cache sizing: most loads missing the cache while one hot set is
    # scanned repeatedly means the budget is below the working set.
    hot = snapshot.value(
        "micronn_partition_loads_total", {"temperature": "hot"}
    )
    cold = snapshot.value(
        "micronn_partition_loads_total", {"temperature": "cold"}
    )
    loads = hot + cold
    if loads >= 64 and cold / loads > 0.5:
        heat = workload.heatmap if workload is not None else ()
        working_set = sum(
            h.bytes_read // max(h.cold_misses, 1) for h in heat
        )
        budget = config.device.partition_cache_bytes
        evidence = (
            f"partition cache hit ratio {hot / loads:.0%} over "
            f"{loads:.0f} loads; "
            f"{snapshot.value('micronn_partition_bytes_read_total'):.0f} "
            f"bytes re-read from storage"
        )
        if working_set:
            evidence += (
                f"; hottest {len(heat)} partitions span "
                f"~{working_set} bytes vs a {budget} byte budget"
            )
        recs.append(
            Recommendation(
                knob="device.partition_cache_bytes",
                action="raise",
                current=str(budget),
                suggested=str(
                    max(budget * 2, int(working_set * 1.25) or 0)
                ),
                severity="info",
                evidence=evidence,
                rationale=(
                    "the scanned working set does not fit the "
                    "partition cache, so warm traffic pays cold I/O"
                ),
            )
        )

    # sq8 <-> pq: only with recall headroom (or deficit) actually
    # observed — code size alone never justifies a switch.
    if recall_known:
        if (
            config.quantization == "sq8"
            and mean_recall >= 0.98
            and config.dim >= 64
        ):
            recs.append(
                Recommendation(
                    knob="quantization",
                    action="switch",
                    current="sq8",
                    suggested="pq",
                    severity="info",
                    evidence=(
                        f"audited recall {mean_recall:.3f} over "
                        f"{audited} queries at "
                        f"{index_stats.code_bytes_per_vector:.0f} code "
                        f"bytes/vector (sq8 = 1 byte/dim)"
                    ),
                    rationale=(
                        "recall headroom suggests PQ's smaller codes "
                        "(1 byte/sub-vector) would cut scan bytes "
                        "further at acceptable recall; re-audit after "
                        "switching"
                    ),
                )
            )
        elif config.quantization == "pq" and mean_recall < 0.9:
            recs.append(
                Recommendation(
                    knob="quantization",
                    action="switch",
                    current="pq",
                    suggested="sq8",
                    severity="warn",
                    evidence=(
                        f"audited recall {mean_recall:.3f} over "
                        f"{audited} queries at "
                        f"{index_stats.code_bytes_per_vector:.0f} code "
                        f"bytes/vector"
                    ),
                    rationale=(
                        "PQ's coarser codes are costing recall this "
                        "workload cannot absorb; sq8 trades bytes "
                        "back for accuracy"
                    ),
                )
            )

    if not recs:
        if audited:
            recs.append(
                Recommendation(
                    knob="default_nprobe",
                    action="keep",
                    current=str(observed_nprobe),
                    suggested=str(observed_nprobe),
                    severity="info",
                    evidence=_audit_evidence(
                        audit, floor, per_shard_audit
                    ),
                    rationale=(
                        "audited recall meets the target; no tuning "
                        "change is indicated by the observed workload"
                    ),
                )
            )
        else:
            recs.append(
                Recommendation(
                    knob="audit_sample_rate",
                    action="enable",
                    current=f"{config.audit_sample_rate:g}",
                    suggested="0.05",
                    severity="info",
                    evidence=(
                        "0 shadow-audited queries recorded; recall-"
                        "based rules have no evidence to run on"
                    ),
                    rationale=(
                        "enable sampled shadow auditing so advise() "
                        "can observe live recall"
                    ),
                )
            )
    return tuple(recs)


def format_recommendations(recs: tuple[Recommendation, ...]) -> str:
    """Render recommendations as the CLI's human-readable report."""
    if not recs:
        return "no recommendations"
    lines = [f"tuning recommendations ({len(recs)}):"]
    for i, rec in enumerate(recs, 1):
        head = f"{i}. [{rec.severity}] {rec.action} {rec.knob}"
        if rec.action in ("raise", "lower", "switch"):
            head += f": {rec.current} -> {rec.suggested}"
        elif rec.action == "enable":
            head += f": {rec.current} -> {rec.suggested}"
        else:
            head += f" at {rec.current}"
        lines.append(head)
        lines.append(f"   why: {rec.rationale}")
        lines.append(f"   evidence: {rec.evidence}")
    return "\n".join(lines)
