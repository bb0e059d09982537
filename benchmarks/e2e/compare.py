"""Compare two full records of ``run.py --out``: ``compare.py A B``.

One row per (workload, end-to-end metric): both medians and IQRs, the
ratio with its base, and a verdict from the bound ``BENCHMARK.json``
declares. Under each row that moved, the per-layer metric of that
workload that changed most, so a regression names a layer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(
    a: float, b: float, iqr_a: float, iqr_b: float, better: str, bound: float
) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved``.

    ``bound`` is the share of A's median by which B may be worse. When
    either side's IQR is wider than that, the pair cannot be resolved.
    """
    if max(iqr_a, iqr_b) > bound * abs(a):
        return "unresolved"
    worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def layer_that_moved(a: dict, b: dict) -> tuple[str, float, float] | None:
    """The per-layer metric with the largest relative change, among
    those both records exercised."""
    skip = set(a.get("not_exercised", [])) | set(b.get("not_exercised", []))
    best = None
    for name, entry in a.get("per_layer", {}).items():
        other = b.get("per_layer", {}).get(name)
        if name in skip or other is None or entry["value"] == 0:
            continue
        change = abs(other["value"] - entry["value"]) / abs(entry["value"])
        if best is None or change > best[0]:
            best = (change, name, entry["value"], other["value"])
    return None if best is None else best[1:]


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = a["workloads"].get(workload)
        side_b = b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea = side_a["end_to_end"][name]
            eb = side_b["end_to_end"][name]
            row = {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": ea["value"],
                "b": eb["value"],
                "iqr_a": ea.get("iqr", 0.0),
                "iqr_b": eb.get("iqr", 0.0),
                "ratio": eb["value"] / ea["value"],
                "verdict": verdict(
                    ea["value"],
                    eb["value"],
                    ea.get("iqr", 0.0),
                    eb.get("iqr", 0.0),
                    metric["better"],
                    metric["bound"],
                ),
            }
            if row["verdict"] in ("improved", "regressed"):
                row["layer"] = layer_that_moved(side_a, side_b)
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        lines.append(
            f"{row['workload']:16s} {row['metric']:22s} "
            f"A {row['a']:.5g} (iqr {row['iqr_a']:.3g})  "
            f"B {row['b']:.5g} (iqr {row['iqr_b']:.3g})  "
            f"B/A {row['ratio']:.3f} of {row['a']:.5g} {row['unit']}  "
            f"{row['verdict']}"
        )
        if row.get("layer"):
            name, was, now = row["layer"]
            lines.append(
                f"{'':16s}   layer that moved most: {name} "
                f"{was:.5g} -> {now:.5g} ({now / was:.3f} of {was:.5g})"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, json.loads(DECLARATION.read_text()))
    print(render(rows))
    for side, record in (("A", a), ("B", b)):
        if record["machine"]["non_standard"]:
            print(f"warning: {side} is not a standard-scale run")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
