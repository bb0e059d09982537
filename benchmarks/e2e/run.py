"""One command for every number: ``python3 benchmarks/e2e/run.py``.

With one ``--workload`` it prints that workload's declared metrics
(``--trace 0``: end to end, ``--trace 1``: per layer) as one JSON
object on the last line. Otherwise it runs the workloads named (all
seven by default), untraced and traced, and ``--out FILE`` keeps the
full record that ``compare.py`` reads. README.md has the protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
PAPER_HEADLINE = (
    "paper: top-100 at 90% recall in <7 ms inside ~10 MB, 1M vectors, "
    "native SIMD (compare constrained_ann)"
)


def cap_threads() -> int:
    """Cap the BLAS/OpenMP pools at ``nproc``; must run before NumPy
    is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        asked = os.environ.get(var, "")
        cap = min(int(asked), nproc) if asked.isdigit() else nproc
        os.environ[var] = str(cap)
    return nproc


def pin_hash_seed() -> None:
    """Restart the interpreter with ``PYTHONHASHSEED=0``. The hash seed
    decides the layout of every dict and set of strings, the program's
    asset ids among them; left random it is a per-process coin that
    moved the NumPy floor between two modes a tenth apart."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)


def declared() -> dict:
    return json.loads(DECLARATION.read_text())


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale
) -> dict:
    """One run of one workload: set-up, timed window, checks and, when
    ``trace``, the traced run. Returns the full record."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.harness import Ctx, median_iqr
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name]
    root = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    ctx = Ctx(seed=seed, seconds=seconds, scale=scale, workdir=root)
    record: dict = {"end_to_end": {}, "per_layer": {}}
    base = None
    try:
        # setup_s is timed only on untraced runs; a traced run sets up
        # once.
        setup_s = []
        for attempt in range(1 if trace else scale.setups):
            if base is not None:
                base.db.close()
                shutil.rmtree(ctx.workdir)
            ctx.workdir = root / f"setup{attempt}"
            start = time.perf_counter()
            base = workload.prepare(ctx)
            setup_s.append(time.perf_counter() - start)
        window = workload.measure(ctx, base)
        end_to_end = {"setup_s": median_iqr(setup_s)}
        for metric in window.rounds[0]:
            end_to_end[metric] = median_iqr(
                [r[metric] for r in window.rounds]
            )
        for metric, value in window.values.items():
            end_to_end[metric] = (value, 0.0)
        record["end_to_end"] = end_to_end
        record["rounds"] = len(window.rounds)
        if trace:
            entry, missing = layers.resolve_entry_points()
            spans = layers.Spans()
            per_layer = dict(window.layer)
            per_layer.update(
                {
                    "core.nprobe_star": float(base.nprobe),
                    "index.build_s": base.build_s,
                    "index.kmeans_iterations": float(base.kmeans_iterations),
                    "storage.populate_vps": scale.vectors / base.populate_s,
                }
            )
            per_layer.update(
                workload.layers(ctx, base, spans, entry, missing)
            )
            record["per_layer"] = per_layer
            record["layers_unavailable"] = missing
            traces = ROOT / ".bench_tmp" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{name}-seed{seed}.json").write_text(
                json.dumps(spans.chrome_trace())
            )
    finally:
        if base is not None:
            base.db.close()
        shutil.rmtree(root, ignore_errors=True)
    record.update(
        attempted=ctx.tally.attempted,
        failed=ctx.tally.failed,
        fail_reasons=ctx.tally.reasons,
        correct=ctx.tally.failed == 0,
    )
    return record


def contract_metrics(record: dict, spec: dict, trace: bool) -> dict:
    """Every declared metric of the kind asked for, by name and unit.
    A per-layer metric the workload does not exercise reads 0."""
    if trace:
        got = record["per_layer"]
        kind = "per_layer"
    else:
        got = {k: v[0] for k, v in record["end_to_end"].items()}
        kind = "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[kind]}
    undeclared = sorted(set(got) - set(names))
    if undeclared:
        raise SystemExit(f"undeclared {kind} metrics: {undeclared}")
    missing = sorted(set(names) - set(got))
    if missing and not trace:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": float(got.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }


def print_table(name: str, metrics: dict, record: dict) -> None:
    for metric, entry in metrics.items():
        spread = record["end_to_end"].get(metric, (0, 0))[1]
        iqr = f"  iqr {spread:.4g}" if spread else ""
        print(
            f"{name:16s} {metric:36s} {entry['value']:14.6g} "
            f"{entry['unit']}{iqr}"
        )


def machine_stamp(args, nproc: int, scale) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ[THREAD_VARS[0]]),
        "git_sha": sha or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": scale.name,
        "vectors": scale.vectors,
        "non_standard": scale.name != "standard",
    }


def main(argv: list[str] | None = None) -> int:
    nproc = cap_threads()
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--vectors", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    from benchmarks.e2e.harness import SMOKE, STANDARD

    scale = SMOKE if args.smoke else STANDARD
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.vectors is not None:
        scale = dataclasses.replace(
            scale, name=f"vectors-{args.vectors}", vectors=args.vectors
        )

    if args.workload and len(args.workload) == 1 and args.trace is not None:
        name = args.workload[0]
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), scale
        )
        metrics = contract_metrics(record, spec, bool(args.trace))
        print_table(name, metrics, record)
        for why, count in record["fail_reasons"].items():
            print(f"FAILED {count}x: {why}")
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": metrics,
                },
                allow_nan=False,
            )
        )
        return 0

    # The full record: every workload, untraced then traced (or the
    # one mode --trace names).
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    out = {
        "bench": "benchmarks/e2e",
        "machine": machine_stamp(args, nproc, scale),
        "paper_headline": PAPER_HEADLINE,
        "workloads": {},
    }
    attempted = failed = 0
    for name in args.workload or names:
        entry: dict = {"attempted": 0, "failed": 0, "fail_reasons": {}}
        for trace in modes:
            record = run_workload(name, args.seed, args.seconds, trace, scale)
            metrics = contract_metrics(record, spec, trace)
            print_table(name, metrics, record)
            kind = "per_layer" if trace else "end_to_end"
            if trace:
                entry["not_exercised"] = sorted(
                    set(metrics) - set(record["per_layer"])
                )
                entry["layers_unavailable"] = record["layers_unavailable"]
            else:
                entry["rounds"] = record["rounds"]
                for metric, (_, iqr) in record["end_to_end"].items():
                    metrics[metric]["iqr"] = iqr
            entry[kind] = metrics
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            entry["fail_reasons"].update(record["fail_reasons"])
        entry["correct"] = entry["failed"] == 0
        attempted += entry["attempted"]
        failed += entry["failed"]
        out["workloads"][name] = entry
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "op_fail_ratio": failed / max(1, attempted),
        "claim": None,
    }
    out.update(summary)
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    pin_hash_seed()
    raise SystemExit(main())
