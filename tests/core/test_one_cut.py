"""Every scan cuts its scored partitions once, through
``repro.query.heap.rank_scored``. The chunk collector that module keeps
beside it (``TopKHeap``, ``push_topk``, ``merge_topk``) serves callers
outside the program only: no other module under ``src/repro`` may name
it, so no scan grows a second top-K again.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
ALLOWED = PACKAGE / "query" / "heap.py"
COLLECTOR = re.compile(r"\b(TopKHeap|push_topk|merge_topk)\b")


def test_only_the_heap_module_names_the_collector():
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != ALLOWED
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if COLLECTOR.search(line)
    ]
    assert not offenders, "\n".join(offenders)
