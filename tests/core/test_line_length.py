"""The 79-column limit CI's ``ruff format --check`` enforces, checked
with the standard library: ``ruff`` is a dev extra that is not always
installable where the tests run, and a long line found only in CI is a
wasted round trip. ``# noqa: E501`` exempts a line, as it does there.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKED = ("src", "tests", "benchmarks", "examples")
LIMIT = 79


def test_no_line_exceeds_the_limit():
    offenders = [
        f"{path.relative_to(ROOT)}:{number} ({len(line)} columns)"
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > LIMIT and "# noqa: E501" not in line
    ]
    assert not offenders, "\n".join(offenders)
