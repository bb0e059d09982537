"""No module-level import goes unused — pyflakes' F401, which CI's
``ruff check`` selects, checked with the standard library: ``ruff`` is
a dev extra that is not always installable where the tests run (the
same reason ``test_line_length.py`` exists).

An import counts as used when its bound name is read anywhere in the
module (string annotations included) or listed in ``__all__``. Package
``__init__.py`` files re-export by design and are skipped; ``# noqa``
on an import exempts it, as it does for ruff.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKED = ("src", "tests", "benchmarks", "examples")


def _imports(body: list[ast.stmt]):
    """Module-level import statements, through ``if`` / ``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [s for h in node.handlers for s in h.body]
            yield from _imports(
                node.body + handlers + node.orelse + node.finalbody
            )


def _bound(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    roots = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                try:
                    roots.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    used = {
        node.id
        for root in roots
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used(tree)
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} ({name})"
        for node in _imports(tree.body)
        if not any(
            "# noqa" in line
            for line in lines[node.lineno - 1 : node.end_lineno]
        )
        for name in _bound(node)
        if name not in used
    ]


def test_no_module_level_import_is_unused():
    offenders = [
        finding
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for finding in unused_imports(path)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_check_sees_what_it_should(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import json  # noqa: F401\n"
        "from typing import (\n"
        "    Any,\n"
        "    Sequence,\n"
        ")\n"
        "from a.b import c\n"
        "import x.y\n"
        "__all__ = ['c']\n"
        "def f(v: 'Sequence[int]') -> None:\n"
        "    return x.y.z(np.zeros(v))\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["m.py:2 (os)", "m.py:5 (Any)"]
