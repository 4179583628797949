"""Every module-level import under src/, tests/ and demos/ is read by its
module (a name in `__all__` counts as read): an `ast` scan, as no linter is
a dependency."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os.path\nimport numpy as np\nos.sep\n", ["np"]),
    ("from __future__ import annotations\nfrom a import b, c as d\nd()\n", ["b"]),
    ("from a import b\n__all__ = ['b']\n", []),
])
def test_the_scan_finds_exactly_the_unused_names(source, unused):
    assert unused_imports(source) == unused
