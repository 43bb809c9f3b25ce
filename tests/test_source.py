"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polyembed"


def unused_imports(source: str) -> list[str]:
    """Names an `import` binds and the module never reads. An import whose
    lines carry `# noqa` is exempt, and a name listed in `__all__` counts
    as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_dead_and_live_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np  # noqa: F401\n"
              "from . import errors\n"
              "from .tables import (load_matrix,\n"
              "                     save_matrix)\n"
              "__all__ = ['errors']\n"
              "def f(x: sys.Path):\n"
              "    return save_matrix\n")
    assert unused_imports(source) == ["load_matrix (line 5)", "os (line 2)"]
