"""Static checks of the package source."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import c_functions

from polyembed import kernel

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


# Functions that only tests call, kept as the oracles of the acceptance
# criteria and the reference trainers.
ORACLES = {"adjacency_dense", "auc", "entropy", "exact_objective_small",
           "pte_lower_bound_small", "hit_ratio", "similarity", "sliding_windows"}


def unreferenced_definitions(sources: dict) -> list[str]:
    """Top-level functions and classes of `sources` (file name -> source of
    one package module) that no file reads through a binding to them: a
    name of their own file, a `from .module import name`, or `module.name`
    where `module` was bound by `from . import module [as alias]`. An
    attribute of any other object does not count, whatever its name."""
    defined, read = set(), set()
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        modules = {}   # local name -> file of a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = f"{alias.name}.py"
                    else:
                        read.add((f"{node.module}.py", alias.name))
        defined.update((name, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((name, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
    return [f"{file}: {fn}" for file, fn in sorted(defined - read)]


def test_every_library_function_has_a_caller_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    unused = unreferenced_definitions(sources)
    assert [line for line in unused if line.split(": ")[1] not in ORACLES] == []


def test_unreferenced_definition_check_sees_calls_across_files():
    sources = {"a.py": ("def used():\n    pass\n\n\nclass Dead:\n    pass\n\n\n"
                        "def imported():\n    pass\n\n\n"
                        "def same_name():\n    pass\n"),
               "b.py": ("from . import a as alias\n\n\ndef entry(report):\n"
                        "    return alias.used(), report.same_name\n"),
               "c.py": ("from .a import imported\n\n\ndef lonely():\n"
                        "    def inner():\n        pass\n")}
    # report.same_name reads an attribute of another object, not a.same_name
    assert unreferenced_definitions(sources) == ["a.py: Dead", "a.py: same_name",
                                                 "b.py: entry", "c.py: lonely"]


def test_every_kernel_function_has_a_signature():
    """Each exported function of kernel.c has a signature with one argument
    type per parameter."""
    source = (SRC / "kernel.c").read_text(encoding="utf-8")
    assert ({name: len(params) for name, params in c_functions(source).items()}
            == {name: len(argtypes)
                for name, (_, argtypes) in kernel._signatures().items()})


def test_exported_function_check_sees_only_non_static_definitions():
    source = ("#include <stdint.h>\n"
              "static const char TABLE[] = \"01\";\n"
              "static int helper(int x)\n{\n    return x;\n}\n\n"
              "int declared(int x);\n\n"
              "/* a comment (with parentheses) */\n"
              "int64_t first(int64_t n, const double *x,\n"
              "              double *restrict y)\n{\n    return helper(n);\n}\n\n"
              "void second(void) {\n}\n")
    assert c_functions(source) == {"first": ["n", "x", "y"], "second": []}


def fetched_functions(source: str) -> set[str]:
    """The names a Python source passes as a string literal to a call of
    `function` or `<module>.function`."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and (getattr(node.func, "id", None) == "function"
                 or getattr(node.func, "attr", None) == "function")}


def test_every_kernel_function_is_fetched_in_the_package():
    """An export of kernel.c that no package code fetches is dead C."""
    fetched = set().union(*(fetched_functions(p.read_text(encoding="utf-8"))
                            for p in SRC.glob("*.py")))
    assert set(kernel._signatures()) - fetched == set()


def test_fetched_function_check_sees_only_calls_of_function():
    source = ("from . import kernel\n"
              "fn = kernel.function('used')\n"
              "other = function(\"local\")\n"
              "doc = 'function(\"quoted\")'\n"
              "kernel.functions('plural')\n"
              "kernel.function(name)\n")
    assert fetched_functions(source) == {"used", "local"}


def test_the_kernel_compiles_without_warnings():
    """No warning of -Wall -Wextra, and no implicit narrowing or sign change
    (-Wconversion), in kernel.c."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    result = subprocess.run(["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Wconversion",
                             "-Werror", "-x", "c", str(SRC / "kernel.c")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
