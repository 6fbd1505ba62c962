"""Import guards.  Every module-level import in ``src/hlvir`` is read by its
module: the package has no linter in its toolchain, so a scan of each
module's syntax tree stands in for one.  And every hlvir process pays its
imports cold, so ``import hlvir.cli`` must not pull in ``dataclasses`` and
what it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlvir"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (outside any def or class) that
    the module never reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        else:
            stack += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import Optional, Union\n"
              "if True:\n"
              "    import json\n"
              "def f(x: Optional[int]):\n"
              "    import re\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["Union", "json", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_dataclasses():
    """A fresh ``import hlvir.cli`` loads neither ``dataclasses`` nor
    ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it), unless the
    bare interpreter had already loaded it."""
    code = ("import sys; bare = set(sys.modules); import hlvir.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "hlvir.virasoro" in out
    assert not {"dataclasses", "inspect"} & set(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "dataclasses" not in imported
