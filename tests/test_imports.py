"""Static guard: every module-level import in ``src/hlvir`` is read by its
module.  The package has no linter in its toolchain, so this scan of each
module's syntax tree stands in for one."""

import ast
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
