"""Import guards.  Every module-level import in ``src/hlvir`` is read by its
module, and every module-level def, class or assigned name is read somewhere
in the package (or patched by the benchmark's tracer): the package has no
linter in its toolchain, so a scan of each module's syntax tree stands in
for one.  And every hlvir process pays its imports cold, so
``import hlvir.cli`` must not pull in ``dataclasses`` and what it imports."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlvir"
TRACER_PATH = SRC.parent.parent / "perfbench" / "tracer.py"


def _module_statements(tree: ast.Module):
    """The statements run at import time: the module body and what nests in
    it, outside any def or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (outside any def or class) that
    the module never reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in _module_statements(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
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


def unread_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level def, class or assigned name that
    no module reads: loads it outside its own definition, or imports it.
    Dunder names are exempt."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in _module_statements(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        for top in tree.body:
            own = getattr(top, "name", None)  # a def's reads of itself do not count
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own:
                    read.add(n.id)
                elif isinstance(n, ast.ImportFrom):
                    read.update(a.name for a in n.names)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_scanner_finds_an_unread_name():
    sources = {"a": ("__version__ = '1'\n"
                     "LEFT, USED = 1, 2\n"
                     "def rec(k):\n"
                     "    return rec(k - 1) if k else USED\n"
                     "class Kept:\n"
                     "    pass\n"),
               "b": "from .a import Kept\n"}
    assert unread_names(sources) == ["a.LEFT", "a.rec"]


def test_every_module_level_name_is_read():
    """A def, class or constant that nothing in ``src/hlvir`` reads is dead
    code, unless the tracer patches it by name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{module[len('hlvir.'):]}.{attr.split('.')[0]}"
              for module, attr, _ in tracer.TARGETS}
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name in unread_names(sources) if name not in traced] == []


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
