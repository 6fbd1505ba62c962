"""Static guard for the memo policy: every cached result in ``src/hlvir``
lives in a table from ``vertex._new_cache``, which ``--no-cache``,
``HLVIR_CACHE_MAX`` and ``clear_caches`` reach.  The one ``functools`` cache
is ``cyclotomic_field``, which interns field tags rather than memoizing."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hlvir"

ALLOWED = {("exactnum.py", "cyclotomic_field")}


def functools_caches(source: str) -> list[str]:
    """Names of the functions decorated with ``lru_cache`` or ``cache``,
    called or bare, plain or as an attribute of ``functools``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else \
                getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                out.append(node.name)
    return out


def test_scanner_finds_every_decorator_form():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def a(): pass\n"
              "@functools.lru_cache\n"
              "def b(): pass\n"
              "class C:\n"
              "    @cache\n"
              "    def c(self): pass\n"
              "@staticmethod\n"
              "def d(): pass\n")
    assert sorted(functools_caches(source)) == ["a", "b", "c"]


def test_only_the_field_interning_table_is_a_functools_cache():
    found = {(path.name, name) for path in SRC.glob("*.py")
             for name in functools_caches(path.read_text())}
    assert found == ALLOWED
