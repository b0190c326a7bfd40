"""Caches live on the objects they describe: a `functools.cache` or
`lru_cache` at module level keeps every key alive for the whole process. Only
the caches the traced benchmark reads (`spans.CACHED`) may stay."""

import ast
from pathlib import Path

from test_benchmark_seam import _spans

SRC = Path(__file__).resolve().parent.parent / "src"
CACHE_NAMES = ("cache", "lru_cache")


def _names_a_cache(node: ast.AST) -> bool:
    """Does the expression mention `cache`/`lru_cache`, bare or as functools.X?"""
    return any(
        (isinstance(sub, ast.Name) and sub.id in CACHE_NAMES)
        or (isinstance(sub, ast.Attribute) and sub.attr in CACHE_NAMES)
        for sub in ast.walk(node)
    )


def module_level_caches(source: str, module: str) -> set[str]:
    """Dotted names of the module-level functions, class-level methods and
    assignments that a cache decorator or call wraps."""
    found = set()
    scopes = [(module, ast.parse(source).body)]
    while scopes:
        prefix, body = scopes.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                scopes.append((f"{prefix}.{node.name}", node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_names_a_cache(d) for d in node.decorator_list):
                    found.add(f"{prefix}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _names_a_cache(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.update(f"{prefix}.{ast.unparse(t)}" for t in targets)
    return found


def package_caches() -> set[str]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts[1:])
        found |= module_level_caches(path.read_text(encoding="utf-8"), module)
    return found


def test_the_scan_sees_every_form_of_a_module_level_cache():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@cache\ndef a(x): return x\n"
        "@lru_cache(maxsize=None)\ndef b(x): return x\n"
        "@functools.lru_cache\ndef c(x): return x\n"
        "d = functools.cache(len)\n"
        "class E:\n"
        "    @lru_cache(maxsize=8)\n    def f(self): return 1\n"
        "    @cached_property\n    def g(self): return 1\n"
        "def h(x): return x\n"
    )
    assert module_level_caches(source, "m") == {"m.a", "m.b", "m.c", "m.d", "m.E.f"}


def test_no_module_level_cache_beyond_the_benchmarked_ones():
    allowed = set(_spans().CACHED) | {"catalog.construct"}
    found = package_caches()
    assert "catalog.construct" in found  # the scan reads the package
    assert sorted(found - allowed) == []
