"""The library's `functools` caches are exactly the ones that pay in the benchmark.

A cache holds its entries for the life of the process and hashes its key on
every call, so it pays only where the same key comes back.  Each allowed
cache names a benchmark operation (bench/design.json) in which it hits, with
`cache_info()` after that one command in a fresh process, as the benchmark runs
it.  A new cache needs such a measured reason, and a cache that no operation
hits is removed.
"""

import ast
import importlib
from pathlib import Path

import immanants

MODULES = sorted(Path(immanants.__file__).parent.glob("*.py"))
CACHING = {"cache", "lru_cache", "cached_property"}

# module.function: the operation it hits in, as hits / misses there.
ALLOWED = {
    "characters._class_set",  # sweep scan: 4,709 / 6
    "characters._induced_trivial_character",  # sweep verify: 5,205 / 19
    "characters._mn_value",  # sweep verify: 367 / 89; wide immanant --basis s: 15 / 28
    "characters._partition_keys",  # sweep scan: 319 / 5
    "characters.zee",  # sweep verify: 5,751 / 19
    "immanant_characters.stanley_stembridge_character",  # sweep verify: 816 / 53
    "tableaux._strips",  # sweep scan: 11,984 / 357
    "tableaux.inverse_kostka_matrix",  # sweep verify: 13 / 6
    "tableaux.kostka_matrix",  # sweep verify: 57 / 9
    "tableaux.partitions_of",  # sweep verify: 1,862 / 9
}


def _name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def cached_functions(source: str) -> list[str]:
    """Each function decorated with a cache, and each other call of one (`f = cache(g)`)."""
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if _name(decorator) in CACHING:
                    found.append(node.name)
                    decorators.add(id(decorator))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node) in CACHING and id(node) not in decorators:
            found.append(ast.unparse(node))
    return found


def test_the_check_finds_every_form_of_cache():
    source = (
        "from functools import cache, lru_cache\nimport functools\n"
        "@cache\ndef a(): pass\n@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
        "class C:\n    @functools.cached_property\n    def c(self): pass\n"
        "d = cache(len)\n@staticmethod\ndef e(): pass\n"
    )
    assert cached_functions(source) == ["a", "b", "c", "cache(len)"]


def test_the_caches_are_exactly_the_allowed_ones():
    found = {
        f"{path.stem}.{name}" for path in MODULES for name in cached_functions(path.read_text())
    }
    assert found == ALLOWED
    for name in ALLOWED:  # each a module-level function, not a nested one of the same name
        module, function = name.split(".")
        assert getattr(importlib.import_module(f"immanants.{module}"), function).cache_info()
