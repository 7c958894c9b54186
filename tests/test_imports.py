"""Every name a library module imports is used in it.

No linter runs on this package, so a refactor that removes the last use of
an import would leave the import behind unnoticed.  An import kept on
purpose (for a side effect, or for callers that reach the name through the
module) carries `# noqa: F401` on its line.
"""

import ast
from pathlib import Path

import pytest

import immanants

MODULES = sorted(Path(immanants.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded, skipping `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation names its types inside a string.
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
              "x: 'dumps' = os\ny = 'loads'\n")
    assert unused_imports(source) == ["loads (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
