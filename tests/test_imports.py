"""No file of the program, its tests or its tools imports a name it never uses.

The project ships no linter, so the check reads each file with `ast`.  A
name bound by an import must be read somewhere in the same file, or be
re-exported through `__all__`.  A dotted `import a.b` must be read as the
attribute chain `a.b`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/nqkit", "tests", "tools")


def _dotted(node: ast.AST) -> str | None:
    """`a.b.c` for an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            chain = _dotted(node)
            while chain:
                read.add(chain)
                chain = chain.rpartition(".")[0]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    return sorted(bound - read)


def test_the_check_sees_unused_imports():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("import a.b\nimport a.c\na.b.f()\n") == ["a.c"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_file_has_an_unused_import():
    found = {}
    for folder in CHECKED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}
