"""Every definition of the package has a caller in the program itself.

A library function that only the tests call is dead weight: it must get
a real caller or be deleted.  "Real" is read from source: starting at the
command line module, follow every name a top-level definition mentions
(its own module's definitions and what it imports from sibling modules)
until nothing new is reached.  An exported function, and any top-level
definition, outside that set is reported, so a helper called only by
another dead helper is caught too.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import nqkit

SOURCE = Path(nqkit.__file__).resolve().parent

# extract_structure is the paper's reverse direction, constraints back to
# frame data; it is checked by acceptance criterion 3, and a CLI route
# through `check --first-class` would add one linear solve per frame pair
# to every `check --all`
WITHOUT_CLI_CALLER = {"extract_structure"}
# the definitions only extract_structure reaches
EXTRACTION_CLUSTER = {
    ("constraints", "extract_structure"),
    ("constraints", "_solve_structure"),
    ("constraints", "_base_column"),
    ("constraints", "ExtractionResult"),
}

Node = tuple[str, str]  # (module, top-level name)


def _references(module: str, tree: ast.Module) -> dict[Node, set[Node]]:
    """The top-level definitions of a module and the nodes each one names."""
    imported: dict[str, Node] = {}
    local: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # `__all__` names a module's exports and re-exports; it
                # defines nothing that could go without a caller
                if isinstance(target, ast.Name) and target.id != "__all__":
                    local[target.id] = node
    graph = {}
    for name, node in local.items():
        named = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                word = sub.id
            elif isinstance(sub, ast.Attribute):
                word = sub.attr
            else:
                continue
            if word in local and word != name:
                named.add((module, word))
            elif word in imported:
                named.add(imported[word])
        graph[(module, name)] = named
    return graph


def definitions() -> dict[Node, set[Node]]:
    graph: dict[Node, set[Node]] = {}
    for path in SOURCE.glob("*.py"):
        if path.stem != "__init__":
            graph.update(_references(path.stem, ast.parse(path.read_text())))
    return graph


def reached_from_the_cli() -> set[Node]:
    graph = definitions()
    reached = {node for node in graph if node[0] == "cli"}
    frontier = list(reached)
    while frontier:
        for node in graph.get(frontier.pop(), ()):
            if node not in reached:
                reached.add(node)
                frontier.append(node)
    return reached


def exported_functions() -> dict[str, Node]:
    out = {}
    for name in nqkit.__all__:
        obj = getattr(nqkit, name)
        if inspect.isfunction(obj):
            out[name] = (obj.__module__.rsplit(".", 1)[-1], obj.__name__)
    return out


def test_every_exported_function_is_reached_from_the_cli():
    reached = reached_from_the_cli()
    unreached = {
        name for name, node in exported_functions().items() if node not in reached
    }
    assert unreached == WITHOUT_CLI_CALLER



def test_every_definition_is_reached_from_the_cli():
    graph = definitions()
    assert len(graph) > 200  # the walk saw the whole package
    assert set(graph) - reached_from_the_cli() == EXTRACTION_CLUSTER
