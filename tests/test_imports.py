"""Import hygiene, read with `ast` and checked in a fresh interpreter.

No file of the program, its tests or its tools imports a name it never
uses.  The project ships no linter, so the check reads each file with
`ast`.  A name bound by an import must be read somewhere in the same file,
or be re-exported through `__all__`.  A dotted `import a.b` must be read as
the attribute chain `a.b`.

Every `nqkit <verb>` pays the import of `nqkit.cli`, so the package keeps
out modules that cost start-up time and that plain code replaces:
`dataclasses` (it generates and compiles source for every decorated class
on each import), `copy`, `pathlib`, and `click`, whose import was
two-thirds of the start-up and pulled in `inspect`, `ast`, `datetime`,
`uuid`, `gettext` and `locale`.  The help and error pages import `difflib`
and `textwrap` only when they are printed.  No verb imports a module after
start-up: the benchmark runs without a bytecode cache, so a module loaded
on first use is compiled again inside every job that reaches it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/nqkit", "tests", "tools")
KEPT_OUT_OF_THE_PACKAGE = ("dataclasses", "copy", "pathlib", "click")


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


def kept_out_imports(source: str) -> list[str]:
    """The absolute imports of `source` that name a kept-out module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {
            name
            for name in names
            if name.partition(".")[0] in KEPT_OUT_OF_THE_PACKAGE
        }
    return sorted(found)


def test_the_check_sees_kept_out_imports():
    source = "import copy, json\nfrom dataclasses import field\nimport pathlib.x\n"
    assert kept_out_imports(source) == ["copy", "dataclasses", "pathlib.x"]
    assert kept_out_imports("def f():\n    import copy\n") == ["copy"]
    assert kept_out_imports("from .copy import x\nimport copyreg\n") == []


def test_the_package_imports_no_kept_out_module():
    found = {}
    for path in sorted((ROOT / "src" / "nqkit").rglob("*.py")):
        named = kept_out_imports(path.read_text())
        if named:
            found[str(path.relative_to(ROOT))] = named
    assert found == {}


@cache
def loaded_by_importing_the_cli() -> frozenset[str]:
    """The modules a fresh interpreter loads for `import nqkit.cli`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nqkit.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    search = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search)))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return frozenset(result.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_copy():
    assert loaded_by_importing_the_cli() & {"dataclasses", "copy"} == set()
    assert "nqkit.cli" in loaded_by_importing_the_cli()


def test_importing_the_cli_loads_neither_click_nor_what_it_imported():
    heavy = {"click", "inspect", "ast", "datetime", "uuid", "gettext", "locale"}
    on_demand = {"difflib", "textwrap"}
    assert loaded_by_importing_the_cli() & (heavy | on_demand) == set()


def test_check_and_emit_import_nothing_after_start_up(tmp_path):
    # `check --all` reaches the generic rank on so(3), and `emit --what bv`
    # the component expansion; the help and error pages stay exempt
    probe = (
        "import sys\n"
        "import nqkit.cli\n"
        "before = set(sys.modules)\n"
        "for args in (sys.argv[1:4], sys.argv[4:]):\n"
        "    try:\n"
        "        nqkit.cli.main(args)\n"
        "    except SystemExit as done:\n"
        "        assert done.code == 0, (args, done.code)\n"
        "print('loaded:', *sorted(set(sys.modules) - before))\n"
    )
    problem = str(ROOT / "corpus" / "so3_action.json")
    verbs = ["check", "--all", problem, "emit", "--what", "bv", "--out", "bv.json"]
    search = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search)))
    result = subprocess.run(
        [sys.executable, "-c", probe, *verbs, problem],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert (tmp_path / "bv.json").exists()
    assert result.stdout.splitlines()[-1] == "loaded:"
