"""The lines of `src/nqkit` that a pytest run never executes.

A pytest plugin, standard library only (no `coverage` package needed).
Run it over Tier-1 from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p unrun_lines

It installs a `sys.settrace` line collector in its first hook,
`pytest_load_initial_conftests`, which runs before `tests/conftest.py`
imports `nqkit`, so the class bodies the import runs are seen; importing
the module alone installs nothing.  Only frames of files under
`src/nqkit` are traced line by line, and a code object stops being
traced once every one of its lines has run.  At the end of the session
it prints `K of N`, the lines never run out of the lines of every code
object below module level, then `module.py:line` for each of them.
Module-level lines run at import, so they are left out of the count.
Tests that run the program in a fresh interpreter add nothing here.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nqkit"


def code_lines(code: CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def body_lines(path: Path) -> set[int]:
    """The lines of every code object below the module level of a source file."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, CodeType):
                lines |= code_lines(const)
                stack.append(const)
    return lines


def unrun_report(paths: list[Path], hits: dict[str, set[int]]) -> list[str]:
    """`K of N`, then `module.py:line` for each body line missing from `hits`,
    which maps a file name as the tracer saw it to the lines that ran."""
    counted, unrun = 0, []
    for path in sorted(paths):
        lines = body_lines(path)
        counted += len(lines)
        ran = hits.get(str(path), set())
        unrun += [f"{path.name}:{line}" for line in sorted(lines - ran)]
    return [f"{len(unrun)} of {counted}", *unrun]


class Collector:
    """The lines left to run of each code object of a file in one directory,
    and the hook that prints the report; a plugin of its own, registered
    when tracing starts."""

    def __init__(self, directory: Path):
        self.directory = str(directory)
        # each code object seen: its file name and the lines of it not yet
        # run, or None when it lies outside the directory
        self.seen: dict[CodeType, tuple[str, set[int]] | None] = {}

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if code not in self.seen:
            name = os.path.realpath(code.co_filename)
            inside = os.path.dirname(name) == self.directory
            self.seen[code] = (name, code_lines(code)) if inside else None
        entry = self.seen[code]
        if entry is None or not entry[1]:
            return None  # outside, or every line already ran
        entry[1].discard(frame.f_lineno)
        return self.local_trace

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.seen[frame.f_code][1].discard(frame.f_lineno)
        return self.local_trace

    def hits(self) -> dict[str, set[int]]:
        """The lines run, by file name."""
        ran: dict[str, set[int]] = {}
        for code, entry in self.seen.items():
            if entry is not None:
                name, left = entry
                ran.setdefault(name, set()).update(code_lines(code) - left)
        return ran

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        terminalreporter.section("unrun lines of src/nqkit")
        paths = list(Path(self.directory).glob("*.py"))
        for line in unrun_report(paths, self.hits()):
            terminalreporter.write_line(line)


def pytest_load_initial_conftests(early_config, parser, args):
    collector = Collector(PACKAGE)
    early_config.pluginmanager.register(collector)
    sys.settrace(collector.global_trace)
