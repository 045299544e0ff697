"""Selftest of `tools/unrun_lines.py` on a small module, without tracing.

The counting is pure: the body lines of a source file, minus the lines a
run hit.  Loading the tool installs no tracer; only its pytest hook does.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = """\
import os

LIMIT = 3


class Box:
    size = 1

    def grow(self, by):
        self.size += by
        return self.size


def unused(x):
    if x:
        return os.sep
    return LIMIT
"""


def load_tool():
    path = ROOT / "tools" / "unrun_lines.py"
    spec = importlib.util.spec_from_file_location("unrun_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_report_counts_the_body_lines_a_run_missed(tmp_path):
    before = sys.gettrace()
    tool = load_tool()
    assert sys.gettrace() is before
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    lines = tool.body_lines(path)
    # the class body and both function bodies count; the import and the
    # assignment run at module level and do not
    assert {7, 10, 11, 15, 16, 17} <= lines
    assert not lines & {1, 3}
    assert max(lines) == 17
    ran = lines - {16, 17}
    assert tool.unrun_report([path], {str(path): ran}) == [
        f"2 of {len(lines)}",
        "mod.py:16",
        "mod.py:17",
    ]
    # a file that no traced frame ran leaves every body line unrun
    assert tool.unrun_report([path], {})[0] == f"{len(lines)} of {len(lines)}"
