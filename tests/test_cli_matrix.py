"""The command line answers byte for byte as recorded.

`tests/data/cli_matrix.json` holds one line per run of `tools/cli_matrix.py`
(exit code and the digests of stdout, stderr and every file written),
recorded with its subprocess mode: one fresh `python -m nqkit.cli` per run.
Every line is replayed here in process, in the order of the tool's
`command_lines`, and must match; a few lines also run in a fresh
interpreter, so the in-process replay cannot drift from a real run.  A
change that moves a byte records the matrix again and names every moved
line.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from nqkit.cli import _CHECKS

ROOT = Path(__file__).resolve().parents[1]
RECORD = json.loads((ROOT / "tests" / "data" / "cli_matrix.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_matrix", ROOT / "tools" / "cli_matrix.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def differing(replayed: dict[str, str]) -> list[str]:
    return TOOL.differences(replayed, RECORD)


def test_the_record_covers_every_command_line():
    with tempfile.TemporaryDirectory() as directory:
        names = TOOL.write_inputs(Path(directory))
    keys = [" ".join(args) for args in TOOL.command_lines(names)]
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(RECORD)
    assert "timeout" not in RECORD.values()


def test_the_check_flags_are_the_table_of_checks():
    # the tool keeps its own tuple, as it also runs other trees through
    # --src, but this tree's must be the command line's, in its order
    flags = ["--" + name.replace("_", "-") for name, _, _ in _CHECKS]
    assert list(TOOL.CHECK_FLAGS) == [*flags, "--all"]


def test_every_line_replays_in_process_byte_for_byte():
    cwd, streams = os.getcwd(), (sys.stdout, sys.stderr)
    columns = os.environ.get("COLUMNS")
    replayed = TOOL.record(ROOT / "src", in_process=True)
    assert (os.getcwd(), (sys.stdout, sys.stderr)) == (cwd, streams)
    assert os.environ.get("COLUMNS") == columns
    assert list(replayed) == [
        " ".join(args) for args in TOOL.command_lines(list(TOOL.inputs()))
    ]
    diff = differing(replayed)
    assert not diff, "\n".join([f"{len(diff)} lines differ:", *diff])


# a refused load, a problem file written from the text read, a usage error
# and a report that embeds the escaped path: one fresh process each
FRESH = [
    "check ../in/so3_action_crlf_error.json --axioms",
    "solve-connection ../in/so3_action_cr.json --write solved.json",
    "cohomology ../in/so3_action.json --degree 1",
    " ".join(TOOL.EXTRA_LINES[3]),
]


@pytest.mark.parametrize("key", FRESH, ids=["crlf", "cr_write", "usage", "escaped"])
def test_a_few_lines_match_in_a_fresh_interpreter(tmp_path, key):
    (tmp_path / "in").mkdir()
    names = TOOL.write_inputs(tmp_path / "in")
    args = next(a for a in TOOL.command_lines(names) if " ".join(a) == key)
    assert TOOL.run_one(ROOT / "src", tmp_path, 0, args) == RECORD[key]
