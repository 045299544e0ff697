"""Fixtures and helpers shared across test modules.

A module-level cache in a test file is not enough for the fixtures: pytest
imports `tests/test_oracle.py` as `test_oracle`, and a test file that
imports it as `tests.test_oracle` gets a second copy with its own cache.
`invoke` keeps no state, so a test file imports it as `tests.conftest`.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nqkit.bfv import assemble_bfv
from nqkit.constraints import ConstraintSet

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "cohomology_oracle.py"


@pytest.fixture(scope="session")
def oracle_document() -> dict:
    """The windows of tools/cohomology_oracle.py, run once per session."""
    run = subprocess.run(
        [sys.executable, str(ORACLE)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(run.stdout)


class Result:
    """One in-process run of the command line: its exit code, what it wrote
    to stdout and to stderr, and both as `output`, in the order written."""

    def __init__(self, exit_code, stdout: str, stderr: str, output: str):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output


class _Stream(io.StringIO):
    """A captured stream that also appends each write to a shared list."""

    def __init__(self, written: list[str]):
        super().__init__()
        self.written = written

    def write(self, text: str) -> int:
        self.written.append(text)
        return super().write(text)


def invoke(args, prog_name: str = "nqkit") -> Result:
    """Run `nqkit ARGS...` in this process and capture what it prints.

    The command line always ends in SystemExit; any other exception is a
    bug and propagates to the test.
    """
    from nqkit.cli import main

    written: list[str] = []
    out, err = _Stream(written), _Stream(written)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=list(args), prog_name=prog_name)
        except SystemExit as stop:
            code = 0 if stop.code is None else stop.code
        else:
            raise AssertionError("the command line returned without an exit code")
    return Result(code, out.getvalue(), err.getvalue(), "".join(written))


def frame_package(data, pack, alpha=None, magnetic=None):
    """The package assembled from the constraints of a frame, with its
    alpha and magnetic field, and a geometry pack."""
    return assemble_bfv(ConstraintSet(data, alpha, magnetic), pack)
