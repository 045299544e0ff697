"""The bytes of the command line's help pages and usage errors.

`tests/data/cli_usage.json` was recorded from the click 8.4 front end that
the hand-written parser in `nqkit.cli` replaced.  Each case holds the
program name, the arguments, the terminal width (`COLUMNS`), the exit code
and what was written to stdout and stderr, run from the repository root
under both `nqkit` and `python -m nqkit.cli`.  Every case is replayed in
process and must match byte for byte.  A few cases run in a fresh
interpreter as well, for what only a real process shows: the program name
read from argv, the order of the two streams on one pipe, and a reader
that goes away.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nqkit.cli
from tests.conftest import invoke

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((ROOT / "tests" / "data" / "cli_usage.json").read_text())


def replay(case: dict) -> dict:
    result = invoke(case["args"], prog_name=case["prog"])
    return dict(case, code=result.exit_code, stdout=result.stdout, stderr=result.stderr)


def test_fixture_covers_every_verb_under_both_program_names():
    progs = {case["prog"] for case in CASES}
    assert progs == {"nqkit", "python -m nqkit.cli"}
    for prog in progs:
        helped = {
            tuple(case["args"][:-1])
            for case in CASES
            if case["prog"] == prog and case["args"][-1:] == ["--help"]
        }
        assert helped >= {(), *((verb,) for verb in nqkit.cli.main.commands)}


def test_usage_fixture_replays_byte_for_byte(monkeypatch):
    monkeypatch.chdir(ROOT)
    mismatched = []
    for case in CASES:
        monkeypatch.setenv("COLUMNS", str(case["columns"]))
        replayed = replay(case)
        if replayed != case:
            mismatched.append((case, replayed))
    assert mismatched == []


def fresh_env() -> dict[str, str]:
    # stdout block-buffered, as on a pipe by default
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def fresh(*argv: str, stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=fresh_env(),
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )


def recorded(prog: str, args: list[str]) -> dict:
    [case] = [
        case
        for case in CASES
        if (case["prog"], case["args"], case["columns"]) == (prog, args, 80)
    ]
    return case


@pytest.mark.parametrize(
    "prog, argv",
    [
        ("python -m nqkit.cli", ["-m", "nqkit.cli"]),
        (
            "nqkit",
            [
                "-c",
                "import sys; sys.argv[0] = '/usr/bin/nqkit'; "
                "from nqkit.cli import main; main()",
            ],
        ),
    ],
    ids=["module", "script"],
)
@pytest.mark.parametrize(
    "args", [[], ["check", "corpus/abelian_r1.json", "--bogus"]], ids=["bare", "bogus"]
)
def test_program_name_is_read_from_argv(prog, argv, args):
    run = fresh(*argv, *args)
    case = recorded(prog, args)
    assert (run.returncode, run.stdout, run.stderr) == (
        case["code"],
        case["stdout"],
        case["stderr"],
    )


def test_streams_keep_their_order_on_one_pipe():
    # stdout is flushed before each line to stderr, as click's echo did; a
    # full device passes the path check and fails only when written
    argv = ["-m", "nqkit.cli", "check", "corpus/so3_action.json", "--axioms"]
    run = fresh(*argv, "--json", "/dev/full", stderr=subprocess.STDOUT)
    assert run.returncode == 2
    lines = run.stdout.splitlines()
    assert lines[0] == "[PASS] axioms: Q^2 = 0"
    assert lines[-2:] == [
        "overall: pass",
        "input error: --json: [Errno 28] No space left on device",
    ]


def test_a_reader_that_goes_away_ends_with_exit_1_and_no_traceback():
    argv = ["-m", "nqkit.cli", "check", "corpus/so3_action.json", "--all"]
    child = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=fresh_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()  # long before the child has imported and written
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 1
    assert stderr == b""


def _interrupted(**values):
    print("partial")
    raise KeyboardInterrupt


def _end_of_input(**values):
    print("partial")
    raise EOFError


def _returned(**values):
    print("partial")


@pytest.mark.parametrize(
    "handler, code, output",
    [
        (_interrupted, 1, "partial\n\nAborted!\n"),
        (_end_of_input, 1, "partial\n\nAborted!\n"),
        (_returned, 0, "partial\n"),
    ],
    ids=["ctrl_c", "eof", "return"],
)
def test_how_a_handler_ends_sets_the_exit_code(monkeypatch, handler, code, output):
    monkeypatch.setattr(nqkit.cli.cmd_check, "callback", handler)
    result = invoke(["check", "f.json", "--all"])
    assert (result.exit_code, result.output) == (code, output)
