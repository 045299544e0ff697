#!/usr/bin/env python3
"""Byte-level fingerprints of the command line on a fixed matrix of runs.

The inputs are the documents of `inputs()`: the corpus files, generated
and inline frames, twins of corpus files with fields added or replaced,
and files that pin the loader; the tables above it say what each one
exercises.  `command_lines` runs every verb and check flag with its JSON
output on each, except the files that pin the loader (`check --axioms`
alone) and the rational frames (`RATIONAL_LINES`), and adds a few runs
outside the per-input grid (`EXTRA_LINES`).  Each run is one fresh
`python -m nqkit.cli` process in an empty directory of its own; the line
recorded for it holds the exit code and the sha256 of standard output,
standard error and every file the run wrote.  Two trees that answer alike
give identical lines.

Run from the repository root (standard library only):

    python3 tools/cli_matrix.py --out change.json
    python3 tools/cli_matrix.py --src OTHER/src --out parent.json
    python3 tools/cli_matrix.py --src OTHER/src --out parent.json --against change.json

`--against` prints each line that differs, both sides, and exits 1 when
any does.  `--in-process` replays the same lines through `nqkit.cli.main`
in this interpreter, in the order of `command_lines`, each in an empty
directory of its own with its output captured as bytes; it takes seconds
instead of minutes, and `tests/test_cli_matrix.py` compares it with the
subprocess record in `tests/data/cli_matrix.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120

CHECK_FLAGS = (
    "--axioms",
    "--first-class",
    "--irreducible",
    "--metric",
    "--structural",
    "--master",
    "--cartan",
    "--supercharge",
    "--all",
)
COHOMOLOGY_OPTIONS = (
    (),
    ("--trunc", "0"),
    ("--trunc", "1"),
    ("--trunc", "2"),
    ("--trunc", "3"),
    ("--is-exact",),
    ("--is-exact", "--trunc", "3"),
    ("--bfv-h0",),
    ("--bfv-h0", "--trunc", "1", "--p-degree", "1"),
)
# one entry of anchor[1][1] each: the two past the parser's budget of
# 2000 terms are refused, and answered in well under a second without it;
# the last is one degree past the parser's bound of total degree 4096
BUDGET_ENTRIES = {
    "budget_power_under": ("abcdef", "(a+b+c+d+e+f+1)^7"),
    "budget_power_over": ("abcdef", "(a+b+c+d+e+f+1)^9"),
    "budget_product_under": ("abc", "(a+b+c+1)^6*(a+b+c+1)^6"),
    "budget_product_over": ("abc", "(a+b+c+1)^12*(a+b+c+1)^12"),
    "budget_degree_over": ("x", "(x^64)^64*x"),
}
# `so3_action` again under a name with a non-ASCII letter, a quote and a
# backslash: `check --json` embeds the path, so its report pins the escaping
# of the JSON writer
ESCAPED_COPY = ("so3_action", 'so3_action é"\\')
# runs outside the per-input grid: the widest h^1 window the window budget
# admits on a one-coordinate frame, degree 2402 in x, an exactness query
# whose alpha is closed but has no primitive of degree 0, the removed
# `--degree` (a usage error, exit 2), the escaping run, a problem file
# written from the text read, and one budget refusal of each kind (exit 2):
# h^1 (51213 columns), h^0 (6850), the exactness query (5001), a window
# refused before its failing axioms (5006) and a connection solve refused
# before its missing output directory (333207 unknowns)
EXTRA_LINES = (
    ["cohomology", "../in/abelian_r1.json", "--trunc", "2400"],
    ["cohomology", "../in/rank2_line_affine.json", "--is-exact", "--trunc", "0"],
    ["cohomology", "../in/so3_action.json", "--degree", "1"],
    ["check", f"../in/{ESCAPED_COPY[1]}.json", "--all", "--json", "report.json"],
    ["solve-connection", "../in/so3_action_cr.json", "--write", "solved.json"],
    ["cohomology", "../in/so3_action.json", "--trunc", "40"],
    ["cohomology", "../in/so3_action.json", "--bfv-h0", "--trunc", "3",
     "--p-degree", "1"],
    ["cohomology", "../in/rank2_line_affine.json", "--is-exact", "--trunc", "5000"],
    ["cohomology", "../in/broken_jacobi.json", "--trunc", "1250"],
    [
        "solve-connection",
        "../in/so3_action.json",
        "--degree",
        "40",
        "--write",
        "missing/solved.json",
    ],
)
# corpus files whose sparse structure also runs as the [c][a][b] list
DENSE_TWINS = ("so3_action", "broken_jacobi")
# a corpus file that runs again with the alpha and magnetic field of another;
# the twist keeps H from preserving the constraint surface, so this input
# exercises the cartan shape finding on an assembled package
TWISTED_TWINS = {"abelian_r2_metric_magnetic": ("abelian_r2", "abelian_r2_magnetic")}
# corpus files that run again with these fields added or replaced:
# `so3_action` with a connection nonzero across a, b and i, a nonzero tau,
# a potential and the exact alpha = d_E(x1), which keeps the constraints
# first class (structural and evolution fail, the decomposition is still
# asserted), `abelian_r2` with an all-zero drift, and `abelian_r2` with a
# connection that is not metric compatible: its evolution residuals are
# quadratic in the momenta, so the decomposition guard predicts a nonzero
# order-2 part.  The two connection twins exercise the cartan shape finding: the
# package assembles, cartan fails on its shape and `emit --what bv --force`
# writes the action
FIELD_TWINS = {
    "so3_action_geometry": (
        "so3_action",
        {
            "connection": [
                [["0", "0", "0"], ["0", "0", "x1"], ["1", "0", "0"]],
                [["0", "x3", "0"], ["0", "0", "0"], ["0", "0", "-1"]],
                [["0", "0", "0"], ["x2 - x3", "0", "0"], ["0", "2", "0"]],
            ],
            "tau": [["0", "1", "0"], ["x1", "0", "0"], ["0", "0", "2"]],
            "alpha": ["0", "-x3", "x2"],
            "potential": "x1^2 + x2",
        },
    ),
    "abelian_r2_zero_beta": ("abelian_r2", {"beta": ["0", "0"]}),
    "abelian_r2_connection": (
        "abelian_r2",
        {"connection": [[["0", "0"], ["1", "0"]], [["0", "-1"], ["0", "0"]]]},
    ),
    # flat frames whose alpha is not closed: the axioms pass and the master
    # fails (ss[xi_1 xi_2]: -2), so `--bfv-h0` stops on its prerequisite,
    # both emit gates refuse, and `emit --what bv --force` runs the
    # classical-limit guard with a nonzero alpha
    "abelian_r2_open_alpha": ("abelian_r2", {"alpha": ["x2", "0"]}),
    # `abelian_r2` under the magnetic field of `abelian_r2_magnetic` with no
    # alpha: the only input whose master check meets a nonzero closure on a
    # twisted phase space (check --all exits 1 with bracket[a=1,b=2]: -1,
    # ss[xi_1 xi_2]: -2 and qq[xi_1 theta]: -2*p_x2)
    "abelian_r2_magnetic_open": (
        "abelian_r2",
        {"magnetic": [["0", "1"], ["-1", "0"]]},
    ),
    # an all-zero magnetic field: the phase space is the untwisted one, so
    # `check --all` prints what it prints for `abelian_r2`
    "abelian_r2_zero_magnetic": (
        "abelian_r2",
        {"magnetic": [["0", "0"], ["0", "0"]]},
    ),
    # the Q^2 != 0 frame with a metric pair: master fails, so the cartan
    # obstruction is undefined and `--cartan` is skipped as a finding
    "broken_jacobi_metric": (
        "broken_jacobi",
        {
            "metric": [["1"]],
            "metric_inv": [["1"]],
            "connection": [[["0"], ["0"], ["0"]]] * 3,
        },
    ),
}
# two unit flows along x whose bracket grows with x, under a unimodular
# metric with off-diagonal, non-constant entries and a zero connection:
# evolution and master pass and cartan fails with S[c=1,j=1,a=1,b=2] = -1,
# the one input where the cartan contraction meets such metric entries.
# Inline, not in corpus/, whose file count the tests fix.
SHEAR_PLANE = {
    "base_dim": 2,
    "rank": 2,
    "coords": ["x", "y"],
    "anchor": [["1", "0"], ["1", "0"]],
    "structure": {"1,1,2": "x", "2,1,2": "-x"},
    "metric": [["1", "y"], ["y", "1 + y^2"]],
    "metric_inv": [["1 + y^2", "-y"], ["-y", "1"]],
    "connection": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
}
# `shear_plane` with a connection, tau, alpha and potential: nonzero
# structural families at all three momentum orders under the same metric,
# so the evolution guard predicts every order with off-diagonal, non-constant
# g^ij (check --all exits 1, evolution fails, the decomposition is asserted)
SHEAR_PLANE_GEOMETRY = dict(
    SHEAR_PLANE,
    connection=[[["0", "y"], ["1", "0"]], [["x", "0"], ["0", "-1"]]],
    tau=[["0", "1"], ["y", "0"]],
    alpha=["x", "y^2"],
    potential="x*y + y^2",
)
# one unit flow on a line under the metric 1 + x^2: compatibility asks for
# 2 omega (1 + x^2) = L_rho g = 2x, and omega = x / (1 + x^2) is no
# polynomial, so solve-connection is infeasible at every ansatz degree
BENT_LINE = {
    "base_dim": 1,
    "rank": 1,
    "coords": ["x"],
    "anchor": [["1"]],
    "metric": [["1 + x^2"]],
}
# the cotangent algebroid of the Poisson bivector pi = x d_x ^ d_y, and its
# twin with alpha = (0, 1): both print "reducible at point (0, 7/3)" from
# the irreducibility probe, which ranks the anchor alone.  The twin's
# verdict is wrong (on its constraint surface x != 0, where the momentum
# block of the Jacobian has determinant x^2) and is pinned as it stands
POISSON_PLANE = {
    "base_dim": 2,
    "rank": 2,
    "coords": ["x", "y"],
    "anchor": [["0", "x"], ["-x", "0"]],
    "structure": {"1,1,2": "1"},
}
POISSON_PLANE_AFFINE = dict(POISSON_PLANE, alpha=["0", "1"])
# seeds of `dense_random`, the only frames with non-integer coefficients:
# each runs `check --all --json` and `emit --what bfv --force` alone
RATIONAL_SEEDS = (1, 2)
RATIONAL_LINES = (
    ("check", "--all", "--json", "report.json"),
    ("emit", "--what", "bfv", "--out", "out.json", "--force"),
)
# inputs refused at load, run with `check --axioms` only
LOAD_ERRORS = (
    *BUDGET_ENTRIES,
    "dense_asymmetric",
    "magnetic_asymmetric",
    "so3_action_truncation",
    "so3_action_crlf_error",
    "so3_action_bom",
    "so3_action_not_utf8",
    "repeated_structure_key",
    "repeated_anchor_key",
    "structure_null",
    "metric_asymmetric",
    "metric_inv_not_inverse",
)
# the program name and terminal width of every run
PROG = "python -m nqkit.cli"
COLUMNS = "80"


def dense_structure(doc: dict) -> list[list[list[str]]]:
    """The sparse structure of a document as the dense [c][a][b] list."""
    r = doc["rank"]
    cube = [[["0"] * r for _ in range(r)] for _ in range(r)]
    for key, entry in doc.get("structure", {}).items():
        c, a, b = (int(k) - 1 for k in key.split(","))
        cube[c][a][b] = entry
        cube[c][b][a] = f"-({entry})"
    return cube


def _compiled(source: Path) -> ModuleType:
    """A module compiled from its source, so no bytecode is written."""
    module = ModuleType(source.stem)
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return module


def inputs() -> dict[str, dict | bytes]:
    """The problem documents of the matrix, by name, or the bytes of a file."""
    docs = {
        path.stem: json.loads(path.read_text())
        for path in sorted((ROOT / "corpus").glob("*.json"))
    }
    gen = _compiled(ROOT / "perfbench" / "gen.py")
    for n in (3, 4, 5, 6):
        docs[f"so{n}"] = gen.so_n(n)
    for name in DENSE_TWINS:
        docs[f"{name}_dense"] = dict(docs[name], structure=dense_structure(docs[name]))
    for name, (base, field) in TWISTED_TWINS.items():
        docs[name] = dict(
            docs[base], alpha=docs[field]["alpha"], magnetic=docs[field]["magnetic"]
        )
    for name, (base, fields) in FIELD_TWINS.items():
        docs[name] = dict(docs[base], **fields)
    docs["shear_plane"] = SHEAR_PLANE
    docs["shear_plane_geometry"] = SHEAR_PLANE_GEOMETRY
    docs["bent_line"] = BENT_LINE
    docs["poisson_plane"] = POISSON_PLANE
    docs["poisson_plane_affine"] = POISSON_PLANE_AFFINE
    frames = _compiled(ROOT / "tests" / "frames.py")
    docs["log_canonical4"] = frames.log_canonical(4)
    docs["log_canonical4_broken"] = frames.log_canonical(4, broken=True)
    # C^1_32 = C^1_23 = 1: the one violation is at c=1, a=2, b=3
    asymmetric = dense_structure(docs["so3_action"])
    asymmetric[0][2][1] = "1"
    docs["dense_asymmetric"] = dict(docs["so3_action"], structure=asymmetric)
    # B_12 = B_21 = 1: the loader refuses the magnetic field as not antisymmetric
    docs["magnetic_asymmetric"] = dict(
        docs["abelian_r2_magnetic"], magnetic=[["0", "1"], ["1", "0"]]
    )
    # the window defaults are command-line options alone: the loader refuses
    # a file that still sets them as `truncation: unknown field`
    docs["so3_action_truncation"] = dict(
        docs["so3_action"], truncation={"x_degree": 2, "p_degree": 1, "slack": 2}
    )
    for name, (coords, entry) in BUDGET_ENTRIES.items():
        anchor = [entry] + ["0"] * (len(coords) - 1)
        docs[name] = {
            "base_dim": len(coords),
            "rank": 1,
            "coords": list(coords),
            "anchor": [anchor],
        }
    for seed in RATIONAL_SEEDS:
        docs[f"dense_random{seed}"] = gen.dense_random(seed)
    docs.update(raw_inputs(docs["so3_action"]))
    docs.update(repeated_keys(docs["so3_action"]))
    # null is refused like a wrong type, not read as an absent field
    docs["structure_null"] = dict(docs["so3_action"], structure=None)
    # the loader's mapping of a geometry error back to its field: g_low
    # that is not symmetric, and a symmetric g_inv that does not invert it
    docs["metric_asymmetric"] = dict(SHEAR_PLANE, metric=[["1", "y"], ["0", "1"]])
    docs["metric_inv_not_inverse"] = dict(
        SHEAR_PLANE, metric_inv=[["1", "-y"], ["-y", "1"]]
    )
    return docs


def raw_inputs(doc: dict) -> dict[str, bytes]:
    """Problem files given as bytes, for the loader's reading of text.

    A JSON error is reported by line and column after newline translation,
    so the CRLF file drops a comma on its third line; the lone-CR file
    loads, and `--write` copies its document; a byte-order mark is refused
    as JSON, and the byte 0xff as UTF-8.
    """
    text = json.dumps(doc, indent=2)
    data = text.encode()
    return {
        "so3_action_crlf_error": text.replace(",\n", "\n", 1)
        .replace("\n", "\r\n")
        .encode(),
        "so3_action_cr": text.replace("\n", "\r").encode(),
        "so3_action_bom": "\ufeff".encode() + data,
        "so3_action_not_utf8": data[:40] + b"\xff" + data[40:],
    }


def repeated_keys(doc: dict) -> dict[str, bytes]:
    """Problem files that state a key twice, where JSON alone keeps the last
    statement: C^1_12 = 1, then 0, on the plane, and a unit anchor before
    that of so(3); the first statement fails the axioms either time, and
    the loader refuses both files by the path of the key."""
    plane = (
        '{"base_dim": 2, "rank": 2, "coords": ["x", "y"], '
        '"anchor": [["1", "0"], ["0", "1"]], '
        '"structure": {"1,1,2": "1", "1,1,2": "0"}}\n'
    )
    unit = '[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]'
    text = json.dumps(doc, indent=2)
    return {
        "repeated_structure_key": plane.encode(),
        "repeated_anchor_key": f'{{"anchor": {unit},{text[1:]}'.encode(),
    }


def write_inputs(directory: Path) -> list[str]:
    """Write the inputs of the matrix into `directory`; their names, in order."""
    docs = inputs()
    source, copy = ESCAPED_COPY
    for name, doc in [*docs.items(), (copy, docs[source])]:
        data = doc if isinstance(doc, bytes) else json.dumps(doc, indent=2).encode()
        (directory / f"{name}.json").write_bytes(data)
    return list(docs)


def command_lines(names: list[str]) -> list[list[str]]:
    lines = []
    for name in names:
        path = f"../in/{name}.json"
        if name in LOAD_ERRORS:
            lines.append(["check", path, "--axioms"])
            continue
        if name == "so3_action_cr":
            lines.append(["check", path, "--axioms"])
            continue
        if name.startswith("dense_random"):
            lines += [[verb, path, *options] for verb, *options in RATIONAL_LINES]
            continue
        for flag in CHECK_FLAGS:
            lines.append(["check", path, flag, "--json", "report.json"])
        for options in COHOMOLOGY_OPTIONS:
            lines.append(["cohomology", path, *options])
        for what in ("bfv", "bv"):
            lines.append(["emit", path, "--what", what, "--out", "out.json"])
            lines.append(["emit", path, "--what", what, "--out", "out.json", "--force"])
        lines.append(["solve-connection", path, "--write", "solved.json"])
        lines.append(["solve-connection", path, "--degree", "2"])
    return lines + [list(line) for line in EXTRA_LINES]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(cwd: Path, code: int, stdout: bytes, stderr: bytes) -> str:
    """The line of one run, from what it printed and the files it left."""
    files = ",".join(
        f"{path.name}:{digest(path.read_bytes())}" for path in sorted(cwd.iterdir())
    )
    return (
        f"exit={code} stdout={digest(stdout)} "
        f"stderr={digest(stderr)} files={files or '-'}"
    )


def run_one(src: Path, work: Path, index: int, args: list[str]) -> str:
    """One run in a fresh process and a fresh directory, as a line of fingerprints."""
    cwd = work / f"run{index}"
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", COLUMNS=COLUMNS)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nqkit.cli", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    line = fingerprint(cwd, done.returncode, done.stdout, done.stderr)
    shutil.rmtree(cwd)
    return line


def run_in_process(work: Path, index: int, args: list[str]) -> str:
    """One run through `nqkit.cli.main` in this interpreter, in a fresh
    directory, as a line of fingerprints.

    The streams are bytes behind UTF-8 text, strict on stdout and
    backslash-escaping on stderr as in a fresh process; the working
    directory, the streams and `COLUMNS` are restored afterwards.
    """
    from nqkit.cli import main

    cwd = work / f"run{index}"
    cwd.mkdir()
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    saved = os.getcwd(), sys.stdout, sys.stderr, os.environ.get("COLUMNS")
    os.chdir(cwd)
    sys.stdout, sys.stderr = out, err
    os.environ["COLUMNS"] = COLUMNS
    try:
        main.main(args=list(args), prog_name=PROG)
    except SystemExit as stop:
        code = 0 if stop.code is None else stop.code
    else:
        raise AssertionError(f"{' '.join(args)} returned without an exit code")
    finally:
        os.chdir(saved[0])
        sys.stdout, sys.stderr = saved[1], saved[2]
        if saved[3] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[3]
    out.flush()
    err.flush()
    line = fingerprint(cwd, code, out.buffer.getvalue(), err.buffer.getvalue())
    shutil.rmtree(cwd)
    return line


def record(src: Path, in_process: bool = False) -> dict[str, str]:
    """The line of every run, keyed by its arguments, in the order run."""
    work = Path(tempfile.mkdtemp(prefix="cli_matrix_"))
    try:
        (work / "in").mkdir()
        lines = {}
        for index, args in enumerate(command_lines(write_inputs(work / "in"))):
            key = " ".join(args)
            if in_process:
                lines[key] = run_in_process(work, index, args)
            else:
                lines[key] = run_one(src, work, index, args)
        return lines
    finally:
        shutil.rmtree(work)


def differences(mine: dict[str, str], other: dict[str, str]) -> list[str]:
    out = []
    for key in sorted(set(mine) | set(other)):
        if mine.get(key) != other.get(key):
            out.append(f"{key}\n  this:  {mine.get(key)}\n  other: {other.get(key)}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the package tree to run (default: this repository's)")
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the recorded lines, as JSON")
    parser.add_argument("--against", type=Path,
                        help="a recorded matrix to list the differing lines against")
    parser.add_argument("--in-process", action="store_true",
                        help="run the lines in this interpreter, importing --src")
    options = parser.parse_args()
    if options.in_process:
        sys.path.insert(0, str(options.src.resolve()))
    lines = record(options.src.resolve(), options.in_process)
    options.out.write_text(json.dumps(lines, indent=1, sort_keys=True) + "\n")
    print(f"{len(lines)} runs recorded in {options.out}")
    if options.against is None:
        return 0
    diff = differences(lines, json.loads(options.against.read_text()))
    for entry in diff:
        print(entry)
    print(f"{len(diff)} of {len(lines)} lines differ from {options.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
