"""Constant frame changes keep every verdict.

A foliation Lie algebroid comes from its constraints only up to a change
of generators Phi' = M Phi, so no verdict may depend on the frame chosen.
Each input runs again in the frame e'_a = M_a^c e_c for three seeded
unimodular integer matrices M, transformed here with polynomial
arithmetic alone, not with the library's bracket:

    rho'_a = M_a^c rho_c,    alpha'_a = M_a^c alpha_c,
    C'^g_ab = M_a^c M_b^d C^f_cd (M^-1)_f^g,

with the magnetic field and the probe points unchanged.  The statuses of
the constraint checks, the probe's verdict and the numbers of the h^1
window must not move.  A frame change M(x) that depends on the point
moves the coefficient-degree windows, so only constant ones are tested.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from nqkit.poly import EvenPoly
from nqkit.problem import problem_from_dict
from tests.conftest import invoke
from tests.test_cli_matrix import TOOL

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
# the fields a frame change acts on or keeps; the geometry is dropped, as
# its frame-indexed fields would need a tensor transform of their own
FRAME_FIELDS = (
    "base_dim",
    "rank",
    "coords",
    "anchor",
    "structure",
    "alpha",
    "magnetic",
    "points",
)
# inputs of the CLI matrix beyond the corpus: generated so(n) frames,
# x-dependent structure functions that pass and fail the axioms, a frame
# whose probe finds a point of lower rank, a shear and a rank-one frame
MATRIX_INPUTS = (
    "so3",
    "so4",
    "log_canonical4",
    "log_canonical4_broken",
    "poisson_plane",
    "poisson_plane_affine",
    "shear_plane",
    "bent_line",
)
SEEDS = (1, 2, 3)
CHECK = ("--axioms", "--first-class", "--master", "--irreducible")


def frame_inputs() -> dict[str, dict]:
    docs = TOOL.inputs()
    names = [*(path.stem for path in sorted(CORPUS.glob("*.json"))), *MATRIX_INPUTS]
    return {
        name: {key: docs[name][key] for key in FRAME_FIELDS if key in docs[name]}
        for name in names
    }


INPUTS = frame_inputs()


def identity(rank: int) -> list[list[int]]:
    return [[int(a == b) for b in range(rank)] for a in range(rank)]


def unimodular(rank: int, rng: random.Random) -> list[list[int]]:
    """A unitriangular integer matrix with entries in [-2, 2], rows permuted."""
    upper = [
        [1 if a == b else rng.randint(-2, 2) if a < b else 0 for b in range(rank)]
        for a in range(rank)
    ]
    return [upper[a] for a in rng.sample(range(rank), rank)]


def inverse(m: list[list[int]]) -> list[list[int]]:
    """The inverse of a unimodular integer matrix, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [
        [Fraction(v) for v in row] + [Fraction(v) for v in unit]
        for row, unit in zip(m, identity(n))
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    inv = [row[n:] for row in rows]
    assert all(v.denominator == 1 for row in inv for v in row)
    return [[int(v) for v in row] for row in inv]


def transformed(doc: dict, m: list[list[int]]) -> dict:
    """The document in the frame e'_a = M_a^c e_c."""
    problem = problem_from_dict(doc)
    data, r, n = problem.data, problem.data.rank, problem.data.base_dim
    inv, zero = inverse(m), data.zero()

    def combined(a: int, entries) -> EvenPoly:
        """M_a^c entries[c], summed over c."""
        return sum((m[a][c] * entries[c] for c in range(r) if m[a][c]), zero)

    anchor = [
        [str(combined(a, [row[i] for row in data.anchor])) for i in range(n)]
        for a in range(r)
    ]
    structure = {}
    for (c, d), entries in data.nonzero_structure.items():
        for a, b in combinations(range(r), 2):
            scale = m[a][c] * m[b][d]
            if not scale:
                continue
            for f, entry in entries:
                for g in range(r):
                    if inv[f][g]:
                        term = scale * inv[f][g] * entry
                        structure[g, a, b] = structure.get((g, a, b), zero) + term
    out = dict(
        doc,
        anchor=anchor,
        structure={
            f"{g + 1},{a + 1},{b + 1}": str(entry)
            for (g, a, b), entry in structure.items()
            if not entry.is_zero
        },
    )
    alpha = problem.constraints.alpha
    if alpha is not None:
        out["alpha"] = [str(combined(a, alpha)) for a in range(r)]
    return out


def verdicts(doc: dict, directory: Path) -> tuple:
    """The exit code and statuses of the constraint checks, the probe's
    verdict, and the exit code and counts of the degree-2 h^1 window."""
    directory.mkdir()
    path, report = directory / "problem.json", directory / "report.json"
    path.write_text(json.dumps(doc))
    check = invoke(["check", str(path), *CHECK, "--json", str(report)])
    checks = json.loads(report.read_text())["checks"]
    [probe] = [c["notes"][0] for c in checks if c["name"] == "irreducible"]
    window = invoke(["cohomology", str(path), "--trunc", "2"])
    counts = [
        line
        for line in window.stdout.splitlines()
        if line.startswith("closed ") and "h^1" in line
    ]
    return (
        check.exit_code,
        [(c["name"], c["status"]) for c in checks],
        probe,
        window.exit_code,
        counts,
    )


def test_the_identity_keeps_the_frame_data():
    # the transform writes back what it read, so a change of frame is all
    # that can move a verdict
    for name, doc in INPUTS.items():
        given = problem_from_dict(doc)
        written = problem_from_dict(transformed(doc, identity(doc["rank"])))
        assert written.data == given.data, name
        assert written.constraints.alpha == given.constraints.alpha, name


def test_the_frame_changes_are_unimodular_and_move_the_frame():
    moved = set()
    for name, doc in INPUTS.items():
        r = doc["rank"]
        for seed in SEEDS:
            m = unimodular(r, random.Random(f"{name} {seed}"))
            inv = inverse(m)
            product = [
                [sum(m[a][c] * inv[c][b] for c in range(r)) for b in range(r)]
                for a in range(r)
            ]
            assert product == identity(r)
            changed = problem_from_dict(transformed(doc, m))
            if changed.data != problem_from_dict(doc).data:
                moved.add(name)
    # every frame moves but those of rank one, which have no other of this kind
    assert moved == {name for name, doc in INPUTS.items() if doc["rank"] > 1}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_constant_frame_change_keeps_every_verdict(tmp_path, name, seed):
    doc = INPUTS[name]
    m = unimodular(doc["rank"], random.Random(f"{name} {seed}"))
    given = verdicts(doc, tmp_path / "given")
    assert given[0] in (0, 1)
    assert verdicts(transformed(doc, m), tmp_path / "changed") == given
