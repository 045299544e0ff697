"""Dense cubes for the references that sum over every index.

An `Algebroid` stores only its nonzero C^c_ab, and a `GeometryPack` only
its nonzero omega^a_{bi} and tau^a_b.  The reference computations of the
tests spell out the defining sums over every index, zeros included, so
they read the full [c][a][b] cube, the [a][b][i] connection cube and the
[a][b] tau matrix; the test frames are written as cubes too.
"""

from __future__ import annotations

from itertools import combinations

from nqkit.algebroid import Algebroid
from nqkit.dynamics import GeometryPack
from nqkit.poly import EvenPoly


def structure_cube(data: Algebroid) -> list[list[list[EvenPoly]]]:
    """C^c_ab of the frame as cube[c][a][b], zeros included."""
    r = data.rank
    cube = [[[data.zero()] * r for _ in range(r)] for _ in range(r)]
    for (a, b), entries in data.nonzero_structure.items():
        for c, f in entries:
            cube[c][a][b] = f
    return cube


def cube_algebroid(coords, anchor, cube) -> Algebroid:
    """The frame with this anchor and the antisymmetric cube[c][a][b]."""
    r = len(cube)
    pairs = list(combinations(range(r), 2))
    assert all(cube[c][a][a].is_zero for c in range(r) for a in range(r))
    assert all(
        (cube[c][a][b] + cube[c][b][a]).is_zero for c in range(r) for a, b in pairs
    )
    return Algebroid(
        tuple(coords),
        tuple(tuple(row) for row in anchor),
        {(c, a, b): cube[c][a][b] for c in range(r) for a, b in pairs},
    )


def connection_cube(pack: GeometryPack) -> list[list[list[EvenPoly]]]:
    """omega^a_{bi} of the pack as cube[a][b][i], zeros included."""
    r, n = pack.rank, len(pack.coords)
    zero = EvenPoly.zero(pack.coords)
    cube = [[[zero] * n for _ in range(r)] for _ in range(r)]
    for (a, b, i), entry in pack.omega.items():
        cube[a][b][i] = entry
    return cube


def tau_matrix(pack: GeometryPack) -> list[list[EvenPoly]]:
    """tau^a_b of the pack as matrix[a][b], zeros included."""
    r = pack.rank
    matrix = [[EvenPoly.zero(pack.coords)] * r for _ in range(r)]
    for (a, b), entry in pack.tau.items():
        matrix[a][b] = entry
    return matrix

