"""Log-canonical Poisson frames: problem documents with x-dependent structure.

The cotangent algebroid of the log-canonical bracket {x_i, x_j} = c_ij x_i
x_j, for a skew integer matrix c, is the recipe of README "Window columns":
anchor[a][j] = c_aj x_a x_j, and C^a_ab = c_ab x_b, C^b_ab = c_ab x_a for
a < b.  The bracket is Poisson for every skew c, so the frame passes every
check; each c_ij, i < j, is drawn from the nonzero integers in [-3, 3] by
`random.Random(seed)`, pair by pair in lexicographic order.  The broken
twin adds `x3` to anchor[1][2] (1-based), which gives nonzero anchor and
Jacobi defects.  Standard library only: `tools/cli_matrix.py` compiles this
file from its source.
"""

from __future__ import annotations

import random
from itertools import combinations


def log_canonical(n: int, seed: int = 1, broken: bool = False) -> dict:
    """The problem document of the log-canonical frame over x1, ..., xn."""
    rng = random.Random(seed)
    c = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        c[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
        c[j][i] = -c[i][j]
    x = [f"x{k + 1}" for k in range(n)]
    anchor = [
        ["0" if a == j else f"{c[a][j]}*{x[a]}*{x[j]}" for j in range(n)]
        for a in range(n)
    ]
    if broken:
        anchor[0][1] += " + x3"
    structure = {}
    for a, b in combinations(range(n), 2):
        structure[f"{a + 1},{a + 1},{b + 1}"] = f"{c[a][b]}*{x[b]}"
        structure[f"{b + 1},{a + 1},{b + 1}"] = f"{c[a][b]}*{x[a]}"
    return {
        "base_dim": n,
        "rank": n,
        "coords": x,
        "anchor": anchor,
        "structure": structure,
    }
