"""Input generators for the benchmark: so(n) actions and seeded dense frames.

Both return problem documents in the schema of ``nqkit.problem`` (plain
dicts of grammar strings), so the program under test receives only the
generated files and nothing of how they were made.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


def _term(coefficient: Fraction, coords: list[str], exponent: tuple[int, ...]) -> str:
    factors = [
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(coords, exponent)
        if power
    ]
    if not factors:
        return f"({coefficient})"
    return f"({coefficient})*" + "*".join(factors)


def _poly(terms: dict[tuple[int, ...], Fraction], coords: list[str]) -> str:
    live = [(e, c) for e, c in sorted(terms.items()) if c]
    if not live:
        return "0"
    return " + ".join(_term(c, coords, e) for e, c in live)


def _identity(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def so_n(n: int) -> dict:
    """The rotation action of so(n) on R^n, with the flat Euclidean geometry.

    Generator a = (i, j), i < j, is the field x_i d_j - x_j d_i, i.e. the
    linear field x -> M_a x with (M_a)[j][i] = 1 and (M_a)[i][j] = -1.
    For linear fields [v_A, v_B] = v_{BA - AB}, and an antisymmetric
    matrix K decomposes as the sum over i < j of K[j][i] M_(i,j); that
    gives the structure constants.
    """
    coords = [f"x{k + 1}" for k in range(n)]
    pairs = list(combinations(range(n), 2))
    index = {pair: a for a, pair in enumerate(pairs)}

    def matrix(pair: tuple[int, int]) -> list[list[int]]:
        i, j = pair
        m = [[0] * n for _ in range(n)]
        m[j][i], m[i][j] = 1, -1
        return m

    def product(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
        return [
            [sum(p[r][k] * q[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)
        ]

    anchor = []
    for i, j in pairs:
        row = ["0"] * n
        row[j] = coords[i]
        row[i] = f"-{coords[j]}"
        anchor.append(row)

    structure = {}
    for a, b in combinations(range(len(pairs)), 2):
        A, B = matrix(pairs[a]), matrix(pairs[b])
        BA, AB = product(B, A), product(A, B)
        for (i, j), c in index.items():
            value = BA[j][i] - AB[j][i]
            if value:
                structure[f"{c + 1},{a + 1},{b + 1}"] = str(value)

    rank = len(pairs)
    return {
        "base_dim": n,
        "rank": rank,
        "coords": coords,
        "anchor": anchor,
        "structure": structure,
        "metric_inv": _identity(n),
        "metric": _identity(n),
        "connection": [
            [["0"] * n for _ in range(rank)] for _ in range(rank)
        ],
        "points": [[int(i == k) for i in range(n)] for k in range(n)],
    }


def _random_poly(
    rng: random.Random, n: int, max_degree: int, terms: int
) -> dict[tuple[int, ...], Fraction]:
    """`terms` distinct monomials of total degree <= max_degree, nonzero
    coefficients p/q with |p| <= 5 and 1 <= q <= 3."""
    chosen = rng.sample(_exponents(n, max_degree), terms)
    out = {}
    for e in chosen:
        numerator = rng.choice([k for k in range(-5, 6) if k])
        out[e] = Fraction(numerator, rng.randint(1, 3))
    return out


def _exponents(n: int, max_degree: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(max_degree + 1)
        for rest in _exponents(n - 1, max_degree - first)
    ]


def dense_random(seed: int) -> dict:
    """A seeded frame on 3 coordinates with rank 3: every anchor entry has
    6 terms of degree <= 3, every structure function C^c_ab (a < b) has 4
    terms of degree <= 2, and alpha has 3 terms of degree <= 2 per entry.
    Such a frame fails the bracket axioms, so the reports carry residuals."""
    rng = random.Random(f"dense_random:{seed}")
    n = rank = 3
    coords = [f"x{k + 1}" for k in range(n)]
    anchor = [
        [_poly(_random_poly(rng, n, 3, 6), coords) for _ in range(n)]
        for _ in range(rank)
    ]
    structure = {
        f"{c + 1},{a + 1},{b + 1}": _poly(_random_poly(rng, n, 2, 4), coords)
        for a, b in combinations(range(rank), 2)
        for c in range(rank)
    }
    alpha = [_poly(_random_poly(rng, n, 2, 3), coords) for _ in range(rank)]
    return {
        "base_dim": n,
        "rank": rank,
        "coords": coords,
        "anchor": anchor,
        "structure": structure,
        "alpha": alpha,
    }
