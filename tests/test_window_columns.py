"""Window columns from one derivation table agree with the routes they replaced.

Every window column is a derivation applied to one monomial: Q, from
`q_images`, on 1-cochains (h^1) and on functions (d0, the exactness
query), and (S, .), from `hamiltonian_field`, on the ghost-zero window.
The references kept here are the earlier routes: the frame differential
`e_differential` of a one-monomial form (from `tests.reference_forms`), the
bracket written out pair by pair, and one shifted `EvenPoly` per equation
pair for the connection solve.  Columns are compared as exact dicts.  The only relabelling is
that the Q columns live in the ghost context, so their exponents carry a
momentum half, which must be zero.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from nqkit.algebroid import _q_columns
from nqkit.bfv import _balanced_words, _bracket_columns, build_S
from nqkit.cli import _connection_unknowns
from nqkit.constraints import affine_charge, phase_space
from nqkit.dynamics import _connection_columns, _lowered_anchor
from nqkit.graded import GradedPoly, letters
from nqkit.poly import EvenPoly, monomial_exponents, unpack
from nqkit.problem import load_problem

from tests.reference_forms import e_differential
from tests.test_graded import pair_loop_poisson

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
NAMES = sorted(path.stem for path in CORPUS.glob("*.json"))


def corpus_problem(name: str):
    return load_problem(CORPUS / f"{name}.json")


def differential_column(data, key: tuple[int, ...], exponent) -> dict:
    """e_differential of the form whose only component, at `key`, is x^exponent."""
    monomial = EvenPoly(data.coords, {exponent: Fraction(1)})
    return {
        (indices, unpack(e, data.base_dim)): coeff
        for indices, value in e_differential(data, {key: monomial}).items()
        for e, coeff in value.terms.items()
    }


def boundary(column: dict, n: int) -> dict:
    """A column over n even coordinates keyed as `terms()` reads its terms."""
    return {
        (letters(word), unpack(e, n)): coeff for (word, e), coeff in column.items()
    }


def without_momenta(column: dict, n: int) -> dict:
    out = {}
    for (word, exponent), coeff in boundary(column, 2 * n).items():
        assert not any(exponent[n:]), "a Q column left the momentum-free sector"
        out[(word, exponent[:n])] = coeff
    return out


def test_the_cases_reach_the_twist_and_the_affine_charge():
    assert len(NAMES) == 10
    magnetic = corpus_problem("abelian_r2_magnetic")
    assert phase_space(magnetic.data, magnetic.pack.magnetic).twist is not None
    assert corpus_problem("rank2_line_affine").pack.alpha is not None


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_q_columns_match_the_frame_differential(name, trunc):
    data = corpus_problem(name).data
    n, r = data.base_dim, data.rank
    unknowns, columns = _q_columns(data, [1 << a for a in range(r)], trunc)
    assert unknowns == [
        (1 << a, e) for a in range(r) for e in monomial_exponents(n, trunc)
    ]
    for (word, e), column in zip(unknowns, columns):
        key = letters(word)
        assert without_momenta(column, n) == differential_column(data, key, e)

    sources, columns = _q_columns(data, [0], trunc + 2)
    assert sources == [(0, e) for e in monomial_exponents(n, trunc + 2)]
    for (word, e), column in zip(sources, columns):
        assert without_momenta(column, n) == differential_column(data, (), e)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("x_degree, p_degree", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_bracket_columns_match_the_pair_loop(name, x_degree, p_degree):
    problem = corpus_problem(name)
    data, pack = problem.data, problem.pack
    ctx = phase_space(data, pack.magnetic)
    S = build_S(data, ctx) + affine_charge(data, pack.alpha, ctx)
    field = ctx.hamiltonian_field(S)
    n = data.base_dim
    for ghost in (0, -1):
        words = _balanced_words(data.rank, ghost)
        columns = _bracket_columns(ctx, field, n, words, x_degree, p_degree)
        sources = [
            (word, unpack(xe, n) + unpack(pe, n))
            for xe in monomial_exponents(n, x_degree)
            for pe in monomial_exponents(n, p_degree)
            for word in words
        ]
        assert len(columns) == len(sources)
        for (word, exponent), column in zip(sources, columns):
            element = GradedPoly.from_terms(
                ctx, [(letters(word), exponent, Fraction(1))]
            )
            bracket = pair_loop_poisson(ctx, S, element)
            expected = {(w, e): c for w, e, c in bracket.terms()}
            assert boundary(column, 2 * n) == expected


def pair_by_pair_connection_column(data, g_low, b, a, i, m) -> dict:
    n = data.base_dim
    iota = _lowered_anchor(data, g_low)
    shifted = EvenPoly(data.coords, {m: Fraction(1)})
    pair_list = [(s, t) for s in range(n) for t in range(s, n)]
    column = {}
    for pair_pos, (s, t) in enumerate(pair_list):
        contribution = EvenPoly.zero(data.coords)
        if i == s:
            contribution = contribution - shifted * iota[b][t]
        if i == t:
            contribution = contribution - shifted * iota[b][s]
        for e, coeff in contribution.terms.items():
            column[(a, pair_pos, e)] = coeff
    return column


METRIC_NAMES = [
    name for name in NAMES if corpus_problem(name).pack.g_low is not None
]


def test_the_connection_cases_are_enough():
    assert len(METRIC_NAMES) >= 3


@pytest.mark.parametrize("name", METRIC_NAMES)
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_connection_columns_match_the_shifted_products(name, degree):
    problem = corpus_problem(name)
    data, g_low = problem.data, problem.pack.g_low
    unknowns, columns = _connection_columns(data, g_low, degree)
    assert len(unknowns) == _connection_unknowns(problem, degree)
    for (b, a, i, m), column in zip(unknowns, columns):
        assert column == pair_by_pair_connection_column(data, g_low, b, a, i, m)
