"""Window columns from one derivation table agree with the routes they replaced.

Every window column is a derivation applied to one monomial, built by
`window_columns`: Q, from `q_images`, on 1-cochains (h^1) and on
functions (d0, the exactness query), and (S, .), from
`hamiltonian_field`, on the ghost-zero window.  Every product column and
every right-hand side is a `vector_column`.  The references kept here are
the earlier routes: the frame differential `e_differential` of a
one-monomial form (from `tests.reference_forms`), the bracket written out
pair by pair, and one shifted `EvenPoly` per equation pair for the
connection solve.  Columns are compared as exact dicts.  The only
relabelling is that the Q columns live in the ghost context, so their
exponents carry a momentum half, which must be zero.  The elimination of
each exact window is held to the route it replaced as well: `image_in` on
every corpus window equals rank A - rank A_out, two runs of `rref`.  The
column counts that the command line estimates for its window budget are
checked against the columns each solve hands to the elimination.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import nqkit.algebroid
import nqkit.bfv
import nqkit.cli
from nqkit.algebroid import (
    Algebroid,
    cohomology_h1,
    ghost_context,
    is_exact_one_form,
    q_images,
)
from nqkit.bfv import _balanced_words, bfv_h0, build_S
from nqkit.cli import _check_window_budget, _connection_unknowns
from nqkit.constraints import ConstraintSet, phase_space
from nqkit.dynamics import _connection_columns, _lowered_anchor
from nqkit.graded import in_window, left_derivation, letters, window_columns
from nqkit.linalg import image_in, rank
from nqkit.poly import WIDTH, EvenPoly, monomial_exponents, unpack
from nqkit.problem import load_problem

from tests.reference_forms import affine_form, e_differential, from_terms
from tests.test_linalg import rank_through_rref
from tests.test_graded import pair_loop_poisson

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
NAMES = sorted(path.stem for path in CORPUS.glob("*.json"))
# the source slack of the h^1 exact window when `cohomology` is not given one
SLACK = nqkit.cli.cmd_cohomology.options["--slack"].default


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
    """A column over n even coordinates keyed as `terms()` reads its terms:
    a term key holds its odd word above its exponent over n coordinates."""
    s = WIDTH * (n + 1)
    return {
        (letters(key >> s), unpack(key & (1 << s) - 1, n)): coeff
        for key, coeff in column.items()
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
    assert magnetic.constraints.ctx.twist is not None
    assert corpus_problem("rank2_line_affine").constraints.alpha is not None


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_q_columns_match_the_frame_differential(name, trunc):
    data = corpus_problem(name).data
    n, r = data.base_dim, data.rank
    ctx = ghost_context(data)
    images = q_images(data, ctx)
    # the 1-cochains of h^1, one window per word, and d0 on functions
    windows = [([1 << a], trunc) for a in range(r)] + [([0], trunc + 2)]
    for words, degree in windows:
        sources, columns = window_columns(ctx, images, words, degree)
        assert sources == [(words[0], e, 0) for e in monomial_exponents(n, degree)]
        for (word, e, _), column in zip(sources, columns):
            expected = differential_column(data, letters(word), e)
            assert without_momenta(column, n) == expected


def test_window_sources_run_over_x_then_p_then_words():
    # Any source order gives the same answers.  Words first raises the
    # elimination work of the ghost-zero window of `so3_action` at x-degree
    # 2, p-degree 1 (the length of the row being reduced, summed over
    # `linalg._eliminate` calls) from 181403 to 195673.
    problem = corpus_problem("so3_action")
    cs = problem.constraints
    n, words = problem.data.base_dim, _balanced_words(problem.data.rank, 0)
    sources, columns = window_columns(cs.ctx, cs.field, words, 2, 1)
    assert sources == [
        (word, e, f)
        for e in monomial_exponents(n, 2)
        for f in monomial_exponents(n, 1)
        for word in words
    ]
    assert len(columns) == len(sources)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("x_degree, p_degree", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_bracket_columns_match_the_pair_loop(name, x_degree, p_degree):
    problem = corpus_problem(name)
    data, cs = problem.data, problem.constraints
    ctx = phase_space(data, cs.magnetic)
    S = build_S(data, ctx) + affine_form(ctx, cs.alpha or ())
    field = ctx.hamiltonian_field(S)
    n = data.base_dim
    for ghost in (0, -1):
        words = _balanced_words(data.rank, ghost)
        sources, columns = window_columns(ctx, field, words, x_degree, p_degree)
        monomials = (len(monomial_exponents(n, d)) for d in (x_degree, p_degree))
        assert len(sources) == len(columns) == len(words) * prod(monomials)
        for (word, xe, pe), column in zip(sources, columns):
            exponent = unpack(xe, n) + unpack(pe, n)
            element = from_terms(
                ctx, [(letters(word), exponent, Fraction(1))]
            )
            bracket = pair_loop_poisson(ctx, S, element)
            expected = {(w, e): c for w, e, c in bracket.terms()}
            assert boundary(column, 2 * n) == expected


@pytest.mark.parametrize("name", NAMES)
def test_field_columns_apply_left_derivation_to_each_monomial(name):
    # every window's table: Q on the words of h^1 and on functions, and the
    # (S, .) of --bfv-h0, twisted on abelian_r2_magnetic, on both ghost numbers
    problem = corpus_problem(name)
    data, cs = problem.data, problem.constraints
    ctx = ghost_context(data)
    q_words = [[1 << a] for a in range(data.rank)] + [[0]]
    windows = [(ctx, q_images(data, ctx), words, 2, 0) for words in q_words]
    windows += [
        (cs.ctx, cs.field, _balanced_words(data.rank, ghost), 1 - ghost, 1 - ghost)
        for ghost in (0, -1)
    ]
    n = data.base_dim
    for ctx, field, words, x_degree, p_degree in windows:
        sources, columns = window_columns(ctx, field, words, x_degree, p_degree)
        for (word, xe, pe), column in zip(sources, columns):
            exponent = unpack(xe, n) + unpack(pe, n)
            monomial = from_terms(ctx, [(letters(word), exponent, 1)])
            image = left_derivation(ctx, field, monomial)
            assert column == image.coeffs


def assert_image_in_is_rank_minus_the_outside_rank(columns, inside):
    outside_rank = rank_through_rref(columns, lambda key: not inside(key))
    assert image_in(columns, inside) == rank_through_rref(columns) - outside_rank


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_h1_exact_window_matches_two_eliminations(name, trunc):
    problem = corpus_problem(name)
    data, slack = problem.data, SLACK
    ctx = ghost_context(data)
    _, sources = window_columns(ctx, q_images(data, ctx), [0], trunc + slack)
    assert_image_in_is_rank_minus_the_outside_rank(
        sources, in_window(data.base_dim, trunc)
    )


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("x_degree", [0, 1, 2])
@pytest.mark.parametrize("p_degree", [0, 1])
def test_ghost_zero_window_matches_two_eliminations(name, x_degree, p_degree):
    cs = corpus_problem(name).constraints
    n, r = cs.data.base_dim, cs.data.rank
    words = _balanced_words(r, 0)
    _, window = window_columns(cs.ctx, cs.field, words, x_degree, p_degree)
    assert rank(window) == rank_through_rref(window)
    _, sources = window_columns(
        cs.ctx, cs.field, _balanced_words(r, -1), x_degree + 1, p_degree + 1
    )
    assert_image_in_is_rank_minus_the_outside_rank(
        sources, in_window(n, x_degree, p_degree)
    )


def pair_by_pair_connection_column(data, g_low, b, a, i, m) -> dict:
    n = data.base_dim
    iota = _lowered_anchor(data, g_low)
    shifted = EvenPoly(data.coords, {m: Fraction(1)})
    column = {}
    for s in range(n):
        for t in range(s, n):
            contribution = EvenPoly.zero(data.coords)
            if i == s:
                contribution = contribution - shifted * iota[b][t]
            if i == t:
                contribution = contribution - shifted * iota[b][s]
            for e, coeff in contribution.terms.items():
                column[((a, s, t), e)] = coeff
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
    for ((b, a, i), m), column in zip(unknowns, columns):
        assert column == pair_by_pair_connection_column(data, g_low, b, a, i, m)


def estimated_columns(monkeypatch, capsys, problem, *window) -> int:
    """The count `_check_window_budget` estimates, read off its refusal
    under a budget that refuses every window."""
    monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", -1)
    with pytest.raises(SystemExit):
        _check_window_budget(problem, *window)
    message = capsys.readouterr().err
    return int(re.search(r"an estimated (\d+) columns", message).group(1))


def built_columns(monkeypatch, module, stubs: dict, solve) -> int:
    """The columns `solve()` hands to the elimination routines of `module`,
    each stubbed to return a fixed answer, so no elimination runs."""
    seen = []

    def stub(answer):
        def record(columns, *rest):
            seen.append(len(columns))
            return answer

        return record

    for name, answer in stubs.items():
        monkeypatch.setattr(module, name, stub(answer))
    solve()
    return sum(seen)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_window_budget_counts_the_columns_built(monkeypatch, capsys, name, trunc):
    problem = corpus_problem(name)
    data, slack = problem.data, SLACK

    def estimate(p_degree, bfv_h0_flag, is_exact_flag):
        window = (trunc, slack, p_degree, bfv_h0_flag, is_exact_flag)
        return estimated_columns(monkeypatch, capsys, problem, *window)

    stubs = {"kernel": [], "image_in": 0, "solve": None}
    h1 = built_columns(
        monkeypatch, nqkit.algebroid, stubs, lambda: cohomology_h1(data, trunc, slack)
    )
    assert estimate(0, False, False) == h1
    zero_form = (data.zero(),) * data.rank
    exact = built_columns(
        monkeypatch,
        nqkit.algebroid,
        stubs,
        lambda: is_exact_one_form(data, zero_form, trunc),
    )
    assert estimate(0, False, True) == exact

    cs = problem.constraints
    if not cs.self_bracket.is_zero:
        # a failing master stops the window before any column is built;
        # the window depends only on base and rank, so count the zero frame's
        zero_row = (data.zero(),) * data.base_dim
        zero_frame = Algebroid(data.coords, (zero_row,) * data.rank, {})
        cs = ConstraintSet(zero_frame, cs.alpha, cs.magnetic)
    stubs = {"rank": 0, "image_in": 0}
    for p_degree in (0, 1):
        h0 = built_columns(
            monkeypatch, nqkit.bfv, stubs, lambda: bfv_h0(cs, trunc, p_degree)
        )
        assert estimate(p_degree, True, False) == h0
