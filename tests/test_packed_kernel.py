"""The packed kernel against the tuple kernel it replaced, and at its edges.

Exponents are packed integers, odd words bitmasks and a graded term one key
with its word above its exponent in the library; the tuple forms of
`tests/reference_forms.py` are the reference.  Every operation of the
kernel, even and graded (products, sums, derivatives at every letter, the
bracket with and without a twist, derivations and transport into reordered
letters), runs on seeded random polynomials with `Fraction` coefficients and
cancelling terms, and the results are compared after unpacking.  The edges
are the parser's degree bound and the largest window the budget admits in
one coordinate.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from nqkit.graded import (
    GradedContext,
    GradedPoly,
    extended_context,
    left_derivation,
    letters,
    merge_words,
    transport,
)
from nqkit.parser import MAX_DEGREE, ParseError, parse_poly
from nqkit.poly import (
    EvenPoly,
    accumulate_product,
    derivative,
    embed,
    exact_quotient,
    pack,
    unpack,
)
from tests import reference_forms as ref
from tests.conftest import invoke
from tests.reference_forms import from_terms, packed, unpacked, word_mask

COORDS = ("w", "x", "y", "z")
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def random_terms(rng: random.Random, n: int, max_terms: int = 6) -> dict:
    """Tuple terms with int and Fraction coefficients, some of them zero."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = tuple(rng.randint(0, 3) for _ in range(n))
        terms[exponent] = rng.choice(
            [0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))]
        )
    return {e: c for e, c in terms.items() if c}


def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def test_products_match_the_tuple_kernel():
    rng = random.Random(101)
    cancelled = 0
    for _ in range(300):
        a, b = random_terms(rng, 4), random_terms(rng, 4)
        # (a + b)(a - b): cross terms cancel between the two products
        plus = nonzero({e: a.get(e, 0) + b.get(e, 0) for e in a | b})
        minus = nonzero({e: a.get(e, 0) - b.get(e, 0) for e in a | b})
        for left, right in [(a, b), (plus, minus)]:
            for sign in (1, -1):
                expected: dict = {}
                ref.accumulate_product(expected, left, right, sign)
                out: dict = {}
                accumulate_product(out, packed(left), packed(right), sign)
                assert {unpack(e, 4): c for e, c in out.items()} == expected
            product = EvenPoly(COORDS, packed(left)) * EvenPoly(COORDS, packed(right))
            # the last `expected` is -left * right, cancelled terms kept
            assert unpacked(product) == nonzero({e: -c for e, c in expected.items()})
            cancelled += len(expected) > len(nonzero(expected))
    assert cancelled > 20


def test_derivatives_match_the_tuple_kernel():
    rng = random.Random(103)
    for _ in range(300):
        terms = random_terms(rng, 4)
        f = EvenPoly(COORDS, packed(terms))
        for index, name in enumerate(COORDS):
            expected = ref.derivative(terms, index)
            assert {
                unpack(e, 4): c for e, c in derivative(f.terms, index, 4).items()
            } == expected
            assert unpacked(f.diff(name)) == expected


def test_exact_division_matches_the_tuple_kernel():
    rng = random.Random(107)
    inexact = 0
    for _ in range(200):
        f, g = random_terms(rng, 4, 5), random_terms(rng, 4, 4)
        if not g:
            continue
        F, G = EvenPoly(COORDS, packed(f)), EvenPoly(COORDS, packed(g))
        product = F * G
        assert ref.exact_quotient(unpacked(product), g) == unpacked(F)
        assert exact_quotient(product, G) == F
        # a remainder: one more term that the lead of g does not divide
        if any(g) and max(sum(e) for e in g) > 0:
            bumped = product + 1
            with pytest.raises(RuntimeError, match="remainder"):
                ref.exact_quotient(unpacked(bumped), g)
            with pytest.raises(RuntimeError, match="remainder"):
                exact_quotient(bumped, G)
            inexact += 1
    assert inexact > 50


def test_embedding_matches_the_tuple_kernel():
    rng = random.Random(109)
    targets = [("w", "x", "y", "z", "p", "q"), ("p", "z", "x", "q", "w", "y")]
    for _ in range(100):
        terms = random_terms(rng, 4)
        f = EvenPoly(COORDS, packed(terms))
        for coords in targets:
            indices = [coords.index(name) for name in COORDS]
            assert unpacked(embed(f, coords)) == ref.embed(terms, indices, 6)
    with pytest.raises(KeyError, match="target ring"):
        embed(EvenPoly(COORDS, packed({(1, 0, 0, 0): 1})), ("x", "y", "z"))


def test_every_disjoint_word_pair_over_eight_letters_merges_like_the_tuples():
    words = [w for size in range(9) for w in combinations(range(8), size)]
    pairs = 0
    for w1 in words:
        for w2 in words:
            word, sign = merge_words(word_mask(w1), word_mask(w2))
            expected_word, expected_sign = ref.merge_words(w1, w2)
            assert sign == expected_sign
            assert (word is None) == (expected_word is None)
            if word is not None:
                assert letters(word) == expected_word
                pairs += 1
    assert pairs == 3**8  # each letter in w1, in w2 or in neither


def test_packed_order_is_graded_lexicographic_order():
    rng = random.Random(113)
    exponents = [
        tuple(rng.choice([0, 0, 0, 1, 2, 5, 300]) for _ in range(32))
        for _ in range(500)
    ]
    assert sorted(exponents, key=ref.term_sort_key) == [
        unpack(key, 32) for key in sorted(map(pack, exponents))
    ]


def test_pack_and_unpack_round_trip():
    rng = random.Random(127)
    for n in (0, 1, 2, 7, 32):
        for _ in range(50):
            exponent = tuple(rng.randint(0, MAX_DEGREE // max(n, 1)) for _ in range(n))
            assert unpack(pack(exponent), n) == exponent
    assert pack(()) == 0 and unpack(0, 3) == (0, 0, 0)


# the edges of the width


def test_the_degree_bound_is_refused_at_the_operator():
    assert MAX_DEGREE == 4096
    at_bound = parse_poly("(x^64)^64", ("x",))
    assert at_bound.total_degree() == MAX_DEGREE
    assert unpacked(at_bound) == {(MAX_DEGREE,): 1}
    for text, position, what in [
        ("(x^64)^64*x", 9, "product has total degree 4097"),
        ("((((x^64)^64)^64)^64)", 13, "power has total degree 262144"),
        ("x*(y^64)^64", 1, "product has total degree 4097"),
    ]:
        with pytest.raises(ParseError, match=what) as excinfo:
            parse_poly(text, ("x", "y"))
        assert excinfo.value.position == position


def frame_with_anchor(tmp_path, entry: str) -> str:
    doc = {"base_dim": 1, "rank": 2, "coords": ["x"], "anchor": [[entry], ["1"]]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_an_anchor_entry_at_the_degree_bound_checks_as_before(tmp_path):
    # the report of the tuple kernel: rho_1 = x^4096, rho_2 = 1 and no
    # structure leave R1 = -d rho_1 = -4096 x^4095
    result = invoke(["check", frame_with_anchor(tmp_path, "(x^64)^64"), "--axioms"])
    assert result.exit_code == 1
    assert result.stdout == (
        "[FAIL] axioms: Q^2 = 0\n"
        "    residual anchor[a=1,b=2,i=1]: -4096*x^4095\n"
        "    note: anchor defect entries nonzero: 1\n"
        "    note: jacobi defect entries nonzero: 0\n"
        "    note: dual route: Q applied twice agrees with the defect tensors\n"
        "overall: fail\n"
    )


def test_one_degree_past_the_bound_is_an_input_error(tmp_path):
    result = invoke(["check", frame_with_anchor(tmp_path, "(x^64)^64*x"), "--axioms"])
    assert result.exit_code == 2
    assert result.stderr == (
        "input error: anchor[1][1]: position 9: the product has total degree "
        "4097, more than the bound of 4096\n"
    )


def test_the_widest_one_coordinate_window_keeps_its_dimensions():
    result = invoke(["cohomology", str(CORPUS / "abelian_r1.json"), "--trunc", "2400"])
    assert result.exit_code == 0
    assert "closed 2401   exact 2401   h^1 0\n" in result.stdout


# the flat graded kernel: one term dict per polynomial, against tuple terms


def graded_context(twisted: bool) -> GradedContext:
    """Positions x, y with momenta and three ghost pairs: six letters, so
    words of up to five letters meet; twisted, {p_x, p_y} = -(x + 1)."""
    if not twisted:
        return extended_context(("x", "y"), 3)
    x = EvenPoly.variable(("x", "y"), "x")
    w = x + 1
    zero = EvenPoly.zero(("x", "y"))
    return extended_context(("x", "y"), 3, twist=[[zero, w], [-w, zero]])


def random_graded_terms(rng: random.Random, ctx, max_terms: int = 6) -> dict:
    """Tuple graded terms: words of 0 to 5 letters, int and Fraction
    coefficients, and now and then an exponent at the parser's degree bound."""
    n_even, n_odd = len(ctx.even_names), len(ctx.odd_names)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(sorted(rng.sample(range(n_odd), rng.randint(0, 5))))
        exponent = [rng.choice([0, 0, 1, 2]) for _ in range(n_even)]
        if rng.random() < 0.1:
            exponent = [0] * n_even
            exponent[rng.randrange(n_even)] = MAX_DEGREE
        terms[(word, tuple(exponent))] = rng.choice(
            [rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 4))]
        )
    return {key: c for key, c in terms.items() if c}


def as_graded(ctx, terms: dict) -> GradedPoly:
    return from_terms(ctx, [(w, e, c) for (w, e), c in terms.items()])


@pytest.mark.parametrize("twisted", [False, True])
def test_graded_sums_and_products_match_the_tuple_kernel(twisted):
    ctx = graded_context(twisted)
    rng = random.Random(131 + twisted)
    cancelled = bounded = 0
    for _ in range(150):
        a, b = random_graded_terms(rng, ctx), random_graded_terms(rng, ctx)
        F, G = as_graded(ctx, a), as_graded(ctx, b)
        assert ref.graded_terms(F) == a
        plus, minus = ref.graded_add(a, b), ref.graded_add(a, b, -1)
        assert ref.graded_terms(F + G) == plus
        assert ref.graded_terms(F - G) == minus
        for left, right in [(a, b), (plus, minus), (b, a)]:
            product = as_graded(ctx, left) * as_graded(ctx, right)
            expected = ref.graded_mul(left, right)
            assert ref.graded_terms(product) == expected
            stored = product.coeffs.values()
            assert all(type(c) in (int, Fraction) and c for c in stored)
            cancelled += len(expected) < len(left) * len(right)
        bounded += any(MAX_DEGREE in e for _, e in a)
    assert cancelled > 100 and bounded > 20


@pytest.mark.parametrize("twisted", [False, True])
def test_graded_derivatives_match_the_tuple_kernel_at_every_letter(twisted):
    ctx = graded_context(twisted)
    rng = random.Random(137 + twisted)
    positions = set()
    for _ in range(150):
        a = random_graded_terms(rng, ctx)
        F = as_graded(ctx, a)
        for k, name in enumerate(ctx.even_names):
            assert ref.graded_terms(F.left_deriv(name)) == ref.graded_deriv(a, even=k)
        for letter, name in enumerate(ctx.odd_names):
            expected = ref.graded_deriv(a, letter=letter)
            assert ref.graded_terms(F.left_deriv(name)) == expected
            positions |= {w.index(letter) for w, _ in a if letter in w}
    assert positions == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("twisted", [False, True])
def test_brackets_and_derivations_match_the_tuple_kernel(twisted):
    ctx = graded_context(twisted)
    names = ctx.even_names + ctx.odd_names
    rng = random.Random(139 + twisted)
    nonzero = 0
    for _ in range(60):
        a, b = random_graded_terms(rng, ctx, 4), random_graded_terms(rng, ctx, 4)
        F, G = as_graded(ctx, a), as_graded(ctx, b)
        bracket = ctx.poisson(F, G)
        assert ref.graded_terms(bracket) == ref.graded_poisson(ctx, a, b)
        nonzero += not bracket.is_zero
        images = {
            name: random_graded_terms(rng, ctx, 3) for name in rng.sample(names, 5)
        }
        graded_images = {name: as_graded(ctx, t) for name, t in images.items()}
        assert ref.graded_terms(left_derivation(ctx, graded_images, G)) == (
            ref.graded_derivation(ctx, images, b)
        )
    assert nonzero > 15


def test_transport_into_reordered_letters_matches_the_tuple_kernel():
    source = graded_context(False)
    # the letters reversed, the even coordinates reordered with one more
    target = GradedContext(
        even=[(name, 0) for name in ("p_y", "t", "x", "p_x", "y")],
        odd=[(name, 0) for name in reversed(source.odd_names)],
    )
    rng = random.Random(149)
    signs = set()
    for _ in range(150):
        a = random_graded_terms(rng, source)
        moved = transport(as_graded(source, a), target)
        expected = ref.graded_transport(a, source, target)
        assert ref.graded_terms(moved) == expected
        signs |= {c / a[key] for key, c in zip(a, expected.values())}
    assert signs == {1, -1}
    fewer = GradedContext(even=[(name, 0) for name in source.even_names])
    with pytest.raises(KeyError, match="not an odd coordinate of the target"):
        transport(source.var("xi_1"), fewer)
