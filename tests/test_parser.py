from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nqkit.parser import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ParseError,
    parse_poly,
    rational_from_string,
)
from nqkit.poly import EvenPoly

from test_poly import random_poly, ring

COORDS = ("x1", "x2")


def test_basic_expressions():
    coords, g = ring(COORDS)
    assert parse_poly("x1^2 - 3/2*x1*x2 + 1", coords) == (
        g["x1"] ** 2 - Fraction(3, 2) * g["x1"] * g["x2"] + 1
    )
    assert parse_poly("-(x1 + 1)*(x1 - 1)", coords) == -(g["x1"] ** 2) + 1
    assert parse_poly("- -x1", coords) == g["x1"]
    assert parse_poly("+x2", coords) == g["x2"]
    assert parse_poly("0", coords) == EvenPoly.zero(coords)
    assert parse_poly("2^3", coords) == EvenPoly.const(coords, 8)
    assert parse_poly("3/2^2", coords) == EvenPoly.const(coords, Fraction(9, 4))
    assert parse_poly(" 1 / 2 * x1 ", coords) == g["x1"] / 2


def test_round_trip_through_canonical_strings():
    rng = random.Random(29)
    coords = COORDS
    for _ in range(100):
        p = random_poly(rng, coords, max_terms=5)
        assert parse_poly(str(p), coords) == p


@pytest.mark.parametrize(
    "text,position",
    [
        ("2x1", 1),  # implicit multiplication
        ("x1/2", 2),  # '/' after a name
        ("(x1+1)/2", 6),  # '/' after a parenthesized expression
        ("1/0", 2),
        ("x1^-1", 3),
        ("x1^(2)", 3),  # exponent must be a bare integer literal
        ("3.5", 1),
        ("x1 + y", 5),  # unknown coordinate
        ("(x1", 3),
        ("x1*", 3),
        ("", 0),
        ("   ", 3),
        ("x1 + + ", 7),
        ("x1 + * 2", 5),  # an operator where an operand must start
        (")", 0),
    ],
)
def test_errors_carry_positions(text: str, position: int):
    with pytest.raises(ParseError) as excinfo:
        parse_poly(text, COORDS)
    assert excinfo.value.position == position
    assert f"position {position}" in str(excinfo.value)


def test_division_only_between_integer_literals():
    with pytest.raises(ParseError, match="integer literals"):
        parse_poly("x1/x2", COORDS)
    with pytest.raises(ParseError, match="expected an integer"):
        parse_poly("3/x2", COORDS)
    with pytest.raises(ParseError, match="integer literals"):
        parse_poly("3/2/5", COORDS)


def test_nesting_is_bounded():
    coords, g = ring(COORDS)
    depth = MAX_NESTING - 1  # the outermost level counts too
    assert parse_poly("(" * depth + "x1" + ")" * depth, COORDS) == g["x1"]
    assert parse_poly("+" * depth + "x1", COORDS) == g["x1"]
    for text in ["(" * 2000 + "x1" + ")" * 2000, "+" * MAX_NESTING + "x1"]:
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_poly(text, COORDS)


def test_exponent_and_integer_literals_are_bounded():
    coords, g = ring(COORDS)
    assert parse_poly(f"x1^{MAX_EXPONENT}", COORDS) == g["x1"] ** MAX_EXPONENT
    for text in [f"x1^{MAX_EXPONENT + 1}", "x1^99999999999"]:
        with pytest.raises(ParseError, match="exponent larger") as excinfo:
            parse_poly(text, COORDS)
        assert excinfo.value.position == 3
    huge = "1" + "0" * 5000  # past the interpreter's digit limit for int()
    for text, position in [(huge, 0), ("1/" + huge, 2), ("x1^" + huge, 3)]:
        with pytest.raises(ParseError, match="too long") as excinfo:
            parse_poly(text, COORDS)
        assert excinfo.value.position == position


def test_expansion_is_bounded_before_it_is_formed():
    assert MAX_TERMS == 2000  # the edges below are placed around it
    # a power of a trinomial in two coordinates has exactly C(k + 2, 2)
    # terms, which both bounds give: 1953 at k = 61, 2016 at k = 62
    assert len(parse_poly("(x1+x2+1)^61", COORDS).terms) == 1953
    with pytest.raises(ParseError, match="power may have 2016 terms") as excinfo:
        parse_poly("(x1+x2+1)^62", COORDS)
    assert excinfo.value.position == 9
    with pytest.raises(ParseError, match="product may have 2016 terms") as excinfo:
        parse_poly("(x1+x2+1)^31*(x1+x2+1)^31", COORDS)
    assert excinfo.value.position == 12
    # disjoint sums over many coordinates: the term counts bound the product
    coords = tuple(f"v{k}" for k in range(100))
    left = "+".join(coords[:40])
    assert len(parse_poly(f"({left})*({'+'.join(coords[40:90])})", coords).terms) == 2000
    with pytest.raises(ParseError, match="product may have 2050 terms") as excinfo:
        parse_poly(f"({left}+v99)*({'+'.join(coords[40:90])})", coords)
    assert excinfo.value.position == len(left) + 6


def test_rational_from_string():
    assert rational_from_string("3/2") == Fraction(3, 2)
    assert rational_from_string(" -4 ") == Fraction(-4)
    assert rational_from_string("+7/3") == Fraction(7, 3)
    for bad in ["1.5", "1/0", "a", "1/-2", "", "1 / 2"]:
        with pytest.raises(ParseError):
            rational_from_string(bad)
