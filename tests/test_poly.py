from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nqkit.poly import EvenPoly, as_rat


def ring(coords) -> tuple[tuple[str, ...], dict[str, EvenPoly]]:
    """The coordinate tuple plus a name-to-generator mapping for quick algebra."""
    coord_tuple = tuple(coords)
    return coord_tuple, {name: EvenPoly.variable(coord_tuple, name) for name in coord_tuple}


def random_poly(rng: random.Random, coords: tuple[str, ...], max_terms: int = 4) -> EvenPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = tuple(rng.randint(0, 3) for _ in coords)
        terms[exponent] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return EvenPoly(coords, terms)


def random_point(rng: random.Random, coords: tuple[str, ...]) -> dict[str, Fraction]:
    return {name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in coords}


def test_construction_strips_zero_coefficients():
    coords = ("x", "y")
    p = EvenPoly(coords, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}
    assert not p.is_zero
    assert EvenPoly(coords, {(3, 3): Fraction(0)}).is_zero


def _filtered_sum(*signed: tuple[Fraction, EvenPoly]) -> EvenPoly:
    """sum of sign * poly, built by the filtering constructor: the reference."""
    terms: dict = {}
    for sign, poly in signed:
        for e, c in poly.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + sign * c
    return EvenPoly(poly.coords, terms)


def test_operations_store_no_zero_coefficient():
    coords = ("x", "y")
    rng = random.Random(17)
    one = Fraction(1)
    for _ in range(300):
        f = random_poly(rng, coords)
        # g cancels about half of f's terms exactly, and adds terms of its own
        cancelling = {e: -c for e, c in f.terms.items() if rng.random() < 0.5}
        g = EvenPoly(coords, {**random_poly(rng, coords).terms, **cancelling})
        scalar = rng.choice(
            [0, Fraction(0), rng.randint(-3, 3), Fraction(rng.randint(-4, 4), 3)]
        )
        cases = [
            (f + g, _filtered_sum((one, f), (one, g))),
            (f - g, _filtered_sum((one, f), (-one, g))),
            (g - f, _filtered_sum((one, g), (-one, f))),
            (-f, _filtered_sum((-one, f))),
            (f - f, EvenPoly.zero(coords)),
            (f + (-f), EvenPoly.zero(coords)),
            (f * 0, EvenPoly.zero(coords)),
            (f * Fraction(0), EvenPoly.zero(coords)),
            (0 * f, EvenPoly.zero(coords)),
            (f * scalar, _filtered_sum((Fraction(scalar), f))),
            (scalar * f, _filtered_sum((Fraction(scalar), f))),
            (
                f + scalar,
                _filtered_sum((one, f), (one, EvenPoly.const(coords, scalar))),
            ),
        ]
        for result, expected in cases:
            assert all(c != 0 for c in result.terms.values())
            assert result.terms == expected.terms
            assert result.coords == coords


def test_generators_and_constants():
    coords, g = ring(["x", "y"])
    p = g["x"] * g["x"] - 2 * g["y"] + 1
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((0, 1)) == -2
    assert p.constant_term() == 1
    assert EvenPoly.const(coords, Fraction(3, 2)).terms == {(0, 0): Fraction(3, 2)}
    with pytest.raises(KeyError):
        EvenPoly.variable(coords, "z")


def test_ring_axioms_on_random_samples():
    coords = ("x", "y", "z")
    rng = random.Random(11)
    for _ in range(200):
        a = random_poly(rng, coords)
        b = random_poly(rng, coords)
        c = random_poly(rng, coords)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero


def test_diff_is_a_derivation():
    coords = ("x", "y")
    rng = random.Random(13)
    for _ in range(100):
        a = random_poly(rng, coords)
        b = random_poly(rng, coords)
        for name in coords:
            assert (a * b).diff(name) == a.diff(name) * b + a * b.diff(name)
    # partials commute
    p = random_poly(random.Random(17), coords, max_terms=6)
    assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_evaluate_is_a_homomorphism():
    coords = ("x", "y")
    rng = random.Random(19)
    for _ in range(100):
        a = random_poly(rng, coords)
        b = random_poly(rng, coords)
        point = random_point(rng, coords)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    with pytest.raises(KeyError):
        a.evaluate({"x": 1})


def test_substitute_agrees_with_evaluate():
    coords, g = ring(["x", "y"])
    rng = random.Random(23)
    for _ in range(50):
        p = random_poly(rng, coords)
        point = random_point(rng, coords)
        substituted = p.substitute({name: value for name, value in point.items()})
        assert substituted.terms.keys() <= {(0, 0)}
        assert substituted.constant_term() == p.evaluate(point)
    # a genuine polynomial substitution
    p = g["x"] ** 2 + g["y"]
    q = p.substitute({"x": g["y"] + 1})
    assert q == g["y"] ** 2 + 3 * g["y"] + 1


def test_pow_and_scalar_division():
    coords, g = ring(["x"])
    assert (g["x"] + 1) ** 3 == g["x"] ** 3 + 3 * g["x"] ** 2 + 3 * g["x"] + 1
    assert (g["x"] * 3) / 2 == g["x"] * Fraction(3, 2)
    with pytest.raises(ValueError):
        g["x"] ** -1


def test_degrees():
    coords, g = ring(["x", "y"])
    p = g["x"] ** 2 * g["y"] + g["y"]
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert EvenPoly.zero(coords).total_degree() == 0


def test_float_rejection():
    coords, g = ring(["x"])
    with pytest.raises(TypeError):
        as_rat(1.5)
    with pytest.raises(TypeError):
        g["x"] * 0.5
    with pytest.raises(TypeError):
        EvenPoly.const(coords, 0.5)


def test_canonical_string_is_graded_lex():
    coords, g = ring(["x1", "x2"])
    p = g["x1"] ** 2 - g["x1"] * g["x2"] * Fraction(3, 2) + 1
    assert str(p) == "x1^2 - 3/2*x1*x2 + 1"
    assert str(EvenPoly.zero(coords)) == "0"
    assert str(-g["x1"]) == "-x1"
    assert str(g["x2"] ** 2 - g["x1"] ** 2) == "-x1^2 + x2^2"


def test_cross_ring_operations_rejected():
    _, ga = ring(["x"])
    _, gb = ring(["y"])
    with pytest.raises(ValueError):
        ga["x"] + gb["y"]
