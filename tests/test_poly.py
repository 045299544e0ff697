from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nqkit.poly import EvenPoly, as_rat, exact_quotient
from tests.reference_forms import evaluate, packed, unpacked


def ring(coords) -> tuple[tuple[str, ...], dict[str, EvenPoly]]:
    """The coordinate tuple plus a name-to-generator mapping for quick algebra."""
    coord_tuple = tuple(coords)
    return coord_tuple, {name: EvenPoly.variable(coord_tuple, name) for name in coord_tuple}


def random_poly(rng: random.Random, coords: tuple[str, ...], max_terms: int = 4) -> EvenPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = tuple(rng.randint(0, 3) for _ in coords)
        terms[exponent] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return EvenPoly(coords, packed(terms))


def random_point(rng: random.Random, coords: tuple[str, ...]) -> dict[str, Fraction]:
    return {name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in coords}


def test_construction_strips_zero_coefficients():
    coords = ("x", "y")
    p = EvenPoly(coords, packed({(1, 0): Fraction(0), (0, 1): Fraction(2)}))
    assert unpacked(p) == {(0, 1): Fraction(2)}
    assert not p.is_zero
    assert EvenPoly(coords, packed({(3, 3): Fraction(0)})).is_zero


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
    assert unpacked(p) == {(2, 0): 1, (0, 1): -2, (0, 0): 1}
    assert unpacked(EvenPoly.const(coords, Fraction(3, 2))) == {(0, 0): Fraction(3, 2)}
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


def test_reflected_subtraction_negates_the_difference():
    coords = ("x", "y", "z")
    rng = random.Random(13)
    for _ in range(50):
        f = random_poly(rng, coords) + EvenPoly.variable(coords, "x")
        for c in (3, Fraction(-2, 5)):
            assert c - f == -(f - c)
            assert (c - f) + f == EvenPoly.const(coords, c)


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
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
        assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
    with pytest.raises(KeyError):
        evaluate(a, {"x": 1})


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


def test_exact_quotient_recovers_every_factor():
    rng = random.Random(53)
    coords = ("x", "y", "z")
    checked = 0
    for _ in range(60):
        f, g = random_poly(rng, coords), random_poly(rng, coords)
        if g.is_zero:
            continue
        assert exact_quotient(f * g, g) == f
        checked += 1
    assert checked > 30


def test_exact_quotient_round_trips_larger_multivariate_pairs():
    # products of up to 8 by 8 terms in four coordinates, int and Fraction
    # coefficients mixed: each division queues and cancels many remainder
    # terms, and must give back either factor
    rng = random.Random(83)
    coords = ("w", "x", "y", "z")
    checked = 0
    for trial in range(60):
        f, g = random_poly(rng, coords, 8), random_poly(rng, coords, 8)
        if trial % 2:
            g = g * 60  # every coefficient of g integral
        if f.is_zero or g.is_zero:
            continue
        product = f * g
        assert exact_quotient(product, g) == f
        assert exact_quotient(product, f) == g
        checked += 1
    assert checked > 40
    # dense powers: a term taken out of graded order meets a remainder
    # term that the lead of the divisor does not divide
    _, v = ring(coords)
    s = v["w"] - v["x"] + 2 * v["y"] + v["z"] / 3
    for k in range(1, 6):
        for j in range(k + 1):
            assert exact_quotient(s**k, s**j) == s ** (k - j)
    assert exact_quotient(v["x"] ** 2 - v["y"] ** 2, v["x"] + v["y"]) == v["x"] - v["y"]


def test_exact_quotient_raises_on_a_remainder():
    coords, g = ring(["x", "y"])
    x, y = g["x"], g["y"]
    with pytest.raises(RuntimeError, match="remainder"):
        exact_quotient(x**2 + 1, x)
    with pytest.raises(RuntimeError, match="remainder"):
        exact_quotient(x * y + y**2 + x, x + y)
    # a nonconstant g never divides f * g + 1
    rng = random.Random(67)
    raised = 0
    for _ in range(30):
        f, divisor = random_poly(rng, coords), random_poly(rng, coords)
        if divisor.total_degree() == 0:
            continue
        with pytest.raises(RuntimeError, match="remainder"):
            exact_quotient(f * divisor + 1, divisor)
        raised += 1
    assert raised > 10
    with pytest.raises(ZeroDivisionError):
        exact_quotient(x, EvenPoly.zero(coords))


# differential check of the integer-first kernel against an all-Fraction
# reference on plain dicts


def mixed_coefficient(rng: random.Random):
    """A nonzero int, a proper Fraction or an integral Fraction."""
    kind = rng.randrange(3)
    numerator = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    if kind == 0:
        return numerator
    if kind == 1:
        return Fraction(numerator, rng.choice([2, 3, 6]))
    return Fraction(numerator * 3, 3)


def mixed_terms(rng: random.Random, slots: int, max_terms: int = 5) -> dict:
    return {
        tuple(rng.randint(0, 2) for _ in range(slots)): mixed_coefficient(rng)
        for _ in range(rng.randint(0, max_terms))
    }


def as_reference(terms: dict) -> dict:
    return {key: Fraction(c) for key, c in terms.items()}


def ref_combine(f: dict, g: dict, sign: int) -> dict:
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in out.items() if c != 0}


def ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ref_diff(f: dict, index: int) -> dict:
    out: dict = {}
    for e, c in f.items():
        if e[index]:
            lowered = e[:index] + (e[index] - 1,) + e[index + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + c * e[index]
    return {e: c for e, c in out.items() if c != 0}


def assert_stored(poly: EvenPoly, reference: dict, integral: bool) -> None:
    """Equal to the reference by value, nonzero, and int wherever integral."""
    assert as_reference(unpacked(poly)) == reference
    for c in poly.terms.values():
        assert type(c) in (int, Fraction) and c != 0
        if integral:
            assert type(c) is int


def test_kernel_matches_the_fraction_reference():
    coords = ("x", "y", "z")
    rng = random.Random(71)
    for trial in range(300):
        integral = trial % 3 == 0  # every third trial uses ints only
        draw = (
            (lambda: {e: int(c * 6) for e, c in mixed_terms(rng, 3).items()})
            if integral
            else (lambda: mixed_terms(rng, 3))
        )
        a, b = EvenPoly(coords, packed(draw())), EvenPoly(coords, packed(draw()))
        # (a + b)(a - b): the cross terms of every product cancel
        f, g = a + b, a - b
        rf, rg = as_reference(unpacked(f)), as_reference(unpacked(g))
        ra, rb = as_reference(unpacked(a)), as_reference(unpacked(b))
        assert rf == ref_combine(ra, rb, 1)
        assert rg == ref_combine(ra, rb, -1)
        assert_stored(f + g, ref_combine(rf, rg, 1), integral)
        assert_stored(f - g, ref_combine(rf, rg, -1), integral)
        assert_stored(f - f, {}, integral)
        product = f * g
        assert_stored(product, ref_mul(rf, rg), integral)
        assert_stored(product - f * g, {}, integral)
        for index, name in enumerate(coords):
            assert_stored(f.diff(name), ref_diff(rf, index), integral)
        if not g.is_zero:
            quotient = exact_quotient(product, g)
            assert_stored(quotient, rf, integral)


def ref_merge(w1: tuple, w2: tuple):
    if set(w1) & set(w2):
        return None, 0
    letters, sign = list(w1 + w2), 1
    for i in range(len(letters)):  # bubble sort, one sign flip per swap
        for j in range(len(letters) - 1 - i):
            if letters[j] > letters[j + 1]:
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                sign = -sign
    return tuple(letters), sign


def ref_graded_mul(F: dict, G: dict) -> dict:
    out: dict = {}
    for (w1, e1), c1 in F.items():
        for (w2, e2), c2 in G.items():
            word, sign = ref_merge(w1, w2)
            if word is None:
                continue
            key = (word, tuple(a + b for a, b in zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def ref_left_deriv(F: dict, even_index: int | None, letter: int | None) -> dict:
    out: dict = {}
    for (w, e), c in F.items():
        if even_index is not None:
            if not e[even_index]:
                continue
            key = (w, e[:even_index] + (e[even_index] - 1,) + e[even_index + 1 :])
            value = c * e[even_index]
        else:
            if letter not in w:
                continue
            position = w.index(letter)
            key = (w[:position] + w[position + 1 :], e)
            value = -c if position % 2 else c
        out[key] = out.get(key, Fraction(0)) + value
    return {key: c for key, c in out.items() if c != 0}


def graded_reference(F) -> dict:
    return {(w, e): Fraction(c) for w, e, c in F.terms()}


def test_graded_kernel_matches_the_fraction_reference():
    from nqkit.graded import GradedPoly, extended_context

    ctx = extended_context(("x", "y"), 2)
    n_even, n_odd = len(ctx.even_names), len(ctx.odd_names)
    rng = random.Random(73)

    def draw() -> GradedPoly:
        items = []
        for _ in range(rng.randint(0, 5)):
            word = tuple(sorted(rng.sample(range(n_odd), rng.randint(0, 3))))
            exponent = tuple(rng.randint(0, 1) for _ in range(n_even))
            items.append((word, exponent, mixed_coefficient(rng)))
        return GradedPoly.from_terms(ctx, items)

    cancelled = 0
    for _ in range(200):
        F, G = draw(), draw()
        # F + G and F - G: their product cancels across word pairs; an odd
        # element also squares to zero inside one fused product
        odd = GradedPoly(ctx, {w: f for w, f in F.parts.items() if w.bit_count() % 2})
        for left, right in [(F, G), (F + G, F - G), (odd, odd)]:
            product = left * right
            expected = ref_graded_mul(graded_reference(left), graded_reference(right))
            assert graded_reference(product) == expected
            cancelled += not expected
            for f in product.parts.values():
                assert f.terms
                assert all(type(c) in (int, Fraction) and c for c in f.terms.values())
        for k, name in enumerate(ctx.even_names):
            assert graded_reference(F.left_deriv(name)) == ref_left_deriv(
                graded_reference(F), k, None
            )
        for a, name in enumerate(ctx.odd_names):
            assert graded_reference(F.left_deriv(name)) == ref_left_deriv(
                graded_reference(F), None, a
            )
    assert cancelled > 20
