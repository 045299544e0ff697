from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nqkit.graded import (
    GradedContext,
    GradedPoly,
    extended_context,
    field_column,
    left_derivation,
    letters,
    merge_words,
)
from nqkit.poly import EvenPoly, pack, unpack
from tests.reference_forms import (
    from_parts,
    from_terms,
    ghost_degree,
    packed,
    parity,
    render_even,
    render_graded,
    substitute,
    unpacked,
    word_mask,
)
from tests.test_poly import random_poly, ring


def word_coefficient(F: GradedPoly, word: tuple[int, ...]) -> EvenPoly:
    """Even coefficient of an ascending odd word of F; zero when it is absent."""
    return F.by_word().get(word_mask(word), EvenPoly.zero(F.ctx.even_names))


def random_graded(
    rng: random.Random,
    ctx: GradedContext,
    parity: int | None = None,
    max_terms: int = 3,
    integral: bool = False,
) -> GradedPoly:
    n_odd = len(ctx.odd_names)
    items = []
    for _ in range(rng.randint(1, max_terms)):
        max_size = min(3, n_odd)
        if parity is None:
            size = rng.randint(0, max_size)
        else:
            size = rng.choice([s for s in range(max_size + 1) if s % 2 == parity])
        word = tuple(sorted(rng.sample(range(n_odd), size)))
        exponent = tuple(rng.randint(0, 2) for _ in ctx.even_names)
        if integral:
            coeff = rng.randint(-3, 3)
        else:
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        items.append((word, exponent, coeff))
    return from_terms(ctx, items)


def twisted_extended():
    _, g = ring(["x1", "x2"])
    b = g["x1"] + 1
    twist = [[EvenPoly.zero(b.coords), b], [-b, EvenPoly.zero(b.coords)]]
    return extended_context(["x1", "x2"], rank=2, twist=twist)


def twisted_extended_three():
    coords, g = ring(["x1", "x2", "x3"])
    zero = EvenPoly.zero(coords)
    w12, w13 = g["x3"], g["x1"] * g["x2"] - 2
    twist = [[zero, w12, w13], [-w12, zero, zero], [-w13, zero, zero]]
    return extended_context(["x1", "x2", "x3"], rank=2, twist=twist)


def closed_twist_three():
    # d(x1 x3 dx1 dx2 + (x1 x2 + 1) dx1 dx3) = (x1 - x1) dx1 dx2 dx3 = 0
    coords, g = ring(["x1", "x2", "x3"])
    zero = EvenPoly.zero(coords)
    w12, w13 = g["x1"] * g["x3"], g["x1"] * g["x2"] + 1
    twist = [[zero, w12, w13], [-w12, zero, zero], [-w13, zero, zero]]
    return extended_context(["x1", "x2", "x3"], rank=2, twist=twist)


def parity_part(F: GradedPoly, parity: int) -> GradedPoly:
    """The terms of F whose odd word has the given parity."""
    return from_parts(
        F.ctx, {w: f for w, f in F.by_word().items() if w.bit_count() % 2 == parity}
    )


def per_coordinate_field(ctx: GradedContext, F: GradedPoly) -> dict[str, GradedPoly]:
    """`hamiltonian_field` with one left derivative of F per coordinate.

    This was the engine's field before the one-pass sweep; it stays here as
    the reference.
    """
    field: dict[str, GradedPoly] = {}

    def accumulate(name: str, value: GradedPoly) -> None:
        if not value.is_zero:
            field[name] = field[name] + value if name in field else value

    momenta = [p for p, _ in ctx.pairs_even]
    for parity in (0, 1):
        Fp = parity_part(F, parity)
        if Fp.is_zero:
            continue
        odd_sign = 1 if parity else -1  # -(-1)^|F|
        dF_momenta = [Fp.left_deriv(p) for p in momenta]
        for dFp, (p_name, x_name) in zip(dF_momenta, ctx.pairs_even):
            accumulate(x_name, dFp)
            accumulate(p_name, -Fp.left_deriv(x_name))
        for xi_name, pi_name in ctx.pairs_odd:
            accumulate(pi_name, Fp.left_deriv(xi_name) * odd_sign)
            accumulate(xi_name, Fp.left_deriv(pi_name) * odd_sign)
        if ctx.twist is not None:
            for i in range(len(momenta)):
                for j in range(i + 1, len(momenta)):
                    w = ctx.twist[i][j]
                    accumulate(momenta[j], dF_momenta[i] * w)
                    accumulate(momenta[i], -(dF_momenta[j] * w))
    return {name: value for name, value in field.items() if not value.is_zero}


def per_coordinate_derivation(
    ctx: GradedContext, images: dict[str, GradedPoly], G: GradedPoly
) -> GradedPoly:
    """`left_derivation` with one left derivative of G per image."""
    result = ctx.zero()
    for name, image in images.items():
        result = result + image * G.left_deriv(name)
    return result


def assert_integer_first(F: GradedPoly, integral: bool) -> None:
    """No zero, float or bool is stored, and only ints from int inputs."""
    for f in F.by_word().values():
        assert f.terms
        for c in f.terms.values():
            assert type(c) in (int, Fraction) and c
            if integral:
                assert type(c) is int


def pair_loop_poisson(ctx: GradedContext, F: GradedPoly, G: GradedPoly) -> GradedPoly:
    """The bracket formula of the module docstring, written out pair by pair.

    This was the engine's bracket before the formula moved into
    `GradedContext.hamiltonian_field`; it stays here as the reference.
    """
    result = ctx.zero()
    for parity in (0, 1):
        Fp = parity_part(F, parity)
        if Fp.is_zero:
            continue
        odd_sign = 1 if parity else -1  # -(-1)^|F|
        for p_name, x_name in ctx.pairs_even:
            result = result + Fp.left_deriv(p_name) * G.left_deriv(x_name)
            result = result - Fp.left_deriv(x_name) * G.left_deriv(p_name)
        for xi_name, pi_name in ctx.pairs_odd:
            result = result + Fp.left_deriv(xi_name) * G.left_deriv(pi_name) * odd_sign
            result = result + Fp.left_deriv(pi_name) * G.left_deriv(xi_name) * odd_sign
        if ctx.twist is not None:
            momenta = [p for p, _ in ctx.pairs_even]
            for i in range(len(momenta)):
                for j in range(i + 1, len(momenta)):
                    cross = Fp.left_deriv(momenta[i]) * G.left_deriv(
                        momenta[j]
                    ) - Fp.left_deriv(momenta[j]) * G.left_deriv(momenta[i])
                    result = result + cross * ctx.twist[i][j]
    return result


def merged(w1: tuple[int, ...], w2: tuple[int, ...]):
    """`merge_words` on words given and returned as ascending letters."""
    word, sign = merge_words(word_mask(w1), word_mask(w2))
    return (None if word is None else letters(word)), sign


def test_merge_words_signs():
    assert merged((0,), (1,)) == ((0, 1), 1)
    assert merged((1,), (0,)) == ((0, 1), -1)
    assert merged((0, 1), (2, 3)) == ((0, 1, 2, 3), 1)
    assert merged((2,), (0, 1)) == ((0, 1, 2), 1)
    assert merged((0, 1), (0,)) == (None, 0)


def test_odd_letters_anticommute():
    ctx = extended_context(["x"], rank=2)
    xi1, xi2 = ctx.var("xi_1"), ctx.var("xi_2")
    x = ctx.var("x")
    assert xi1 * xi2 == -(xi2 * xi1)
    assert (xi1 * xi1).is_zero
    assert x * xi1 == xi1 * x
    assert ((xi1 + xi2) * (xi1 + xi2)).is_zero


def test_bracket_canonical_values():
    ctx = extended_context(["x"], rank=1)
    x, p = ctx.var("x"), ctx.var("p_x")
    xi, pi = ctx.var("xi_1"), ctx.var("pi_1")
    assert ctx.poisson(p, x) == ctx.const(1)
    assert ctx.poisson(x, p) == ctx.const(-1)
    assert ctx.poisson(p, x * x) == 2 * x
    assert ctx.poisson(xi, pi) == ctx.const(1)
    assert ctx.poisson(pi, xi) == ctx.const(1)
    assert ctx.poisson(xi, xi).is_zero
    assert ctx.poisson(x, x).is_zero
    assert ctx.poisson(p, p).is_zero
    assert ctx.poisson(p, xi).is_zero


def test_twisted_momentum_bracket_honors_raw_matrix():
    coords, g = ring(["x1", "x2"])
    b = g["x1"] + 1
    twist = [[EvenPoly.zero(coords), b], [-b, EvenPoly.zero(coords)]]
    ctx = extended_context(["x1", "x2"], 0, twist=twist)
    p1, p2 = ctx.var("p_x1"), ctx.var("p_x2")
    assert ctx.poisson(p1, p2) == ctx.lift(b)
    assert ctx.poisson(p2, p1) == -ctx.lift(b)


def test_unpaired_letter_is_central():
    ctx = GradedContext(
        even=[("x", 0), ("p_x", 0)],
        odd=[("xi_1", 1), ("pi_1", -1), ("theta", 1)],
        pairs_even=[("p_x", "x")],
        pairs_odd=[("xi_1", "pi_1")],
    )
    theta = ctx.var("theta")
    rng = random.Random(41)
    for _ in range(20):
        G = random_graded(rng, ctx)
        assert ctx.poisson(theta, G).is_zero
        assert ctx.poisson(G, theta).is_zero


@pytest.mark.parametrize("make_ctx", [lambda: extended_context(["x1", "x2"], 2), twisted_extended])
def test_graded_antisymmetry(make_ctx):
    ctx = make_ctx()
    rng = random.Random(43)
    for _ in range(60):
        pf, pg = rng.randint(0, 1), rng.randint(0, 1)
        F = random_graded(rng, ctx, parity=pf)
        G = random_graded(rng, ctx, parity=pg)
        sign = -1 if (pf * pg) % 2 == 0 else 1  # -(-1)^{|F||G|}
        assert ctx.poisson(F, G) == sign * ctx.poisson(G, F)


@pytest.mark.parametrize("make_ctx", [lambda: extended_context(["x1", "x2"], 2), twisted_extended])
def test_graded_leibniz(make_ctx):
    ctx = make_ctx()
    rng = random.Random(47)
    for _ in range(60):
        pf, pg = rng.randint(0, 1), rng.randint(0, 1)
        F = random_graded(rng, ctx, parity=pf)
        G = random_graded(rng, ctx, parity=pg)
        H = random_graded(rng, ctx)
        lhs = ctx.poisson(F, G * H)
        sign = 1 if (pf * pg) % 2 == 0 else -1
        rhs = ctx.poisson(F, G) * H + sign * (G * ctx.poisson(F, H))
        assert lhs == rhs


@pytest.mark.parametrize("make_ctx", [lambda: extended_context(["x1", "x2"], 2), twisted_extended])
def test_graded_jacobi(make_ctx):
    ctx = make_ctx()
    rng = random.Random(53)
    for _ in range(60):
        parities = [rng.randint(0, 1) for _ in range(3)]
        F, G, H = (random_graded(rng, ctx, parity=p, max_terms=2) for p in parities)
        pf, pg, ph = parities

        def sign(a: int, b: int) -> int:
            return -1 if (a * b) % 2 else 1

        total = (
            sign(pf, ph) * ctx.poisson(F, ctx.poisson(G, H))
            + sign(pg, pf) * ctx.poisson(G, ctx.poisson(H, F))
            + sign(ph, pg) * ctx.poisson(H, ctx.poisson(F, G))
        )
        assert total.is_zero


def test_nonclosed_twist_breaks_jacobi():
    coords, g = ring(["x1", "x2", "x3"])
    zero = EvenPoly.zero(coords)
    w = g["x3"]
    twist = [[zero, w, zero], [-w, zero, zero], [zero, zero, zero]]
    ctx = extended_context(["x1", "x2", "x3"], 0, twist=twist)
    p1, p2, p3 = (ctx.var(f"p_x{i}") for i in (1, 2, 3))
    jacobiator = (
        ctx.poisson(p1, ctx.poisson(p2, p3))
        + ctx.poisson(p2, ctx.poisson(p3, p1))
        + ctx.poisson(p3, ctx.poisson(p1, p2))
    )
    assert not jacobiator.is_zero


CONTEXTS = [
    lambda: extended_context(["x1", "x2"], 2),
    twisted_extended,
    twisted_extended_three,
    closed_twist_three,
]


@pytest.mark.parametrize("make_ctx", CONTEXTS)
@pytest.mark.parametrize("parity", [0, 1, None])
def test_bracket_matches_the_pair_loop(make_ctx, parity):
    # the one-pass field and derivation against the per-coordinate
    # reference and the pair loop, with int and Fraction coefficients
    ctx = make_ctx()
    rng = random.Random(61 + (parity or 2))
    for trial in range(60):
        integral = trial % 2 == 0
        F = random_graded(rng, ctx, parity=parity, max_terms=4, integral=integral)
        G = random_graded(rng, ctx, parity=rng.randint(0, 1), max_terms=4, integral=integral)
        field = ctx.hamiltonian_field(F)
        assert field == per_coordinate_field(ctx, F)
        bracket = ctx.poisson(F, G)
        assert bracket == pair_loop_poisson(ctx, F, G)
        assert bracket == per_coordinate_derivation(ctx, field, G)
        for image in (*field.values(), bracket):
            assert_integer_first(image, integral)


@pytest.mark.parametrize("make_ctx", CONTEXTS)
def test_left_derivation_matches_the_per_coordinate_reference(make_ctx):
    ctx = make_ctx()
    names = ctx.even_names + ctx.odd_names
    rng = random.Random(71)
    for trial in range(60):
        integral = trial % 2 == 0
        parity = rng.randint(0, 1)
        images = {}
        for name in rng.sample(names, rng.randint(0, len(names))):
            # an image of the derivation's parity shifted by the coordinate's
            image_parity = (parity + ctx.parity_of(name)) % 2
            images[name] = random_graded(
                rng, ctx, parity=image_parity, max_terms=3, integral=integral
            )
        G = random_graded(rng, ctx, max_terms=4, integral=integral)
        result = left_derivation(ctx, images, G)
        assert result == per_coordinate_derivation(ctx, images, G)
        assert_integer_first(result, integral)


def test_untwisted_bracket_takes_no_per_coordinate_derivative(monkeypatch):
    ctx = extended_context(["x1", "x2"], 2)
    calls = []
    original = GradedPoly.left_deriv

    def counted(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(GradedPoly, "left_deriv", counted)
    rng = random.Random(73)
    for _ in range(10):
        F = random_graded(rng, ctx, max_terms=4)
        G = random_graded(rng, ctx, max_terms=4)
        ctx.poisson(F, G)
    assert calls == []


@pytest.mark.parametrize("make_ctx", CONTEXTS)
def test_field_column_applies_the_field_to_one_monomial(make_ctx):
    ctx = make_ctx()
    rng = random.Random(67)
    for _ in range(40):
        field = ctx.hamiltonian_field(random_graded(rng, ctx, max_terms=4))
        size = rng.randint(0, min(3, len(ctx.odd_names)))
        word = tuple(sorted(rng.sample(range(len(ctx.odd_names)), size)))
        exponent = tuple(rng.randint(0, 2) for _ in ctx.even_names)
        monomial = from_terms(ctx, [(word, exponent, Fraction(1))])
        expected = {
            (w, e): c for w, e, c in left_derivation(ctx, field, monomial).terms()
        }
        s = ctx.word_shift
        column = field_column(ctx, field, word_mask(word) << s | pack(exponent))
        n = len(ctx.even_names)
        assert {
            (letters(k >> s), unpack(k & (1 << s) - 1, n)): c
            for k, c in column.items()
        } == expected


def test_hamiltonian_field_keeps_only_nonzero_images():
    ctx = twisted_extended()
    p1, x2 = ctx.var("p_x1"), ctx.var("x2")
    field = ctx.hamiltonian_field(p1 * x2)
    # d/dp_1 lands on x1 and, through the twist, on p_2; d/dx2 on p_2
    assert set(field) == {"x1", "p_x2"}
    assert field["x1"] == x2
    assert field["p_x2"] == x2 * (ctx.var("x1") + 1) - p1
    assert ctx.hamiltonian_field(ctx.const(3)) == {}


def test_reflected_subtraction_lifts_the_left_operand():
    ctx = extended_context(["x1", "x2"], 2)
    x1 = EvenPoly.variable(ctx.even_names, "x1")
    rng = random.Random(17)
    for _ in range(50):
        F = random_graded(rng, ctx) + ctx.lift(x1)
        for c in (3, Fraction(-2, 5)):
            assert c - F == -(F - c)
        f = random_poly(rng, ctx.even_names) + 1
        # EvenPoly's operators return NotImplemented for a GradedPoly, so
        # Python calls the reflected methods, which lift f
        assert f - F == F.__rsub__(f) == ctx.lift(f) - F == -(F - f)
        assert f - F + F == ctx.lift(f)
        assert f + F == ctx.lift(f) + F == F + f
        assert f * F == ctx.lift(f) * F == F * f


def test_ghost_bookkeeping():
    ctx = extended_context(["x"], rank=1)
    xi, pi, p = ctx.var("xi_1"), ctx.var("pi_1"), ctx.var("p_x")
    assert ghost_degree(xi) == 1
    assert ghost_degree(pi) == -1
    assert ghost_degree(xi * pi) == 0
    assert ghost_degree(p * xi) == 1
    mixed = xi + xi * pi * 2
    with pytest.raises(ValueError):
        ghost_degree(mixed)
    # the bracket is additive in ghost degree
    S = p * xi
    assert ghost_degree(ctx.poisson(S, pi)) == 0


def test_left_derivative_signs():
    ctx = extended_context(["x"], rank=2)
    xi1, xi2 = ctx.var("xi_1"), ctx.var("xi_2")
    w = xi1 * xi2
    assert w.left_deriv("xi_1") == xi2
    assert w.left_deriv("xi_2") == -xi1
    x = ctx.var("x")
    assert (x * x * xi1).left_deriv("x") == 2 * x * xi1
    # derivation with Q(x) = xi_1 acts from the left
    D = left_derivation(ctx, {"x": xi1}, x * x)
    assert D == 2 * x * xi1


def test_substitution():
    ctx = extended_context(["x"], rank=2)
    x, p = ctx.var("x"), ctx.var("p_x")
    xi1, xi2 = ctx.var("xi_1"), ctx.var("xi_2")
    shifted = substitute(p * p, {"p_x": p - x})
    assert shifted == p * p - 2 * (x * p) + x * x
    swap = substitute(xi1 * xi2, {"xi_1": xi2, "xi_2": xi1})
    assert swap == -(xi1 * xi2)
    collapse = substitute(xi1 * xi2, {"xi_1": xi2})
    assert collapse.is_zero
    with pytest.raises(ValueError):
        substitute(x, {"x": xi1})
    with pytest.raises(ValueError):
        substitute(xi1, {"xi_1": x})


def test_terms_roundtrip_and_degrees():
    ctx = extended_context(["x1", "x2"], rank=2)
    rng = random.Random(59)
    for _ in range(20):
        F = random_graded(rng, ctx)
        assert from_terms(ctx, F.terms()) == F


def test_context_validation():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    with pytest.raises(ValueError):
        GradedContext(even=[("x", 0), ("x", 0)])
    with pytest.raises(ValueError):
        GradedContext(even=[("x", 0)], pairs_even=[("p", "x")])
    with pytest.raises(ValueError, match="antisymmetric"):
        extended_context(["x1", "x2"], 0, twist=[[zero, g["x1"]], [g["x1"], zero]])
    p_dependent = EvenPoly.variable(("x1", "x2", "p_x1", "p_x2"), "p_x1")
    with pytest.raises(ValueError, match="positions"):
        extended_context(
            ["x1", "x2"], 0, twist=[[zero, p_dependent], [-p_dependent, zero]]
        )
    with pytest.raises(ValueError):
        extended_context(["x1", "x2"], 0, twist=[[zero, zero]])


def test_parity_helpers():
    ctx = extended_context(["x"], rank=1)
    F = ctx.var("x") + ctx.var("xi_1")
    assert parity_part(F, 0) == ctx.var("x")
    assert parity_part(F, 1) == ctx.var("xi_1")
    with pytest.raises(ValueError):
        parity(F)
    assert parity(ctx.var("xi_1")) == 1
    assert parity(ctx.zero()) == 0


def test_text_forms_match_the_reference_renderers():
    # 150 even and 150 graded polynomials: unit, integer and Fraction
    # coefficients, constants, negative leading terms and odd words
    rng = random.Random(577)
    ctx = extended_context(["x", "y"], rank=2)
    n_even, n_odd = len(ctx.even_names), len(ctx.odd_names)

    def coefficient():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([1, -1])
        if kind == 1:
            return rng.choice([-1, 1]) * rng.randint(2, 12)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))

    def exponent():
        if rng.random() < 0.2:
            return (0,) * n_even  # a constant term
        return tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n_even))

    seen_constant = seen_negative_lead = seen_words = 0
    for _ in range(150):
        terms = {exponent(): coefficient() for _ in range(rng.randint(0, 5))}
        f = EvenPoly(ctx.even_names, packed(terms))
        assert str(f) == render_even(f)
        seen_constant += any(not any(e) for e in unpacked(f))
        seen_negative_lead += bool(f.terms) and f.sorted_terms()[0][1] < 0
        items = [
            (
                tuple(sorted(rng.sample(range(n_odd), rng.randint(0, 3)))),
                exponent(),
                coefficient(),
            )
            for _ in range(rng.randint(0, 5))
        ]
        F = from_terms(ctx, items)
        assert str(F) == render_graded(F)
        seen_words += any(F.by_word()) and any(word for word in F.by_word())
    assert str(EvenPoly.zero(ctx.even_names)) == "0" == str(ctx.zero())
    assert min(seen_constant, seen_negative_lead, seen_words) > 20
