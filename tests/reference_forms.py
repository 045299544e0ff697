"""Reference exterior calculus on component tables, for the differential tests.

The library has one frame differential: an E-form is a ghost polynomial in
the frame's context `data.ctx`, and d_E is Q, applied with
`left_derivation` to the frame's table `data.q`.  The routes here are the independent index formulas it is
compared with.  A form is a table `{indices: EvenPoly}` over the base ring,
keyed by strictly increasing index tuples, with zero components left out.
The indices run over the frame for E-forms and over the coordinates for
base forms.

- `e_differential`: the frame-indexed exterior derivative on 0-, 1- and
  2-forms;
- `pullback`: a coordinate-indexed 1- or 2-form pulled back along the anchor;
- `de_rham`: the ordinary exterior derivative on base 0- and 1-forms;
- `structural`: d_E alpha - rho^* B, the structural 2-form of the brackets.

`components` reads a ghost polynomial back into a table, so the library
route and these compare as exact dicts, and `ghost_poly` writes a table
as a ghost polynomial; `affine_form` writes the 1-form alpha_a xi^a in any
context that holds the frame's ghosts; `q_apply` is the library route.

Routes that the library replaced stand here as references for the
differential tests: `substitute` multiplies out a graded polynomial term by
term under a substitution of its coordinates, `evaluate` reads an even
polynomial at a rational point with `Fraction` arithmetic, and
`render_even` and `render_graded` are the two text forms that each class
once wrote out for itself.  `term_rows` is the per-term listing of the
emitted documents, sorted on unpacked words and exponent tuples.

The tuple kernel closes the module: exponents as tuples and odd words as
ascending letter tuples, the representation the packed keys and bitmask
words of the library replaced.  `unpacked` and `packed` cross between the
two through the library's `unpack` and `pack`, and `from_terms` builds a
graded polynomial from items of that form, as `GradedPoly.terms()` lists
them; `from_parts` builds one from the even coefficient of each bitmask
word, as `GradedPoly.by_word()` reads them back.  Graded terms in tuple
form are `{(letters, exponent tuple): coefficient}` (`graded_terms`), with
their product, derivatives, bracket, derivation and transport written out
from the definitions of `nqkit.graded`; `parity` and `ghost_degree` read
the degrees of a homogeneous element off them.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from operator import add, mul, sub
from typing import Mapping, Sequence

from nqkit.algebroid import Algebroid
from nqkit.graded import (
    GradedContext,
    GradedPoly,
    ghost_name,
    left_derivation,
    letters,
)
from nqkit.poly import EvenPoly, Scalar, as_rat, divide, pack, unpack
from tests.cubes import structure_cube

Form = dict[tuple[int, ...], EvenPoly]


def word_mask(ascending) -> int:
    """The bitmask odd word of distinct letters."""
    return sum(1 << a for a in ascending)


def table(items) -> Form:
    """The nonzero components of (indices, value) pairs, checked for order."""
    out: Form = {}
    for key, value in items:
        key = tuple(key)
        if list(key) != sorted(set(key)):
            raise ValueError(f"component index {key} is not strictly increasing")
        if not value.is_zero:
            out[key] = value
    return out


def one_form(alpha: Sequence[EvenPoly]) -> Form:
    """The table of the 1-form with components alpha[0], alpha[1], ..."""
    return table(((a,), f) for a, f in enumerate(alpha))


def two_form(matrix: Sequence[Sequence[EvenPoly]]) -> Form:
    """The table of an antisymmetric matrix, read above the diagonal."""
    n = len(matrix)
    return table(
        ((i, j), matrix[i][j]) for i in range(n) for j in range(i + 1, n)
    )


def component(form: Form, indices: tuple[int, ...], coords) -> EvenPoly:
    """The component on any tuple of indices, with the permutation sign."""
    stored = form.get(tuple(sorted(indices)))
    if stored is None or len(set(indices)) != len(indices):
        return EvenPoly.zero(coords)
    inversions = sum(
        1
        for u in range(len(indices))
        for v in range(u + 1, len(indices))
        if indices[u] > indices[v]
    )
    return -stored if inversions % 2 else stored


def _arity(form: Form) -> int:
    return len(next(iter(form)))


def e_differential(data: Algebroid, form: Form) -> Form:
    """The frame-indexed exterior derivative on 0-, 1- and 2-forms."""
    if not form:
        return {}
    r = data.rank
    if _arity(form) == 0:
        f = form[()]
        return table(((a,), data.anchor_apply(a, f)) for a in range(r))
    if _arity(form) == 1:
        entries = [component(form, (c,), data.coords) for c in range(r)]
        C = structure_cube(data)
        out = []
        for a in range(r):
            for b in range(a + 1, r):
                value = data.anchor_apply(a, entries[b]) - data.anchor_apply(
                    b, entries[a]
                )
                for c in range(r):
                    value = value - C[c][a][b] * entries[c]
                out.append(((a, b), value))
        return table(out)
    if _arity(form) == 2:
        # the Koszul formula on the frame:
        # (d w)_abc = rho_a w_bc - rho_b w_ac + rho_c w_ab
        #             - C^e_ab w_ec + C^e_ac w_eb - C^e_bc w_ea
        def w(*indices):
            return component(form, indices, data.coords)

        C = structure_cube(data)
        out = []
        for a, b, c in combinations(range(r), 3):
            value = (
                data.anchor_apply(a, w(b, c))
                - data.anchor_apply(b, w(a, c))
                + data.anchor_apply(c, w(a, b))
            )
            for e in range(r):
                value = (
                    value
                    - C[e][a][b] * w(e, c)
                    + C[e][a][c] * w(e, b)
                    - C[e][b][c] * w(e, a)
                )
            out.append(((a, b, c), value))
        return table(out)
    raise ValueError("differential implemented for arities 0, 1 and 2 only")


def pullback(data: Algebroid, form: Form) -> Form:
    """Pull a coordinate-indexed 1- or 2-form back to a frame-indexed one."""
    if not form:
        return {}
    r, n, rho = data.rank, data.base_dim, data.anchor
    zero = data.zero()
    if _arity(form) == 1:
        return table(
            (
                (a,),
                sum(
                    (component(form, (i,), data.coords) * rho[a][i] for i in range(n)),
                    zero,
                ),
            )
            for a in range(r)
        )
    if _arity(form) == 2:
        out = []
        for a in range(r):
            for b in range(a + 1, r):
                value = zero
                for i in range(n):
                    for j in range(i + 1, n):
                        value = value + component(form, (i, j), data.coords) * (
                            rho[a][i] * rho[b][j] - rho[b][i] * rho[a][j]
                        )
                out.append(((a, b), value))
        return table(out)
    raise ValueError("pullback implemented for arities 1 and 2 only")


def de_rham(coords: tuple[str, ...], form: Form) -> Form:
    """The ordinary exterior derivative on base 0- and 1-forms."""
    if not form:
        return {}
    n = len(coords)
    if _arity(form) == 0:
        return table(((i,), form[()].diff(coords[i])) for i in range(n))
    if _arity(form) == 1:
        return table(
            (
                (i, j),
                component(form, (j,), coords).diff(coords[i])
                - component(form, (i,), coords).diff(coords[j]),
            )
            for i in range(n)
            for j in range(i + 1, n)
        )
    raise ValueError("differential implemented for arities 0 and 1 only")


def structural(
    data: Algebroid,
    alpha: Sequence[EvenPoly] | None,
    magnetic: Sequence[Sequence[EvenPoly]] | None,
) -> Form:
    """d_E alpha - rho^* B, component by component."""
    out = e_differential(data, one_form(alpha or ()))
    if magnetic is not None:
        zero = data.zero()
        pulled = pullback(data, two_form(magnetic))
        keys = set(out) | set(pulled)
        out = table(
            (key, out.get(key, zero) - pulled.get(key, zero)) for key in sorted(keys)
        )
    return out


def components(F: GradedPoly, coords: tuple[str, ...]) -> Form:
    """The table of a ghost polynomial: ghost words become frame indices.

    In the ghost context the ghost xi_a is the odd letter a - 1, so a word
    of ghosts is its tuple of frame indices; every exponent must leave the
    momenta at zero.
    """
    n = len(coords)
    terms: dict[tuple[int, ...], dict] = {}
    for word, exponent, coeff in F.terms():
        assert all(F.ctx.odd_ghost[k] == 1 for k in word), "not a ghost word"
        assert not any(exponent[n:]), "an E-form left the momentum-free sector"
        terms.setdefault(word, {})[exponent[:n]] = coeff
    return table((word, EvenPoly(coords, packed(t))) for word, t in terms.items())


def ghost_poly(data: Algebroid, form: Form) -> GradedPoly:
    """The ghost polynomial of a frame-indexed table: the inverse of `components`."""
    ctx = data.ctx
    out = ctx.zero()
    for indices, value in form.items():
        term = ctx.lift(value)
        for a in indices:
            term = term * ctx.var(ghost_name(a + 1))
        out = out + term
    return out


def affine_form(ctx: GradedContext, alpha: Sequence[EvenPoly]) -> GradedPoly:
    """alpha_a xi^a in any context with the frame's ghosts, summed term by term."""
    out = ctx.zero()
    for a, f in enumerate(alpha):
        out = out + ctx.lift(f) * ctx.var(ghost_name(a + 1))
    return out


def q_apply(data: Algebroid, F: GradedPoly) -> GradedPoly:
    """The library's d_E: Q applied to a ghost polynomial."""
    return left_derivation(data.ctx, data.q, F)


def substitute(
    F: GradedPoly, images: Mapping[str, GradedPoly | EvenPoly | Scalar]
) -> GradedPoly:
    """Substitute coordinates of F by elements of matching parity.

    Odd letters of each monomial are expanded left to right, so the usual
    Koszul signs appear automatically; unmapped coordinates stay.
    """
    ctx = F.ctx
    even_images: list[GradedPoly] = []
    for name in ctx.even_names:
        if name in images:
            image = F._coerce(images[name])
            if any(w.bit_count() % 2 for w in image.by_word()):
                raise ValueError(f"image of even coordinate {name!r} must be even")
            even_images.append(image)
        else:
            even_images.append(ctx.var(name))
    odd_images: list[GradedPoly] = []
    for name in ctx.odd_names:
        if name in images:
            image = F._coerce(images[name])
            if any(w.bit_count() % 2 == 0 for w in image.by_word()):
                raise ValueError(f"image of odd coordinate {name!r} must be odd")
            odd_images.append(image)
        else:
            odd_images.append(ctx.var(name))
    result = ctx.zero()
    for word, exponent, coeff in F.terms():
        term = ctx.const(coeff)
        for k, power in enumerate(exponent):
            for _ in range(power):
                term = term * even_images[k]
        for letter in word:
            term = term * odd_images[letter]
        result = result + term
    return result


def evaluate(f: EvenPoly, point: Mapping[str, Scalar]) -> Scalar:
    """The value of f at a point given by coordinate name."""
    missing = [name for name in f.coords if name not in point]
    if missing:
        raise KeyError(f"point is missing coordinates {missing}")
    values = [as_rat(point[name]) for name in f.coords]
    total = 0
    for e, c in unpacked(f).items():
        product = c
        for value, k in zip(values, e):
            if k:
                product *= value**k
        total += product
    return total


def render_even(f: EvenPoly) -> str:
    """The text form of an even polynomial, written out on its own."""
    if not f.terms:
        return "0"
    parts: list[tuple[str, str]] = []
    for exponent, coeff in f.sorted_terms():
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(f.coords, unpack(exponent, len(f.coords)))
            if k
        ]
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude), *factors])
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def render_graded(F: GradedPoly) -> str:
    """The text form of a graded polynomial, written out on its own."""
    parts = F.by_word()
    if not parts:
        return "0"
    ctx = F.ctx
    pieces: list[tuple[str, str]] = []
    for word in sorted(parts, key=lambda w: (w.bit_count(), letters(w))):
        f = parts[word]
        names = [ctx.odd_names[a] for a in letters(word)]
        for exponent, coeff in f.sorted_terms():
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(ctx.even_names, unpack(exponent, len(f.coords)))
                if k
            ] + names
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude), *factors])
            pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def term_rows(F: GradedPoly) -> list[dict]:
    """One record per term of F, sorted by word length, word, exponent."""
    ctx = F.ctx
    out = []
    for word, exponent, coeff in sorted(
        F.terms(), key=lambda t: (len(t[0]), t[0], t[1])
    ):
        out.append(
            {
                "coeff": str(coeff),
                "even": {
                    name: k for name, k in zip(ctx.even_names, exponent) if k
                },
                "odd": [ctx.odd_names[a] for a in word],
            }
        )
    return out


# the tuple kernel


def unpacked(f: EvenPoly) -> dict[tuple[int, ...], Scalar]:
    """The terms of f keyed by exponent tuples."""
    return {unpack(e, len(f.coords)): c for e, c in f.terms.items()}


def packed(terms: Mapping[tuple[int, ...], Scalar]) -> dict[int, Scalar]:
    """Terms keyed by exponent tuples, keyed by packed exponents."""
    return {pack(e): c for e, c in terms.items()}


def from_terms(ctx: GradedContext, items) -> GradedPoly:
    """The polynomial of `terms()` items (ascending distinct letters, exponent
    tuple, coefficient); repeated terms are summed."""
    coeffs: dict[int, Scalar] = {}
    for word, exponent, coeff in items:
        key = word_mask(word) << ctx.word_shift | pack(exponent)
        coeffs[key] = coeffs.get(key, 0) + coeff
    return GradedPoly(ctx, coeffs)


def from_parts(ctx: GradedContext, parts: Mapping[int, EvenPoly]) -> GradedPoly:
    """The polynomial with these even coefficients of bitmask words, the
    inverse of `GradedPoly.by_word`."""
    s = ctx.word_shift
    return GradedPoly(
        ctx, {w << s | e: c for w, f in parts.items() for e, c in f.terms.items()}
    )


def term_sort_key(exponent: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded lexicographic key: total degree first, then the exponent tuple."""
    return (sum(exponent), exponent)


def merge_words(w1: tuple[int, ...], w2: tuple[int, ...]):
    """Sort the concatenation of two ascending words, tracking the Koszul sign.

    Returns (None, 0) when a letter repeats, since odd letters square to zero.
    """
    if set(w1) & set(w2):
        return None, 0
    crossings = sum(1 for a in w1 for b in w2 if a > b)
    return tuple(sorted(w1 + w2)), -1 if crossings % 2 else 1


def derivative(terms: dict, index: int) -> dict:
    """The terms of the derivative in the coordinate at `index`."""
    out = {}
    for e, c in terms.items():
        k = e[index]
        if k:
            out[e[:index] + (k - 1,) + e[index + 1 :]] = c * k
    return out


def accumulate_product(out: dict, left: dict, right: dict, sign: int = 1) -> None:
    """Add sign * left * right to the term dict `out`; cancelled keys stay."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + sign * c1 * c2


def exact_quotient(f: dict, g: dict) -> dict:
    """q with f = q * g on tuple terms, or RuntimeError on a remainder.

    Division by the leading term in graded lexicographic order; the first
    remainder term that the leading term of g does not divide proves a
    nonzero remainder.
    """
    (lead, lead_coeff), *tail = sorted(
        g.items(), key=lambda item: term_sort_key(item[0]), reverse=True
    )
    remainder = dict(f)
    pending = sorted(remainder, key=term_sort_key)
    quotient = {}
    while remainder:
        top = pending.pop()
        if top not in remainder:
            continue
        shift = tuple(map(sub, top, lead))
        if min(shift, default=0) < 0:
            raise RuntimeError("inexact polynomial division: a remainder is left")
        factor = divide(remainder.pop(top), lead_coeff)
        quotient[shift] = factor
        for e, c in tail:
            key = tuple(map(add, e, shift))
            value = remainder.get(key, 0) - factor * c
            if key not in remainder:
                insort(pending, key, key=term_sort_key)
            if value:
                remainder[key] = value
            else:
                del remainder[key]
    return quotient


def embed(terms: dict, indices: Sequence[int], size: int) -> dict:
    """Tuple terms moved into `size` slots, slot k of each exponent to indices[k]."""
    out = {}
    for e, c in terms.items():
        new = [0] * size
        for index, k in zip(indices, e):
            new[index] = k
        out[tuple(new)] = c
    return out


# the tuple kernel of graded polynomials: {(letters, exponent tuple): coeff}


def graded_terms(F: GradedPoly) -> dict:
    """The terms of F keyed (ascending letters, exponent tuple)."""
    return {(word, exponent): coeff for word, exponent, coeff in F.terms()}


def parity(F: GradedPoly) -> int:
    """The parity of a parity-homogeneous element; zero counts as even."""
    parities = {len(word) % 2 for word, _ in graded_terms(F)}
    if len(parities) > 1:
        raise ValueError("element is not parity homogeneous")
    return parities.pop() if parities else 0


def ghost_degree(F: GradedPoly) -> int:
    """The ghost degree of a ghost-homogeneous element; zero counts as degree 0."""
    ctx = F.ctx
    degrees = {
        sum(ctx.odd_ghost[a] for a in word) + sum(map(mul, exponent, ctx.even_ghost))
        for word, exponent in graded_terms(F)
    }
    if len(degrees) > 1:
        raise ValueError(f"element mixes ghost degrees {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def graded_add(F: dict, G: dict, sign: int = 1) -> dict:
    """F + sign * G, cancelled terms dropped."""
    out = dict(F)
    for key, c in G.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def graded_mul(F: dict, G: dict) -> dict:
    """F * G: letters merge with their Koszul sign, exponents add."""
    out: dict = {}
    for (w1, e1), c1 in F.items():
        for (w2, e2), c2 in G.items():
            word, sign = merge_words(w1, w2)
            if word is not None:
                key = (word, tuple(map(add, e1, e2)))
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {key: c for key, c in out.items() if c}


def graded_deriv(F: dict, even: int | None = None, letter: int | None = None) -> dict:
    """The left derivative in the even coordinate `even` or in `letter`."""
    out: dict = {}
    for (w, e), c in F.items():
        if even is not None:
            if e[even]:
                key = (w, e[:even] + (e[even] - 1,) + e[even + 1 :])
                out[key] = out.get(key, 0) + c * e[even]
        elif letter in w:
            position = w.index(letter)
            key = (w[:position] + w[position + 1 :], e)
            out[key] = out.get(key, 0) + (-c if position % 2 else c)
    return {key: c for key, c in out.items() if c}


def graded_derivation(ctx: GradedContext, images: Mapping[str, dict], G: dict) -> dict:
    """sum over names of images[name] * dG/dname, left derivatives."""
    out: dict = {}
    for name, image in images.items():
        if name in ctx.even_index:
            partial = graded_deriv(G, even=ctx.even_index[name])
        else:
            partial = graded_deriv(G, letter=ctx.odd_index[name])
        out = graded_add(out, graded_mul(image, partial))
    return out


def graded_poisson(ctx: GradedContext, F: dict, G: dict) -> dict:
    """{F, G} by the bracket formula of `nqkit.graded`, one parity of F at a
    time, with the twist's entries as terms of the empty word."""
    n = len(ctx.even_names)

    def d(H: dict, name: str) -> dict:
        if name in ctx.even_index:
            return graded_deriv(H, even=ctx.even_index[name])
        return graded_deriv(H, letter=ctx.odd_index[name])

    out: dict = {}
    for parity in (0, 1):
        part = {(w, e): c for (w, e), c in F.items() if len(w) % 2 == parity}
        for p, x in ctx.pairs_even:
            out = graded_add(out, graded_mul(d(part, p), d(G, x)))
            out = graded_add(out, graded_mul(d(part, x), d(G, p)), -1)
        sign = 1 if parity else -1  # -(-1)^|F|
        for xi, pi in ctx.pairs_odd:
            out = graded_add(out, graded_mul(d(part, xi), d(G, pi)), sign)
            out = graded_add(out, graded_mul(d(part, pi), d(G, xi)), sign)
        for i, j in combinations(range(len(ctx.pairs_even)), 2):
            if ctx.twist is None:
                break
            w = {((), unpack(e, n)): c for e, c in ctx.twist[i][j].terms.items()}
            p_i, p_j = ctx.pairs_even[i][0], ctx.pairs_even[j][0]
            cross = graded_add(
                graded_mul(d(part, p_i), d(G, p_j)),
                graded_mul(d(part, p_j), d(G, p_i)),
                -1,
            )
            out = graded_add(out, graded_mul(w, cross))
    return out


def graded_transport(F: dict, source: GradedContext, target: GradedContext) -> dict:
    """F renamed into `target`: letters and coordinates matched by name,
    each word sorted into the target's letter order with its sign."""
    evens = [target.even_index[name] for name in source.even_names]
    out = {}
    for (w, e), c in F.items():
        letters_in = [target.odd_index[source.odd_names[a]] for a in w]
        inversions = sum(
            1 for u, v in combinations(range(len(letters_in)), 2)
            if letters_in[u] > letters_in[v]
        )
        exponent = [0] * len(target.even_names)
        for index, k in zip(evens, e):
            exponent[index] = k
        key = (tuple(sorted(letters_in)), tuple(exponent))
        out[key] = -c if inversions % 2 else c
    return out
