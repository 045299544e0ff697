"""Reference exterior calculus on component tables, for the differential tests.

The library has one frame differential: an E-form is a ghost polynomial in
`ghost_context`, and d_E is Q, applied with `left_derivation` to
`q_images`.  The routes here are the independent index formulas it is
compared with.  A form is a table `{indices: EvenPoly}` over the base ring,
keyed by strictly increasing index tuples, with zero components left out.
The indices run over the frame for E-forms and over the coordinates for
base forms.

- `e_differential`: the frame-indexed exterior derivative on 0- and 1-forms;
- `pullback`: a coordinate-indexed 1- or 2-form pulled back along the anchor;
- `de_rham`: the ordinary exterior derivative on base 0- and 1-forms;
- `structural`: d_E alpha - rho^* B, the structural 2-form of the brackets.

`components` reads a ghost polynomial back into a table, so the library
route and these compare as exact dicts; `q_apply` is the library route.
"""

from __future__ import annotations

from typing import Sequence

from nqkit.algebroid import Algebroid, ghost_context, q_images
from nqkit.graded import GradedPoly, left_derivation
from nqkit.poly import EvenPoly

Form = dict[tuple[int, ...], EvenPoly]


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
    """The frame-indexed exterior derivative on 0- and 1-forms."""
    if not form:
        return {}
    r = data.rank
    if _arity(form) == 0:
        f = form[()]
        return table(((a,), data.anchor_apply(a, f)) for a in range(r))
    if _arity(form) == 1:
        entries = [component(form, (c,), data.coords) for c in range(r)]
        out = []
        for a in range(r):
            for b in range(a + 1, r):
                value = data.anchor_apply(a, entries[b]) - data.anchor_apply(
                    b, entries[a]
                )
                for c in range(r):
                    value = value - data.structure[c][a][b] * entries[c]
                out.append(((a, b), value))
        return table(out)
    raise ValueError("differential implemented for arities 0 and 1 only")


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
    return table((word, EvenPoly(coords, t)) for word, t in terms.items())


def q_apply(data: Algebroid, F: GradedPoly) -> GradedPoly:
    """The library's d_E: Q applied to a ghost polynomial."""
    ctx = ghost_context(data)
    return left_derivation(ctx, q_images(data, ctx), F)
