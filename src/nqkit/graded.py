"""Graded phase space algebra with an exact graded Poisson bracket.

A `GradedContext` fixes even coordinates, odd (anticommuting) letters, their
ghost degrees, which coordinates are canonically paired, and an optional
antisymmetric twist of the momentum-momentum bracket.  A `GradedPoly` is a
polynomial in that context, stored as a map from ascending odd words to even
coefficient polynomials, with the Koszul sign produced on every merge.

Bracket conventions, fixed once for the whole engine:

    {p_i, x^j} = delta_i^j          {x^i, p_j} = -delta^i_j
    {xi^a, pi_b} = +delta^a_b       {pi_b, xi^a} = +delta^a_b
    {p_i, p_j} = W_ij               (W antisymmetric, functions of positions)

and coordinates without a partner bracket to zero with everything.  For F of
definite parity |F| and any G,

    {F, G} = sum_i [dF/dp_i dG/dx^i - dF/dx^i dG/dp_i]
             - (-1)^|F| sum_a [dF/dxi^a dG/dpi_a + dF/dpi_a dG/dxi^a]
             + sum_{i<j} W_ij [dF/dp_i dG/dp_j - dF/dp_j dG/dp_i]

with all derivatives acting from the left.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .poly import EvenPoly, Exponent, Rat, Scalar, as_rat, embed, term_sort_key

OddWord = tuple[int, ...]


def merge_words(w1: OddWord, w2: OddWord) -> tuple[OddWord | None, int]:
    """Sort the concatenation of two ascending words, tracking the Koszul sign.

    Returns (None, 0) when a letter repeats, since odd letters square to zero.
    """
    if set(w1) & set(w2):
        return None, 0
    crossings = sum(1 for a in w1 for b in w2 if a > b)
    return tuple(sorted(w1 + w2)), -1 if crossings % 2 else 1


class GradedContext:
    """Coordinate system, ghost grading and bracket structure of a phase space."""

    def __init__(
        self,
        even: Sequence[tuple[str, int]],
        odd: Sequence[tuple[str, int]] = (),
        pairs_even: Sequence[tuple[str, str]] = (),
        pairs_odd: Sequence[tuple[str, str]] = (),
        twist: Sequence[Sequence[EvenPoly]] | None = None,
    ):
        self.even_names: tuple[str, ...] = tuple(name for name, _ in even)
        self.even_ghost: tuple[int, ...] = tuple(gh for _, gh in even)
        self.odd_names: tuple[str, ...] = tuple(name for name, _ in odd)
        self.odd_ghost: tuple[int, ...] = tuple(gh for _, gh in odd)
        all_names = self.even_names + self.odd_names
        if len(set(all_names)) != len(all_names):
            raise ValueError("coordinate names must be unique")
        self.even_index = {name: k for k, name in enumerate(self.even_names)}
        self.odd_index = {name: a for a, name in enumerate(self.odd_names)}
        self.pairs_even = tuple((p, x) for p, x in pairs_even)
        self.pairs_odd = tuple((xi, pi) for xi, pi in pairs_odd)
        self._validate_pairs()
        self.twist_closed = True
        self.twist = self._validate_twist(twist)

    def _validate_pairs(self) -> None:
        seen: set[str] = set()
        for p, x in self.pairs_even:
            for name in (p, x):
                if name not in self.even_index:
                    raise ValueError(f"{name!r} is not an even coordinate")
                if name in seen:
                    raise ValueError(f"{name!r} appears in more than one pair")
                seen.add(name)
        for xi, pi in self.pairs_odd:
            for name in (xi, pi):
                if name not in self.odd_index:
                    raise ValueError(f"{name!r} is not an odd coordinate")
                if name in seen:
                    raise ValueError(f"{name!r} appears in more than one pair")
                seen.add(name)

    def _validate_twist(
        self, twist: Sequence[Sequence[EvenPoly]] | None
    ) -> tuple[tuple[EvenPoly, ...], ...] | None:
        if twist is None:
            return None
        n = len(self.pairs_even)
        if len(twist) != n or any(len(row) != n for row in twist):
            raise ValueError("twist must be square over the even pairs")
        positions = {x for _, x in self.pairs_even}
        rows: list[tuple[EvenPoly, ...]] = []
        for row in twist:
            entries = []
            for entry in row:
                if entry.coords != self.even_names:
                    entry = embed(entry, self.even_names)
                # closedness is a separate check; here only position dependence
                for name in self.even_names:
                    if name not in positions and entry.degree_in(name) > 0:
                        raise ValueError(
                            f"twist entries may only involve positions, found {name!r}"
                        )
                entries.append(entry)
            rows.append(tuple(entries))
        for i in range(n):
            for j in range(n):
                if not (rows[i][j] + rows[j][i]).is_zero:
                    raise ValueError("twist must be antisymmetric")
        # Jacobi needs a closed twist; record the diagnosis instead of rejecting
        xs = [x for _, x in self.pairs_even]
        self.twist_closed = all(
            (
                rows[j][k].diff(xs[i])
                - rows[i][k].diff(xs[j])
                + rows[i][j].diff(xs[k])
            ).is_zero
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        )
        return tuple(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedContext):
            return NotImplemented
        return (
            self.even_names == other.even_names
            and self.even_ghost == other.even_ghost
            and self.odd_names == other.odd_names
            and self.odd_ghost == other.odd_ghost
            and self.pairs_even == other.pairs_even
            and self.pairs_odd == other.pairs_odd
            and self.twist == other.twist
        )

    def __repr__(self) -> str:
        return (
            f"GradedContext(even={self.even_names}, odd={self.odd_names}, "
            f"twisted={self.twist is not None})"
        )

    # constructors for elements

    def zero(self) -> GradedPoly:
        return GradedPoly(self, {})

    def const(self, value: Scalar) -> GradedPoly:
        return GradedPoly(self, {(): EvenPoly.const(self.even_names, value)})

    def var(self, name: str) -> GradedPoly:
        if name in self.even_index:
            return GradedPoly(
                self, {(): EvenPoly.variable(self.even_names, name)}
            )
        if name in self.odd_index:
            return GradedPoly(
                self,
                {(self.odd_index[name],): EvenPoly.const(self.even_names, 1)},
            )
        raise KeyError(f"{name!r} is not a coordinate of this context")

    def lift(self, f: EvenPoly) -> GradedPoly:
        """View an even polynomial (possibly over a subring) as a graded one."""
        if f.coords != self.even_names:
            f = embed(f, self.even_names)
        return GradedPoly(self, {(): f})

    def parity_of(self, name: str) -> int:
        if name in self.even_index:
            return 0
        if name in self.odd_index:
            return 1
        raise KeyError(f"{name!r} is not a coordinate of this context")

    def ghost_of(self, name: str) -> int:
        if name in self.even_index:
            return self.even_ghost[self.even_index[name]]
        if name in self.odd_index:
            return self.odd_ghost[self.odd_index[name]]
        raise KeyError(f"{name!r} is not a coordinate of this context")

    # the bracket

    def hamiltonian_field(self, F: GradedPoly) -> dict[str, GradedPoly]:
        """The derivation (F, .) as images of the coordinates.

        (F, G) = sum over names of field[name] * dG/dname, with left
        derivatives; only coordinates with a nonzero image appear.  This is
        the one copy of the bracket formula in the module docstring.
        """
        if F.ctx != self:
            raise ValueError("bracket arguments belong to a different context")
        field: dict[str, GradedPoly] = {}

        def accumulate(name: str, value: GradedPoly) -> None:
            if not value.is_zero:
                field[name] = field[name] + value if name in field else value

        momenta = [p for p, _ in self.pairs_even]
        for parity in (0, 1):
            Fp = F.parity_part(parity)
            if Fp.is_zero:
                continue
            odd_sign = 1 if parity else -1  # -(-1)^|F|
            dF_momenta = [Fp.left_deriv(p) for p in momenta]
            for dFp, (p_name, x_name) in zip(dF_momenta, self.pairs_even):
                accumulate(x_name, dFp)
                accumulate(p_name, -Fp.left_deriv(x_name))
            for xi_name, pi_name in self.pairs_odd:
                accumulate(pi_name, Fp.left_deriv(xi_name) * odd_sign)
                accumulate(xi_name, Fp.left_deriv(pi_name) * odd_sign)
            if self.twist is not None:
                for i in range(len(momenta)):
                    for j in range(i + 1, len(momenta)):
                        w = self.twist[i][j]
                        if w.is_zero:
                            continue
                        accumulate(momenta[j], dF_momenta[i] * w)
                        accumulate(momenta[i], -(dF_momenta[j] * w))
        return {name: value for name, value in field.items() if not value.is_zero}

    def poisson(self, F: GradedPoly, G: GradedPoly) -> GradedPoly:
        """Graded Poisson bracket {F, G} in this context's conventions."""
        if G.ctx != self:
            raise ValueError("bracket arguments belong to a different context")
        return left_derivation(self, self.hamiltonian_field(F), G)


class GradedPoly:
    """Polynomial in a graded context: ascending odd words with even coefficients."""

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx: GradedContext, parts: Mapping[OddWord, EvenPoly]):
        self.ctx = ctx
        self.parts: dict[OddWord, EvenPoly] = {
            word: f for word, f in parts.items() if not f.is_zero
        }

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.parts == other.parts

    def _coerce(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        if isinstance(other, GradedPoly):
            if other.ctx != self.ctx:
                raise ValueError("operands belong to different graded contexts")
            return other
        if isinstance(other, EvenPoly):
            return self.ctx.lift(other)
        return self.ctx.const(other)

    def __add__(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        other = self._coerce(other)
        parts = dict(self.parts)
        for word, f in other.parts.items():
            parts[word] = parts.get(word, _zero_even(self.ctx)) + f
        return GradedPoly(self.ctx, parts)

    __radd__ = __add__

    def __neg__(self) -> GradedPoly:
        return GradedPoly(self.ctx, {word: -f for word, f in self.parts.items()})

    def __sub__(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        return self._coerce(other) - self

    def __mul__(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            if isinstance(other, EvenPoly):
                other = self.ctx.lift(other)
            else:
                scalar = as_rat(other)
                return GradedPoly(
                    self.ctx, {w: f * scalar for w, f in self.parts.items()}
                )
        elif other.ctx != self.ctx:
            raise ValueError("operands belong to different graded contexts")
        parts: dict[OddWord, EvenPoly] = {}
        for w1, f1 in self.parts.items():
            for w2, f2 in other.parts.items():
                merged, sign = merge_words(w1, w2)
                if merged is None:
                    continue
                contribution = f1 * f2 if sign > 0 else -(f1 * f2)
                if merged in parts:
                    parts[merged] = parts[merged] + contribution
                else:
                    parts[merged] = contribution
        return GradedPoly(self.ctx, parts)

    def __rmul__(self, other: EvenPoly | Scalar) -> GradedPoly:
        # even scalars and even polynomials commute with everything
        return self.__mul__(other)

    def __truediv__(self, scalar: Scalar) -> GradedPoly:
        return self * (Fraction(1) / as_rat(scalar))

    def __pow__(self, n: int) -> GradedPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ctx.const(1)
        for _ in range(n):
            result = result * self
        return result

    # structure

    def parity_part(self, parity: int) -> GradedPoly:
        return GradedPoly(
            self.ctx,
            {w: f for w, f in self.parts.items() if len(w) % 2 == parity},
        )

    def parity(self) -> int:
        """Parity of a parity-homogeneous element; the zero element counts as even."""
        parities = {len(w) % 2 for w in self.parts}
        if len(parities) > 1:
            raise ValueError("element is not parity homogeneous")
        return parities.pop() if parities else 0

    def terms(self) -> Iterator[tuple[OddWord, Exponent, Rat]]:
        """All scalar monomials (odd word, even exponent, coefficient)."""
        for word, f in self.parts.items():
            for exponent, coeff in f.terms.items():
                yield word, exponent, coeff

    @classmethod
    def from_terms(
        cls,
        ctx: GradedContext,
        items: Iterable[tuple[OddWord, Exponent, Rat]],
    ) -> GradedPoly:
        parts: dict[OddWord, dict[Exponent, Rat]] = {}
        for word, exponent, coeff in items:
            bucket = parts.setdefault(word, {})
            bucket[exponent] = bucket.get(exponent, Fraction(0)) + coeff
        return cls(
            ctx,
            {
                word: EvenPoly(ctx.even_names, terms)
                for word, terms in parts.items()
            },
        )

    def ghost_of_term(self, word: OddWord, exponent: Exponent) -> int:
        ctx = self.ctx
        return sum(ctx.odd_ghost[a] for a in word) + sum(
            k * gh for k, gh in zip(exponent, ctx.even_ghost)
        )

    def ghost_degree(self) -> int:
        """Ghost degree of a ghost-homogeneous element; zero counts as degree 0."""
        ghosts = {
            self.ghost_of_term(word, exponent)
            for word, exponent, _ in self.terms()
        }
        if len(ghosts) > 1:
            raise ValueError(f"element mixes ghost degrees {sorted(ghosts)}")
        return ghosts.pop() if ghosts else 0

    def even_part(self) -> EvenPoly:
        """The odd-word-free coefficient."""
        return self.parts.get((), _zero_even(self.ctx))

    def coefficient_of_word(self, word: OddWord) -> EvenPoly:
        """Even coefficient of the ascending word, in the engine's sign convention."""
        return self.parts.get(tuple(word), _zero_even(self.ctx))

    def left_deriv(self, name: str) -> GradedPoly:
        """Left derivative with respect to one coordinate."""
        ctx = self.ctx
        if name in ctx.even_index:
            return GradedPoly(
                ctx, {w: f.diff(name) for w, f in self.parts.items()}
            )
        if name not in ctx.odd_index:
            raise KeyError(f"{name!r} is not a coordinate of this context")
        letter = ctx.odd_index[name]
        parts: dict[OddWord, EvenPoly] = {}
        for word, f in self.parts.items():
            if letter not in word:
                continue
            position = word.index(letter)
            reduced = word[:position] + word[position + 1 :]
            signed = f if position % 2 == 0 else -f
            parts[reduced] = parts.get(reduced, _zero_even(ctx)) + signed
        return GradedPoly(ctx, parts)

    def substitute(
        self, images: Mapping[str, GradedPoly | EvenPoly | Scalar]
    ) -> GradedPoly:
        """Substitute coordinates by elements of matching parity.

        Odd letters of each monomial are expanded left to right, so the usual
        Koszul signs appear automatically.
        """
        ctx = self.ctx
        even_images: list[GradedPoly] = []
        for name in ctx.even_names:
            if name in images:
                image = self._coerce(images[name])
                if any(len(w) % 2 for w in image.parts):
                    raise ValueError(f"image of even coordinate {name!r} must be even")
                even_images.append(image)
            else:
                even_images.append(ctx.var(name))
        odd_images: list[GradedPoly] = []
        for name in ctx.odd_names:
            if name in images:
                image = self._coerce(images[name])
                if any(len(w) % 2 == 0 for w in image.parts):
                    raise ValueError(f"image of odd coordinate {name!r} must be odd")
                odd_images.append(image)
            else:
                odd_images.append(ctx.var(name))
        result = ctx.zero()
        for word, exponent, coeff in self.terms():
            term = ctx.const(coeff)
            for k, power in enumerate(exponent):
                for _ in range(power):
                    term = term * even_images[k]
            for letter in word:
                term = term * odd_images[letter]
            result = result + term
        return result

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        ctx = self.ctx
        pieces: list[tuple[str, str]] = []
        for word in sorted(self.parts, key=lambda w: (len(w), w)):
            f = self.parts[word]
            letters = [ctx.odd_names[a] for a in word]
            for exponent, coeff in f.sorted_terms():
                factors = [
                    name if k == 1 else f"{name}^{k}"
                    for name, k in zip(ctx.even_names, exponent)
                    if k
                ] + letters
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

    def __repr__(self) -> str:
        return f"GradedPoly({str(self)!r})"


def _zero_even(ctx: GradedContext) -> EvenPoly:
    return EvenPoly.zero(ctx.even_names)


def transport(F: GradedPoly, ctx: GradedContext) -> GradedPoly:
    """Reinterpret F in another context that contains all of its coordinates.

    Matching is by name; odd words are re-sorted for the target letter order
    with the corresponding sign.
    """
    src = F.ctx
    items = []
    for word, exponent, coeff in F.terms():
        targets = []
        for a in word:
            name = src.odd_names[a]
            if name not in ctx.odd_index:
                raise KeyError(f"{name!r} is not an odd coordinate of the target")
            targets.append(ctx.odd_index[name])
        inversions = sum(
            1
            for u in range(len(targets))
            for v in range(u + 1, len(targets))
            if targets[u] > targets[v]
        )
        new_exponent = [0] * len(ctx.even_names)
        for k, e in enumerate(exponent):
            if e:
                name = src.even_names[k]
                if name not in ctx.even_index:
                    raise KeyError(f"{name!r} is not an even coordinate of the target")
                new_exponent[ctx.even_index[name]] = e
        items.append(
            (
                tuple(sorted(targets)),
                tuple(new_exponent),
                -coeff if inversions % 2 else coeff,
            )
        )
    return GradedPoly.from_terms(ctx, items)


def left_derivation(
    ctx: GradedContext, images: Mapping[str, GradedPoly], G: GradedPoly
) -> GradedPoly:
    """Apply the left derivation D with D(z^A) = images[A] to G.

    D(G) = sum_A images[A] * dG/dz^A with left derivatives; coordinates not in
    `images` are annihilated.
    """
    result = ctx.zero()
    for name, image in images.items():
        derivative = G.left_deriv(name)
        if not derivative.is_zero:
            result = result + image * derivative
    return result


def field_column(
    ctx: GradedContext,
    field: Mapping[str, GradedPoly],
    word: OddWord,
    exponent: Exponent,
) -> dict[tuple[OddWord, Exponent], Rat]:
    """`left_derivation(ctx, field, m)` on the monomial m = x^exponent xi^word.

    The value comes back as a sparse `{(word, exponent): coefficient}`
    column, built without any polynomial object: the left derivative of m
    in each coordinate is one term or none, and it multiplies into that
    coordinate's image term by term.
    """
    column: dict[tuple[OddWord, Exponent], Rat] = {}
    for name, image in field.items():
        k = ctx.even_index.get(name)
        if k is not None:
            power = exponent[k]
            if not power:
                continue
            d_word = word
            d_exponent = exponent[:k] + (power - 1,) + exponent[k + 1 :]
            d_coeff = power
        else:
            letter = ctx.odd_index[name]
            if letter not in word:
                continue
            position = word.index(letter)
            d_word = word[:position] + word[position + 1 :]
            d_exponent = exponent
            d_coeff = -1 if position % 2 else 1
        for image_word, f in image.parts.items():
            merged, sign = merge_words(image_word, d_word)
            if merged is None:
                continue
            scale = sign * d_coeff
            for e, coeff in f.terms.items():
                key = (merged, tuple(map(add, e, d_exponent)))
                value = column.get(key, 0) + scale * coeff
                if value:
                    column[key] = value
                else:
                    del column[key]
    return column


# name scheme for generated coordinates; user base coordinates must avoid these

def momentum_name(base: str) -> str:
    return f"p_{base}"


def ghost_name(a: int) -> str:
    """1-based ghost letter name."""
    return f"xi_{a}"


def antighost_name(a: int) -> str:
    return f"pi_{a}"


def cotangent_context(
    base: Sequence[str],
    twist: Sequence[Sequence[EvenPoly]] | None = None,
) -> GradedContext:
    """Positions and momenta only, optionally with a twisted momentum bracket."""
    even = [(name, 0) for name in base] + [(momentum_name(name), 0) for name in base]
    pairs = [(momentum_name(name), name) for name in base]
    return GradedContext(even=even, pairs_even=pairs, twist=twist)


def extended_context(
    base: Sequence[str],
    rank: int,
    twist: Sequence[Sequence[EvenPoly]] | None = None,
) -> GradedContext:
    """Cotangent coordinates plus one ghost pair (gh +1 / -1) per frame index."""
    even = [(name, 0) for name in base] + [(momentum_name(name), 0) for name in base]
    odd = [(ghost_name(a), 1) for a in range(1, rank + 1)] + [
        (antighost_name(a), -1) for a in range(1, rank + 1)
    ]
    pairs_even = [(momentum_name(name), name) for name in base]
    pairs_odd = [(ghost_name(a), antighost_name(a)) for a in range(1, rank + 1)]
    return GradedContext(
        even=even, odd=odd, pairs_even=pairs_even, pairs_odd=pairs_odd, twist=twist
    )
