"""Graded phase space algebra with an exact graded Poisson bracket.

A `GradedContext` fixes even coordinates, odd (anticommuting) letters, their
ghost degrees, which coordinates are canonically paired, and an optional
antisymmetric twist of the momentum-momentum bracket.  A `GradedPoly` is a
polynomial in that context, one dict of terms keyed `word << word_shift |
exponent`, so a product of terms is a sum of keys with the Koszul sign of
the words.  An odd word is a bitmask: letter a is bit a, and `letters`
lists it ascending.

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

from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .poly import (
    FIELD,
    WIDTH,
    EvenPoly,
    Scalar,
    Terms,
    accumulate_product,
    as_rat,
    divide,
    embed,
    field_bits,
    lex_bits,
    monomial_exponents,
    monomial_factors,
    pack,
    rekey,
    render_sum,
    support,
    unpack,
)

OddWord = int


@cache
def letters(word: OddWord) -> tuple[int, ...]:
    """The letters of a word, ascending; cached, as the same words recur."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return tuple(out)


def word_label(ctx: GradedContext, word: OddWord) -> str:
    """The odd names of a word's letters, space-separated."""
    return " ".join(ctx.odd_names[k] for k in letters(word))


def word_order(word: OddWord) -> tuple[int, tuple[int, ...]]:
    """The order words are listed in: letter count, then ascending letters."""
    return word.bit_count(), letters(word)


def word_residuals(tag: str, F: GradedPoly) -> list[tuple[str, str]]:
    """One residual `tag[word]` per odd word of F, shortest words first."""
    parts = F.by_word()
    return [
        (f"{tag}[{word_label(F.ctx, word)}]", str(parts[word]))
        for word in sorted(parts, key=word_order)
    ]


@cache
def _koszul_mask(word: OddWord) -> int:
    """The letters with an odd count of letters of `word` below them, so that
    `(w1 & _koszul_mask(w2)).bit_count()` has the parity of the sign of w1 w2."""
    mask = 0
    for b in letters(word):
        mask ^= -2 << b
    return mask


def merge_words(w1: OddWord, w2: OddWord) -> tuple[OddWord | None, int]:
    """The word of w1 w2 and the Koszul sign of sorting it.

    Returns (None, 0) when a letter repeats, since odd letters square to zero.
    """
    if w1 & w2:
        return None, 0
    return w1 | w2, -1 if (w1 & _koszul_mask(w2)).bit_count() & 1 else 1


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
        # a term's key holds its odd word above its exponent and degree field
        n = len(self.even_names)
        self.word_shift = WIDTH * (n + 1)
        self._even_fields = [(x, *field_bits(n, k)) for k, (x, _) in enumerate(even)]
        self.odd_index = {name: a for a, name in enumerate(self.odd_names)}
        self.pairs_even = tuple((p, x) for p, x in pairs_even)
        self.pairs_odd = tuple((xi, pi) for xi, pi in pairs_odd)
        self._validate_pairs()
        # where `hamiltonian_field` writes the derivative in each coordinate,
        # with its sign by the parity of the word: d/dp_i on x^i, -d/dx^i on
        # p_i, and d/dxi^a, d/dpi_a on pi_a, xi^a with the sign -(-1)^|word|
        self._partners = {p: (x, 1, 1) for p, x in self.pairs_even}
        self._partners.update({x: (p, -1, -1) for p, x in self.pairs_even})
        for xi, pi in self.pairs_odd:
            self._partners.update({xi: (pi, -1, 1), pi: (xi, -1, 1)})
        self.twist = self._validate_twist(twist)

    def _validate_pairs(self) -> None:
        seen: set[str] = set()
        for kind, pairs, index in (
            ("even", self.pairs_even, self.even_index),
            ("odd", self.pairs_odd, self.odd_index),
        ):
            for name in (name for pair in pairs for name in pair):
                if name not in index:
                    raise ValueError(f"{name!r} is not an {kind} coordinate")
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
        return tuple(rows)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
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
        return GradedPoly._trusted(self, {})

    def const(self, value: Scalar) -> GradedPoly:
        return GradedPoly(self, {0: as_rat(value)})

    def var(self, name: str) -> GradedPoly:
        if name in self.even_index:
            key = field_bits(len(self.even_names), self.even_index[name])[2]
            return GradedPoly._trusted(self, {key: 1})
        if name in self.odd_index:
            letter = self.word_shift + self.odd_index[name]
            return GradedPoly._trusted(self, {1 << letter: 1})
        raise KeyError(f"{name!r} is not a coordinate of this context")

    def lift(self, f: EvenPoly) -> GradedPoly:
        """View an even polynomial (possibly over a subring) as a graded one."""
        if f.coords != self.even_names:
            f = embed(f, self.even_names)
        return GradedPoly._trusted(self, f.terms)

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
        the one copy of the bracket formula in the module docstring, made in
        one pass over the terms of F; the twist then reuses the images of the
        positions, which are the dF/dp_i.
        """
        if F.ctx != self:
            raise ValueError("bracket arguments belong to a different context")
        field: dict[str, Terms] = {}

        def target(name: str) -> tuple | None:
            if name in self._partners:
                partner, even, odd = self._partners[name]
                return even, odd, field.setdefault(partner, {})
            return None

        _sweep(F, target)
        if self.twist is None:  # each image holds a derivative, none zero
            return {name: GradedPoly._trusted(self, t) for name, t in field.items()}
        for i, (_, x_i) in enumerate(self.pairs_even):
            # {p_i, p_j} = W_ij: field[p_j] gains dF/dp_i W_ij = field[x^i] W_ij
            for j, (p_j, _) in enumerate(self.pairs_even):
                w = self.twist[i][j].terms
                if w and x_i in field:
                    accumulate_product(field.setdefault(p_j, {}), field[x_i], w)
        images = {name: GradedPoly(self, terms) for name, terms in field.items()}
        return {name: image for name, image in images.items() if not image.is_zero}

    def poisson(self, F: GradedPoly, G: GradedPoly) -> GradedPoly:
        """Graded Poisson bracket {F, G} in this context's conventions."""
        if G.ctx != self:
            raise ValueError("bracket arguments belong to a different context")
        return left_derivation(self, self.hamiltonian_field(F), G)

    def self_bracket(
        self, F: GradedPoly, field: Mapping[str, GradedPoly] | None = None
    ) -> GradedPoly:
        """{F, F} for an odd F, from its images `field = hamiltonian_field(F)`
        alone, without a second pass over F.

        The images are derivatives of F: field[x^i] = dF/dp_i, and field[p_i]
        is -dF/dx^i plus the twist sum_k W_ki field[x^k].  Putting them back
        into {F, F} = sum over names of field[name] dF/dname, the odd images
        of the momentum pairs anticommute and the even ones of the ghost
        pairs commute, so every pair occurs twice:

            {F, F} = 2 [sum_i field[p_i] field[x^i]
                        + sum_a field[xi^a] field[pi_a]
                        + sum_{i<k} W_ki field[x^i] field[x^k]]

        ValueError for an F with an even term.
        """
        s = self.word_shift
        if any(not (key >> s).bit_count() & 1 for key in F.coeffs):
            raise ValueError("the self-bracket from the images needs an odd F")
        if field is None:
            field = self.hamiltonian_field(F)
        half: Terms = {}
        for left, right in self.pairs_even + self.pairs_odd:  # (p, x), (xi, pi)
            if left in field and right in field:
                _accumulate_product(half, field[left].coeffs, field[right].coeffs, s)
        positions = [x for _, x in self.pairs_even]
        for k, x_k in enumerate(positions if self.twist is not None else ()):
            for i, x_i in enumerate(positions[:k]):
                w = self.twist[k][i].terms
                if w and x_i in field and x_k in field:
                    twisted: Terms = {}  # W_ki field[x^i]
                    accumulate_product(twisted, field[x_i].coeffs, w)
                    _accumulate_product(half, twisted, field[x_k].coeffs, s)
        return GradedPoly(self, {key: 2 * c for key, c in half.items()})


class GradedPoly:
    """Polynomial in a graded context: `coeffs` maps the key `word <<
    ctx.word_shift | exponent` of each term to its nonzero coefficient, so
    equality of the dicts is equality of polynomials.  `terms()` lists the
    terms unpacked; `by_word()` groups them into each word's coefficient."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: GradedContext, coeffs: Mapping[int, Scalar]):
        self.ctx = ctx
        self.coeffs: Terms = {key: c for key, c in coeffs.items() if c}

    @classmethod
    def _trusted(cls, ctx: GradedContext, coeffs: Terms) -> GradedPoly:
        """Wrap terms that already hold no zero coefficient, without filtering."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.coeffs = coeffs
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def _coerce(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        if isinstance(other, GradedPoly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("operands belong to different graded contexts")
            return other
        if isinstance(other, EvenPoly):
            return self.ctx.lift(other)
        return self.ctx.const(other)

    def __add__(self, other: GradedPoly | EvenPoly | Scalar) -> GradedPoly:
        coeffs = dict(self.coeffs)
        for key, c in self._coerce(other).coeffs.items():
            coeffs[key] = coeffs.get(key, 0) + c
        return GradedPoly(self.ctx, coeffs)

    __radd__ = __add__

    def __neg__(self) -> GradedPoly:
        return GradedPoly._trusted(self.ctx, {k: -c for k, c in self.coeffs.items()})

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
                scaled = {k: c * scalar for k, c in self.coeffs.items()}
                return GradedPoly(self.ctx, scaled)
        elif other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("operands belong to different graded contexts")
        out: Terms = {}
        _accumulate_product(out, self.coeffs, other.coeffs, self.ctx.word_shift)
        return GradedPoly(self.ctx, out)

    def __rmul__(self, other: EvenPoly | Scalar) -> GradedPoly:
        # even scalars and even polynomials commute with everything
        return self.__mul__(other)

    def __truediv__(self, scalar: Scalar) -> GradedPoly:
        return self * divide(1, as_rat(scalar))

    def __pow__(self, n: int) -> GradedPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ctx.const(1)
        for _ in range(n):
            result = result * self
        return result

    # structure

    def terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Scalar]]:
        """All scalar monomials (ascending letters, exponent tuple, coefficient)."""
        n, s = len(self.ctx.even_names), self.ctx.word_shift
        low = (1 << s) - 1
        for key, coeff in self.coeffs.items():
            yield letters(key >> s), unpack(key & low, n), coeff

    def by_word(self) -> dict[OddWord, EvenPoly]:
        """The even coefficient of each odd word: the terms grouped on demand,
        in a fresh dict, for the readers that need a word's coefficient whole."""
        s = self.ctx.word_shift
        low = (1 << s) - 1
        groups: dict[OddWord, Terms] = {}
        for key, c in self.coeffs.items():
            groups.setdefault(key >> s, {})[key & low] = c
        names = self.ctx.even_names
        return {word: EvenPoly._trusted(names, t) for word, t in groups.items()}

    def even_part(self) -> EvenPoly:
        """The odd-word-free coefficient."""
        return self.by_word().get(0) or EvenPoly.zero(self.ctx.even_names)

    def left_deriv(self, name: str) -> GradedPoly:
        """Left derivative with respect to one coordinate."""
        ctx = self.ctx
        if name not in ctx.even_index and name not in ctx.odd_index:
            raise KeyError(f"{name!r} is not a coordinate of this context")
        out: Terms = {}
        _sweep(self, lambda z: (1, 1, out) if z == name else None)
        return GradedPoly._trusted(ctx, out)

    def __str__(self) -> str:
        ctx, parts = self.ctx, self.by_word()
        n = len(ctx.even_names)
        return render_sum(
            (
                coeff,
                monomial_factors(ctx.even_names, unpack(exponent, n))
                + [ctx.odd_names[a] for a in letters(word)],
            )
            for word in sorted(parts, key=word_order)
            for exponent, coeff in parts[word].sorted_terms()
        )

    def __repr__(self) -> str:
        return f"GradedPoly({str(self)!r})"


# a product groups its factors by word when both hold more than this many
# terms and one holds at least this many terms per word: every such product
# of so(n) and the log-canonical frames has one term per word, where
# grouping costs more than it saves, and dense coefficients have many more
_GROUPED_TERMS = 8
_GROUPED_PER_WORD = 4


def _accumulate_product(out: Terms, left: Terms, right: Terms, shift: int) -> None:
    """Add left * right to the term dict `out`, for keys with words at `shift`:
    two terms with a common letter multiply to zero, any other two to the sum
    of their keys with the Koszul sign of their words.  Cancelled terms stay
    behind as zeros for the caller to drop.

    When a factor holds several terms per word, both are grouped by word, so
    the letter test and the sign are paid once per word pair, and the terms
    of two words multiply as even terms do (`poly.accumulate_product`).
    """
    if len(left) > _GROUPED_TERMS and len(right) > _GROUPED_TERMS:
        left_words, right_words = _word_groups(left, shift), _word_groups(right, shift)
        if (
            len(left) >= _GROUPED_PER_WORD * len(left_words)
            or len(right) >= _GROUPED_PER_WORD * len(right_words)
        ):
            for w2, t2 in right_words.items():
                mask = _koszul_mask(w2)
                for w1, t1 in left_words.items():
                    if not w1 & w2:
                        sign = -1 if (w1 & mask).bit_count() & 1 else 1
                        accumulate_product(out, t1, t2, sign)
            return
    get = out.get
    for k2, c2 in right.items():
        w2 = k2 >> shift
        mask = _koszul_mask(w2)
        for k1, c1 in left.items():
            w1 = k1 >> shift
            if not w1 & w2:
                key = k1 + k2
                if (w1 & mask).bit_count() & 1:
                    out[key] = get(key, 0) - c1 * c2
                else:
                    out[key] = get(key, 0) + c1 * c2


def _word_groups(terms: Terms, shift: int) -> dict[OddWord, Terms]:
    """The terms by their word, keys kept whole."""
    groups: dict[OddWord, Terms] = {}
    for key, c in terms.items():
        groups.setdefault(key >> shift, {})[key] = c
    return groups


def _lifted_terms(
    ctx: GradedContext, f: EvenPoly | None, *names: str, scale: Scalar = 1, word=0
) -> Terms:
    """The terms of scale * f times the even coordinates `names` and the odd
    word `word` over ctx, f over some of its even coordinates or None for 1:
    a fresh dict, to sum into, or to wrap as it is if no other term meets it."""
    key = word << ctx.word_shift
    for name in names:
        key += ctx._even_fields[ctx.even_index[name]][3]
    if f is None:
        return {key: scale}
    move = rekey(f.coords, ctx.even_names)
    return {move(e) + key: c * scale for e, c in f.terms.items()}


def transport(F: GradedPoly, ctx: GradedContext) -> GradedPoly:
    """Reinterpret F in another context that contains all of its coordinates.

    Matching is by name; odd words are re-sorted for the target letter order
    with the corresponding sign, once per word.
    """
    src, s = F.ctx, F.ctx.word_shift
    low = (1 << s) - 1
    move = rekey(src.even_names, ctx.even_names) if F.coeffs else None
    words: dict[OddWord, tuple[int, int]] = {}  # the target word bits, sign
    coeffs: Terms = {}
    for key, c in F.coeffs.items():
        word = key >> s
        if word not in words:
            target, sign = 0, 1
            for a in letters(word):  # the letters multiplied in, left to right
                name = src.odd_names[a]
                if name not in ctx.odd_index:
                    raise KeyError(f"{name!r} is not an odd coordinate of the target")
                target, step = merge_words(target, 1 << ctx.odd_index[name])
                sign *= step
            words[word] = target << ctx.word_shift, sign
        high, sign = words[word]
        coeffs[high | move(key & low)] = c if sign > 0 else -c
    return GradedPoly._trusted(ctx, coeffs)


def left_derivation(
    ctx: GradedContext, images: Mapping[str, GradedPoly], G: GradedPoly
) -> GradedPoly:
    """Apply the left derivation D with D(z^A) = images[A] to G.

    D(G) = sum_A images[A] * dG/dz^A with left derivatives; coordinates not in
    `images` are annihilated.  One pass over the terms of G gives every
    derivative the images need, each then multiplied into its image.
    """
    partials: dict[str, Terms] = {}

    def target(name: str) -> tuple | None:
        image = images.get(name)
        if image is None:
            return None
        if image.ctx is not ctx and image.ctx != ctx:
            raise ValueError("operands belong to different graded contexts")
        return 1, 1, partials.setdefault(name, {})

    if G.ctx is not ctx and G.ctx != ctx:
        raise ValueError("operands belong to different graded contexts")
    _sweep(G, target)
    out: Terms = {}
    for name, terms in partials.items():
        _accumulate_product(out, images[name].coeffs, terms, ctx.word_shift)
    return GradedPoly(ctx, out)


def _sweep(F: GradedPoly, target: Callable[[str], tuple | None]) -> None:
    """Write left derivatives of F into term dicts, in one pass over F.

    For each coordinate that occurs in F (`poly.support`), target(name) is
    None or (even, odd, out): the derivative in it, times the scale `even`
    or `odd` by the parity of the term's word, goes to the term dict `out`:
    a field mask and step on the key, or the letter's bit flipped with the
    sign (-1)^position.  Distinct terms have distinct derivatives.
    """
    ctx = F.ctx
    s, present = ctx.word_shift, support(F.coeffs)
    slots = []
    for name, mask, shift, step in ctx._even_fields:
        if present & mask and (found := target(name)) is not None:
            slots.append((mask, shift, step, found[0], found[2]))
    odd, reach = {}, 0
    for a in letters(present >> s):
        if (found := target(ctx.odd_names[a])) is not None:
            odd[a], reach = (1 << s + a, *found), reach | 1 << a
    for key, c in F.coeffs.items():
        for mask, shift, step, scale, out in slots:
            power = key & mask
            if power:
                out[key - step] = c * (power >> shift) * scale
        word = key >> s
        if word & reach:
            parity = word.bit_count() & 1
            for position, a in enumerate(letters(word)):
                entry = odd.get(a)
                if entry is not None:
                    scale = -entry[1 + parity] if position & 1 else entry[1 + parity]
                    entry[3][key ^ entry[0]] = c * scale


def hamiltonian_lift(
    ctx: GradedContext, images: Mapping[str, GradedPoly]
) -> GradedPoly:
    """images[x^i] p_i + images[xi^c] pi_c over the pairs of ctx.

    The lift to the phase space of the derivation with these images; every
    paired position and ghost must have one.  Only their terms are read, so
    images on a context of the same layout lift into a twist of it as they
    are: `build_S` lifts the frame's table `Algebroid.q` so.
    """
    out: Terms = {}
    for z, p_z in [(x, p) for p, x in ctx.pairs_even] + list(ctx.pairs_odd):
        _accumulate_product(out, images[z].coeffs, ctx.var(p_z).coeffs, ctx.word_shift)
    return GradedPoly(ctx, out)


def field_columns(
    ctx: GradedContext, field: Mapping[str, GradedPoly], keys: Iterable[int]
) -> list[Terms]:
    """`left_derivation(ctx, field, m)` on the monomial m of each term key
    of `keys`, as columns `{term key: coefficient}`.

    The coordinate table is built once: an even coordinate's field mask,
    shift and step, or an odd one's letter bit and the letters below it,
    with the `(key, word, coeff)` triples of its image.  The letter test
    and the Koszul sign of an image term depend on the monomial's word
    alone, so each word of `keys` keeps the table's terms that survive it,
    signed, and each derivative of m is then one term, multiplied into
    them inline.
    """
    s = ctx.word_shift
    even, odd = [], []
    for name, image in field.items():
        triples = [(k, k >> s, c) for k, c in image.coeffs.items()]
        k = ctx.even_index.get(name)
        if k is not None:
            even.append((*ctx._even_fields[k][1:], triples))
        else:
            bit = 1 << ctx.odd_index[name]
            odd.append((bit, bit - 1, triples))
    by_word: dict[OddWord, tuple[list, list]] = {}
    columns = []
    for key in keys:
        word = key >> s
        tables = by_word.get(word)
        if tables is None:
            tables = by_word[word] = _word_tables(word, s, even, odd)
        column: Terms = {}
        get = column.get
        for mask, shift, step, terms in tables[0]:
            power = key & mask
            if power:
                power >>= shift
                base = key - step
                for k1, c1 in terms:
                    at = k1 + base
                    column[at] = get(at, 0) + c1 * power
        for flip, terms in tables[1]:
            base = key ^ flip
            for k1, c1 in terms:
                at = k1 + base
                column[at] = get(at, 0) + c1
        columns.append({k: c for k, c in column.items() if c})
    return columns


def _word_tables(word: OddWord, s: int, even: list, odd: list) -> tuple[list, list]:
    """The coordinate table of `field_columns` on monomials of word `word`:
    each even entry with its image terms `(key, coeff)` that share no letter
    with the word, signed by their Koszul sign against it, and each odd
    entry whose letter the word holds, with the key bit it flips and its
    image terms signed the same way against the rest of the word, times
    the sign of moving the letter to the front."""
    koszul = _koszul_mask(word)
    even_out = [
        (mask, shift, step, [
            (k1, -c1 if (w1 & koszul).bit_count() & 1 else c1)
            for k1, w1, c1 in triples
            if not w1 & word
        ])
        for mask, shift, step, triples in even
    ]
    odd_out = []
    for bit, below, triples in odd:
        if word & bit:
            rest = word ^ bit
            koszul = _koszul_mask(rest)
            flip = (word & below).bit_count()
            odd_out.append((bit << s, [
                (k1, -c1 if ((w1 & koszul).bit_count() ^ flip) & 1 else c1)
                for k1, w1, c1 in triples
                if not w1 & rest
            ]))
    return even_out, odd_out


def window_columns(
    ctx: GradedContext,
    field: Mapping[str, GradedPoly],
    words: Sequence[OddWord],
    x_degree: int,
    p_degree: int = 0,
) -> tuple[list[tuple[OddWord, int, int]], list[Terms]]:
    """The derivation `field` on each monomial x^e p^f xi^word of a window.

    ctx lays out its even coordinates as `extended_context` does: the n
    paired positions, then their momenta.  Returns the sources (word, e, f),
    e and f keys over the n positions of degree <= x_degree and p_degree,
    and the `field_columns` of them.  Sources run over x-monomials, then
    p-monomials, then words: every order gives the same answers, and this
    one eliminates the ghost-zero windows of `bfv_h0` with the least work.
    """
    n = len(ctx.pairs_even)
    shift = WIDTH * n
    # the key of x^e p^f over the 2n coordinates: e moved up past the n
    # momentum fields, plus f with its degree field moved up past x
    p_keys = [
        (f, f >> shift << 2 * shift | f & lex_bits(n))
        for f in monomial_exponents(n, p_degree)
    ]
    sources, keys = [], []
    for e in monomial_exponents(n, x_degree):
        for f, p_key in p_keys:
            for word in words:
                sources.append((word, e, f))
                keys.append(word << ctx.word_shift | (e << shift) + p_key)
    return sources, field_columns(ctx, field, keys)


def in_window(n: int, x_degree: int, p_degree: int = 0) -> Callable[[int], bool]:
    """Whether a column key of `window_columns` over n positions lies in the
    window of x-degree <= x_degree and p-degree <= p_degree: n fields times
    a 1 in each field hold their sum in field n - 1, as no field carries."""
    block = lex_bits(n)
    ones, top = block // FIELD, WIDTH * max(n - 1, 0)

    def inside(key: int) -> bool:
        x = (key >> WIDTH * n & block) * ones >> top & FIELD
        p = (key & block) * ones >> top & FIELD
        return x <= x_degree and p <= p_degree

    return inside


def momentum_orders(
    ctx: GradedContext, f: EvenPoly
) -> dict[tuple[int, ...], EvenPoly]:
    """Read a function on the phase space by its momenta.

    Returns {momentum word: coefficient}: the word of a term lists the
    index j of each momentum p_j it holds (j counts the even pairs of ctx),
    ascending and with multiplicity, so () is momentum order 0, (j,) order
    1 and (j, k), j <= k, order 2.  The coefficient of a word is the sum of
    the terms of f with that word, over the positions of the pairs in pair
    order, so the callers read it as a function on the base.  f must not
    depend on an even coordinate outside the pairs.  Every reader of a
    function by momentum order goes through here.
    """
    momenta = [ctx.even_index[p] for p, _ in ctx.pairs_even]
    positions = [ctx.even_index[x] for _, x in ctx.pairs_even]
    base = tuple(x for _, x in ctx.pairs_even)
    n = len(ctx.even_names)
    buckets: dict[tuple[int, ...], Terms] = {}
    for key, coeff in f.terms.items():
        exponent = unpack(key, n)
        word = tuple(j for j, slot in enumerate(momenta) for _ in range(exponent[slot]))
        # the word fixes the momentum exponents: distinct terms stay distinct
        buckets.setdefault(word, {})[pack([exponent[s] for s in positions])] = coeff
    return {word: EvenPoly._trusted(base, terms) for word, terms in buckets.items()}


# name scheme for generated coordinates; user base coordinates must avoid these

def momentum_name(base: str) -> str:
    return f"p_{base}"


def ghost_name(a: int) -> str:
    """1-based ghost letter name."""
    return f"xi_{a}"


def antighost_name(a: int) -> str:
    return f"pi_{a}"


# the odd partner of time: the super-time charge is S + theta H
THETA = "theta"


def extended_context(
    base: Sequence[str],
    rank: int,
    twist: Sequence[Sequence[EvenPoly]] | None = None,
) -> GradedContext:
    """Cotangent coordinates plus one ghost pair (gh +1 / -1) per frame index,
    then the super-time letter theta (gh +1): the last odd letter, with no
    partner, so no bracket gives it an image and no other key moves."""
    even = [(name, 0) for name in base] + [(momentum_name(name), 0) for name in base]
    odd = [(ghost_name(a), 1) for a in range(1, rank + 1)]
    odd += [(antighost_name(a), -1) for a in range(1, rank + 1)] + [(THETA, 1)]
    pairs_even = [(momentum_name(name), name) for name in base]
    pairs_odd = [(ghost_name(a), antighost_name(a)) for a in range(1, rank + 1)]
    return GradedContext(
        even=even, odd=odd, pairs_even=pairs_even, pairs_odd=pairs_odd, twist=twist
    )
