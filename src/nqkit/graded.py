"""Graded phase space algebra with an exact graded Poisson bracket.

A `GradedContext` fixes even coordinates, odd (anticommuting) letters, their
ghost degrees, which coordinates are canonically paired, and an optional
antisymmetric twist of the momentum-momentum bracket.  A `GradedPoly` is a
polynomial in that context, stored as a map from odd words to even
coefficient polynomials, with the Koszul sign produced on every merge.  An
odd word is a bitmask: letter a is bit a, and `letters` lists it ascending.

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

from functools import cache, reduce
from operator import mul, xor
from typing import Callable, Iterator, Mapping, Sequence

from .poly import (
    WIDTH,
    EvenPoly,
    Exponent,
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
    render_sum,
    support,
    unpack,
)

OddWord = int


@cache
def letters(word: OddWord) -> tuple[int, ...]:
    """The letters of a word, ascending; cached, as the same words recur."""
    return tuple(a for a, bit in enumerate(bin(word)[:1:-1]) if bit == "1")


def word_label(ctx: GradedContext, word: OddWord) -> str:
    """The odd names of a word's letters, space-separated."""
    return " ".join(ctx.odd_names[k] for k in letters(word))


def word_residuals(tag: str, F: GradedPoly) -> list[tuple[str, str]]:
    """One residual `tag[word]` per odd word of F, shortest words first."""
    return [
        (f"{tag}[{word_label(F.ctx, word)}]", str(F.parts[word]))
        for word in sorted(F.parts, key=lambda w: (w.bit_count(), letters(w)))
    ]


@cache
def _koszul_mask(word: OddWord) -> int:
    """The letters with an odd count of letters of `word` below them, so that
    `(w1 & _koszul_mask(w2)).bit_count()` has the parity of the sign of w1 w2."""
    return reduce(xor, (-2 << b for b in letters(word)), 0)


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
        self.odd_index = {name: a for a, name in enumerate(self.odd_names)}
        self.pairs_even = tuple((p, x) for p, x in pairs_even)
        self.pairs_odd = tuple((xi, pi) for xi, pi in pairs_odd)
        self._validate_pairs()
        # where the sweep of `hamiltonian_field` writes each derivative:
        # d/dp_i on x^i, -d/dx^i on p_i, and d/dxi^a and d/dpi_a, with the
        # sign -(-1)^|word| of the bracket formula, on pi_a and xi^a
        self._field_even: list = [None] * len(even)
        self._field_odd: list = [None] * len(odd)
        for p, x in self.pairs_even:
            self._field_even[self.even_index[p]] = (x, 1)
            self._field_even[self.even_index[x]] = (p, -1)
        for xi, pi in self.pairs_odd:
            self._field_odd[self.odd_index[xi]] = (pi, (-1, 1))
            self._field_odd[self.odd_index[pi]] = (xi, (-1, 1))
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
        return GradedPoly(self, {})

    def const(self, value: Scalar) -> GradedPoly:
        return GradedPoly(self, {0: EvenPoly.const(self.even_names, value)})

    def var(self, name: str) -> GradedPoly:
        if name in self.even_index:
            return GradedPoly(self, {0: EvenPoly.variable(self.even_names, name)})
        if name in self.odd_index:
            one = EvenPoly.const(self.even_names, 1)
            return GradedPoly(self, {1 << self.odd_index[name]: one})
        raise KeyError(f"{name!r} is not a coordinate of this context")

    def lift(self, f: EvenPoly) -> GradedPoly:
        """View an even polynomial (possibly over a subring) as a graded one."""
        if f.coords != self.even_names:
            f = embed(f, self.even_names)
        return GradedPoly(self, {0: f})

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
        field: dict[str, dict[OddWord, Terms]] = {}
        _sweep(F, self._field_even, self._field_odd, field)
        if self.twist is not None:
            # {p_i, p_j} = W_ij: field[p_j] gains dF/dp_i W_ij = field[x^i] W_ij
            for i, (_, x_i) in enumerate(self.pairs_even):
                for j, (p_j, _) in enumerate(self.pairs_even):
                    w = self.twist[i][j].terms
                    if w and x_i in field:
                        out = field.setdefault(p_j, {})
                        for word, terms in field[x_i].items():
                            accumulate_product(out.setdefault(word, {}), terms, w)
        images = {name: _from_buckets(self, field[name]) for name in field}
        return {name: image for name, image in images.items() if not image.is_zero}

    def poisson(self, F: GradedPoly, G: GradedPoly) -> GradedPoly:
        """Graded Poisson bracket {F, G} in this context's conventions."""
        if G.ctx != self:
            raise ValueError("bracket arguments belong to a different context")
        return left_derivation(self, self.hamiltonian_field(F), G)


class GradedPoly:
    """Polynomial in a graded context: odd words with even coefficients."""

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx: GradedContext, parts: Mapping[OddWord, EvenPoly]):
        self.ctx = ctx
        self.parts: dict[OddWord, EvenPoly] = {
            word: f for word, f in parts.items() if not f.is_zero
        }

    @classmethod
    def _trusted(
        cls, ctx: GradedContext, parts: dict[OddWord, EvenPoly]
    ) -> GradedPoly:
        """Wrap parts that already hold no zero coefficient, without filtering."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.parts = parts
        return poly

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
            parts[word] = parts[word] + f if word in parts else f
        return GradedPoly(self.ctx, parts)

    __radd__ = __add__

    def __neg__(self) -> GradedPoly:
        return GradedPoly._trusted(
            self.ctx, {word: -f for word, f in self.parts.items()}
        )

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
        buckets: dict[OddWord, Terms] = {}
        right = {word: f.terms for word, f in other.parts.items()}
        _accumulate_product(buckets, self.parts, right)
        return _from_buckets(self.ctx, buckets)

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

    def parity(self) -> int:
        """Parity of a parity-homogeneous element; the zero element counts as even."""
        parities = {w.bit_count() % 2 for w in self.parts}
        if len(parities) > 1:
            raise ValueError("element is not parity homogeneous")
        return parities.pop() if parities else 0

    def terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Scalar]]:
        """All scalar monomials (ascending letters, exponent tuple, coefficient)."""
        n = len(self.ctx.even_names)
        for word, f in self.parts.items():
            word_letters = letters(word)
            for exponent, coeff in f.terms.items():
                yield word_letters, unpack(exponent, n), coeff

    def ghost_degree(self) -> int:
        """Ghost degree of a ghost-homogeneous element; zero counts as degree 0."""
        ctx, n = self.ctx, len(self.ctx.even_names)
        ghosts = {  # with no even ghost, the key 0 stands for every exponent
            sum(ctx.odd_ghost[a] for a in letters(word))
            + sum(map(mul, unpack(e, n), ctx.even_ghost))
            for word, f in self.parts.items()
            for e in (f.terms if any(ctx.even_ghost) else (0,))
        }
        if len(ghosts) > 1:
            raise ValueError(f"element mixes ghost degrees {sorted(ghosts)}")
        return ghosts.pop() if ghosts else 0

    def even_part(self) -> EvenPoly:
        """The odd-word-free coefficient."""
        return self.parts.get(0, _zero_even(self.ctx))

    def left_deriv(self, name: str) -> GradedPoly:
        """Left derivative with respect to one coordinate."""
        ctx = self.ctx
        if name in ctx.even_index:
            return GradedPoly(
                ctx, {w: f.diff(name) for w, f in self.parts.items()}
            )
        if name not in ctx.odd_index:
            raise KeyError(f"{name!r} is not a coordinate of this context")
        # distinct words holding the letter stay distinct once it is removed
        bit = 1 << ctx.odd_index[name]
        parts: dict[OddWord, EvenPoly] = {}
        for word, f in self.parts.items():
            if word & bit:
                position = (word & (bit - 1)).bit_count()
                parts[word ^ bit] = -f if position % 2 else f
        return GradedPoly._trusted(ctx, parts)

    def __str__(self) -> str:
        ctx = self.ctx
        n = len(ctx.even_names)
        return render_sum(
            (
                coeff,
                monomial_factors(ctx.even_names, unpack(exponent, n))
                + [ctx.odd_names[a] for a in letters(word)],
            )
            for word in sorted(self.parts, key=lambda w: (w.bit_count(), letters(w)))
            for exponent, coeff in self.parts[word].sorted_terms()
        )

    def __repr__(self) -> str:
        return f"GradedPoly({str(self)!r})"


def _zero_even(ctx: GradedContext) -> EvenPoly:
    return EvenPoly.zero(ctx.even_names)


def _accumulate_product(
    buckets: dict[OddWord, Terms],
    left: Mapping[OddWord, EvenPoly],
    right: Mapping[OddWord, Terms],
) -> None:
    """Add the product of a parts mapping and per-word terms to term buckets.

    Each word pair contributes its even product straight into the bucket of
    the merged word, with the Koszul sign of the merge; cancelled terms stay
    behind as zeros until `_from_buckets`.
    """
    masks = [(w2, _koszul_mask(w2), terms) for w2, terms in right.items()]
    for w1, f1 in left.items():
        left_terms = f1.terms
        for w2, mask, right_terms in masks:
            if w1 & w2:
                continue
            merged = w1 | w2
            sign = -1 if (w1 & mask).bit_count() & 1 else 1
            bucket = buckets.get(merged)
            if bucket is None:
                bucket = buckets[merged] = {}
            accumulate_product(bucket, left_terms, right_terms, sign)


def _from_buckets(ctx: GradedContext, buckets: dict[OddWord, Terms]) -> GradedPoly:
    """Wrap per-word term buckets once each, dropping cancelled terms and words;
    one with nothing cancelled is wrapped as it is, as terms never change."""
    names = ctx.even_names
    parts: dict[OddWord, EvenPoly] = {}
    for word, bucket in buckets.items():
        if not all(bucket.values()):
            bucket = {e: c for e, c in bucket.items() if c}
        if bucket:
            parts[word] = EvenPoly._trusted(names, bucket)
    return GradedPoly._trusted(ctx, parts)


def _lifted_terms(
    ctx: GradedContext, f: EvenPoly | None, *names: str, scale: Scalar = 1
) -> Terms:
    """The terms of scale * f times the even coordinates `names` over ctx, f
    on a subring of its even coordinates or None for 1: a fresh dict, to sum
    into, or to wrap as it is when its terms meet no other's."""
    even = ctx.even_names
    key = sum(field_bits(len(even), ctx.even_index[name])[2] for name in names)
    if f is None:
        return {key: scale}
    if f.coords != even[: len(f.coords)]:
        f = embed(f, even)
    up = WIDTH * (len(even) - len(f.coords))  # a prefix: every field moves alike
    return {(e << up) + key: c * scale for e, c in f.terms.items()}


def transport(F: GradedPoly, ctx: GradedContext) -> GradedPoly:
    """Reinterpret F in another context that contains all of its coordinates.

    Matching is by name; odd words are re-sorted for the target letter order
    with the corresponding sign.
    """
    src, parts = F.ctx, {}
    for word, f in F.parts.items():
        target, sign = 0, 1
        for a in letters(word):  # the letters multiplied in, left to right
            name = src.odd_names[a]
            if name not in ctx.odd_index:
                raise KeyError(f"{name!r} is not an odd coordinate of the target")
            target, step = merge_words(target, 1 << ctx.odd_index[name])
            sign *= step
        if f.coords != ctx.even_names:
            f = embed(f, ctx.even_names)
        parts[target] = f if sign > 0 else -f
    return GradedPoly._trusted(ctx, parts)


def left_derivation(
    ctx: GradedContext, images: Mapping[str, GradedPoly], G: GradedPoly
) -> GradedPoly:
    """Apply the left derivation D with D(z^A) = images[A] to G.

    D(G) = sum_A images[A] * dG/dz^A with left derivatives; coordinates not in
    `images` are annihilated.  One pass over the terms of G gives every
    derivative the images need, as bare term buckets.
    """
    if any(f.ctx != ctx for f in (G, *images.values())):
        raise ValueError("operands belong to different graded contexts")
    even: list[tuple[str, int] | None] = [None] * len(ctx.even_names)
    odd: list[tuple[str, tuple[int, int]] | None] = [None] * len(ctx.odd_names)
    for name in images:
        k = ctx.even_index.get(name)
        if k is not None:
            even[k] = (name, 1)
        else:
            odd[ctx.odd_index[name]] = (name, (1, 1))
    partials: dict[str, dict[OddWord, Terms]] = {}
    _sweep(G, even, odd, partials)
    buckets: dict[OddWord, Terms] = {}
    for name, image in images.items():
        if name in partials:
            _accumulate_product(buckets, image.parts, partials[name])
    return _from_buckets(ctx, buckets)


def _sweep(
    F: GradedPoly,
    even: Sequence[tuple[str, int] | None],
    odd: Sequence[tuple[str, tuple[int, int]] | None],
    out: dict[str, dict[OddWord, Terms]],
) -> None:
    """Write left derivatives of F into `out[name][word]`, in one pass over F.

    even[k] = (name, scale) sends the derivative in the k-th even
    coordinate, times scale, to `name`; odd[a] = (name, scales) sends the
    derivative in letter a, times (-1)^position of the letter in the word
    and scales[|word| % 2], to `name`.  Each name takes the derivative in
    one coordinate, which maps distinct terms to distinct terms, so every
    entry is written once.  An odd derivative of positive sign shares the
    term dict of F: the buckets are only read, or wrapped unchanged.
    """
    n = len(even)
    slots = [(*field_bits(n, k), *t) for k, t in enumerate(even) if t is not None]
    for word, f in F.parts.items():
        terms = f.terms
        present = support(terms)
        for mask, shift, step, name, scale in slots:
            if present & mask:
                bucket = out.setdefault(name, {})[word] = {}
                for e, c in terms.items():
                    power = e & mask
                    if power:
                        bucket[e - step] = c * ((power >> shift) * scale)
        parity = word.bit_count() % 2
        for position, letter in enumerate(letters(word)):
            target = odd[letter]
            if target is None:
                continue
            name, scales = target
            scale = -scales[parity] if position % 2 else scales[parity]
            out.setdefault(name, {})[word ^ 1 << letter] = (
                terms if scale > 0 else {e: -c for e, c in terms.items()}
            )


def hamiltonian_lift(
    ctx: GradedContext, images: Mapping[str, GradedPoly]
) -> GradedPoly:
    """images[x^i] p_i + images[xi^c] pi_c over the pairs of ctx.

    The lift to the phase space of the derivation with these images; every
    paired position and ghost must have one.
    """
    buckets: dict[OddWord, Terms] = {}
    for p, x in ctx.pairs_even:
        _accumulate_product(buckets, images[x].parts, {0: _lifted_terms(ctx, None, p)})
    for xi, pi in ctx.pairs_odd:
        _accumulate_product(buckets, images[xi].parts, {1 << ctx.odd_index[pi]: {0: 1}})
    return _from_buckets(ctx, buckets)


def field_column(
    ctx: GradedContext,
    field: Mapping[str, GradedPoly],
    word: OddWord,
    exponent: Exponent,
) -> dict[tuple[OddWord, Exponent], Scalar]:
    """`left_derivation(ctx, field, m)` on the monomial m = x^exponent xi^word.

    The value comes back as a sparse `{(word, exponent): coefficient}`
    column, built without any polynomial object: the left derivative of m
    in each coordinate is one term or none, and it multiplies into that
    coordinate's image term by term.
    """
    column: dict[tuple[OddWord, Exponent], Scalar] = {}
    n = len(ctx.even_names)
    for name, image in field.items():
        k = ctx.even_index.get(name)
        if k is not None:
            mask, shift, step = field_bits(n, k)
            if not exponent & mask:
                continue
            d_word = word
            d_exponent = exponent - step
            d_coeff = (exponent & mask) >> shift
        else:
            bit = 1 << ctx.odd_index[name]
            if not word & bit:
                continue
            d_word = word ^ bit
            d_exponent = exponent
            d_coeff = -1 if (word & (bit - 1)).bit_count() % 2 else 1
        for image_word, f in image.parts.items():
            merged, sign = merge_words(image_word, d_word)
            if merged is None:
                continue
            scale = sign * d_coeff
            for e, coeff in f.terms.items():
                key = (merged, e + d_exponent)
                value = column.get(key, 0) + scale * coeff
                if value:
                    column[key] = value
                else:
                    del column[key]
    return column


def window_columns(
    ctx: GradedContext,
    field: Mapping[str, GradedPoly],
    words: Sequence[OddWord],
    x_degree: int,
    p_degree: int = 0,
) -> tuple[list[tuple[OddWord, Exponent, Exponent]], list[dict]]:
    """The derivation `field` on each monomial x^e p^f xi^word of a window.

    ctx lays out its even coordinates as `extended_context` does: the n
    paired positions, then their momenta.  Returns the sources (word, e, f),
    e and f keys over the n positions of degree <= x_degree and p_degree,
    and the `field_column` of each.  Sources run over x-monomials, then
    p-monomials, then words: every order gives the same answers, and this
    one eliminates the ghost-zero windows of `bfv_h0` with less work than
    words first.
    """
    n = len(ctx.pairs_even)
    shift = WIDTH * n
    # the key of x^e p^f over the 2n coordinates: e moved up past the n
    # momentum fields, plus f with its degree field moved up past x
    p_keys = [
        (f, f >> shift << 2 * shift | f & lex_bits(n))
        for f in monomial_exponents(n, p_degree)
    ]
    sources, columns = [], []
    for e in monomial_exponents(n, x_degree):
        for f, p_key in p_keys:
            for word in words:
                sources.append((word, e, f))
                columns.append(field_column(ctx, field, word, (e << shift) + p_key))
    return sources, columns


def in_window(
    n: int, x_degree: int, p_degree: int = 0
) -> Callable[[tuple[OddWord, Exponent]], bool]:
    """Whether a column key of `window_columns` over n positions lies in
    the window of x-degree <= x_degree and p-degree <= p_degree."""

    def inside(key: tuple[OddWord, Exponent]) -> bool:
        exponent = unpack(key[1], 2 * n)
        return sum(exponent[:n]) <= x_degree and sum(exponent[n:]) <= p_degree

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
