"""Sparse exact polynomials over named commuting coordinates.

A coefficient is an exact rational: a Python `int` when it is integral and a
`fractions.Fraction` otherwise, never a float.  Integers keep the common case
(frames with integer coefficients) off the slow `Fraction` path; mixed
results need no normalising, since `int` and `Fraction` agree by value in
equality, hashing, ordering and `str`.  Every division of coefficients goes
through `divide`, which returns an int when the quotient is integral.

A polynomial stores a mapping from exponents to coefficients with no zero
coefficient, so equality of the mappings is equality of polynomials.  An
exponent over n coordinates is one int, `deg << WIDTH * n | e_0 << WIDTH *
(n - 1) | ... | e_(n - 1)`: a product of monomials is a sum of keys, and
integer order is graded lexicographic order.  `pack` and `unpack` cross to
exponent tuples.  The public constructor strips zero coefficients
from whatever it is given, in `__post_init__`.  Every operation of this
module keeps the invariant itself (negating or scaling a nonzero coefficient
by a nonzero scalar cannot give zero; a sum or product drops exactly the
keys whose coefficients cancel; a derivative maps distinct exponents to
distinct exponents) and builds its result with the internal
`EvenPoly._trusted`, which skips the filter, or `EvenPoly._summed`, which
drops the cancelled terms of a sum.  Outside this module only code that
keeps the same invariant calls them: the builders that sum into term
buckets and wrap each once (README, "Kernel representation").
"""

from __future__ import annotations

import struct
from bisect import insort
from fractions import Fraction
from functools import cache, reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

Rat = Fraction
Scalar = int | Fraction
Exponent = int  # packed
Terms = dict[Exponent, Scalar]

# No carry: no field exceeds the total degree, which stays below 2^31, so
# each field's top bit is free.  Parsed entries have degree <= 2^12
# (parser.MAX_DEGREE), window monomials < 2^13 (cli.MAX_WINDOW_COLUMNS), and
# an engine term is a window monomial times at most 2 min(rank, base_dim) +
# 16 entries (two Bareiss minors of `generic_rank`): a carry needs 2^36
# anchor entries.  A field is one big-endian `struct` word, "I".
WIDTH = 32
FIELD = (1 << WIDTH) - 1


def pack(exponent: Sequence[int]) -> Exponent:
    """The key of an exponent tuple."""
    words = struct.pack(f">{len(exponent) + 1}I", sum(exponent), *exponent)
    return int.from_bytes(words, "big")


def unpack(key: Exponent, n: int) -> tuple[int, ...]:
    """The exponent tuple of a key over n coordinates."""
    return struct.unpack_from(f">{n}I", key.to_bytes(4 * n + 4, "big"), 4)


@cache
def field_bits(n: int, k: int) -> tuple[int, int, Exponent]:
    """The mask and shift of coordinate k of n, and the key of that coordinate."""
    shift = WIDTH * (n - 1 - k)
    return FIELD << shift, shift, 1 << WIDTH * n | 1 << shift


def support(terms: Terms) -> Exponent:
    """The bitwise or of the keys: a coordinate occurs in some term iff its
    field of the support is nonzero, so `support(terms) & mask` tests it."""
    return reduce(or_, terms, 0)


def nonzero_fields(e: Exponent) -> list[tuple[int, int]]:
    """The shift and value of each nonzero field of a key, the degree field
    first, then coordinate order: a sparse key costs only its nonzero fields."""
    out = []
    while e:
        shift = (e.bit_length() - 1) // WIDTH * WIDTH
        out.append((shift, e >> shift))
        e &= (1 << shift) - 1
    return out


def lex_bits(n: int) -> Exponent:
    """The fields of a key over n coordinates without its degree field: keys
    masked by them order as their exponent tuples, lexicographically."""
    return (1 << WIDTH * n) - 1


def as_rat(value: Scalar) -> Scalar:
    """An exact scalar as an int when integral, else a Fraction; floats raise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def divide(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
        return Fraction(a, b)
    return as_rat(Fraction(a) / b)


class EvenPoly:
    """Polynomial with exact coefficients in a fixed tuple of coordinates.

    Treated as immutable; it holds a dict and is therefore unhashable.
    """

    __slots__ = ("coords", "terms")
    __hash__ = None

    def __init__(self, coords: tuple[str, ...], terms: Mapping[Exponent, Scalar]):
        self.coords = coords
        self.terms = terms
        self.__post_init__()

    def __post_init__(self) -> None:
        # stored form never contains zero coefficients, so dict equality works;
        # a method of its own, so a tracer can count public constructions
        self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def _trusted(cls, coords: tuple[str, ...], terms: Terms) -> EvenPoly:
        """Wrap terms that already hold no zero coefficient, without filtering."""
        poly = object.__new__(cls)
        poly.coords = coords
        poly.terms = terms
        return poly

    @classmethod
    def _summed(cls, coords: tuple[str, ...], terms: Terms, scale: Scalar = 1):
        """Wrap summed terms times a nonzero scale, dropping the cancelled ones."""
        return cls._trusted(coords, {e: c * scale for e, c in terms.items() if c})

    @classmethod
    def zero(cls, coords: tuple[str, ...]) -> EvenPoly:
        return cls._trusted(coords, {})

    @classmethod
    def const(cls, coords: tuple[str, ...], value: Scalar) -> EvenPoly:
        value = as_rat(value)
        return cls._trusted(coords, {0: value} if value else {})

    @classmethod
    def variable(cls, coords: tuple[str, ...], name: str) -> EvenPoly:
        if name not in coords:
            raise KeyError(f"{name!r} is not a coordinate of this ring")
        _, _, key = field_bits(len(coords), coords.index(name))
        return cls._trusted(coords, {key: 1})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a coordinate of this ring") from None

    def _coerce(self, other: EvenPoly | Scalar) -> EvenPoly:
        """The operand in this ring; NotImplemented if it is not exact, so a
        `GradedPoly` operand reaches its reflected method."""
        if isinstance(other, EvenPoly):
            if other.coords != self.coords:
                raise ValueError("polynomials live in different coordinate rings")
            return other
        if isinstance(other, (int, Fraction)):
            return EvenPoly.const(self.coords, other)
        return NotImplemented

    def __add__(self, other: EvenPoly | Scalar) -> EvenPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                total = terms[e] + c
                if total:
                    terms[e] = total
                else:
                    del terms[e]
            else:
                terms[e] = c
        return EvenPoly._trusted(self.coords, terms)

    __radd__ = __add__

    def __neg__(self) -> EvenPoly:
        return EvenPoly._trusted(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: EvenPoly | Scalar) -> EvenPoly:
        return self + (-other)

    def __rsub__(self, other: EvenPoly | Scalar) -> EvenPoly:
        return -self + other

    def __mul__(self, other: EvenPoly | Scalar) -> EvenPoly:
        if not isinstance(other, EvenPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            scalar = as_rat(other)
            if not scalar:
                return EvenPoly.zero(self.coords)
            return EvenPoly._trusted(
                self.coords, {e: c * scalar for e, c in self.terms.items()}
            )
        if other.coords != self.coords:
            raise ValueError("polynomials live in different coordinate rings")
        terms: Terms = {}
        accumulate_product(terms, self.terms, other.terms)
        return EvenPoly._trusted(self.coords, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> EvenPoly:
        return self * divide(1, as_rat(scalar))

    def __pow__(self, n: int) -> EvenPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = EvenPoly.const(self.coords, 1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, name: str) -> EvenPoly:
        terms = derivative(self.terms, self._index(name), len(self.coords))
        return EvenPoly._trusted(self.coords, terms)

    def total_degree(self) -> int:
        """Maximal total degree over the terms; the zero polynomial reports 0."""
        return max(self.terms, default=0) >> WIDTH * len(self.coords)

    def degree_in(self, name: str) -> int:
        mask, shift, _ = field_bits(len(self.coords), self._index(name))
        return max((e & mask for e in self.terms), default=0) >> shift

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in descending graded lexicographic order, leading term first."""
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        n = len(self.coords)
        return render_sum(
            (coeff, monomial_factors(self.coords, unpack(exponent, n)))
            for exponent, coeff in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"EvenPoly({str(self)!r})"


def monomial_factors(names: Sequence[str], exponent: Sequence[int]) -> list[str]:
    """The factors `name` or `name^k` of a monomial, in the order of `names`."""
    return [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exponent) if k]


def render_sum(terms: Iterable[tuple[Scalar, list[str]]]) -> str:
    """The text form of (nonzero coefficient, factors) terms, of every polynomial.

    A term reads `magnitude*factor*...`, without a magnitude of 1; terms
    are joined by their signs and the empty sum reads "0".
    """
    out = ""
    for coeff, factors in terms:
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude), *factors])
        if out:
            out += f" - {body}" if coeff < 0 else f" + {body}"
        else:
            out = f"-{body}" if coeff < 0 else body
    return out or "0"


def derivative(terms: Terms, index: int, n: int) -> Terms:
    """The terms of the derivative in the coordinate at `index` of n."""
    mask, shift, step = field_bits(n, index)
    out: Terms = {}
    for e, c in terms.items():
        k = e & mask
        if k:
            out[e - step] = c * (k >> shift)
    return out


def accumulate_product(out: Terms, left: Terms, right: Terms, sign: int = 1) -> None:
    """Add sign * left * right to the term dict `out`, term by term.

    Keys whose coefficients cancel stay behind as zeros; the caller drops
    them in one pass once every product is in.
    """
    get = out.get
    for e1, c1 in left.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in right.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2


def exact_quotient(f: EvenPoly, g: EvenPoly) -> EvenPoly:
    """The polynomial q with f = q * g, or RuntimeError when g does not divide f.

    Division by the leading term in graded lexicographic order: if g divides
    f, the leading term of every remainder is a multiple of the leading term
    of g, so the first remainder term that is not one proves a nonzero
    remainder.  The divisor's terms are sorted once; the remainder's terms
    wait in a list kept sorted, largest last, since every term a step adds
    lies below the one it removes.  Each field's free top bit, set, survives
    subtracting the leading exponent iff that field divides.
    """
    if g.coords != f.coords:
        raise ValueError("polynomials live in different coordinate rings")
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    (lead, lead_coeff), *tail = g.sorted_terms()
    guards = ((1 << WIDTH * (len(f.coords) + 1)) - 1) // FIELD << WIDTH - 1
    remainder = dict(f.terms)
    pending = sorted(remainder)
    quotient: Terms = {}
    while remainder:
        top = pending.pop()
        if top not in remainder:
            continue  # cancelled after it was queued
        shift = (top | guards) - lead
        if shift & guards != guards:
            raise RuntimeError("inexact polynomial division: a remainder is left")
        shift ^= guards
        factor = divide(remainder.pop(top), lead_coeff)
        quotient[shift] = factor
        for e, c in tail:
            key = e + shift
            if key in remainder:
                value = remainder[key] - factor * c
                if value:
                    remainder[key] = value
                else:
                    del remainder[key]
            else:
                remainder[key] = -factor * c
                insort(pending, key)
    return EvenPoly._trusted(f.coords, quotient)


def monomial_exponents(count: int, max_degree: int) -> list[Exponent]:
    """All keys over `count` coordinates with total degree <= max_degree.

    Returned in ascending graded lexicographic order, so windows built from
    this list index their coefficient spaces deterministically.  Degree d
    multiplies each monomial of degree d - 1 by the coordinates from its
    last one on, so each monomial is made once.
    """
    units = [field_bits(count, k)[2] for k in range(count)]
    layer = [(0, 0)]  # (key, its last coordinate)
    keys = [0] if max_degree >= 0 else []
    for _ in range(max_degree if count else 0):
        layer = [(key + units[k], k) for key, low in layer for k in range(low, count)]
        keys += [key for key, _ in layer]
    return sorted(keys)


def embed(f: EvenPoly, coords: tuple[str, ...]) -> EvenPoly:
    """Reinterpret `f` in a larger ring containing all of its coordinates."""
    move = rekey(f.coords, coords)
    return EvenPoly._trusted(coords, {move(e): c for e, c in f.terms.items()})


def rekey(source: tuple[str, ...], target: tuple[str, ...]) -> Callable[[int], int]:
    """The map of keys over `source` to keys over `target`, a ring that holds
    all of its coordinates: a shift when `source` is a prefix of `target`,
    as positions are of the phase space, and a move of each nonzero field
    otherwise, `nonzero_fields`."""
    m, n = len(target), len(source)
    if target[:n] == source:  # every field moves up alike
        return (WIDTH * (m - n)).__rlshift__
    moves = {}  # the shift of each field over source to its shift over target
    for k, name in enumerate(source):
        if name not in target:
            raise KeyError(f"{name!r} is not a coordinate of the target ring")
        moves[WIDTH * (n - 1 - k)] = WIDTH * (m - 1 - target.index(name))
    fields = lex_bits(n)

    def move(e: Exponent) -> Exponent:
        out = e >> WIDTH * n << WIDTH * m  # the degree field
        for shift, k in nonzero_fields(e & fields):
            out |= k << moves[shift]
        return out

    return move
