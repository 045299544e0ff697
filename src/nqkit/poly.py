"""Sparse exact polynomials over named commuting coordinates.

Coefficients are `fractions.Fraction` throughout: the whole engine runs on
exact rational arithmetic and nothing downstream ever sees a float.  A
polynomial stores a mapping from exponent tuples (one slot per coordinate) to
coefficients with no zero coefficient, so equality of the mappings is equality
of polynomials.

The public constructor strips zero coefficients from whatever it is given.
Negation, scalar multiplication and addition keep the invariant themselves:
negating or scaling a nonzero coefficient by a nonzero scalar cannot give
zero, and a sum drops exactly the keys whose coefficients cancel.  They build
their results with the internal `EvenPoly._trusted`, which skips the filter;
it is not for callers outside this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

Rat = Fraction
Exponent = tuple[int, ...]
Terms = dict[Exponent, Rat]
Scalar = Rat | int


def as_rat(value: Scalar) -> Rat:
    """Coerce an exact scalar to Fraction, rejecting floats outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def term_sort_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Graded lexicographic key: total degree first, then the exponent tuple."""
    return (sum(exponent), exponent)


@dataclass(frozen=True)
class EvenPoly:
    """Polynomial with Fraction coefficients in a fixed tuple of coordinates."""

    coords: tuple[str, ...]
    terms: Terms

    def __post_init__(self) -> None:
        # stored form never contains zero coefficients, so dict equality works
        object.__setattr__(
            self, "terms", {e: c for e, c in self.terms.items() if c != 0}
        )

    @classmethod
    def _trusted(cls, coords: tuple[str, ...], terms: Terms) -> EvenPoly:
        """Wrap terms that already hold no zero coefficient, without filtering."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coords", coords)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def zero(cls, coords: tuple[str, ...]) -> EvenPoly:
        return cls(coords, {})

    @classmethod
    def const(cls, coords: tuple[str, ...], value: Scalar) -> EvenPoly:
        return cls(coords, {(0,) * len(coords): as_rat(value)})

    @classmethod
    def variable(cls, coords: tuple[str, ...], name: str) -> EvenPoly:
        if name not in coords:
            raise KeyError(f"{name!r} is not a coordinate of this ring")
        index = coords.index(name)
        exponent = tuple(int(i == index) for i in range(len(coords)))
        return cls(coords, {exponent: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Rat:
        return self.terms.get((0,) * len(self.coords), Fraction(0))

    def _index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a coordinate of this ring") from None

    def _coerce(self, other: EvenPoly | Scalar) -> EvenPoly:
        if isinstance(other, EvenPoly):
            if other.coords != self.coords:
                raise ValueError("polynomials live in different coordinate rings")
            return other
        return EvenPoly.const(self.coords, other)

    def __add__(self, other: EvenPoly | Scalar) -> EvenPoly:
        other = self._coerce(other)
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
        return self + (-self._coerce(other))

    def __rsub__(self, other: EvenPoly | Scalar) -> EvenPoly:
        return self._coerce(other) - self

    def __mul__(self, other: EvenPoly | Scalar) -> EvenPoly:
        if not isinstance(other, EvenPoly):
            scalar = as_rat(other)
            if not scalar:
                return EvenPoly.zero(self.coords)
            return EvenPoly._trusted(
                self.coords, {e: c * scalar for e, c in self.terms.items()}
            )
        if other.coords != self.coords:
            raise ValueError("polynomials live in different coordinate rings")
        terms: Terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return EvenPoly(self.coords, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> EvenPoly:
        return self * (Fraction(1) / as_rat(scalar))

    def __pow__(self, n: int) -> EvenPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = EvenPoly.const(self.coords, 1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, name: str) -> EvenPoly:
        index = self._index(name)
        terms: Terms = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            lowered = e[:index] + (k - 1,) + e[index + 1 :]
            terms[lowered] = terms.get(lowered, Fraction(0)) + c * k
        return EvenPoly(self.coords, terms)

    def evaluate(self, point: Mapping[str, Scalar]) -> Rat:
        missing = [name for name in self.coords if name not in point]
        if missing:
            raise KeyError(f"point is missing coordinates {missing}")
        values = [as_rat(point[name]) for name in self.coords]
        total = Fraction(0)
        for e, c in self.terms.items():
            product = c
            for value, k in zip(values, e):
                if k:
                    product *= value**k
            total += product
        return total

    def substitute(self, images: Mapping[str, EvenPoly | Scalar]) -> EvenPoly:
        """Replace coordinates by polynomials of the same ring; unmapped ones stay."""
        base = [
            self._coerce(images[name])
            if name in images
            else EvenPoly.variable(self.coords, name)
            for name in self.coords
        ]
        result = EvenPoly.zero(self.coords)
        for e, c in self.terms.items():
            term = EvenPoly.const(self.coords, c)
            for image, k in zip(base, e):
                if k:
                    term = term * image**k
            result = result + term
        return result

    def total_degree(self) -> int:
        """Maximal total degree over the terms; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        index = self._index(name)
        return max((e[index] for e in self.terms), default=0)

    def coefficient(self, exponent: Exponent) -> Rat:
        return self.terms.get(tuple(exponent), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Rat]]:
        """Terms in descending graded lexicographic order, leading term first."""
        return sorted(
            self.terms.items(), key=lambda item: term_sort_key(item[0]), reverse=True
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[tuple[str, str]] = []
        for exponent, coeff in self.sorted_terms():
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.coords, exponent)
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

    def __repr__(self) -> str:
        return f"EvenPoly({str(self)!r})"


def monomial_exponents(count: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples over `count` slots with total degree <= max_degree.

    Returned in ascending graded lexicographic order, so windows built from
    this list index their coefficient spaces deterministically.
    """
    if max_degree < 0:
        return []
    result: list[Exponent] = []

    def build(position: int, left: int, prefix: list[int]) -> None:
        if position == count:
            result.append(tuple(prefix))
            return
        for k in range(left + 1):
            prefix.append(k)
            build(position + 1, left - k, prefix)
            prefix.pop()

    build(0, max_degree, [])
    return sorted(result, key=term_sort_key)


def embed(f: EvenPoly, coords: tuple[str, ...]) -> EvenPoly:
    """Reinterpret `f` in a larger ring containing all of its coordinates."""
    indices = []
    for name in f.coords:
        if name not in coords:
            raise KeyError(f"{name!r} is not a coordinate of the target ring")
        indices.append(coords.index(name))
    terms: Terms = {}
    for e, c in f.terms.items():
        new = [0] * len(coords)
        for index, k in zip(indices, e):
            new[index] = k
        terms[tuple(new)] = c
    return EvenPoly(coords, terms)
