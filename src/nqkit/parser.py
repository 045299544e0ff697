"""Parser for the polynomial expression language of problem files.

Grammar, whitespace insensitive:

    expr  := term (('+' | '-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | '+' unary | power
    power := atom ('^' INT)?
    atom  := INT ('/' INT)? | NAME | '(' expr ')'

INT is a run of ASCII digits and NAME is `[A-Za-z_][A-Za-z_0-9]*`.
Multiplication is always explicit (`2*x`, never `2x`).  `/` forms exact
rational constants and is allowed only between two integer literals.
Exponents are nonnegative integer literals of at most `MAX_EXPONENT`, and
parentheses and unary signs nest at most `MAX_NESTING` deep.  A product
or power of total degree past `MAX_DEGREE` is refused.  Before a
product or a power is expanded, its number of terms is bounded: by the
product of the factors' term counts (for a power, the number of monomials
of its degree in the base's terms) and by the number of monomials of the
result's total degree in the ring's coordinates.  A bound past `MAX_TERMS`
is refused at the operator.  So hostile input fails fast instead of
expanding for minutes or exhausting the stack.
Floats do not exist in this language; a `.` anywhere is a tokenizer error.
Every error carries the offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .poly import EvenPoly, Rat

MAX_NESTING = 100
MAX_EXPONENT = 64
# `(x^64)^64`; with it, no packed exponent can carry (see poly.WIDTH)
MAX_DEGREE = 4096
# far above every expression of the corpus, the tests and the benchmark
# (at most 4 terms), and low enough that no single product near it takes a
# noticeable time to expand
MAX_TERMS = 2000


class ParseError(ValueError):
    """Malformed expression; `position` is a 0-based index into the text."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind  # "int" | "name" | "op" | "end"
        self.text = text
        self.position = position


# ASCII digits only: `\d` would also match other scripts' decimal digits,
# which int() converts
_INT_RE = re.compile(r"[0-9]+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        match = _INT_RE.match(text, pos)
        if match:
            tokens.append(_Token("int", match.group(), pos))
            pos = match.end()
            continue
        match = _NAME_RE.match(text, pos)
        if match:
            tokens.append(_Token("name", match.group(), pos))
            pos = match.end()
            continue
        raise ParseError(pos, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], coords: tuple[str, ...]):
        self.tokens = tokens
        self.coords = coords
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in symbols

    def parse(self) -> EvenPoly:
        if self.peek().kind == "end":
            raise ParseError(self.peek().position, "empty expression")
        result = self.expr()
        trailing = self.peek()
        if trailing.kind != "end":
            raise ParseError(trailing.position, f"unexpected {trailing.text!r}")
        return result

    def expr(self) -> EvenPoly:
        result = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> EvenPoly:
        result = self.unary()
        while True:
            if self.at_op("*"):
                op = self.advance()
                factor = self.unary()
                count = len(result.terms) * len(factor.terms)
                degree = result.total_degree() + factor.total_degree()
                self.budget(op, "product", count, degree)
                result = result * factor
            elif self.at_op("/"):
                # rational literals are consumed whole inside atom()
                raise ParseError(
                    self.peek().position,
                    "'/' is only allowed between integer literals",
                )
            else:
                return result

    def unary(self) -> EvenPoly:
        # every parenthesis and sign passes through here once
        if self.depth == MAX_NESTING:
            raise ParseError(
                self.peek().position, f"nesting deeper than {MAX_NESTING} levels"
            )
        self.depth += 1
        if self.at_op("-"):
            self.advance()
            result = -self.unary()
        elif self.at_op("+"):
            self.advance()
            result = self.unary()
        else:
            result = self.power()
        self.depth -= 1
        return result

    def power(self) -> EvenPoly:
        base = self.atom()
        if self.at_op("^"):
            op = self.advance()
            exponent = self.peek()
            if exponent.kind != "int":
                raise ParseError(
                    exponent.position, "exponent must be a nonnegative integer literal"
                )
            self.advance()
            power = _int_literal(exponent)
            if power > MAX_EXPONENT:
                raise ParseError(
                    exponent.position, f"exponent larger than {MAX_EXPONENT}"
                )
            # monomials of degree `power` in the base's terms
            count = comb(len(base.terms) + power - 1, power) if base.terms else 0
            self.budget(op, "power", count, power * base.total_degree())
            return base ** power
        return base

    def budget(self, op: _Token, what: str, count: int, degree: int) -> None:
        """Refuse a product or power past `MAX_DEGREE` or `MAX_TERMS`.

        `count` bounds the terms by the factors' terms; the monomials of at
        most the result's total degree in the ring's coordinates bound them
        too.
        """
        if degree > MAX_DEGREE:
            raise ParseError(
                op.position,
                f"the {what} has total degree {degree}, "
                f"more than the bound of {MAX_DEGREE}",
            )
        n = len(self.coords)
        bound = count if count <= MAX_TERMS else min(count, comb(n + degree, n))
        if bound > MAX_TERMS:
            raise ParseError(
                op.position,
                f"the {what} may have {bound} terms, "
                f"more than the budget of {MAX_TERMS}",
            )

    def atom(self) -> EvenPoly:
        token = self.advance()
        if token.kind == "int":
            numerator = _int_literal(token)
            if self.at_op("/"):
                self.advance()
                denom = self.peek()
                if denom.kind != "int":
                    raise ParseError(denom.position, "expected an integer after '/'")
                self.advance()
                denominator = _int_literal(denom)
                if denominator == 0:
                    raise ParseError(denom.position, "zero denominator")
                return EvenPoly.const(self.coords, Fraction(numerator, denominator))
            return EvenPoly.const(self.coords, numerator)
        if token.kind == "name":
            if token.text not in self.coords:
                raise ParseError(token.position, f"unknown coordinate {token.text!r}")
            return EvenPoly.variable(self.coords, token.text)
        if token.kind == "op" and token.text == "(":
            inner = self.expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                raise ParseError(closing.position, "expected ')'")
            self.advance()
            return inner
        if token.kind == "end":
            raise ParseError(token.position, "unexpected end of expression")
        raise ParseError(token.position, f"unexpected {token.text!r}")


def _int_literal(token: _Token) -> int:
    try:
        return int(token.text)
    except ValueError:  # past the interpreter's digit limit for int()
        raise ParseError(token.position, "integer literal too long") from None


def parse_poly(text: str, coords: tuple[str, ...] | list[str]) -> EvenPoly:
    """Parse `text` into an EvenPoly over the given coordinates."""
    return _Parser(_tokenize(text), tuple(coords)).parse()


_RATIONAL_RE = re.compile(r"^[+-]?([0-9]+)(?:/([0-9]+))?$")


def rational_from_string(text: str) -> Rat:
    """Exact scalar from 'a' or 'a/b' with integer a and positive integer b."""
    stripped = text.strip()
    match = _RATIONAL_RE.match(stripped)
    if match is None:
        raise ParseError(0, f"not an exact rational literal: {text!r}")
    if match.group(2) is not None and int(match.group(2)) == 0:
        raise ParseError(0, f"zero denominator in {text!r}")
    return Fraction(stripped)
