"""Exact sparse linear maps over the rationals.

A linear map is a list of columns, one per unknown, in the order of the
unknowns.  Each column is a `{key: int or Fraction}` dict holding the nonzero
coefficients of the image of that unknown, keyed by whatever labels the
target (for example `(word, exponent)` pairs of a polynomial window).
Only the keys that occur are ever stored, so no target window has to be
sized in advance.

Every question goes through one sparse row-dict Gauss-Jordan
elimination, `rref`.  Pivots are the leftmost possible columns, so the
reduced form is the unique reduced row echelon form: kernel vectors carry
one unit free variable each and particular solutions set every free
variable to zero, whatever order the rows arrive in.

`rref` eliminates fraction-free, over the integers.  Each row is first
scaled by the lcm of its denominators; a row is cleared of a pivot by
cross-multiplying with the pivot row divided by their gcd (as in
Bareiss, Math. Comp. 22, 1968), and then divided by its content, the
gcd of its entries, so the entries stay small.  The stored rows are kept
free of each other's pivots, so an incoming row is reduced in one pass,
and an index from each column to the stored rows holding it lets a new
pivot clear only those rows.  Fractions appear once, at the end, when
each row is divided by its pivot.  `vector_column` turns a vector of
polynomials times a monomial into a column or a right-hand side, and
`read_back` turns a kernel or solution vector back into polynomials, for
every solve.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .poly import EvenPoly, Exponent

Rat = Fraction
Column = Mapping[Hashable, Rat]
Row = dict[int, Rat]


def rref(rows: Sequence[Mapping[int, Rat]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows `{column: value}`.

    Returns the nonzero reduced rows, each with a unit pivot, and their
    pivot columns in increasing order.  The input rows are not modified.
    """
    reduced: dict[int, dict[int, int]] = {}  # pivot -> primitive row free of other pivots
    holders: dict[int, set[int]] = {}  # non-pivot column -> pivots of the rows holding it
    for source in rows:
        row = _integer_row(source)
        # stored rows hold no other pivot, so one pass clears them all
        for col in [c for c in row if c in reduced]:
            _eliminate(row, reduced[col], col)
        if not row:
            continue
        _make_primitive(row)
        pivot = min(row)
        for held_by in holders.pop(pivot, ()):
            other = reduced[held_by]
            _eliminate(other, row, pivot)
            _make_primitive(other)
            for col in row:
                if col in other:
                    holders.setdefault(col, set()).add(held_by)
                elif col in holders:
                    holders[col].discard(held_by)
        for col in row:
            if col != pivot:
                holders.setdefault(col, set()).add(pivot)
        reduced[pivot] = row
    pivots = sorted(reduced)
    result = []
    for p in pivots:
        row = reduced[p]
        scale = row[p]
        result.append({c: Fraction(v, scale) for c, v in row.items()})
    return result, pivots


def _integer_row(source: Mapping[int, Rat]) -> dict[int, int]:
    """`source` times the lcm of its denominators, as a dict of nonzero ints."""
    scale = lcm(*[v.denominator for v in source.values()])
    return {c: v.numerator * (scale // v.denominator) for c, v in source.items() if v}


def _eliminate(target: dict[int, int], source: dict[int, int], col: int) -> None:
    """Clear `col` from `target` by `(p/g) target - (x/g) source`, `g = gcd(x, p)`."""
    p, x = source[col], target[col]
    g = gcd(x, p)
    p, x = p // g, x // g
    if p != 1:
        for c in target:
            target[c] *= p
    for c, v in source.items():
        entry = target.get(c, 0) - x * v
        if entry:
            target[c] = entry
        else:
            del target[c]


def _make_primitive(row: dict[int, int]) -> None:
    content = gcd(*row.values())
    if content != 1:
        for c in row:
            row[c] //= content


def _rows(columns: Sequence[Column], rhs: Column | None = None) -> list[Row]:
    """The rows of the map, one per target key; `rhs` becomes the last column.

    Rows come sparsest first.  `rref` gives the same answer in any row
    order, but short rows first keep the fill-in down, whatever order the
    columns list their keys in.
    """
    by_key: dict[Hashable, Row] = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            if value:
                by_key.setdefault(key, {})[j] = value
    if rhs is not None:
        for key, value in rhs.items():
            if value:
                by_key.setdefault(key, {})[len(columns)] = value
    return sorted(by_key.values(), key=len)


def rank(columns: Sequence[Column]) -> int:
    return len(rref(_rows(columns))[1])


def kernel(columns: Sequence[Column]) -> list[Row]:
    """Basis of the kernel as sparse `{unknown: value}` vectors.

    One vector per free unknown, in increasing order, with that unknown
    set to 1 and the other free unknowns to 0.
    """
    reduced, pivots = rref(_rows(columns))
    pivot_set = set(pivots)
    basis = {
        free: {free: Fraction(1)} for free in range(len(columns)) if free not in pivot_set
    }
    for row, pivot in zip(reduced, pivots):
        for col, value in row.items():
            if col != pivot:
                basis[col][pivot] = -value
    return list(basis.values())


def solve(columns: Sequence[Column], rhs: Column) -> tuple[Row, int] | None:
    """One exact solution of `sum_j x_j columns[j] = rhs`, or None.

    The solution is a sparse `{unknown: value}` dict with every free
    unknown at zero; it comes with the kernel dimension, the dimension of
    the affine solution space.  A key of `rhs` that no column reaches
    makes the system inconsistent.
    """
    ncols = len(columns)
    reduced, pivots = rref(_rows(columns, rhs))
    if pivots and pivots[-1] == ncols:
        return None  # some row reduced to 0 = 1
    solution = {p: row[ncols] for row, p in zip(reduced, pivots) if ncols in row}
    return solution, ncols - len(pivots)


def image_in(columns: Sequence[Column], inside: Callable[[Hashable], bool]) -> int:
    """Dimension of the part of the image supported on keys with `inside(key)`.

    That part is the image of the kernel of the outside block A_out, and
    since ker A lies in ker A_out its dimension is rank A - rank A_out.
    """
    outside = [{k: v for k, v in column.items() if not inside(k)} for column in columns]
    return rank(columns) - rank(outside)


def read_back(
    coords: tuple[str, ...],
    unknowns: Sequence[tuple[Hashable, Exponent]],
    vector: Mapping[int, Rat],
) -> dict[Hashable, EvenPoly]:
    """The polynomials `{label: EvenPoly}` of a vector over `unknowns`.

    Unknown k is the monomial x^exponent, a packed key over `coords`, of
    the polynomial named by its label.  Only the labels the vector reaches
    appear, in the order it first reaches them; a missing label is zero.
    """
    terms: dict[Hashable, dict[Exponent, Rat]] = {}
    for k, value in vector.items():
        label, exponent = unknowns[k]
        terms.setdefault(label, {})[exponent] = value
    return {label: EvenPoly(coords, t) for label, t in terms.items()}


def vector_column(
    vector: Mapping[Hashable, EvenPoly], shift: Exponent = 0
) -> dict[tuple[Hashable, Exponent], Rat]:
    """The column `{(label, exponent): c}` of a `{label: EvenPoly}` vector
    times x^shift, a key over the coordinates of its entries."""
    return {
        (label, e + shift): c for label, f in vector.items() for e, c in f.terms.items()
    }
