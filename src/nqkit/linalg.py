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
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from fractions import Fraction

Rat = Fraction
Column = Mapping[Hashable, Rat]
Row = dict[int, Rat]


def rref(rows: Sequence[Mapping[int, Rat]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows `{column: value}`.

    Returns the nonzero reduced rows, each with a unit pivot, and their
    pivot columns in increasing order.  The input rows are not modified.
    """
    reduced: dict[int, Row] = {}  # pivot column -> row free of other pivots
    for source in rows:
        row = dict(source)
        for col in [c for c in row if c in reduced]:
            _add_multiple(row, -row[col], reduced[col])
        if not row:
            continue
        pivot = min(row)
        scale = Fraction(row[pivot])
        row = {c: v / scale for c, v in row.items()}
        for other in reduced.values():
            factor = other.get(pivot)
            if factor:
                _add_multiple(other, -factor, row)
        reduced[pivot] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def _add_multiple(target: Row, factor: Rat, source: Row) -> None:
    for col, value in source.items():
        entry = target.get(col, 0) + factor * value
        if entry:
            target[col] = entry
        else:
            del target[col]


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
