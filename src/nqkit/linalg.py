"""Exact sparse linear maps over the rationals.

A linear map is a list of columns, one per unknown, in the order of the
unknowns.  Each column is a `{key: int or Fraction}` dict holding the nonzero
coefficients of the image of that unknown, keyed by whatever labels the
target (for example `(word, exponent)` pairs of a polynomial window).
Only the keys that occur are ever stored, so no target window has to be
sized in advance.

Every question goes through one sparse row-dict Gauss-Jordan
elimination, `_Elimination`.  Pivots are the leftmost possible columns,
so the reduced form is the unique reduced row echelon form: kernel
vectors carry one unit free variable each and particular solutions set
every free variable to zero, whatever order the rows arrive in.

The elimination is fraction-free, over the integers.  Each row is first
scaled by the lcm of its denominators; a row is cleared of a pivot by
cross-multiplying with the pivot row divided by their gcd (as in
Bareiss, Math. Comp. 22, 1968), and then divided by its content, the
gcd of its entries, so the entries stay small.  The stored rows are kept
free of each other's pivots, so an incoming row is reduced in one pass,
and an index from each column to the stored rows holding it lets a new
pivot clear only those rows.

Each question reads only what it needs.  `rref` divides each stored row
by its pivot into `Fraction`s, for `kernel`; `rank` counts the pivots;
`solve` builds one `Fraction` per pivot row, its right-hand-side entry.
`image_in` feeds the rows outside the window first, so the pivots the
inside rows then add to the same state are rank A - rank A_out.
`vector_column` turns a vector of polynomials times a monomial into a
column or a right-hand side, and `read_back` turns a kernel or solution
vector back into polynomials, for every solve.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .poly import EvenPoly, Exponent

Rat = Fraction
Column = Mapping[Hashable, Rat]
Row = dict[int, Rat]


class _Elimination:
    """Sparse Gauss-Jordan state over the integers.

    `reduced` maps each pivot to its primitive row, kept free of every
    other pivot; `holders` maps each non-pivot column to the pivots of the
    stored rows holding it.  `add` takes rows into the same state, so a
    second batch is reduced against the first without eliminating it again.
    """

    def __init__(self, rows: Iterable[Mapping[int, Rat]]) -> None:
        self.reduced: dict[int, dict[int, int]] = {}
        self.holders: dict[int, set[int]] = {}
        self.add(rows)

    def add(self, rows: Iterable[Mapping[int, Rat]]) -> None:
        """Reduce `rows`, sparsest first, into the state.

        The reduced form does not depend on the row order, but short rows
        first keep the fill-in down.  The input rows are not modified.
        """
        reduced, holders = self.reduced, self.holders
        for source in sorted(rows, key=len):
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


def rref(rows: Sequence[Mapping[int, Rat]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows `{column: value}`.

    Returns the nonzero reduced rows, each with a unit pivot, and their
    pivot columns in increasing order.  The input rows are not modified.
    """
    reduced = _Elimination(rows).reduced
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


def _rows(columns: Sequence[Column], rhs: Column | None = None) -> dict[Hashable, Row]:
    """The rows of the map, one per target key; `rhs` becomes the last column."""
    by_key: dict[Hashable, Row] = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            if value:
                by_key.setdefault(key, {})[j] = value
    if rhs is not None:
        for key, value in rhs.items():
            if value:
                by_key.setdefault(key, {})[len(columns)] = value
    return by_key


def rank(columns: Sequence[Column]) -> int:
    return len(_Elimination(_rows(columns).values()).reduced)


def kernel(columns: Sequence[Column]) -> list[Row]:
    """Basis of the kernel as sparse `{unknown: value}` vectors.

    One vector per free unknown, in increasing order, with that unknown
    set to 1 and the other free unknowns to 0.
    """
    reduced, pivots = rref(list(_rows(columns).values()))
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
    reduced = _Elimination(_rows(columns, rhs).values()).reduced
    if ncols in reduced:
        return None  # some row reduced to 0 = 1
    # with the free unknowns at zero, pivot row p reads row[p] x_p = row[ncols]
    solution = {
        p: Fraction(reduced[p][ncols], reduced[p][p])
        for p in sorted(reduced)
        if ncols in reduced[p]
    }
    return solution, ncols - len(reduced)


def image_in(columns: Sequence[Column], inside: Callable[[Hashable], bool]) -> int:
    """Dimension of the part of the image supported on keys with `inside(key)`.

    That part is the image of the kernel of the outside block A_out, and
    since ker A lies in ker A_out its dimension is rank A - rank A_out.
    The outside rows are reduced first, so the pivots the inside rows add
    to the same elimination are that difference.
    """
    outside: list[Row] = []
    within: list[Row] = []
    for key, row in _rows(columns).items():
        (within if inside(key) else outside).append(row)
    elimination = _Elimination(outside)
    rank_outside = len(elimination.reduced)
    elimination.add(within)
    return len(elimination.reduced) - rank_outside


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
