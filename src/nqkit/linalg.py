"""Exact sparse linear maps over the rationals.

A linear map is a list of columns, one per unknown, in the order of the
unknowns.  Each column is a `{key: int or Fraction}` dict holding the nonzero
coefficients of the image of that unknown, keyed by whatever labels the
target (for example `(word, exponent)` pairs of a polynomial window).
Only the keys that occur are ever stored, so no target window has to be
sized in advance.

Every question goes through one sparse row-dict elimination,
`_Elimination`.  Pivots are the leftmost possible columns, so the
reduced form is the unique reduced row echelon form: kernel vectors
carry one unit free variable each and particular solutions set every
free variable to zero, whatever order the rows arrive in.

The elimination is fraction-free, over the integers.  `_rows` transposes
the columns into rows and scales each row that holds a `Fraction` by the
lcm of its denominators on the way, so every row is made integral once,
and the elimination then consumes those rows in place.  A row is cleared
of a pivot by cross-multiplying with the pivot row divided by their gcd
(as in Bareiss, Math. Comp. 22, 1968).  An incoming row is reduced only
until its least column is not yet a pivot, and stored there divided by
its content, the gcd of its entries, so the entries stay small, and
signed so its pivot is positive: the stored rows are in echelon form,
each pivot the least column of its row.  `back_substitute` then clears
the other pivot columns from every stored row, from the highest pivot
down, which gives the reduced form.

Each question reads only what it needs.  `rank` and `image_in` count
pivots of the echelon form; `image_in` feeds the rows outside the window
first, so the pivots the inside rows then add to the same state are
rank A - rank A_out.  Only `rref` (and so `kernel`) and `solve` back
substitute: `rref` divides each row by its pivot, and `solve` its
right-hand-side entry by its pivot.  Every answer is integer-first: an
integral value is an `int`, any other a `Fraction` (`poly.divide`).
`vector_column` turns a vector of polynomials times a monomial into a
column or a right-hand side, and `read_back` turns a kernel or solution
vector back into polynomials, for every solve.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .poly import EvenPoly, Exponent, divide

Rat = Fraction
Column = Mapping[Hashable, Rat]
Row = dict[int, Rat]


class _Elimination:
    """Sparse echelon state over the integers.

    `reduced` maps each pivot to its primitive row, whose least column it
    is, with a positive entry there.  `add` takes rows into the same
    state, so a second batch is reduced against the first without
    eliminating it again.
    """

    def __init__(self, rows: Iterable[dict[int, int]]) -> None:
        self.reduced: dict[int, dict[int, int]] = {}
        self.add(rows)

    def add(self, rows: Iterable[dict[int, int]]) -> None:
        """Reduce the integer rows `rows`, sparsest first, into the state,
        consuming them: a row is stored as it is, once no stored row has
        its least column as pivot.

        The reduced form does not depend on the row order, but short rows
        first keep the fill-in down.
        """
        reduced = self.reduced
        for row in sorted(rows, key=len):
            while row:
                pivot = min(row)
                stored = reduced.get(pivot)
                if stored is None:
                    _make_primitive(row, pivot)
                    reduced[pivot] = row
                    break
                _eliminate(row, stored, pivot)

    def back_substitute(self) -> None:
        """Clear every other pivot column from each stored row.

        From the highest pivot down: the rows of higher pivots already
        hold no pivot but their own, so clearing them from a row adds no
        pivot column back, and one pass per row gives the reduced form.
        """
        reduced = self.reduced
        for pivot in sorted(reduced, reverse=True):
            row = reduced[pivot]
            held = [c for c in row if c != pivot and c in reduced]
            if held:
                for col in held:
                    _eliminate(row, reduced[col], col)
                _make_primitive(row, pivot)


def rref(rows: Sequence[Mapping[int, Rat]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows `{column: value}`.

    Returns the nonzero reduced rows, each with a unit pivot, and their
    pivot columns in increasing order.  The input rows are not modified.
    """
    elimination = _Elimination([_integer_row(row) for row in rows])
    elimination.back_substitute()
    reduced = elimination.reduced
    pivots = sorted(reduced)
    result = []
    for p in pivots:
        row = reduced[p]
        scale = row[p]
        if scale != 1:
            row = {c: divide(v, scale) for c, v in row.items()}
        result.append(row)
    return result, pivots


def _integer_row(source: Mapping[int, Rat]) -> dict[int, int]:
    """`source` times the lcm of its denominators, as a new dict of nonzero ints."""
    for v in source.values():
        if type(v) is not int or not v:
            break
    else:
        return dict(source)
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


def _make_primitive(row: dict[int, int], pivot: int) -> None:
    """Divide `row` by its content, signed so that its pivot is positive: a
    pivot row then scales the rows it clears by a positive factor."""
    content = gcd(*row.values())
    if row[pivot] < 0:
        content = -content
    if content != 1:
        for c in row:
            row[c] //= content


def _rows(columns: Sequence[Column], rhs: Column | None = None) -> dict[Hashable, Row]:
    """The integer rows of the map, one per target key; `rhs` becomes the
    last column.  A row that holds a non-int is scaled by the lcm of its
    denominators, so every row is a fresh dict of nonzero ints."""
    by_key: dict[Hashable, Row] = {}
    scaled = set()
    for j, column in enumerate([*columns, rhs] if rhs is not None else columns):
        for key, value in column.items():
            if value:
                by_key.setdefault(key, {})[j] = value
                if type(value) is not int:
                    scaled.add(key)
    for key in scaled:
        by_key[key] = _integer_row(by_key[key])
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
    basis = {free: {free: 1} for free in range(len(columns)) if free not in pivot_set}
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
    elimination = _Elimination(_rows(columns, rhs).values())
    reduced = elimination.reduced
    if ncols in reduced:
        return None  # some row reduced to 0 = 1
    elimination.back_substitute()
    # with the free unknowns at zero, pivot row p reads row[p] x_p = row[ncols]
    solution = {
        p: divide(reduced[p][ncols], reduced[p][p])
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
