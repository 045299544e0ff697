"""Sparse linear maps, checked against the oracle's dense elimination."""

from __future__ import annotations

import copy
import importlib.util
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from nqkit.algebroid import cohomology_h1, is_exact_one_form
from nqkit.constraints import ConstraintSet, extract_structure
from nqkit.dynamics import solve_connection
from nqkit.linalg import image_in, kernel, rank, rref, solve
from nqkit.problem import load_problem

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "tools" / "cohomology_oracle.py"
_spec = importlib.util.spec_from_file_location("cohomology_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

KEYS = [(word, (e,)) for word in ((), (0,), (0, 1)) for e in range(3)]


def inside(key) -> bool:
    return len(key[0]) < 2


def random_map(rng: random.Random) -> list[dict]:
    """Columns over a few (word, exponent) keys, often sparse, sometimes empty."""
    columns = []
    for _ in range(rng.randint(0, 7)):
        density = rng.choice((0.0, 0.2, 0.4, 0.8))
        columns.append(
            {
                key: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for key in KEYS[: rng.randint(1, len(KEYS))]
                if rng.random() < density
            }
        )
    return columns


def random_rhs(rng: random.Random, columns: list[dict]) -> dict:
    """Mostly images of random vectors, sometimes arbitrary, sometimes unreachable."""
    choice = rng.random()
    if choice < 0.5:
        rhs: dict = {}
        for column in columns:
            weight = Fraction(rng.randint(-3, 3))
            for key, value in column.items():
                rhs[key] = rhs.get(key, 0) + weight * value
        return rhs
    if choice < 0.8:
        return {key: Fraction(rng.randint(-2, 2)) for key in rng.sample(KEYS, 3)}
    reached = {key for column in columns for key in column}
    unreached = [key for key in KEYS if key not in reached]
    return {unreached[0]: Fraction(1)} if unreached else {}


def dense(columns: list[dict], keys=None) -> list[list[Fraction]]:
    """Rows of the map, one per key, as the oracle takes them."""
    if keys is None:
        keys = sorted({key for column in columns for key in column}, key=repr)
    return [[Fraction(column.get(key, 0)) for column in columns] for key in keys]


def to_list(vector: dict, ncols: int) -> list[Fraction]:
    return [Fraction(vector.get(j, 0)) for j in range(ncols)]


def apply(columns: list[dict], vector: dict) -> dict:
    image: dict = {}
    for j, weight in vector.items():
        for key, value in columns[j].items():
            image[key] = image.get(key, 0) + weight * value
    return {key: value for key, value in image.items() if value}


def random_maps(seed: int, count: int = 250) -> list[list[dict]]:
    rng = random.Random(seed)
    return [random_map(rng) for _ in range(count)]


# the old dense known cases, as sparse maps
KNOWN_MAPS = [
    [{0: 2, 1: 1}, {0: 4, 1: 2}],
    [{0: 1}, {1: 1}, {2: 1}],
    [{}, {}],
    [],
    [{}, {}, {}, {}],
]


def integer_first(value) -> bool:
    """Whether an exact answer is an int when integral, else a Fraction."""
    if value.denominator == 1:
        return type(value) is int
    return type(value) is Fraction


def test_rref_known_cases():
    reduced, pivots = rref([{0: 2, 1: 4}, {0: 1, 1: 2}])
    assert pivots == [0]
    assert reduced == [{0: Fraction(1), 1: Fraction(2)}]
    assert all(type(value) is int for value in reduced[0].values())
    reduced, _ = rref([{0: 2, 1: 3}])
    assert reduced == [{0: 1, 1: Fraction(3, 2)}]
    assert all(integer_first(value) for value in reduced[0].values())
    assert rank([{0: 1}, {1: 1}, {2: 1}]) == 3
    assert rank([{}, {}]) == 0
    assert rank([]) == 0
    # row order does not change the reduced form
    rows = [{0: 1, 2: 3}, {1: 2, 2: 1}, {0: 2, 1: 2, 2: 7}]
    assert rref(rows) == rref(rows[::-1])
    assert rows[0] == {0: 1, 2: 3}  # the input is left alone


def test_kernel_and_rank_match_the_oracle():
    for columns in random_maps(41) + KNOWN_MAPS:
        rows = dense(columns)
        expected = oracle.nullspace_basis(rows, len(columns))
        assert [to_list(v, len(columns)) for v in kernel(columns)] == expected
        assert rank(columns) == oracle.matrix_rank(rows)


def test_nullspace_annihilates_and_counts():
    for columns in random_maps(31) + KNOWN_MAPS:
        basis = kernel(columns)
        assert rank(columns) + len(basis) == len(columns)
        for vector in basis:
            assert apply(columns, vector) == {}
    # a map with no nonzero entries has everything in its kernel
    assert kernel([{}, {}, {}, {}]) == [{j: 1} for j in range(4)]
    assert kernel([]) == []


def test_solve_matches_the_oracle():
    rng = random.Random(43)
    inconsistent = unreachable = 0
    for columns in random_maps(43) + KNOWN_MAPS:
        rhs = random_rhs(rng, columns)
        ncols = len(columns)
        augmented = dense(columns + [rhs])
        result = solve(columns, rhs)
        if oracle.matrix_rank(augmented) > oracle.matrix_rank(dense(columns)):
            assert result is None
            inconsistent += 1
            reached = {key for column in columns for key in column}
            unreachable += any(key not in reached for key in rhs if rhs[key])
            continue
        assert result is not None
        solution, free = result
        assert free == ncols - oracle.matrix_rank(dense(columns))
        # the kernel vector of [A | rhs] with a unit on rhs is (-x, 1)
        last = oracle.nullspace_basis(augmented, ncols + 1)[-1]
        assert last[ncols] == 1
        assert to_list(solution, ncols) == [-value for value in last[:ncols]]
        assert apply(columns, solution) == {k: v for k, v in rhs.items() if v}
    assert inconsistent > 20 and unreachable > 5


def test_solve_round_trip():
    rng = random.Random(37)
    for columns in random_maps(37):
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(len(columns))}
        b = apply(columns, x)
        solution, _ = solve(columns, b)
        assert apply(columns, solution) == b


def test_solve_detects_inconsistency():
    assert solve([{0: 1, 1: 1}, {0: 1, 1: 1}], {0: 1, 1: 2}) is None
    assert solve([{0: 1}, {1: 1}], {0: 5, 1: 7}) == ({0: 5, 1: 7}, 0)
    assert solve([{}, {}], {0: 3}) is None  # a key that no column reaches
    assert solve([], {}) == ({}, 0)
    assert solve([], {"k": 1}) is None
    assert solve([{0: 1, 1: 1}, {0: 1, 1: 1}], {0: 2, 1: 2}) == ({0: 2}, 1)


def test_image_in_matches_explicit_construction():
    for columns in random_maps(47) + [[], [{}, {}]]:
        ncols = len(columns)
        outside_keys = [key for key in KEYS if not inside(key)]
        combos = oracle.nullspace_basis(dense(columns, outside_keys), ncols)
        images = []
        for combo in combos:
            image = apply(columns, {j: w for j, w in enumerate(combo) if w})
            assert all(inside(key) for key in image)
            images.append([image.get(key, Fraction(0)) for key in KEYS])
        assert image_in(columns, inside) == oracle.matrix_rank(images)


# `rank`, `solve` and `image_in` read the integer elimination directly; the
# answers `rref`'s unit-pivot rows give are their reference.


def rows_by_key(columns, rhs=None, keep=lambda key: True) -> list[dict]:
    """The rows of the map over the keys with `keep(key)`; `rhs` becomes the
    last column."""
    rows: dict = {}
    for j, column in enumerate(columns + ([] if rhs is None else [rhs])):
        for key, value in column.items():
            if value and keep(key):
                rows.setdefault(key, {})[j] = value
    return list(rows.values())


def rank_through_rref(columns, keep=lambda key: True) -> int:
    return len(rref(rows_by_key(columns, keep=keep))[1])


def solve_through_rref(columns, rhs):
    ncols = len(columns)
    reduced, pivots = rref(rows_by_key(columns, rhs))
    if pivots and pivots[-1] == ncols:
        return None
    solution = {p: row[ncols] for row, p in zip(reduced, pivots) if ncols in row}
    return solution, ncols - len(pivots)


def transposed(rows: list[dict]) -> list[dict]:
    """The columns of a map whose rows, keyed by their index, are `rows`."""
    ncols = max((c + 1 for row in rows for c in row), default=0)
    columns: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, value in row.items():
            columns[c][i] = value
    return columns


def test_rank_and_solve_match_the_rref_rows():
    rng = random.Random(61)
    sparse = random.Random(67)
    maps = random_maps(61) + KNOWN_MAPS
    maps += [transposed(random_sparse_rows(sparse)) for _ in range(150)]
    inconsistent = 0
    for columns in maps:
        assert rank(columns) == rank_through_rref(columns)
        rhs = random_rhs(rng, columns)
        result, expected = solve(columns, rhs), solve_through_rref(columns, rhs)
        assert result == expected
        if result is None:
            inconsistent += 1
            continue
        # same unknowns in the same order, so the read-back prints the same
        assert list(result[0].items()) == list(expected[0].items())
        assert all(integer_first(value) for value in result[0].values())
    assert 20 < inconsistent < len(maps) - 100


def test_image_in_is_rank_minus_the_outside_rank():
    everything, nothing = (lambda key: True), (lambda key: False)
    for columns in random_maps(59):
        for within in (inside, everything, nothing):
            outside_rank = rank_through_rref(columns, lambda key: not within(key))
            expected = rank_through_rref(columns) - outside_rank
            assert image_in(columns, within) == expected
    for columns in KNOWN_MAPS:
        assert image_in(columns, everything) == rank_through_rref(columns)
        assert image_in(columns, nothing) == 0
    assert image_in([], inside) == 0


def test_image_in_asks_once_per_key():
    for columns in random_maps(71):
        asked = []

        def recording(key):
            asked.append(key)
            return inside(key)

        image_in(columns, recording)
        reached = {key for column in columns for key, value in column.items() if value}
        assert sorted(asked, key=repr) == sorted(reached, key=repr)


# The Fraction Gauss-Jordan that `rref` replaced, kept as its reference.


def reference_rref(rows):
    reduced = {}  # pivot column -> row free of other pivots
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


def _add_multiple(target, factor, source):
    for col, value in source.items():
        entry = target.get(col, 0) + factor * value
        if entry:
            target[col] = entry
        else:
            del target[col]


def random_entry(rng: random.Random):
    """A nonzero int, proper Fraction, integral Fraction, True or huge value."""
    kind = rng.randrange(5)
    sign = rng.choice((-1, 1))
    if kind == 0:
        return sign * rng.randint(1, 9)
    if kind == 1:
        return Fraction(sign * rng.randint(1, 9), rng.randint(2, 7))
    if kind == 2:
        return Fraction(sign * rng.randint(1, 5) * 3, 3)
    if kind == 3:
        return True
    return Fraction(sign * (10**30 + rng.randint(-99, 99)), rng.choice((1, 7, 10**29 + 1)))


def random_sparse_rows(rng: random.Random) -> list[dict]:
    """Wide, tall or square; thin products that are rank deficient; zero and
    repeated rows."""
    nrows, ncols = rng.choice(((3, 12), (12, 3), (8, 8), (20, 6), (5, 25)))
    density = rng.choice((0.1, 0.3, 0.6))
    if rng.random() < 0.4:  # rows of B * C with B nrows x k and C k x ncols
        k = rng.randint(1, 3)
        factor = [
            {c: random_entry(rng) for c in range(ncols) if rng.random() < density}
            for _ in range(k)
        ]
        rows = []
        for _ in range(nrows):
            row: dict = {}
            for part in factor:
                weight = random_entry(rng) if rng.random() < 0.7 else 0
                for c, v in part.items():
                    row[c] = row.get(c, 0) + weight * v
            rows.append({c: v for c, v in row.items() if v})
    else:
        rows = [
            {c: random_entry(rng) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)
        ]
    rows += [{} for _ in range(rng.randint(0, 2))]
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows


def test_rref_matches_the_fraction_reference():
    rng = random.Random(53)
    deficient = 0
    for _ in range(400):
        rows = random_sparse_rows(rng)
        before = copy.deepcopy(rows)
        kinds = [[type(v) for v in row.values()] for row in rows]
        reduced, pivots = rref(rows)
        want_rows, want_pivots = reference_rref(before)
        assert pivots == want_pivots
        assert reduced == want_rows
        assert all(integer_first(v) for row in reduced for v in row.values())
        assert all(row[p] == 1 for row, p in zip(reduced, pivots))
        assert rows == before  # the input is left alone
        assert [[type(v) for v in row.values()] for row in rows] == kinds
        deficient += len(pivots) < min(len(rows), len({c for r in rows for c in r}))
    assert deficient > 100


# Every question against the Fraction reference, on small maps in every row
# order: `add` consumes the integer rows it is given, so each call must also
# leave the caller's columns, right-hand side and `rref` rows as they were.


def reference_answers(columns, rhs, within):
    """rank, kernel, solve and image_in of a map, from `reference_rref`."""
    ncols = len(columns)
    reduced, pivots = reference_rref(rows_by_key(columns))
    basis = {free: {free: 1} for free in range(ncols) if free not in pivots}
    for row, pivot in zip(reduced, pivots):
        for col, value in row.items():
            if col != pivot:
                basis[col][pivot] = -value
    augmented, augmented_pivots = reference_rref(rows_by_key(columns, rhs))
    if augmented_pivots and augmented_pivots[-1] == ncols:
        solution = None
    else:
        values = zip(augmented, augmented_pivots)
        particular = {p: row[ncols] for row, p in values if ncols in row}
        solution = particular, ncols - len(pivots)
    outside = reference_rref(rows_by_key(columns, keep=lambda key: not within(key)))
    return len(pivots), list(basis.values()), solution, len(pivots) - len(outside[1])


def small_rational_map(rng: random.Random) -> tuple[list[dict], dict]:
    """The columns of at most four rows over at most five unknowns, with
    Fraction entries, zero and repeated rows, and a right-hand side that is
    an image, arbitrary or unreachable."""
    nrows, ncols = rng.randint(1, 4), rng.randint(0, 5)
    rows = [
        {c: random_entry(rng) for c in range(ncols) if rng.random() < 0.5}
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.3:
        rows[-1] = dict(rng.choice(rows[:-1]))
    if rng.random() < 0.2:
        rows[0] = {}
    columns: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in range(ncols):
            # a row with no entry still holds its key, as an explicit zero
            columns[c][i] = row.get(c, 0)
    return columns, random_rhs_over(rng, columns, nrows)


def random_rhs_over(rng: random.Random, columns: list[dict], nrows: int) -> dict:
    choice = rng.random()
    if choice < 0.4:
        rhs: dict = {}
        for column in columns:
            weight = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for key, value in column.items():
                rhs[key] = rhs.get(key, 0) + weight * value
        return rhs
    if choice < 0.8:
        return {i: random_entry(rng) for i in range(nrows) if rng.random() < 0.6}
    return {nrows: 1}  # a key that no column reaches


def reordered(columns: list[dict], rhs: dict, order) -> tuple[list[dict], dict]:
    """The same map with its rows, the keys, met in `order`; a key of `rhs`
    that no column holds comes last."""
    order = list(order) + [key for key in rhs if key not in order]
    return (
        [{key: column[key] for key in order if key in column} for column in columns],
        {key: rhs[key] for key in order if key in rhs},
    )


def test_every_question_matches_the_reference_in_every_row_order():
    rng = random.Random(79)
    solvable = unsolvable = 0
    for _ in range(120):
        columns, rhs = small_rational_map(rng)
        keys = sorted({key for column in columns for key in column})
        within = lambda key: key % 2 == 0  # noqa: E731
        want = reference_answers(columns, rhs, within)
        solvable += want[2] is not None
        unsolvable += want[2] is None
        for order in permutations(keys):
            cols, b = reordered(columns, rhs, order)
            before = copy.deepcopy((cols, b))
            rows = rows_by_key(cols)
            rows_before = copy.deepcopy(rows)
            assert rank(cols) == want[0]
            basis, solution = kernel(cols), solve(cols, b)
            assert basis == want[1]
            assert solution == want[2]
            answers = basis + ([solution[0]] if solution else [])
            assert all(integer_first(v) for answer in answers for v in answer.values())
            assert image_in(cols, within) == want[3]
            assert rref(rows) == reference_rref(rows_before)
            assert (cols, b) == before
            assert rows == rows_before
            assert [[type(v) for v in r.values()] for r in rows] == [
                [type(v) for v in r.values()] for r in rows_before
            ]
    assert solvable > 30 and unsolvable > 30


def integral_fractions(polys) -> list:
    """The coefficients of `polys` that are Fractions of denominator 1."""
    return [
        c
        for f in polys
        for c in f.terms.values()
        if type(c) is Fraction and c.denominator == 1
    ]


def test_solve_answers_are_integer_first():
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    so3 = load_problem(corpus / "so3_action.json")
    report = cohomology_h1(so3.data, 4)
    closed = [f for vector in report.closed_basis for f in vector]
    assert sum(len(f.terms) for f in closed) > 100
    assert integral_fractions(closed) == []
    # the zero connection is the so(3) answer, so a connection with a term
    # is read as well
    affine = load_problem(corpus / "rank2_line_affine.json")
    for problem in (so3, affine):
        omega = solve_connection(problem.data, problem.pack, 2).omega
        assert integral_fractions(omega.values()) == []
    assert omega
    primitive = is_exact_one_form(affine.data, affine.constraints.alpha, 2)
    assert primitive is not None and not primitive.is_zero
    assert integral_fractions([primitive]) == []
    extracted = extract_structure(ConstraintSet(so3.data).phis).data
    structure = [
        f for entries in extracted.nonzero_structure.values() for _, f in entries
    ]
    assert structure and integral_fractions(structure) == []
