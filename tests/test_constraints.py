"""Constraint closure, structure extraction and reducibility diagnostics."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from nqkit import constraints
from nqkit.constraints import (
    ConstraintSet,
    check_first_class,
    decompose_fiber_affine,
    extract_structure,
    generic_rank,
    irreducibility_probe,
)
from nqkit.graded import GradedContext, extended_context
from nqkit.linalg import rank
from nqkit.poly import EvenPoly
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS, WARN
from tests.test_algebroid import (
    abelian_algebroid,
    broken_jacobi,
    nilpotent_bundle,
    rank2_line,
    so3_action,
)
from tests.reference_forms import evaluate
from tests.test_generated_frames import gen
from tests.test_poly import random_poly, ring

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def abelian_r2():
    coords, g = ring(["x1", "x2"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    return abelian_algebroid(coords, [[one, zero], [zero, one]])


def magnetic_plane(b):
    coords, g = ring(["x1", "x2"])
    entry = EvenPoly.const(coords, b)
    zero = EvenPoly.zero(coords)
    return ((zero, entry), (-entry, zero))


# construction


def test_build_so3_angular_momenta():
    data = so3_action()
    cs = ConstraintSet(data)
    ctx = cs.ctx
    expected = ctx.lift(data.anchor[0][1]) * ctx.var("p_x2") + ctx.lift(
        data.anchor[0][2]
    ) * ctx.var("p_x3")
    assert cs.phis[0] == expected
    assert cs.degenerate == ()
    assert cs.rank == 3


def test_build_affine_magnetic_plane():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), 3 * g["x1"])
    cs = ConstraintSet(data, alpha=alpha, magnetic=magnetic_plane(3))
    assert cs.phis[0] == cs.ctx.var("p_x1")
    assert cs.phis[1] == cs.ctx.var("p_x2") + 3 * cs.ctx.var("x1")
    assert cs.ctx.twist is not None
    # the twist carries minus the magnetic component
    assert cs.ctx.twist[0][1] == EvenPoly.const(cs.ctx.even_names, -3)


def test_build_flags_degenerate_constraints():
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.zero(coords)]])
    cs = ConstraintSet(data)
    assert cs.degenerate == (0,)
    assert any("degenerate" in note for note in check_first_class(cs).notes)


def test_build_rejects_bad_affine_part():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    _, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        ConstraintSet(data, alpha=[h["y"], h["y"]])
    with pytest.raises(ValueError, match="alpha must have 2 components"):
        ConstraintSet(
            data, alpha=[EvenPoly.zero(coords)] * 2 + [EvenPoly.const(coords, 1)]
        )
    with pytest.raises(ValueError, match="twist must be antisymmetric"):
        ConstraintSet(data, magnetic=[[g["x1"], g["x1"]], [g["x1"], g["x1"]]])
    # a rank-1 frame on the plane: alpha has one component, B is 2 x 2
    zero = EvenPoly.zero(coords)
    line = abelian_algebroid(coords, [[EvenPoly.const(coords, 1), zero]])
    with pytest.raises(ValueError, match="alpha must have 1 components"):
        ConstraintSet(line, alpha=[zero, EvenPoly.const(coords, 1)])
    with pytest.raises(ValueError, match="over the base ring"):
        ConstraintSet(line, alpha=[h["y"]])
    with pytest.raises(ValueError, match="magnetic must be 2 x 2"):
        ConstraintSet(line, magnetic=[[zero, zero]])
    with pytest.raises(ValueError, match="magnetic must be 2 x 2 over the base ring"):
        ConstraintSet(line, magnetic=[[h["y"], h["y"]], [h["y"], h["y"]]])
    with pytest.raises(ValueError, match="twist must be antisymmetric"):
        ConstraintSet(line, magnetic=[[zero, g["x1"]], [g["x1"], zero]])
    with pytest.raises(ValueError, match="twist must be antisymmetric"):
        ConstraintSet(line, magnetic=[[g["x1"], zero], [zero, zero]])


def test_decompose_fiber_affine_reads_alpha_and_rho_over_the_positions():
    ctx = extended_context(("x1", "x2"), 2)
    x1, x2 = ctx.var("x1"), ctx.var("x2")
    p1, p2 = ctx.var("p_x1"), ctx.var("p_x2")
    coords, g = ring(["x1", "x2"])
    alpha, rho = decompose_fiber_affine(ctx, x1 * x2 * p1 - 3 * p2 + x2 - 1)
    assert alpha == g["x2"] - 1
    assert rho == [g["x1"] * g["x2"], EvenPoly.const(coords, -3)]
    alpha, rho = decompose_fiber_affine(ctx, ctx.zero())
    zero = EvenPoly.zero(coords)
    assert (alpha, rho) == (zero, [zero, zero])
    # every constraint of a corpus file comes back as its frame data
    cs = load_problem(CORPUS / "rank2_line_affine.json").constraints
    for a, phi in enumerate(cs.phis):
        assert decompose_fiber_affine(cs.ctx, phi) == (
            cs.alpha[a],
            list(cs.data.anchor[a]),
        )


def test_constraint_set_rejects_non_affine_members():
    # a pure square, on a phase space without ghosts, is no constraint of a
    # frame: reading it back, alone or as a member of a set, is refused
    ctx = extended_context(("x",), 0)
    square = ctx.var("p_x") * ctx.var("p_x")
    with pytest.raises(ValueError, match="not affine"):
        decompose_fiber_affine(ctx, square)
    with pytest.raises(ValueError, match="not affine"):
        extract_structure([ctx.var("p_x"), square])


def test_decompose_fiber_affine_errors():
    ctx = extended_context(("x",), 1)
    p, xi = ctx.var("p_x"), ctx.var("xi_1")
    with pytest.raises(ValueError, match="constraint has odd content"):
        decompose_fiber_affine(ctx, p + xi)
    with pytest.raises(ValueError, match="not affine in the momenta"):
        decompose_fiber_affine(ctx, p + ctx.var("x") * p**2)
    unpaired = GradedContext(
        even=[("x", 0), ("p_x", 0), ("t", 0)], pairs_even=[("p_x", "x")]
    )
    with pytest.raises(
        ValueError, match="constraint depends on unpaired coordinate 't'"
    ):
        decompose_fiber_affine(unpaired, unpaired.var("p_x") * unpaired.var("t"))


# first-class verification


def test_first_class_so3():
    report = check_first_class(ConstraintSet(so3_action()))
    assert report.status == PASS
    assert report.residuals == []


def test_first_class_affine_line():
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    report = check_first_class(ConstraintSet(rank2_line(), alpha=alpha))
    assert report.status == PASS


def test_first_class_magnetic_compensation():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), 3 * g["x1"])
    closed = check_first_class(
        ConstraintSet(data, alpha=alpha, magnetic=magnetic_plane(3))
    )
    assert closed.status == PASS
    # without the magnetic twist the same affine part fails to close
    open_report = check_first_class(ConstraintSet(data, alpha=alpha))
    assert open_report.status == FAIL
    assert open_report.residuals == [("bracket[a=1,b=2]", "3")]


def test_first_class_pure_magnetic_fails():
    report = check_first_class(
        ConstraintSet(abelian_r2(), magnetic=magnetic_plane(3))
    )
    assert report.status == FAIL
    assert report.residuals == [("bracket[a=1,b=2]", "-3")]


def test_first_class_broken_fixture():
    report = check_first_class(ConstraintSet(broken_jacobi()))
    assert report.status == FAIL
    named = dict(report.residuals)
    assert named["bracket[a=1,b=2]"] == "p_x"
    assert named["bracket[a=2,b=3]"] == "-x*p_x"
    assert len(named) == 2


# structure extraction


def test_extract_round_trip_so3():
    data = so3_action()
    result = extract_structure(ConstraintSet(data).phis)
    assert result.feasible
    assert result.ansatz_degree == 0
    assert result.solution_dim == 0
    assert result.data == data
    assert result.axioms.status == PASS


def test_extract_line_pair():
    ctx = extended_context(("x",), 0)
    p, x = ctx.var("p_x"), ctx.var("x")
    result = extract_structure([p, x * p])
    assert result.feasible
    data = result.data
    coords, g = ring(["x"])
    assert data.anchor[0][0] == EvenPoly.const(coords, 1)
    assert data.anchor[1][0] == g["x"]
    one = EvenPoly.const(coords, 1)
    assert data.nonzero_structure == {(0, 1): [(0, one)], (1, 0): [(0, -one)]}


def test_extract_commuting_momenta():
    ctx = extended_context(("x1", "x2"), 0)
    result = extract_structure([ctx.var("p_x1"), ctx.var("p_x2")])
    assert result.feasible
    assert result.data.nonzero_structure == {}
    assert any("full generic rank" in note for note in result.notes)
    assert result.axioms.status == PASS


def test_extract_exact_infeasibility():
    # {p_1, x^1 p_2} = p_2 is not a polynomial multiple of x^1 p_2
    ctx = extended_context(("x1", "x2"), 0)
    phis = [ctx.var("p_x1"), ctx.var("x1") * ctx.var("p_x2")]
    result = extract_structure(phis, ansatz_degree=3)
    assert not result.feasible
    assert result.data is None
    assert any("degree <= 3" in note for note in result.notes)


def test_extract_rejects_affine_and_twisted_input():
    ctx = extended_context(("x",), 0)
    with pytest.raises(ValueError, match="fiber-linear"):
        extract_structure([ctx.var("p_x") + ctx.const(1)])
    coords, g = ring(["x1", "x2"])
    twisted = ConstraintSet(abelian_r2(), magnetic=magnetic_plane(1))
    with pytest.raises(ValueError, match="untwisted"):
        extract_structure(twisted.phis)


# reducibility


def probed_generic_rank(report) -> int:
    """The generic rank the `irreducible` report states in its second note."""
    stated, _ = report.notes[1].split(", full rank is ")
    return int(stated.removeprefix("generic rank "))


def probe_with_ranks(data, points=()):
    """The probe's report, and each point it ranked with the rank it found,
    read from `constraints._rank_at` as the probe calls it."""
    ranked = []
    rank_at = constraints._rank_at

    def recording(rows, degrees, point):
        found = rank_at(rows, degrees, point)
        ranked.append((point, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constraints, "_rank_at", recording)
        report = irreducibility_probe(data, points)
    return report, ranked


def test_irreducibility_probe_verdicts():
    clean, ranked = probe_with_ranks(abelian_r2())
    assert (clean.name, clean.status, clean.residuals) == ("irreducible", PASS, [])
    assert clean.identity == "the constraint gradients have full rank on the probed set"
    assert clean.notes == [
        "irreducible on probed set",
        "generic rank 2, full rank is 2",
        "probe seed 271828",
    ]
    assert len(ranked) == 5 and all(k == 2 for _, k in ranked)

    for data in (so3_action(), rank2_line()):
        report = irreducibility_probe(data)
        assert (report.status, report.notes[0]) == (WARN, "generically reducible")


def test_irreducibility_probe_pointwise_failure():
    coords, g = ring(["x1", "x2"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    data = abelian_algebroid(coords, [[one, zero], [zero, g["x1"]]])
    report = irreducibility_probe(data, points=[(0, 0)])
    assert report.status == WARN
    assert report.notes == [
        "reducible at point (0, 0)",
        "generic rank 2, full rank is 2",
        "probe seed 271828",
    ]
    with pytest.raises(ValueError, match="arity"):
        irreducibility_probe(data, points=[(1,)])


def test_irreducibility_probe_pins_the_seeded_points():
    # the Poisson plane pi = x d_x ^ d_y: its anchor vanishes on x = 0,
    # and only the fifth seeded point lies on that line
    problem = problem_from_dict(
        {
            "base_dim": 2,
            "rank": 2,
            "coords": ["x", "y"],
            "anchor": [["0", "x"], ["-x", "0"]],
            "structure": {"1,1,2": "1"},
        }
    )
    report, ranked = probe_with_ranks(problem.data)
    assert report.status == WARN
    assert report.notes == [
        "reducible at point (0, 7/3)",
        "generic rank 2, full rank is 2",
        "probe seed 271828",
    ]
    F = Fraction
    assert ranked == [
        ((F(9, 2), F(-9, 4)), 2),
        ((F(-11, 6), F(-4)), 2),
        ((F(-6), F(-12, 5)), 2),
        ((F(-2), F(9, 5)), 2),
        ((F(0), F(7, 3)), 0),
    ]


def test_generic_rank_symbolic():
    data = so3_action()
    assert generic_rank([list(row) for row in data.anchor]) == 2


def det_by_cofactors(matrix, coords):
    """Determinant by expansion along the first row."""
    if not matrix:
        return EvenPoly.const(coords, 1)
    total = EvenPoly.zero(coords)
    for j, entry in enumerate(matrix[0]):
        if not entry.is_zero:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            cofactor = entry * det_by_cofactors(minor, coords)
            total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def generic_rank_by_minors(matrix):
    """The size of the largest nonzero minor: the reference for elimination."""
    if not matrix or not matrix[0]:
        return 0
    coords = matrix[0][0].coords
    for size in range(min(len(matrix), len(matrix[0])), 0, -1):
        for rows in combinations(range(len(matrix)), size):
            for cols in combinations(range(len(matrix[0])), size):
                minor = [[matrix[i][j] for j in cols] for i in rows]
                if not det_by_cofactors(minor, coords).is_zero:
                    return size
    return 0


def mat_product(A, B):
    coords = A[0][0].coords
    return [
        [
            sum((A[i][k] * B[k][j] for k in range(len(B))), EvenPoly.zero(coords))
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def random_matrices():
    """Seeded polynomial matrices: free ones, rank-deficient products, and
    ones whose rank drops at the origin below the generic rank."""
    coords, g = ring(["x", "y"])
    rng = random.Random(59)

    def entries(rows, cols):
        return [[random_poly(rng, coords, 3) for _ in range(cols)] for _ in range(rows)]

    out = []
    for _ in range(12):
        out.append(entries(rng.randint(1, 4), rng.randint(1, 4)))
    for _ in range(12):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        inner = rng.randint(1, min(rows, cols) - 1)
        out.append(mat_product(entries(rows, inner), entries(inner, cols)))
    x, y, zero = g["x"], g["y"], EvenPoly.zero(coords)
    out.append([[x, zero], [zero, y]])
    out.append([[x, y, x * y], [x * x, x * y, x * x * y], [y, x, x + y]])
    out.append([[x * y, x * x], [y * y, x * y], [x, y]])
    return out


def so_n_frame(n):
    return problem_from_dict(gen.so_n(n)).data


def test_generic_rank_matches_the_minor_expansion():
    matrices = [
        [list(row) for row in load_problem(path).data.anchor]
        for path in sorted(CORPUS.glob("*.json"))
    ]
    matrices += [[list(row) for row in so_n_frame(n).anchor] for n in (3, 4, 5, 6)]
    matrices += random_matrices()
    ranks = [generic_rank(matrix) for matrix in matrices]
    assert ranks == [generic_rank_by_minors(matrix) for matrix in matrices]
    # full and deficient ranks both occur
    shapes = [min(len(m), len(m[0])) for m in matrices]
    assert any(k == s for k, s in zip(ranks, shapes))
    assert any(0 < k < s for k, s in zip(ranks, shapes))


def test_probe_generic_rank_matches_the_minor_expansion():
    # the probe reads the rank off its points when they reach min(r, n),
    # and eliminates otherwise; both must agree with the minors
    coords, g = ring(["x", "y"])
    x, y, zero = g["x"], g["y"], EvenPoly.zero(coords)
    frames = [load_problem(path).data for path in sorted(CORPUS.glob("*.json"))]
    frames += [so_n_frame(n) for n in (3, 4, 5)]
    diagonal = abelian_algebroid(coords, [[x, zero], [zero, y]])
    frames += [
        diagonal,
        abelian_algebroid(coords, [[x, y], [x * x, x * y], [y, x]]),
        abelian_algebroid(coords, [[x, y], [x * x, x * y]]),
    ]
    for data in frames:
        probe = irreducibility_probe(data, points=[(0,) * data.base_dim])
        matrix = [list(row) for row in data.anchor]
        assert probed_generic_rank(probe) == generic_rank_by_minors(matrix)
    # at the origin the rank of diag(x, y) drops below its generic rank 2
    probe, ranked = probe_with_ranks(diagonal, points=[(0, 0)])
    assert ranked[0] == ((0, 0), 0)
    assert probed_generic_rank(probe) == 2 == generic_rank([[x, zero], [zero, y]])
    assert probe.notes[0] == "reducible at point (0, 0)"


def rank_by_fractions(data, point):
    """The anchor's rank at a point, every entry evaluated on `Fraction`s:
    the reference for the integer-scaled ranks of the probe."""
    assignment = dict(zip(data.coords, point))
    return rank(
        [{i: evaluate(f, assignment) for i, f in enumerate(row)} for row in data.anchor]
    )


def test_probe_ranks_match_fraction_evaluation():
    # zero rows, constant rows, rows with Fraction coefficients, and rows
    # that vanish with a coordinate or repeat another row times a
    # polynomial, at points with denominators and with negative and zero
    # coordinates, plus the probe's own seeded points
    coords, g = ring(["x", "y", "z"])
    rng = random.Random(97)
    zero = EvenPoly.zero(coords)
    checked, dropped = 0, 0

    def fraction(low, high):
        return Fraction(rng.randint(low, high), rng.randint(1, 7))

    for _ in range(40):
        points = [
            tuple(rng.choice([0, rng.randint(-3, 3), fraction(-9, 9)]) for _ in "xyz")
            for _ in range(5)
        ]
        rows = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(6)
            if kind == 0:
                row = [zero] * 3
            elif kind == 1:
                row = [EvenPoly.const(coords, fraction(-4, 4)) for _ in range(3)]
            elif kind == 2 and rows:
                factor = g[rng.choice(coords)] + rng.randint(-2, 2)
                row = [factor * f for f in rng.choice(rows)]
            else:
                row = [random_poly(rng, coords, 3) for _ in range(3)]
                if kind == 3:
                    row = [g[rng.choice(coords)] * f for f in row]
                elif kind == 4:  # vanishes at a given point
                    at = dict(zip(coords, rng.choice(points)))
                    row = [f - evaluate(f, at) for f in row]
            rows.append(row)
        data = abelian_algebroid(coords, rows)
        # five more random points in place of a varied probe seed; the
        # probe adds its own seeded five after them
        drawn = [tuple(fraction(-12, 12) for _ in "xyz") for _ in range(5)]
        _, ranked = probe_with_ranks(data, points + drawn)
        for point, found in ranked:
            assert found == rank_by_fractions(data, point), (rows, point)
            checked += 1
            dropped += found < min(data.rank, 3)
    assert checked == 600
    assert 60 < dropped < 540


# frame equivalence


def test_gauge_transform_shifts_structure():
    cs = ConstraintSet(rank2_line())
    coords, g = ring(["x"])
    # the frame change (Phi_1, Phi_2) -> (Phi_1, x*Phi_1 + Phi_2)
    phis = (cs.phis[0], cs.ctx.lift(g["x"]) * cs.phis[0] + cs.phis[1])
    assert phis[1] == cs.ctx.lift(2 * g["x"]) * cs.ctx.var("p_x")
    result = extract_structure(phis)
    assert result.feasible
    # the non-tensorial shift doubles the structure constant
    assert result.data.nonzero_structure[(0, 1)] == [(0, EvenPoly.const(coords, 2))]


# corpus-level implication: generic full rank plus closure forces jacobi zero


def test_full_rank_first_class_implies_jacobi_vanishes():
    corpus = [
        so3_action(),
        abelian_r2(),
        rank2_line(),
        broken_jacobi(),
        nilpotent_bundle(),
    ]
    from nqkit.algebroid import jacobi_defect

    for data in corpus:
        probe = irreducibility_probe(data)
        first_class = check_first_class(ConstraintSet(data))
        if probed_generic_rank(probe) == data.rank and first_class.status == PASS:
            assert all(v.is_zero for v in jacobi_defect(data).values())
