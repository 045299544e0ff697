"""Constraint closure, structure extraction and reducibility diagnostics."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from nqkit.constraints import (
    ConstraintSet,
    build_constraints,
    check_first_class,
    extract_structure,
    generic_rank,
    irreducibility_probe,
)
from nqkit.graded import cotangent_context
from nqkit.poly import EvenPoly
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS
from tests.test_algebroid import (
    abelian_algebroid,
    broken_jacobi,
    nilpotent_bundle,
    rank2_line,
    so3_action,
)
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
    cs = build_constraints(data)
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
    cs = build_constraints(data, alpha=alpha, magnetic=magnetic_plane(3))
    assert cs.phis[0] == cs.ctx.var("p_x1")
    assert cs.phis[1] == cs.ctx.var("p_x2") + 3 * cs.ctx.var("x1")
    assert cs.ctx.twist is not None
    # the twist carries minus the magnetic component
    assert cs.ctx.twist[0][1] == EvenPoly.const(cs.ctx.even_names, -3)


def test_build_flags_degenerate_constraints():
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.zero(coords)]])
    cs = build_constraints(data)
    assert cs.degenerate == (0,)
    assert any("degenerate" in note for note in cs.notes)


def test_build_rejects_bad_affine_part():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    _, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        build_constraints(data, alpha=[h["y"], h["y"]])
    with pytest.raises(ValueError, match="alpha must have 2 components"):
        build_constraints(
            data, alpha=[EvenPoly.zero(coords)] * 2 + [EvenPoly.const(coords, 1)]
        )
    with pytest.raises(ValueError, match="twist must be antisymmetric"):
        build_constraints(data, magnetic=[[g["x1"], g["x1"]], [g["x1"], g["x1"]]])


def test_constraint_set_rejects_non_affine_members():
    ctx = cotangent_context(("x",))
    with pytest.raises(ValueError, match="not affine"):
        ConstraintSet(
            ctx=ctx, phis=(ctx.var("p_x") * ctx.var("p_x"),), data=rank2_line()
        )


# first-class verification


def test_first_class_so3():
    report = check_first_class(build_constraints(so3_action()))
    assert report.status == PASS
    assert report.residuals == []


def test_first_class_affine_line():
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    report = check_first_class(build_constraints(rank2_line(), alpha=alpha))
    assert report.status == PASS


def test_first_class_magnetic_compensation():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), 3 * g["x1"])
    closed = check_first_class(
        build_constraints(data, alpha=alpha, magnetic=magnetic_plane(3))
    )
    assert closed.status == PASS
    # without the magnetic twist the same affine part fails to close
    open_report = check_first_class(build_constraints(data, alpha=alpha))
    assert open_report.status == FAIL
    assert open_report.residuals == [("bracket[a=1,b=2]", "3")]


def test_first_class_pure_magnetic_fails():
    report = check_first_class(
        build_constraints(abelian_r2(), magnetic=magnetic_plane(3))
    )
    assert report.status == FAIL
    assert report.residuals == [("bracket[a=1,b=2]", "-3")]


def test_first_class_broken_fixture():
    report = check_first_class(build_constraints(broken_jacobi()))
    assert report.status == FAIL
    named = dict(report.residuals)
    assert named["bracket[a=1,b=2]"] == "p_x"
    assert named["bracket[a=2,b=3]"] == "-x*p_x"
    assert len(named) == 2


# structure extraction


def test_extract_round_trip_so3():
    data = so3_action()
    result = extract_structure(build_constraints(data).phis)
    assert result.feasible
    assert result.ansatz_degree == 0
    assert result.solution_dim == 0
    assert result.data == data
    assert result.axioms.status == PASS


def test_extract_line_pair():
    ctx = cotangent_context(("x",))
    p, x = ctx.var("p_x"), ctx.var("x")
    result = extract_structure([p, x * p])
    assert result.feasible
    data = result.data
    coords, g = ring(["x"])
    assert data.anchor[0][0] == EvenPoly.const(coords, 1)
    assert data.anchor[1][0] == g["x"]
    assert data.structure[0][0][1] == EvenPoly.const(coords, 1)
    assert data.structure[1][0][1].is_zero


def test_extract_commuting_momenta():
    ctx = cotangent_context(("x1", "x2"))
    result = extract_structure([ctx.var("p_x1"), ctx.var("p_x2")])
    assert result.feasible
    assert all(
        entry.is_zero
        for plane in result.data.structure
        for row in plane
        for entry in row
    )
    assert any("full generic rank" in note for note in result.notes)
    assert result.axioms.status == PASS


def test_extract_exact_infeasibility():
    # {p_1, x^1 p_2} = p_2 is not a polynomial multiple of x^1 p_2
    ctx = cotangent_context(("x1", "x2"))
    phis = [ctx.var("p_x1"), ctx.var("x1") * ctx.var("p_x2")]
    result = extract_structure(phis, ansatz_degree=3)
    assert not result.feasible
    assert result.data is None
    assert any("degree <= 3" in note for note in result.notes)


def test_extract_rejects_affine_and_twisted_input():
    ctx = cotangent_context(("x",))
    with pytest.raises(ValueError, match="fiber-linear"):
        extract_structure([ctx.var("p_x") + ctx.const(1)])
    coords, g = ring(["x1", "x2"])
    twisted = build_constraints(abelian_r2(), magnetic=magnetic_plane(1))
    with pytest.raises(ValueError, match="untwisted"):
        extract_structure(twisted.phis)


# reducibility


def test_irreducibility_probe_verdicts():
    clean = irreducibility_probe(abelian_r2())
    assert clean.generic_rank == 2
    assert clean.verdict == "irreducible on probed set"
    assert all(k == 2 for _, k in clean.point_results)

    assert irreducibility_probe(so3_action()).verdict == "generically reducible"
    assert irreducibility_probe(rank2_line()).verdict == "generically reducible"


def test_irreducibility_probe_pointwise_failure():
    coords, g = ring(["x1", "x2"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    data = abelian_algebroid(coords, [[one, zero], [zero, g["x1"]]])
    report = irreducibility_probe(data, points=[(0, 0)])
    assert report.generic_rank == 2
    assert report.verdict == "reducible at point (0, 0)"
    with pytest.raises(ValueError, match="arity"):
        irreducibility_probe(data, points=[(1,)])


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
        assert probe.generic_rank == generic_rank_by_minors(matrix)
    # at the origin the rank of diag(x, y) drops below its generic rank 2
    probe = irreducibility_probe(diagonal, points=[(0, 0)])
    assert probe.point_results[0][1] == 0 < probe.generic_rank == 2


# frame equivalence


def test_gauge_transform_shifts_structure():
    cs = build_constraints(rank2_line())
    coords, g = ring(["x"])
    # the frame change (Phi_1, Phi_2) -> (Phi_1, x*Phi_1 + Phi_2)
    phis = (cs.phis[0], cs.ctx.lift(g["x"]) * cs.phis[0] + cs.phis[1])
    assert phis[1] == cs.ctx.lift(2 * g["x"]) * cs.ctx.var("p_x")
    result = extract_structure(phis)
    assert result.feasible
    # the non-tensorial shift doubles the structure constant
    assert result.data.structure[0][0][1] == EvenPoly.const(coords, 2)


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
        first_class = check_first_class(build_constraints(data))
        if probe.generic_rank == data.rank and first_class.status == PASS:
            assert all(v.is_zero for v in jacobi_defect(data).values())
