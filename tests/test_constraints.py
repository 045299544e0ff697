"""Constraint closure, structure extraction and reducibility diagnostics."""

from __future__ import annotations

import pytest

from nqkit.algebroid import one_form, two_form_from_matrix
from nqkit.constraints import (
    ConstraintSet,
    build_constraints,
    check_first_class,
    extract_structure,
    generic_rank,
    irreducibility_probe,
)
from nqkit.graded import cotangent_context, momentum_name
from nqkit.poly import EvenPoly
from nqkit.report import FAIL, PASS
from tests.test_algebroid import (
    abelian_algebroid,
    broken_jacobi,
    nilpotent_bundle,
    rank2_line,
    so3_action,
)
from tests.test_poly import ring


def abelian_r2():
    coords, g = ring(["x1", "x2"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    return abelian_algebroid(coords, [[one, zero], [zero, one]])


def magnetic_plane(b):
    coords, g = ring(["x1", "x2"])
    entry = EvenPoly.const(coords, b)
    zero = EvenPoly.zero(coords)
    return two_form_from_matrix(coords, [[zero, entry], [-entry, zero]])


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
    alpha = one_form(coords, [EvenPoly.zero(coords), 3 * g["x1"]])
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
    with pytest.raises(ValueError, match="1-form"):
        build_constraints(data, alpha=magnetic_plane(1))
    with pytest.raises(ValueError, match="frame index"):
        build_constraints(
            data,
            alpha=one_form(
                coords, [EvenPoly.zero(coords)] * 2 + [EvenPoly.const(coords, 1)]
            ),
        )


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
    alpha = one_form(coords, [EvenPoly.const(coords, 1), g["x"]])
    report = check_first_class(build_constraints(rank2_line(), alpha=alpha))
    assert report.status == PASS


def test_first_class_magnetic_compensation():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = one_form(coords, [EvenPoly.zero(coords), 3 * g["x1"]])
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
