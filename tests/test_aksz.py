"""Super-time charge, its nilpotency, and the component expansion."""

from __future__ import annotations

import pytest

from nqkit.aksz import (
    ComponentAction,
    FieldEntry,
    SuperCharge,
    build_supercharge,
    check_bookkeeping,
    check_supercharge,
    expand_bv,
    expansion_context,
    extended_action_reference,
    field_table,
    ghost_zero_truncation,
    supercharge_context,
    velocity_name,
)
from nqkit.bfv import assemble_bfv, build_charge
from nqkit.dynamics import GeometryPack
from nqkit.graded import GradedPoly, ghost_name, transport
from nqkit.poly import EvenPoly
from nqkit.report import FAIL, PASS
from tests.test_algebroid import abelian_r1, broken_jacobi, rank2_line, so3_action
from tests.test_bfv import shear_pair
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_dynamics import flat_pack, identity_metric, zero_connection
from tests.test_graded import word_coefficient
from tests.test_poly import ring


def packaged(data, **fields):
    return assemble_bfv(build_charge(data, flat_pack(data.coords, data.rank, **fields)))


def affine_line_package():
    # the unit metric on the line forces omega^1_{2,1} = 1; any other
    # connection pollutes the obstruction tensor and the assembly refuses
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    omega = zero_connection(coords, 2)
    omega[0][1][0] = EvenPoly.const(coords, 1)
    pack = GeometryPack(
        coords,
        2,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=omega,
        alpha=alpha,
    )
    return data, pack


def compensated_magnetic_package():
    # metric-free: with a twisted bracket the covariant obstruction is not
    # defined, so the package carries the potential Hamiltonian only
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), g["x1"])
    return data, GeometryPack(coords, 2, alpha=alpha, magnetic=magnetic_plane(1))


def kinetic_sector(ca: ComponentAction, coords, rank) -> GradedPoly:
    """All terms carrying a velocity marker."""
    ctx = ca.context
    dot_even = {ctx.even_index[velocity_name(name)] for name in coords}
    dot_odd = {
        ctx.odd_index[velocity_name(ghost_name(a))] for a in range(1, rank + 1)
    }
    return GradedPoly.from_terms(
        ctx,
        (
            (word, exponent, coeff)
            for word, exponent, coeff in ca.action.terms()
            if any(exponent[k] for k in dot_even) or any(a in dot_odd for a in word)
        ),
    )


def expected_kinetic(ctx, coords, rank) -> GradedPoly:
    total = ctx.zero()
    for name in coords:
        total = total + ctx.var(f"p_{name}") * ctx.var(velocity_name(name))
    for a in range(1, rank + 1):
        total = total - ctx.var(f"pi_{a}") * ctx.var(velocity_name(f"xi_{a}"))
    return total


# the theta-extended context and the charge


def test_supercharge_context_appends_theta():
    bfv = packaged(abelian_r2())
    ctx = supercharge_context(bfv.ctx)
    assert ctx.odd_names[-1] == "theta"
    assert ctx.ghost_of("theta") == 1
    assert ctx.parity_of("theta") == 1
    assert ctx.pairs_even == bfv.ctx.pairs_even
    assert ctx.pairs_odd == bfv.ctx.pairs_odd
    with pytest.raises(ValueError, match="already carries"):
        supercharge_context(ctx)


def test_build_supercharge_abelian_flat():
    sq = build_supercharge(packaged(abelian_r1()))
    q = sq.context.var
    assert sq.Q == q("xi_1") * q("p_x") + q("theta") * q("p_x") ** 2 / 2


def test_build_supercharge_topological():
    data = abelian_r1()
    bfv = assemble_bfv(build_charge(data, GeometryPack(data.coords, data.rank)))
    sq = build_supercharge(bfv)
    assert bfv.H.is_zero
    assert sq.Q == transport(bfv.S, sq.context)


def test_supercharge_validates_grading():
    bfv = packaged(abelian_r1())
    ctx = supercharge_context(bfv.ctx)
    with pytest.raises(ValueError, match="odd of ghost degree"):
        SuperCharge(ctx, ctx.var("p_x"), bfv)
    with pytest.raises(ValueError, match="stated context"):
        SuperCharge(ctx, bfv.S, bfv)


# nilpotency


def test_check_supercharge_so3_passes():
    report = check_supercharge(build_supercharge(packaged(so3_action())))
    assert report.status == PASS
    assert report.residuals == []
    assert any("theta split" in note for note in report.notes)


def test_check_supercharge_broken_jacobi_theta_free_residual():
    bfv = packaged(broken_jacobi())
    sq = build_supercharge(bfv)
    report = check_supercharge(sq)
    assert report.status == FAIL
    qq = sq.context.poisson(sq.Q, sq.Q)
    theta_letter = sq.context.odd_index["theta"]
    theta_free = GradedPoly.from_terms(
        sq.context,
        (
            (word, exponent, coeff)
            for word, exponent, coeff in qq.terms()
            if theta_letter not in word
        ),
    )
    ss = bfv.ctx.poisson(bfv.S, bfv.S)
    assert not ss.is_zero
    assert theta_free == transport(ss, sq.context)


def test_check_supercharge_shear_pair_theta_linear_residual():
    # the master equation holds but the Hamiltonian is not invariant, so
    # the whole residual sits in the theta-linear slot as -2 (S, H)
    bfv = packaged(shear_pair())
    sq = build_supercharge(bfv)
    report = check_supercharge(sq)
    assert report.status == FAIL
    qq = sq.context.poisson(sq.Q, sq.Q)
    sh = bfv.ctx.poisson(bfv.S, bfv.H)
    assert not sh.is_zero
    assert qq == -2 * sq.context.var("theta") * transport(sh, sq.context)
    assert all(label.startswith("qq[") and "theta" in label for label, _ in report.residuals)


def test_supercharge_agrees_with_package_verdicts():
    data_top = abelian_r1()
    cases = [
        packaged(so3_action()),
        packaged(abelian_r2()),
        packaged(broken_jacobi()),
        packaged(shear_pair()),
        assemble_bfv(build_charge(*compensated_magnetic_package())),
        assemble_bfv(
            build_charge(data_top, GeometryPack(data_top.coords, data_top.rank))
        ),
    ]
    seen = set()
    for bfv in cases:
        report = check_supercharge(build_supercharge(bfv))
        both = (
            bfv.report("master").status == PASS
            and bfv.report("charge_invariance").status == PASS
        )
        assert report.status == (PASS if both else FAIL)
        seen.add(report.status)
    assert seen == {PASS, FAIL}


# the component-field ring


def test_expansion_context_gradings():
    ctx = expansion_context(("x",), 1)
    assert ctx.pairs_even == () and ctx.pairs_odd == ()
    assert ctx.ghost_of("x") == 0 and ctx.parity_of("x") == 0
    assert ctx.ghost_of("x_dot") == 0 and ctx.parity_of("x_dot") == 0
    assert ctx.ghost_of("x_odd") == -1 and ctx.parity_of("x_odd") == 1
    assert ctx.ghost_of("p_x_odd") == -1 and ctx.parity_of("p_x_odd") == 1
    assert ctx.ghost_of("lam_1") == 0 and ctx.parity_of("lam_1") == 0
    assert ctx.ghost_of("xi_1_dot") == 1 and ctx.parity_of("xi_1_dot") == 1
    assert ctx.ghost_of("pi_1_odd") == -2 and ctx.parity_of("pi_1_odd") == 0
    assert ctx.ghost_of("theta") == 1 and ctx.parity_of("theta") == 1


def test_field_table_partners():
    table = {entry.name: entry for entry in field_table(("x",), 1)}
    assert "theta" not in table
    assert table["lam_1"].is_partner and table["lam_1"].ghost == 0
    assert table["x_odd"].is_partner and table["x_odd"].ghost == -1
    assert table["pi_1_odd"].is_partner and table["pi_1_odd"].ghost == -2
    assert not table["xi_1"].is_partner
    assert not table["x_dot"].is_partner


# expansion


def test_expand_abelian_line_frozen():
    ca = expand_bv(build_supercharge(packaged(abelian_r1())))
    e = ca.context.var
    expected = (
        e("p_x") * e("x_dot")
        - e("pi_1") * e("xi_1_dot")
        - e("lam_1") * e("p_x")
        + e("xi_1") * e("p_x_odd")
        - e("p_x") ** 2 / 2
    )
    assert ca.action == expected


def test_expand_affine_line_frozen():
    # the connection enters only through the covariant Hamiltonian, as the
    # cross term + p xi_2 pi_1 of -H = -(p - xi_2 pi_1)^2 / 2
    data, pack = affine_line_package()
    ca = expand_bv(build_supercharge(assemble_bfv(build_charge(data, pack))))
    e = ca.context.var
    expected = (
        e("p_x") * e("x_dot")
        - e("pi_1") * e("xi_1_dot")
        - e("pi_2") * e("xi_2_dot")
        - e("p_x") ** 2 / 2
        + e("p_x") * e("xi_2") * e("pi_1")
        - e("lam_1") * (e("p_x") + 1)
        - e("lam_2") * (e("x") * e("p_x") + e("x"))
        + e("lam_1") * e("xi_2") * e("pi_1")
        - e("lam_2") * e("xi_1") * e("pi_1")
        + e("xi_1") * e("p_x_odd")
        + e("x") * e("xi_2") * e("p_x_odd")
        - e("x_odd") * e("xi_2") * e("p_x")
        + e("xi_1") * e("xi_2") * e("pi_1_odd")
        - e("x_odd") * e("xi_2")
    )
    assert ca.action == expected


def test_expand_sees_structure_gradients():
    # C^1_12 = x, C^2_12 = -x: the antifield x_odd couples to the gradient
    ca = expand_bv(build_supercharge(packaged(shear_pair())))
    ctx = ca.context
    word = tuple(ctx.odd_index[name] for name in ("x_odd", "xi_1", "xi_2", "pi_1"))
    assert word_coefficient(ca.action, word) == EvenPoly.const(ctx.even_names, 1)
    word2 = tuple(ctx.odd_index[name] for name in ("x_odd", "xi_1", "xi_2", "pi_2"))
    assert word_coefficient(ca.action, word2) == EvenPoly.const(ctx.even_names, -1)
    pair = tuple(ctx.odd_index[name] for name in ("xi_1", "xi_2"))
    x = EvenPoly.variable(ctx.even_names, "x")
    assert word_coefficient(ca.action, pair) == (
        x * EvenPoly.variable(ctx.even_names, "pi_1_odd")
        - x * EvenPoly.variable(ctx.even_names, "pi_2_odd")
    )


def test_kinetic_sector_on_every_package():
    data_affine, pack_affine = affine_line_package()
    cases = [
        (abelian_r1(), None),
        (abelian_r2(), None),
        (so3_action(), None),
        (shear_pair(), None),
        (data_affine, pack_affine),
    ]
    for data, pack in cases:
        bfv = assemble_bfv(build_charge(data, pack)) if pack else packaged(data)
        ca = expand_bv(build_supercharge(bfv))
        sector = kinetic_sector(ca, data.coords, data.rank)
        assert sector == expected_kinetic(ca.context, data.coords, data.rank)


def test_ghost_zero_truncation_matches_the_reference():
    coords2, g2 = ring(["x1", "x2"])
    data_affine, pack_affine = affine_line_package()
    data_top = abelian_r1()
    cases = [
        (abelian_r1(), flat_pack(("x",), 1)),
        (abelian_r2(), flat_pack(coords2, 2, potential=g2["x1"] ** 2)),
        (data_affine, pack_affine),
        (so3_action(), flat_pack(("x1", "x2", "x3"), 3)),
        (data_top, GeometryPack(data_top.coords, data_top.rank)),
    ]
    for data, pack in cases:
        ca = expand_bv(build_supercharge(assemble_bfv(build_charge(data, pack))))
        assert ghost_zero_truncation(ca) == extended_action_reference(data, pack)


def test_expand_is_linear_in_the_charge():
    coords, g = ring(["x1", "x2"])
    bfv = packaged(abelian_r2(), potential=g["x1"] ** 2)
    sq = build_supercharge(bfv)
    qctx = sq.context
    part_s = SuperCharge(qctx, transport(bfv.S, qctx), bfv)
    part_h = SuperCharge(qctx, qctx.var("theta") * transport(bfv.H, qctx), bfv)
    total = expand_bv(sq).action
    split = expand_bv(part_s).action + expand_bv(part_h).action
    # each expansion carries one copy of the kinetic sector
    ectx = expansion_context(bfv.data.coords, bfv.data.rank)
    assert split - total == expected_kinetic(ectx, bfv.data.coords, bfv.data.rank)


def test_expand_rejects_twisted_bracket():
    bfv = assemble_bfv(build_charge(*compensated_magnetic_package()))
    sq = build_supercharge(bfv)
    with pytest.raises(ValueError, match="absorb the magnetic term"):
        expand_bv(sq)


# bookkeeping


def test_bookkeeping_passes_on_expansions():
    for data in (abelian_r1(), abelian_r2(), shear_pair()):
        ca = expand_bv(build_supercharge(packaged(data)))
        report = check_bookkeeping(ca)
        assert report.status == PASS
        assert report.residuals == []
        assert any("multiplier" in note for note in report.notes)


def test_bookkeeping_empty_action_passes():
    ctx = expansion_context(("x",), 1)
    report = check_bookkeeping(
        ComponentAction(ctx, field_table(("x",), 1), ctx.zero())
    )
    assert report.status == PASS


def test_bookkeeping_catches_a_corrupted_table():
    ca = expand_bv(build_supercharge(packaged(abelian_r1())))
    fields = list(ca.fields)
    bumped = next(k for k, entry in enumerate(fields) if entry.name == "xi_1")
    entry = fields[bumped]
    fields[bumped] = FieldEntry(entry.name, 2, entry.parity, entry.is_partner)
    report = check_bookkeeping(ComponentAction(ca.context, tuple(fields), ca.action))
    assert report.status == FAIL
    assert any(label == "field[xi_1]" for label, _ in report.residuals)
    assert any(
        label.startswith("term[") and "xi_1" in label
        for label, _ in report.residuals
    )


def test_bookkeeping_catches_a_corrupted_action():
    ca = expand_bv(build_supercharge(packaged(abelian_r1())))
    bad = ComponentAction(ca.context, ca.fields, ca.action + ca.context.var("xi_1"))
    report = check_bookkeeping(bad)
    assert report.status == FAIL
    assert ("term[xi_1]", "ghost number 1") in report.residuals
    assert ("term[xi_1]", "odd parity") in report.residuals


def test_rows_are_canonical():
    ca = expand_bv(build_supercharge(packaged(abelian_r1())))
    again = expand_bv(build_supercharge(packaged(abelian_r1())))
    assert ca.rows() == again.rows()
    assert {"coeff": "-1", "even": {"p_x": 1, "lam_1": 1}, "odd": []} in ca.rows()
    # words are stored ascending, so xi_1 p_x_odd appears reordered with sign
    assert {"coeff": "-1", "even": {}, "odd": ["p_x_odd", "xi_1"]} in ca.rows()