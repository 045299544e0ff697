"""Super-time charge, its nilpotency, and the component expansion."""

from __future__ import annotations

from pathlib import Path

import pytest

from nqkit.aksz import (
    ComponentAction,
    FieldEntry,
    check_bookkeeping,
    check_supercharge,
    expand_bv,
    expansion_context,
    extended_action_reference,
    field_table,
    ghost_zero_truncation,
    term_rows,
    multiplier_name,
    partner_name,
    velocity_name,
)
from nqkit.bfv import THETA, assemble_bfv
from nqkit.dynamics import GeometryPack
from nqkit.graded import (
    GradedPoly,
    antighost_name,
    ghost_name,
    momentum_name,
    transport,
)
from nqkit.poly import EvenPoly
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS
from tests.conftest import frame_package
from tests.test_algebroid import abelian_r1, broken_jacobi, rank2_line, so3_action
from tests.test_bfv import shear_pair
from tests.test_cli_matrix import TOOL
from tests.test_constraints import abelian_r2, magnetic_plane
from tests import reference_forms as ref
from tests.reference_forms import from_terms, ghost_degree, parity, substitute
from tests.test_dynamics import flat_pack, identity_metric
from tests.test_generated_frames import gen
from tests.test_graded import word_coefficient
from tests.test_poly import ring


def packaged(data, **fields):
    return frame_package(data, flat_pack(data.coords, data.rank, **fields))


def affine_line_package():
    # the unit metric on the line forces omega^1_{2,1} = 1; any other
    # connection pollutes the obstruction tensor and the assembly refuses
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    omega = {(0, 1, 0): EvenPoly.const(coords, 1)}
    pack = GeometryPack(
        coords,
        2,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=omega,
    )
    return frame_package(rank2_line(), pack, alpha)


def compensated_magnetic_package():
    # metric-free: with a twisted bracket the covariant obstruction is not
    # defined, so the package carries the potential Hamiltonian only
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), g["x1"])
    pack = GeometryPack(coords, 2)
    return frame_package(abelian_r2(), pack, alpha, magnetic_plane(1))


def kinetic_sector(ca: ComponentAction, coords, rank) -> GradedPoly:
    """All terms carrying a velocity marker."""
    ctx = ca.context
    dot_even = {ctx.even_index[velocity_name(name)] for name in coords}
    dot_odd = {
        ctx.odd_index[velocity_name(ghost_name(a))] for a in range(1, rank + 1)
    }
    return from_terms(
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


# theta on the phase space and the charge


def test_the_phase_space_ends_with_theta():
    bfv = packaged(abelian_r2())
    ctx = bfv.constraints.ctx
    assert bfv.Q.ctx is ctx
    assert ctx.odd_names[-1] == "theta"
    assert ctx.ghost_of("theta") == 1
    assert ctx.parity_of("theta") == 1
    paired = {name for pair in ctx.pairs_even + ctx.pairs_odd for name in pair}
    assert "theta" not in paired


def corpus_and_twisted_packages() -> dict:
    """The BFV package of every corpus file that has one, and of the
    twisted metric twin of the command-line matrix."""
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    problems = {path.stem: load_problem(path) for path in sorted(corpus.glob("*.json"))}
    twin = "abelian_r2_metric_magnetic"
    problems[twin] = problem_from_dict(TOOL.inputs()[twin])
    packages = {}
    for name, problem in problems.items():
        try:
            packages[name] = assemble_bfv(problem.constraints, problem.pack)
        except ValueError:
            continue  # no package: a refused drift term
    assert packages[twin].constraints.ctx.twist is not None
    assert len(packages) >= 10
    return packages


PACKAGES = corpus_and_twisted_packages()


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_theta_is_a_spectator_of_every_bracket(name):
    package = PACKAGES[name]
    ctx = package.constraints.ctx
    theta = ctx.var(THETA)
    bit = 1 << ctx.word_shift + ctx.odd_index[THETA]
    S, H = package.constraints.S, package.H
    for F in (S, H):
        field = ctx.hamiltonian_field(F)
        assert THETA not in field
        assert not any(key & bit for image in field.values() for key in image.coeffs)
    for F in (S, H, *package.constraints.phis):
        assert ctx.poisson(theta, F).is_zero and ctx.poisson(F, theta).is_zero
    Q = package.Q
    expected = ctx.poisson(S, S) - 2 * theta * ctx.poisson(S, H)
    assert ctx.poisson(Q, Q) == expected


def test_build_supercharge_abelian_flat():
    bfv = packaged(abelian_r1())
    Q = bfv.Q
    assert bfv.Q is Q  # built once, kept by the package
    q = Q.ctx.var
    assert Q == q("xi_1") * q("p_x") + q("theta") * q("p_x") ** 2 / 2
    assert (parity(Q), ghost_degree(Q)) == (1, 1)


def test_build_supercharge_topological():
    data = abelian_r1()
    bfv = frame_package(data, GeometryPack(data.coords, data.rank))
    Q = bfv.Q
    assert bfv.H.is_zero
    assert Q == transport(bfv.constraints.S, Q.ctx)


# nilpotency


def test_check_supercharge_so3_passes():
    report = check_supercharge(packaged(so3_action()))
    assert report.status == PASS
    assert report.residuals == []
    assert any("theta split" in note for note in report.notes)


def test_check_supercharge_broken_jacobi_theta_free_residual():
    bfv = packaged(broken_jacobi())
    Q = bfv.Q
    report = check_supercharge(bfv)
    assert report.status == FAIL
    qq = Q.ctx.poisson(Q, Q)
    theta_letter = Q.ctx.odd_index["theta"]
    theta_free = from_terms(
        Q.ctx,
        (
            (word, exponent, coeff)
            for word, exponent, coeff in qq.terms()
            if theta_letter not in word
        ),
    )
    ss = bfv.constraints.ctx.poisson(bfv.constraints.S, bfv.constraints.S)
    assert not ss.is_zero
    assert theta_free == transport(ss, Q.ctx)


def test_check_supercharge_shear_pair_theta_linear_residual():
    # the master equation holds but the Hamiltonian is not invariant, so
    # the whole residual sits in the theta-linear slot as -2 (S, H)
    bfv = packaged(shear_pair())
    Q = bfv.Q
    report = check_supercharge(bfv)
    assert report.status == FAIL
    qq = Q.ctx.poisson(Q, Q)
    sh = bfv.constraints.ctx.poisson(bfv.constraints.S, bfv.H)
    assert not sh.is_zero
    assert qq == -2 * Q.ctx.var("theta") * transport(sh, Q.ctx)
    assert all(label.startswith("qq[") and "theta" in label for label, _ in report.residuals)


def test_supercharge_agrees_with_package_verdicts():
    data_top = abelian_r1()
    cases = [
        packaged(so3_action()),
        packaged(abelian_r2()),
        packaged(broken_jacobi()),
        packaged(shear_pair()),
        compensated_magnetic_package(),
        frame_package(data_top, GeometryPack(data_top.coords, data_top.rank)),
    ]
    seen = set()
    for bfv in cases:
        report = check_supercharge(bfv)
        both = bfv.constraints.master.status == bfv.charge_invariance.status == PASS
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
    ca = expand_bv(packaged(abelian_r1()))
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
    ca = expand_bv(affine_line_package())
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
    ca = expand_bv(packaged(shear_pair()))
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
    cases = [
        packaged(abelian_r1()),
        packaged(abelian_r2()),
        packaged(so3_action()),
        packaged(shear_pair()),
        affine_line_package(),
    ]
    for bfv in cases:
        data = bfv.constraints.data
        ca = expand_bv(bfv)
        sector = kinetic_sector(ca, data.coords, data.rank)
        assert sector == expected_kinetic(ca.context, data.coords, data.rank)


def test_ghost_zero_truncation_matches_the_reference():
    coords2, g2 = ring(["x1", "x2"])
    data_top = abelian_r1()
    cases = [
        frame_package(abelian_r1(), flat_pack(("x",), 1)),
        frame_package(abelian_r2(), flat_pack(coords2, 2, potential=g2["x1"] ** 2)),
        affine_line_package(),
        frame_package(so3_action(), flat_pack(("x1", "x2", "x3"), 3)),
        frame_package(data_top, GeometryPack(data_top.coords, data_top.rank)),
    ]
    for package in cases:
        ca = expand_bv(package)
        assert ghost_zero_truncation(ca) == extended_action_reference(package)


def test_expand_is_linear_in_the_charge():
    coords, g = ring(["x1", "x2"])
    bfv = packaged(abelian_r2(), potential=g["x1"] ** 2)
    data = bfv.constraints.data
    # the H = 0 twin: the same constraints with an empty pack, so Q = S
    twin = assemble_bfv(bfv.constraints, GeometryPack(data.coords, data.rank))
    assert twin.H.is_zero and not bfv.H.is_zero
    part_h = bfv.constraints.ctx.var(THETA) * bfv.H
    total = expand_bv(bfv).action
    split = expand_bv(twin).action + expand_bv_by_substitution(part_h, data)
    # each expansion carries one copy of the kinetic sector
    ectx = expansion_context(data.coords, data.rank)
    assert split - total == expected_kinetic(ectx, data.coords, data.rank)


def test_expand_rejects_twisted_bracket():
    bfv = compensated_magnetic_package()
    with pytest.raises(ValueError, match="absorb the magnetic term"):
        expand_bv(bfv)


def wrong_reference(package):
    return extended_action_reference(package) + 1


def bumped_field_table(coords, rank):
    fields = list(field_table(coords, rank))
    first = fields[0]
    fields[0] = FieldEntry(first.name, first.ghost + 1, first.parity, first.is_partner)
    return tuple(fields)


def test_expand_guards_the_classical_limit(monkeypatch):
    # the library call itself trips, with no command line around it
    package = packaged(abelian_r1())
    limit = "internal dual-route mismatch in the classical limit of the action"
    with monkeypatch.context() as patch:
        patch.setattr("nqkit.aksz.extended_action_reference", wrong_reference)
        with pytest.raises(RuntimeError) as tripped:
            expand_bv(package)
    assert str(tripped.value) == limit
    bookkeeping = "internal bookkeeping mismatch in the component action: field[x] "
    with monkeypatch.context() as patch:
        patch.setattr("nqkit.aksz.field_table", bumped_field_table)
        with pytest.raises(RuntimeError) as tripped:
            expand_bv(package)
    assert str(tripped.value).startswith(bookkeeping)
    # and with nothing patched the same call passes both guards
    assert check_bookkeeping(expand_bv(package)).status == PASS


# bookkeeping


def test_bookkeeping_passes_on_expansions():
    for data in (abelian_r1(), abelian_r2(), shear_pair()):
        ca = expand_bv(packaged(data))
        report = check_bookkeeping(ca)
        assert report.status == PASS
        assert report.residuals == []
        assert any("multiplier" in note for note in report.notes)


def test_bookkeeping_empty_action_passes():
    ctx = expansion_context(("x",), 1)
    report = check_bookkeeping(
        ComponentAction(field_table(("x",), 1), ctx.zero())
    )
    assert report.status == PASS


def test_bookkeeping_catches_a_corrupted_table():
    ca = expand_bv(packaged(abelian_r1()))
    fields = list(ca.fields)
    bumped = next(k for k, entry in enumerate(fields) if entry.name == "xi_1")
    entry = fields[bumped]
    fields[bumped] = FieldEntry(entry.name, 2, entry.parity, entry.is_partner)
    report = check_bookkeeping(ComponentAction(tuple(fields), ca.action))
    assert report.status == FAIL
    assert any(label == "field[xi_1]" for label, _ in report.residuals)
    assert any(
        label.startswith("term[") and "xi_1" in label
        for label, _ in report.residuals
    )


def test_bookkeeping_catches_a_corrupted_action():
    ca = expand_bv(packaged(abelian_r1()))
    bad = ComponentAction(ca.fields, ca.action + ca.context.var("xi_1"))
    report = check_bookkeeping(bad)
    assert report.status == FAIL
    assert ("term[xi_1]", "ghost number 1") in report.residuals
    assert ("term[xi_1]", "odd parity") in report.residuals


def line_table(**changes):
    """The field table of the one-coordinate rank-1 ring, with some entries
    replaced: a name maps to (ghost, parity, partner), or to None to drop it."""
    fields = []
    for entry in field_table(("x",), 1):
        change = changes.get(entry.name, (entry.ghost, entry.parity, entry.is_partner))
        if change is not None:
            fields.append(FieldEntry(entry.name, *change))
    return fields


def line_bookkeeping(fields, action=None) -> list[tuple[str, str]]:
    ctx = expansion_context(("x",), 1)
    action = ctx.zero() if action is None else action
    return check_bookkeeping(ComponentAction(tuple(fields), action)).residuals


def test_bookkeeping_flags_super_time_in_a_term():
    ctx = expansion_context(("x",), 1)
    v = ctx.var
    action = v(THETA) * v("p_x") + v(THETA) * v("xi_1") + v("p_x") * v("x_dot")
    assert line_bookkeeping(line_table(), action) == [
        ("term[p_x theta]", "super-time survives the expansion"),
        ("term[xi_1 theta]", "super-time survives the expansion"),
    ]


def test_bookkeeping_flags_a_field_missing_from_the_table():
    ctx = expansion_context(("x",), 1)
    v = ctx.var
    # the terms with a missing field are not graded: each would be a residual
    action = v("x_dot") * v("xi_1") + v("xi_1_dot") + v("pi_1_odd")
    fields = line_table(x_dot=None, xi_1_dot=None)
    assert line_bookkeeping(fields, action) == [
        ("field[x_dot]", "missing from the table"),
        ("field[xi_1_dot]", "missing from the table"),
        ("term[pi_1_odd]", "ghost number -2"),
    ]


def test_bookkeeping_flags_unknown_and_repeated_fields():
    fields = line_table()
    fields.insert(1, FieldEntry("y", 0, 0, False))
    fields.append(FieldEntry("x", 0, 0, False))
    fields.append(FieldEntry(THETA, 1, 1, False))
    assert line_bookkeeping(fields) == [
        ("field[x]", "listed twice"),
        ("field[y]", "unknown to the ring"),
        ("field[theta]", "not a component field"),
    ]


def test_bookkeeping_flags_a_partner_without_a_base_field():
    assert line_bookkeeping(line_table(x_dot=(0, 0, True))) == [
        ("field[x_dot]", "partner without a base field")
    ]
    assert line_bookkeeping(line_table(x=None)) == [
        ("field[x]", "missing from the table"),
        ("field[x_odd]", "partner without a base field"),
    ]


def test_bookkeeping_flags_partner_gradings():
    assert line_bookkeeping(line_table(x_odd=(0, 1, True))) == [
        ("field[x_odd]", "table says ghost 0 parity 1, ring says ghost -1 parity 1"),
        (
            "field[x_odd]",
            "partner of x: expected ghost -1 and parity 1, table says ghost 0 parity 1",
        ),
    ]
    assert line_bookkeeping(line_table(lam_1=(0, 1, True))) == [
        ("field[lam_1]", "table says ghost 0 parity 1, ring says ghost 0 parity 0"),
        (
            "field[lam_1]",
            "partner of xi_1: expected ghost 0 and parity 0, "
            "table says ghost 0 parity 1",
        ),
    ]


def test_bookkeeping_flags_a_partner_name_without_the_flag():
    assert line_bookkeeping(line_table(p_x_odd=(-1, 1, False))) == [
        ("field[p_x_odd]", "named like a partner but not flagged")
    ]


def test_bookkeeping_grades_terms_from_the_table():
    ctx = expansion_context(("x",), 1)
    v = ctx.var
    # an odd x_dot in the table: odd powers of it make a term odd
    action = (
        v("x_dot") * v("p_x")
        + v("x_dot") ** 2 * v("lam_1")
        + v("x_odd") * v("xi_1") * v("x_dot") ** 2
    )
    assert line_bookkeeping(line_table(x_dot=(0, 1, False)), action) == [
        ("field[x_dot]", "table says ghost 0 parity 1, ring says ghost 0 parity 0"),
        ("term[x_dot p_x]", "odd parity"),
    ]


def test_bookkeeping_residual_order():
    ctx = expansion_context(("x",), 1)
    v = ctx.var
    # exponent order, not degree order, within a word; letter count before
    # letters, and letters before the bitmask, across words
    action = (
        v("p_x") * v("pi_1_odd")
        + v("xi_1") * v("xi_1_dot")
        + 3 * v("pi_1_odd") ** 3
        + v("pi_1")
        + v("p_x") * v("x_dot")
        + v("x_odd") * v("xi_1")
    )
    assert line_bookkeeping(line_table(), action) == [
        ("term[pi_1_odd^3]", "ghost number -6"),
        ("term[p_x pi_1_odd]", "ghost number -2"),
        ("term[pi_1]", "ghost number -1"),
        ("term[pi_1]", "odd parity"),
        ("term[xi_1 xi_1_dot]", "ghost number 2"),
    ]


def test_rows_match_the_reference_on_the_corpus_and_so_n():
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    problems = {path.stem: load_problem(path) for path in sorted(corpus.glob("*.json"))}
    problems.update({f"so{n}": problem_from_dict(gen.so_n(n)) for n in (3, 4, 5)})
    expanded = []
    for name, problem in problems.items():
        try:
            package = assemble_bfv(problem.constraints, problem.pack)
        except ValueError:
            continue  # emit writes no document
        for F in (package.constraints.S, package.H):
            assert term_rows(F) == ref.term_rows(F), name
        if package.constraints.ctx.twist is None:
            action = expand_bv(package).action
            assert term_rows(action) == ref.term_rows(action), name
            expanded.append(name)
    assert {"so3", "so4", "so5", "so3_action"} <= set(expanded)
    # orders that a graded or bitmask sort would change: x before p_x^2 by
    # degree, x_odd xi_1_dot (bits 0, 3) after p_x_odd xi_1 (bits 1, 2) as
    # a bitmask, and both after the one-letter pi_1
    v = expansion_context(("x",), 1).var
    F = (
        v("x") * v("x_odd") * v("xi_1_dot")
        + v("p_x") ** 2
        + v("p_x_odd") * v("xi_1")
        + v("x")
        + v("pi_1")
    )
    assert term_rows(F) == ref.term_rows(F)
    assert [(row["even"], row["odd"]) for row in term_rows(F)] == [
        ({"p_x": 2}, []),
        ({"x": 1}, []),
        ({}, ["pi_1"]),
        ({"x": 1}, ["x_odd", "xi_1_dot"]),
        ({}, ["p_x_odd", "xi_1"]),
    ]


def test_rows_are_canonical():
    ca = expand_bv(packaged(abelian_r1()))
    again = expand_bv(packaged(abelian_r1()))
    rows = term_rows(ca.action)
    assert rows == term_rows(again.action)
    assert {"coeff": "-1", "even": {"p_x": 1, "lam_1": 1}, "odd": []} in rows
    # words are stored ascending, so xi_1 p_x_odd appears reordered with sign
    assert {"coeff": "-1", "even": {}, "odd": ["p_x_odd", "xi_1"]} in rows

# the expansion as one derivation, against the multiplied-out substitution


def expand_bv_by_substitution(Q: GradedPoly, data) -> GradedPoly:
    """Theta coefficient of P dX - Pi dXi - Q with every field z replaced by
    z + theta z~ and every term multiplied out: the reference for `expand_bv`,
    for a charge Q on the theta-extended phase space of the frame data."""
    coords, rank = data.coords, data.rank
    ectx = expansion_context(coords, rank)
    theta = ectx.var(THETA)
    momenta = [momentum_name(name) for name in coords]
    pairs = [(name, partner_name(name)) for name in [*coords, *momenta]]
    for a in range(1, rank + 1):
        pairs.append((ghost_name(a), multiplier_name(a)))
        pairs.append((antighost_name(a), partner_name(antighost_name(a))))
    images = {z: ectx.var(z) + theta * ectx.var(partner) for z, partner in pairs}
    integrand = -substitute(transport(Q, ectx), images)
    for name in coords:
        d_position = ectx.var(velocity_name(name)) * theta
        integrand = integrand + images[momentum_name(name)] * d_position
    for a in range(1, rank + 1):
        d_ghost = ectx.var(velocity_name(ghost_name(a))) * theta
        integrand = integrand - images[antighost_name(a)] * d_ghost
    return integrand.left_deriv(THETA)


def test_expand_matches_the_substitution_on_the_corpus_and_so_n():
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    problems = {path.stem: load_problem(path) for path in sorted(corpus.glob("*.json"))}
    problems.update({f"so{n}": problem_from_dict(gen.so_n(n)) for n in (3, 4, 5, 6)})
    compared = []
    for name, problem in problems.items():
        try:
            package = assemble_bfv(problem.constraints, problem.pack)
        except ValueError:
            continue  # no package to expand
        if package.constraints.ctx.twist is not None:
            continue  # refused by both routes
        # Q = S + theta H built here, not read off the package
        Q = package.constraints.S + package.constraints.ctx.var(THETA) * package.H
        action = expand_bv(package).action
        assert not action.is_zero
        assert action == expand_bv_by_substitution(Q, problem.data), name
        compared.append(name)
    assert {"so3", "so4", "so5", "so6", "so3_action"} <= set(compared)
    assert len(compared) >= 10
