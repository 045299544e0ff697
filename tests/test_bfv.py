"""The extended charge, the covariant Hamiltonian and their bracket battery."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from nqkit.algebroid import Algebroid, algebroid_from_lists, check_axioms
from nqkit.bfv import (
    BFVPackage,
    Charge,
    assemble_bfv,
    bfv_h0,
    build_charge,
    build_H,
    build_S,
    charge_context,
    check_master,
    covariant_momenta,
)
from nqkit.dynamics import GeometryPack
from nqkit.graded import GradedPoly, antighost_name, ghost_name, momentum_name
from nqkit.poly import EvenPoly, Rat
from nqkit.problem import load_problem
from nqkit.report import FAIL, PASS, SKIPPED
from nqkit.constraints import structural_two_form
from tests.reference_forms import components, structural
from tests.test_algebroid import abelian_r1, broken_jacobi, rank2_line, so3_action
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_dynamics import flat_pack, identity_metric, zero_connection
from tests.test_graded import word_coefficient
from tests.test_poly import random_poly, ring

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def shear_pair() -> Algebroid:
    """Two commuting unit flows whose frame bracket rotates with position."""
    coords, g = ring(["x"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    x = g["x"]
    structure = [
        [[zero, x], [-x, zero]],
        [[zero, -x], [x, zero]],
    ]
    return algebroid_from_lists(coords, [[one], [one]], structure)


def charge_of(data: Algebroid, alpha=None, magnetic=None) -> Charge:
    """The charge of a frame with no geometry beyond alpha and B."""
    pack = GeometryPack(data.coords, data.rank, alpha=alpha, magnetic=magnetic)
    return build_charge(data, pack)


def line_pack(rank: int, **fields) -> GeometryPack:
    coords, _ = ring(["x"])
    return GeometryPack(
        coords,
        rank,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=zero_connection(coords, rank),
        **fields,
    )


# the charge


def test_build_s_abelian_line():
    data = abelian_r1()
    S = build_S(data)
    ctx = S.ctx
    assert S == ctx.var(ghost_name(1)) * ctx.var("p_x")


def test_build_s_affine_line_pair():
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    S = build_S(data, alpha=alpha)
    ctx = S.ctx
    x = ctx.var("x")
    p = ctx.var("p_x")
    xi1, xi2 = ctx.var(ghost_name(1)), ctx.var(ghost_name(2))
    pi1 = ctx.var(antighost_name(1))
    expected = xi1 * p + x * xi2 * p - xi1 * xi2 * pi1 + xi1 + x * xi2
    assert S == expected


def explicit_charge(data, alpha, magnetic):
    """rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c + alpha_a xi^a, term by term."""
    ctx = charge_context(data, magnetic)
    xi = [ctx.var(ghost_name(a + 1)) for a in range(data.rank)]
    S = ctx.zero()
    for a in range(data.rank):
        for i, name in enumerate(data.coords):
            S = S + ctx.lift(data.anchor[a][i]) * xi[a] * ctx.var(momentum_name(name))
        if alpha is not None:
            S = S + ctx.lift(alpha[a]) * xi[a]
    for a, b, c in product(range(data.rank), repeat=3):
        S = S - ctx.lift(data.structure[c][a][b]) * xi[a] * xi[b] * ctx.var(
            antighost_name(c + 1)
        ) / 2
    return S


def test_lifted_charge_matches_the_explicit_formula():
    paths = sorted(CORPUS.glob("*.json"))
    problems = [load_problem(path) for path in paths]
    assert any(p.pack.alpha is not None for p in problems)
    assert any(p.pack.magnetic is not None for p in problems)
    for problem in problems:
        data, alpha, magnetic = problem.data, problem.pack.alpha, problem.pack.magnetic
        expected = explicit_charge(data, alpha, magnetic)
        assert build_S(data, alpha=alpha, magnetic=magnetic) == expected
        assert build_S(data, alpha=alpha, ctx=expected.ctx) == expected


def test_build_s_rejects_bad_affine_part():
    data = rank2_line()
    other_coords, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        build_S(data, alpha=[h["y"], h["y"]])
    coords, g = ring(["x"])
    three = [g["x"], g["x"], g["x"]]
    with pytest.raises(ValueError, match="alpha must have 2 components"):
        build_S(data, alpha=three)


# nilpotency


def test_master_passes_on_closed_frames():
    for data in (abelian_r1(), so3_action()):
        report = check_master(charge_of(data))
        assert report.status == PASS
        assert report.residuals == []
        assert any("dual route" in note for note in report.notes)


def test_master_broken_jacobi_reproduces_both_defects():
    data = broken_jacobi()
    S = build_S(data)
    ctx = S.ctx
    ss = ctx.poisson(S, S)
    even = ctx.even_names
    p = EvenPoly.variable(even, "p_x")
    x = EvenPoly.variable(even, "x")
    # twice the anchor defect contracted with the momenta
    assert word_coefficient(ss, (0, 1)) == 2 * p
    assert word_coefficient(ss, (1, 2)) == -2 * x * p
    # the jacobi defect itself on the cubic-ghost word
    assert word_coefficient(ss, (0, 1, 2, 3)) == EvenPoly.const(even, -2)
    report = check_master(charge_of(data))
    assert report.status == FAIL
    assert [label for label, _ in report.residuals] == [
        "ss[xi_1 xi_2]",
        "ss[xi_2 xi_3]",
        "ss[xi_1 xi_2 xi_3 pi_1]",
    ]


def test_master_sees_the_structural_two_form():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), g["x1"])
    S = build_S(data, alpha=alpha)
    ss = S.ctx.poisson(S, S)
    assert word_coefficient(ss, (0, 1)) == EvenPoly.const(S.ctx.even_names, 2)
    assert check_master(charge_of(data, alpha)).status == FAIL
    report = check_master(charge_of(data, alpha, magnetic_plane(1)))
    assert report.status == PASS


def test_master_matches_axioms_and_twisted_closure():
    coords2, g2 = ring(["x1", "x2"])
    alpha01 = (EvenPoly.zero(coords2), g2["x1"])
    coords1, g1 = ring(["x"])
    alpha_line = (EvenPoly.const(coords1, 1), g1["x"])
    cases = [
        (so3_action(), None, None),
        (broken_jacobi(), None, None),
        (abelian_r2(), alpha01, None),
        (abelian_r2(), alpha01, magnetic_plane(1)),
        (abelian_r2(), None, magnetic_plane(1)),
        (rank2_line(), alpha_line, None),
    ]
    for data, alpha, magnetic in cases:
        report = check_master(charge_of(data, alpha, magnetic))
        closed = (
            check_axioms(data).status == PASS
            and structural(data, alpha, magnetic) == {}
        )
        assert (report.status == PASS) == closed


@pytest.mark.parametrize("name", sorted(path.stem for path in CORPUS.glob("*.json")))
def test_structural_two_form_matches_the_reference_on_the_corpus(name):
    problem = load_problem(CORPUS / f"{name}.json")
    data, alpha, magnetic = problem.data, problem.pack.alpha, problem.pack.magnetic
    ghost = structural_two_form(data, alpha, magnetic)
    assert components(ghost, data.coords) == structural(data, alpha, magnetic)


def test_structural_two_form_matches_the_reference_on_random_data():
    # the five fixtures of acceptance criterion 5
    rng = random.Random(2718)
    fixtures = [abelian_r1(), abelian_r2(), so3_action(), rank2_line(), shear_pair()]
    for data in fixtures:
        coords, n = data.coords, data.base_dim
        for _ in range(10):
            alpha = [random_poly(rng, coords) for _ in range(data.rank)]
            magnetic = [[data.zero()] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                magnetic[i][j] = random_poly(rng, coords, 2)
                magnetic[j][i] = -magnetic[i][j]
            ghost = structural_two_form(data, alpha, magnetic)
            assert components(ghost, coords) == structural(data, alpha, magnetic)


def test_master_rejects_even_input():
    charge = charge_of(abelian_r1())
    with pytest.raises(ValueError, match="ghost degree"):
        check_master(
            Charge(
                charge.constraints,
                charge.pack,
                charge.ctx,
                charge.core,
                charge.ctx.var("p_x"),
            )
        )


# covariant momenta


def test_covariant_momenta_plain_and_corrected():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    ctx = charge_context(data)
    assert covariant_momenta(pack, ctx) == [
        ctx.var("p_x1"),
        ctx.var("p_x2"),
        ctx.var("p_x3"),
    ]

    coords, _ = ring(["x"])
    omega = zero_connection(coords, 1)
    omega[0][0][0] = EvenPoly.const(coords, 5)
    pack1 = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    ctx1 = charge_context(abelian_r1())
    (pcov,) = covariant_momenta(pack1, ctx1)
    expected = ctx1.var("p_x") - 5 * ctx1.var(ghost_name(1)) * ctx1.var(
        antighost_name(1)
    )
    assert pcov == expected


def test_covariant_momenta_constant_frame_covariance():
    # conjugating the connection by a constant frame change and rotating
    # the ghost pair accordingly leaves the corrected momenta unchanged
    coords, _ = ring(["x"])
    values = {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}
    omega = zero_connection(coords, 2)
    for (b, a), v in values.items():
        omega[b][a][0] = EvenPoly.const(coords, v)
    M = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    Minv = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    conjugated = zero_connection(coords, 2)
    for b in range(2):
        for a in range(2):
            total = Fraction(0)
            for u in range(2):
                for v in range(2):
                    total += M[b][u] * values.get((u, v), 0) * Minv[v][a]
            conjugated[b][a][0] = EvenPoly.const(coords, total)

    pack = GeometryPack(coords, 2, omega=omega)
    tilted = GeometryPack(coords, 2, omega=conjugated)
    ctx = charge_context(rank2_line())
    images = {}
    for a in range(2):
        images[ghost_name(a + 1)] = sum(
            (M[a][c] * ctx.var(ghost_name(c + 1)) for c in range(2)), ctx.zero()
        )
        images[antighost_name(a + 1)] = sum(
            (Minv[d][a] * ctx.var(antighost_name(d + 1)) for d in range(2)),
            ctx.zero(),
        )
    plain = covariant_momenta(pack, ctx)
    rotated = [q.substitute(images) for q in covariant_momenta(tilted, ctx)]
    assert rotated == plain


# the covariant hamiltonian


def test_build_h_classical_limit():
    data = so3_action()
    coords = data.coords
    _, g = ring(list(coords))
    potential = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    pack = flat_pack(coords, data.rank, potential=potential)
    H = build_H(pack)
    ctx = H.ctx
    expected = ctx.lift(potential) + sum(
        (ctx.var(momentum_name(name)) ** 2 for name in coords), ctx.zero()
    ) / 2
    assert H == expected


def test_build_h_connection_terms():
    coords, _ = ring(["x"])
    omega = zero_connection(coords, 1)
    omega[0][0][0] = EvenPoly.const(coords, 3)
    pack = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    H = build_H(pack)
    ctx = H.ctx
    expected = ctx.var("p_x") ** 2 / 2 - 3 * ctx.var("p_x") * ctx.var(
        ghost_name(1)
    ) * ctx.var(antighost_name(1))
    assert H == expected


def test_build_h_ghost_square():
    coords, _ = ring(["x"])
    values = {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}
    omega = zero_connection(coords, 2)
    for (b, a), v in values.items():
        omega[b][a][0] = EvenPoly.const(coords, v)
    pack = GeometryPack(coords, 2, g_inv=identity_metric(coords), omega=omega)
    H = build_H(pack)
    even = H.ctx.even_names
    # word (xi_1, pi_1) carries the cross term -g p omega
    assert word_coefficient(H, (0, 2)) == -2 * EvenPoly.variable(even, "p_x")
    # the square of the ghost correction survives on the four-letter word
    assert word_coefficient(H, (0, 1, 2, 3)) == EvenPoly.const(even, 1)


def test_build_h_requires_fields():
    coords, g = ring(["x"])
    with pytest.raises(ValueError, match="g_inv"):
        build_H(GeometryPack(coords, 1, potential=g["x"]))
    with pytest.raises(ValueError, match="omega"):
        build_H(GeometryPack(coords, 1, g_inv=identity_metric(coords)))
    with pytest.raises(ValueError, match="absorb"):
        build_H(
            GeometryPack(
                coords,
                1,
                g_inv=identity_metric(coords),
                omega=zero_connection(coords, 1),
                beta=(g["x"],),
            )
        )


# assembly and the obstruction tensor


def test_assemble_so3_flat_all_pass():
    data = so3_action()
    pkg = assemble_bfv(build_charge(data, flat_pack(data.coords, data.rank)))
    assert [r.status for r in pkg.reports] == [PASS, PASS, PASS]
    assert [r.name for r in pkg.reports] == ["master", "cartan", "charge_invariance"]


def test_assemble_abelian_plane_all_pass():
    data = abelian_r2()
    pkg = assemble_bfv(build_charge(data, flat_pack(data.coords, data.rank)))
    assert all(r.status == PASS for r in pkg.reports)


def test_cartan_obstruction_on_the_shear_pair():
    data = shear_pair()
    assert check_axioms(data).status == PASS
    pkg = assemble_bfv(build_charge(data, line_pack(2)))
    cartan = pkg.report("cartan")
    assert cartan.status == FAIL
    assert cartan.residuals == [
        ("S[c=1,j=1,a=1,b=2]", "-1"),
        ("S[c=2,j=1,a=1,b=2]", "1"),
    ]
    invariance = pkg.report("charge_invariance")
    assert invariance.status == FAIL
    assert [label for label, _ in invariance.residuals] == ["cartan_part"]


def test_cartan_shape_violation_on_non_metric_connection():
    data = rank2_line()
    coords = data.coords
    omega = zero_connection(coords, 2)
    for (b, a), v in {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}.items():
        omega[b][a][0] = EvenPoly.const(coords, v)
    pack = GeometryPack(
        coords,
        2,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=omega,
    )
    with pytest.raises(ValueError, match="covariant tensor shape"):
        assemble_bfv(build_charge(data, pack))


def test_cartan_preconditions():
    data = so3_action()
    no_lowered = GeometryPack(
        data.coords,
        data.rank,
        g_inv=identity_metric(data.coords),
        omega=zero_connection(data.coords, data.rank),
    )
    pkg = assemble_bfv(build_charge(data, no_lowered))
    assert pkg.report("cartan").status == SKIPPED

    broken = broken_jacobi()
    pkg2 = assemble_bfv(build_charge(broken, flat_pack(broken.coords, broken.rank)))
    assert pkg2.report("master").status == FAIL
    assert pkg2.report("cartan").status == SKIPPED


def test_assemble_topological_case():
    data = so3_action()
    pkg = assemble_bfv(build_charge(data, GeometryPack(data.coords, data.rank)))
    assert pkg.H.is_zero
    assert pkg.report("master").status == PASS
    assert pkg.report("cartan").status == SKIPPED
    assert pkg.report("charge_invariance").status == PASS


def test_potential_sub_residual():
    data = so3_action()
    coords = data.coords
    _, g = ring(list(coords))
    radial = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    invariant = assemble_bfv(
        build_charge(data, flat_pack(coords, data.rank, potential=radial))
    )
    assert invariant.report("charge_invariance").status == PASS

    tilted = assemble_bfv(
        build_charge(data, flat_pack(coords, data.rank, potential=g["x1"]))
    )
    report = tilted.report("charge_invariance")
    assert report.status == FAIL
    assert [label for label, _ in report.residuals] == ["potential_part"]


def test_package_validates_grading():
    data = abelian_r1()
    pack = flat_pack(data.coords, 1)
    pkg = assemble_bfv(build_charge(data, pack))
    charge = pkg.charge
    odd = Charge(
        charge.constraints, charge.pack, charge.ctx, charge.core, pkg.ctx.var("p_x")
    )
    with pytest.raises(ValueError, match="odd of ghost degree"):
        BFVPackage(odd, pkg.H, pkg.SH, ())
    with pytest.raises(ValueError, match="even of ghost degree"):
        BFVPackage(pkg.charge, pkg.ctx.var(ghost_name(1)), pkg.SH, ())


# the bracket as a differential


def random_window_element(
    ctx, rng: random.Random, rank: int, ghost: int
) -> GradedPoly:
    n = len(ctx.even_names) // 2
    words = []
    for k in range(rank + 1):
        if not 0 <= k - ghost <= rank:
            continue
        for xs in combinations(range(rank), k):
            for ps in combinations(range(rank), k - ghost):
                words.append(tuple(xs) + tuple(rank + c for c in ps))
    terms = []
    for _ in range(4):
        word = words[rng.randrange(len(words))]
        exponent = tuple(rng.randrange(2) for _ in range(2 * n))
        terms.append((word, exponent, Rat(rng.randrange(-4, 5))))
    return GradedPoly.from_terms(ctx, terms)


def test_bracket_with_charge_squares_to_zero():
    data = so3_action()
    S = build_S(data)
    ctx = S.ctx
    rng = random.Random(11)
    for ghost in (0, -1):
        for _ in range(5):
            e = random_window_element(ctx, rng, data.rank, ghost)
            assert ctx.poisson(S, ctx.poisson(S, e)).is_zero


def test_ghost_degree_is_additive_under_the_bracket():
    data = so3_action()
    ctx = charge_context(data)
    rng = random.Random(23)
    odd_count = len(ctx.odd_names)
    for _ in range(20):
        word_f = tuple(sorted(rng.sample(range(odd_count), rng.randrange(3))))
        word_g = tuple(sorted(rng.sample(range(odd_count), rng.randrange(3))))
        exp_f = tuple(rng.randrange(2) for _ in range(6))
        exp_g = tuple(rng.randrange(2) for _ in range(6))
        F = GradedPoly.from_terms(ctx, [(word_f, exp_f, Rat(1))])
        G = GradedPoly.from_terms(ctx, [(word_g, exp_g, Rat(1))])
        bracket = ctx.poisson(F, G)
        if not bracket.is_zero:
            assert bracket.ghost_degree() == F.ghost_degree() + G.ghost_degree()


# truncated ghost-number-zero cohomology


def test_h0_abelian_line_window():
    data = abelian_r1()
    report = bfv_h0(build_charge(data, flat_pack(data.coords, 1)), 2, 1)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (4, 3, 1)
    assert any("truncated" in note for note in report.notes)


def test_h0_abelian_plane_window():
    data = abelian_r2()
    report = bfv_h0(build_charge(data, flat_pack(data.coords, 2)), 1, 1)
    assert report.h_dim == 1


def test_h0_so3_constant_window():
    # only the overall constants survive at degree (0, 0): the window
    # elements bilinear in xi and pi map onto the angular momenta, which
    # are linearly independent over the base
    data = so3_action()
    report = bfv_h0(build_charge(data, flat_pack(data.coords, 3)), 0, 0)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (1, 0, 1)


def test_h0_rejects_bad_input():
    data = abelian_r1()
    charge = build_charge(data, flat_pack(data.coords, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        bfv_h0(charge, -1, 0)
    broken = broken_jacobi()
    charge2 = build_charge(broken, flat_pack(broken.coords, broken.rank))
    with pytest.raises(ValueError, match="master equation fails"):
        bfv_h0(charge2, 1, 1)
