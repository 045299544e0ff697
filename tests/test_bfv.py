"""The extended charge, the covariant Hamiltonian and their bracket battery."""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from nqkit.algebroid import Algebroid, check_axioms
from nqkit.bfv import (
    BFVPackage,
    _cartan_core,
    assemble_bfv,
    bfv_h0,
    build_H,
    build_S,
    check_master,
    covariant_momenta,
)
from nqkit.dynamics import GeometryPack, build_hamiltonian
from nqkit.graded import (
    GradedPoly,
    antighost_name,
    extended_context,
    ghost_name,
    momentum_name,
)
from nqkit.poly import EvenPoly, Rat
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS, SKIPPED
from nqkit.constraints import (
    affine_charge,
    build_constraints,
    phase_space,
    structural_two_form,
)
from tests.conftest import frame_constraints, frame_package
from tests.cubes import connection_cube, cube_algebroid, structure_cube
from tests.reference_forms import components, structural, substitute
from tests.test_algebroid import (
    abelian_r1,
    broken_jacobi,
    random_frame,
    rank2_line,
    so3_action,
)
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_dynamics import flat_pack, identity_metric, random_pack
from tests.test_graded import word_coefficient
from tests.test_poly import random_poly, ring

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
_spec = importlib.util.spec_from_file_location(
    "cli_matrix", ROOT / "tools" / "cli_matrix.py"
)
cli_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_matrix)


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
    return cube_algebroid(coords, [[one], [one]], structure)


def line_pack(rank: int, **fields) -> GeometryPack:
    coords, _ = ring(["x"])
    return GeometryPack(
        coords,
        rank,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega={},
        **fields,
    )


# the charge


def test_build_s_abelian_line():
    data = abelian_r1()
    S = build_S(data, phase_space(data))
    ctx = S.ctx
    assert S == ctx.var(ghost_name(1)) * ctx.var("p_x")


def test_build_s_affine_line_pair():
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    ctx = phase_space(data)
    S = build_S(data, ctx) + affine_charge(data, alpha, ctx)
    x = ctx.var("x")
    p = ctx.var("p_x")
    xi1, xi2 = ctx.var(ghost_name(1)), ctx.var(ghost_name(2))
    pi1 = ctx.var(antighost_name(1))
    expected = xi1 * p + x * xi2 * p - xi1 * xi2 * pi1 + xi1 + x * xi2
    assert S == expected


def explicit_charge(data, alpha, magnetic):
    """rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c + alpha_a xi^a, term by term."""
    ctx = phase_space(data, magnetic)
    xi = [ctx.var(ghost_name(a + 1)) for a in range(data.rank)]
    S = ctx.zero()
    for a in range(data.rank):
        for i, name in enumerate(data.coords):
            S = S + ctx.lift(data.anchor[a][i]) * xi[a] * ctx.var(momentum_name(name))
        if alpha is not None:
            S = S + ctx.lift(alpha[a]) * xi[a]
    C = structure_cube(data)
    for a, b, c in product(range(data.rank), repeat=3):
        S = S - ctx.lift(C[c][a][b]) * xi[a] * xi[b] * ctx.var(
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
        ctx = phase_space(data, magnetic)
        assert build_S(data, ctx) + affine_charge(data, alpha, ctx) == expected
        cs = frame_constraints(data, problem.pack)
        assert (cs.core, cs.S) == (build_S(data, ctx), expected)


def test_charge_refuses_the_pack_of_another_frame():
    # the one check of frame/pack agreement, made by the assembly; the
    # classical-limit reference reads both off the package and does not
    # repeat it
    data = abelian_r1()
    cs = build_constraints(data, None, None)
    for pack in (flat_pack(data.coords, 2), flat_pack(("y",), 1)):
        with pytest.raises(ValueError, match="disagree on base or rank"):
            assemble_bfv(cs, pack)


def test_build_s_rejects_bad_affine_part():
    data = rank2_line()
    ctx = phase_space(data)
    other_coords, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        affine_charge(data, [h["y"], h["y"]], ctx)
    coords, g = ring(["x"])
    three = [g["x"], g["x"], g["x"]]
    with pytest.raises(ValueError, match="alpha must have 2 components"):
        affine_charge(data, three, ctx)


# nilpotency


def test_master_passes_on_closed_frames():
    for data in (abelian_r1(), so3_action()):
        report = check_master(build_constraints(data))
        assert report.status == PASS
        assert report.residuals == []
        assert any("dual route" in note for note in report.notes)


def test_master_broken_jacobi_reproduces_both_defects():
    data = broken_jacobi()
    S = build_S(data, phase_space(data))
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
    report = check_master(build_constraints(data))
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
    ctx = phase_space(data)
    S = build_S(data, ctx) + affine_charge(data, alpha, ctx)
    ss = S.ctx.poisson(S, S)
    assert word_coefficient(ss, (0, 1)) == EvenPoly.const(S.ctx.even_names, 2)
    assert check_master(build_constraints(data, alpha)).status == FAIL
    report = check_master(build_constraints(data, alpha, magnetic_plane(1)))
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
        report = check_master(build_constraints(data, alpha, magnetic))
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


# covariant momenta


def test_covariant_momenta_plain_and_corrected():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    ctx = phase_space(data)
    assert covariant_momenta(pack, ctx) == [
        ctx.var("p_x1"),
        ctx.var("p_x2"),
        ctx.var("p_x3"),
    ]

    coords, _ = ring(["x"])
    omega = {(0, 0, 0): EvenPoly.const(coords, 5)}
    pack1 = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    ctx1 = phase_space(abelian_r1())
    (pcov,) = covariant_momenta(pack1, ctx1)
    expected = ctx1.var("p_x") - 5 * ctx1.var(ghost_name(1)) * ctx1.var(
        antighost_name(1)
    )
    assert pcov == expected


def covariant_momenta_by_full_sums(pack, ctx):
    """p_i - omega^b_ai xi^a pi_b summed over every (a, b), zeros included."""
    omega = connection_cube(pack)
    out = []
    for i, name in enumerate(pack.coords):
        p = ctx.var(momentum_name(name))
        for a in range(pack.rank):
            for b in range(pack.rank):
                p = p - ctx.lift(omega[b][a][i]) * ctx.var(
                    ghost_name(a + 1)
                ) * ctx.var(antighost_name(b + 1))
        out.append(p)
    return out


def test_covariant_momenta_match_the_full_sums():
    rng = random.Random(47)
    nonzero = 0
    for _ in range(6):
        data = random_frame(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        pack = random_pack(rng, data)
        ctx = phase_space(data)
        assert covariant_momenta(pack, ctx) == covariant_momenta_by_full_sums(
            pack, ctx
        )
        nonzero += len(pack.omega)
    assert nonzero > 0


def test_covariant_momenta_constant_frame_covariance():
    # conjugating the connection by a constant frame change and rotating
    # the ghost pair accordingly leaves the corrected momenta unchanged
    coords, _ = ring(["x"])
    values = {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}
    omega = {}
    for (b, a), v in values.items():
        omega[(b, a, 0)] = EvenPoly.const(coords, v)
    M = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    Minv = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    conjugated = {}
    for b in range(2):
        for a in range(2):
            total = Fraction(0)
            for u in range(2):
                for v in range(2):
                    total += M[b][u] * values.get((u, v), 0) * Minv[v][a]
            conjugated[(b, a, 0)] = EvenPoly.const(coords, total)

    pack = GeometryPack(coords, 2, omega=omega)
    tilted = GeometryPack(coords, 2, omega=conjugated)
    ctx = phase_space(rank2_line())
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
    rotated = [substitute(q, images) for q in covariant_momenta(tilted, ctx)]
    assert rotated == plain


# the covariant hamiltonian


def test_build_h_classical_limit():
    data = so3_action()
    coords = data.coords
    _, g = ring(list(coords))
    potential = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    pack = flat_pack(coords, data.rank, potential=potential)
    H = build_H(pack, extended_context(pack.coords, pack.rank))
    ctx = H.ctx
    expected = ctx.lift(potential) + sum(
        (ctx.var(momentum_name(name)) ** 2 for name in coords), ctx.zero()
    ) / 2
    assert H == expected


def test_build_h_connection_terms():
    coords, _ = ring(["x"])
    omega = {(0, 0, 0): EvenPoly.const(coords, 3)}
    pack = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    H = build_H(pack, extended_context(pack.coords, pack.rank))
    ctx = H.ctx
    expected = ctx.var("p_x") ** 2 / 2 - 3 * ctx.var("p_x") * ctx.var(
        ghost_name(1)
    ) * ctx.var(antighost_name(1))
    assert H == expected


def test_build_h_ghost_square():
    coords, _ = ring(["x"])
    values = {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}
    omega = {}
    for (b, a), v in values.items():
        omega[(b, a, 0)] = EvenPoly.const(coords, v)
    pack = GeometryPack(coords, 2, g_inv=identity_metric(coords), omega=omega)
    H = build_H(pack, extended_context(pack.coords, pack.rank))
    even = H.ctx.even_names
    # word (xi_1, pi_1) carries the cross term -g p omega
    assert word_coefficient(H, (0, 2)) == -2 * EvenPoly.variable(even, "p_x")
    # the square of the ghost correction survives on the four-letter word
    assert word_coefficient(H, (0, 1, 2, 3)) == EvenPoly.const(even, 1)


def test_build_h_requires_fields():
    coords, g = ring(["x"])
    ctx = extended_context(coords, 1)
    with pytest.raises(ValueError, match="g_inv"):
        build_H(GeometryPack(coords, 1, potential=g["x"]), ctx)
    with pytest.raises(ValueError, match="omega"):
        build_H(GeometryPack(coords, 1, g_inv=identity_metric(coords)), ctx)
    with pytest.raises(ValueError, match="absorb"):
        build_H(
            GeometryPack(
                coords,
                1,
                g_inv=identity_metric(coords),
                omega={},
                beta=(g["x"],),
            ),
            ctx,
        )
    # the assembly refuses a drift before it looks at the metric
    data = abelian_r1()
    for g_inv in (None, identity_metric(data.coords)):
        pack = GeometryPack(data.coords, 1, g_inv=g_inv, beta=(g["x"],))
        with pytest.raises(ValueError, match="^drift term present"):
            frame_package(data, pack)


# assembly and the obstruction tensor


def test_assemble_so3_flat_all_pass():
    data = so3_action()
    pkg = frame_package(data, flat_pack(data.coords, data.rank))
    assert [r.status for r in pkg.reports] == [PASS, PASS, PASS]
    assert [r.name for r in pkg.reports] == ["master", "cartan", "charge_invariance"]


def test_assemble_abelian_plane_all_pass():
    data = abelian_r2()
    pkg = frame_package(data, flat_pack(data.coords, data.rank))
    assert all(r.status == PASS for r in pkg.reports)


def test_cartan_obstruction_on_the_shear_pair():
    data = shear_pair()
    assert check_axioms(data).status == PASS
    pkg = frame_package(data, line_pack(2))
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
    omega = {}
    for (b, a), v in {(0, 0): 2, (0, 1): 3, (1, 0): 5, (1, 1): 7}.items():
        omega[(b, a, 0)] = EvenPoly.const(coords, v)
    pack = GeometryPack(
        coords,
        2,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=omega,
    )
    # the package still assembles: the shape failure is the cartan finding
    pkg = frame_package(data, pack)
    assert pkg.report("master").status == PASS
    cartan = pkg.report("cartan")
    assert cartan.status == FAIL
    assert cartan.residuals == [
        (
            "shape",
            "bracket residual leaves the covariant tensor shape; "
            "offending words: xi_1, xi_2",
        )
    ]
    assert pkg.report("charge_invariance").status == FAIL


# the twins of the CLI matrix whose surface H does not preserve
SHAPE_TWINS = (
    "abelian_r2_metric_magnetic",
    "abelian_r2_connection",
    "so3_action_geometry",
)


def evolution_inputs() -> dict[str, dict]:
    """Corpus files with both metrics, a connection and no drift, plus the
    twisted and connection twins of the CLI matrix, built as it builds them."""
    docs = {
        path.stem: json.loads(path.read_text())
        for path in sorted(CORPUS.glob("*.json"))
    }
    out = {
        name: doc
        for name, doc in docs.items()
        if {"metric", "metric_inv", "connection"} <= doc.keys() and "beta" not in doc
    }
    for name, (base, field) in cli_matrix.TWISTED_TWINS.items():
        twisted = docs[field]
        out[name] = dict(
            docs[base], alpha=twisted["alpha"], magnetic=twisted["magnetic"]
        )
    for name in ("abelian_r2_connection", "so3_action_geometry"):
        base, fields = cli_matrix.FIELD_TWINS[name]
        out[name] = dict(docs[base], **fields)
    return out


@pytest.mark.parametrize("name, doc", sorted(evolution_inputs().items()))
def test_one_ghost_part_of_sh_is_the_evolution_residual(name, doc):
    # (S, H) at one ghost is -xi^a ({H, Phi_a} - omega^b_ai g^ij p_j Phi_b),
    # H the evolution Hamiltonian; H_cov has no tau, so neither has this
    problem = problem_from_dict(doc)
    pack = problem.pack
    cs = build_constraints(problem.data, pack.alpha, pack.magnetic)
    pkg = assemble_bfv(cs, pack)
    ctx = pkg.ctx
    H = build_hamiltonian(pack, ctx)
    momenta = [ctx.var(momentum_name(x)) for x in pack.coords]
    predicted = ctx.zero()
    for a, phi in enumerate(cs.phis):
        residual = ctx.poisson(H, phi)
        for (b, c, i), w in pack.omega.items():
            if c != a:
                continue
            for j, p_j in enumerate(momenta):
                gamma = ctx.lift(w * pack.g_inv[i][j])
                residual = residual - gamma * p_j * cs.phis[b]
        predicted = predicted - ctx.var(ghost_name(a + 1)) * residual
    one_ghost = GradedPoly(
        ctx, {word: f for word, f in pkg.SH.parts.items() if word.bit_count() == 1}
    )
    assert one_ghost == predicted
    # a non-invariant surface is exactly the shape failure of cartan
    cartan = pkg.report("cartan")
    shape = [label for label, _ in cartan.residuals] == ["shape"]
    assert shape == (not one_ghost.is_zero)
    assert shape == (name in SHAPE_TWINS)


def test_cartan_reports_the_part_no_tensor_reassembles():
    # (core, H_cov) of a connection twin without its one-ghost words: every
    # word has the shape, but the xi xi xi pi pi words are not the rebuilt
    # tensor contracted with the covariant momenta
    problem = problem_from_dict(evolution_inputs()["so3_action_geometry"])
    pack = problem.pack
    cs = build_constraints(problem.data, pack.alpha, pack.magnetic)
    ctx = cs.ctx
    h_cov = build_H(pack, ctx) - ctx.lift(pack.potential)
    R = ctx.poisson(cs.core, h_cov)
    assert sum(word.bit_count() == 1 for word in R.parts) == 3
    R = GradedPoly(ctx, {w: f for w, f in R.parts.items() if w.bit_count() != 1})
    report = _cartan_core(cs, pack, R)
    assert report.status == FAIL
    assert report.residuals == [
        (
            "shape",
            "bracket residual leaves the covariant tensor shape; unmatched part: "
            "-x1*x2*x3*xi_1*xi_2*xi_3*pi_1*pi_2 + x1*x3^2*xi_1*xi_2*xi_3*pi_1*pi_2"
            " + 2*x1^2*x3*xi_1*xi_2*xi_3*pi_1*pi_3"
            " + 2*x2^2*x3*xi_1*xi_2*xi_3*pi_2*pi_3"
            " - x2*x3^2*xi_1*xi_2*xi_3*pi_2*pi_3 - x3^3*xi_1*xi_2*xi_3*pi_2*pi_3",
        )
    ]


def test_cartan_preconditions():
    data = so3_action()
    no_lowered = GeometryPack(
        data.coords,
        data.rank,
        g_inv=identity_metric(data.coords),
        omega={},
    )
    pkg = frame_package(data, no_lowered)
    assert pkg.report("cartan").status == SKIPPED

    broken = broken_jacobi()
    pkg2 = frame_package(broken, flat_pack(broken.coords, broken.rank))
    assert pkg2.report("master").status == FAIL
    assert pkg2.report("cartan").status == SKIPPED


def test_assemble_topological_case():
    data = so3_action()
    pkg = frame_package(data, GeometryPack(data.coords, data.rank))
    assert pkg.H.is_zero
    assert pkg.report("master").status == PASS
    assert pkg.report("cartan").status == SKIPPED
    assert pkg.report("charge_invariance").status == PASS


def test_potential_sub_residual():
    data = so3_action()
    coords = data.coords
    _, g = ring(list(coords))
    radial = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    invariant = frame_package(data, flat_pack(coords, data.rank, potential=radial))
    assert invariant.report("charge_invariance").status == PASS

    tilted = frame_package(data, flat_pack(coords, data.rank, potential=g["x1"]))
    report = tilted.report("charge_invariance")
    assert report.status == FAIL
    assert [label for label, _ in report.residuals] == ["potential_part"]


def test_package_validates_grading():
    data = abelian_r1()
    pack = flat_pack(data.coords, 1)
    pkg = frame_package(data, pack)
    with pytest.raises(ValueError, match="even of ghost degree"):
        BFVPackage(pkg.constraints, pack, pkg.ctx.var(ghost_name(1)), pkg.SH, ())


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
    S = build_S(data, phase_space(data))
    ctx = S.ctx
    rng = random.Random(11)
    for ghost in (0, -1):
        for _ in range(5):
            e = random_window_element(ctx, rng, data.rank, ghost)
            assert ctx.poisson(S, ctx.poisson(S, e)).is_zero


def test_ghost_degree_is_additive_under_the_bracket():
    data = so3_action()
    ctx = phase_space(data)
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
    report = bfv_h0(build_constraints(data), 2, 1)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (4, 3, 1)
    assert any("truncated" in note for note in report.notes)


def test_h0_abelian_plane_window():
    data = abelian_r2()
    report = bfv_h0(build_constraints(data), 1, 1)
    assert report.h_dim == 1


def test_h0_so3_constant_window():
    # only the overall constants survive at degree (0, 0): the window
    # elements bilinear in xi and pi map onto the angular momenta, which
    # are linearly independent over the base
    data = so3_action()
    report = bfv_h0(build_constraints(data), 0, 0)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (1, 0, 1)


def test_h0_rejects_bad_input():
    data = abelian_r1()
    with pytest.raises(ValueError, match="nonnegative"):
        bfv_h0(build_constraints(data), -1, 0)
    with pytest.raises(ValueError, match="master equation fails"):
        bfv_h0(build_constraints(broken_jacobi()), 1, 1)
