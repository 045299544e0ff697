"""The extended charge, the covariant Hamiltonian and their bracket battery."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import nqkit.bfv
import nqkit.dynamics
from nqkit.algebroid import Algebroid, check_axioms
from nqkit.bfv import (
    _cartan_core,
    assemble_bfv,
    bfv_h0,
    build_S,
    check_master,
    covariant_momenta,
)
from nqkit.dynamics import GeometryPack, build_hamiltonian, raised
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
from nqkit.constraints import ConstraintSet
from tests.conftest import frame_package, invoke
from tests.cubes import connection_cube, cube_algebroid, structure_cube
from tests.reference_forms import (
    affine_form,
    components,
    from_parts,
    from_terms,
    ghost_degree,
    structural,
    substitute,
)
from tests.test_algebroid import (
    abelian_r1,
    broken_jacobi,
    random_frame,
    rank2_line,
    so3_action,
)
from tests.test_cli_matrix import TOOL
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_dynamics import flat_pack, identity_metric, random_pack
from tests.test_graded import word_coefficient
from tests.test_poly import random_poly, ring

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


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
    S = build_S(data, data.ctx)
    ctx = S.ctx
    assert S == ctx.var(ghost_name(1)) * ctx.var("p_x")


def test_build_s_refuses_a_context_of_other_coordinates():
    with pytest.raises(ValueError) as refused:
        build_S(abelian_r1(), extended_context(("y",), 1))
    assert str(refused.value) == "the context is not a phase space of this frame"


def test_build_s_affine_line_pair():
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    ctx = data.ctx
    S = build_S(data, ctx) + affine_form(ctx, alpha)
    assert ConstraintSet(data, alpha).S == S
    x = ctx.var("x")
    p = ctx.var("p_x")
    xi1, xi2 = ctx.var(ghost_name(1)), ctx.var(ghost_name(2))
    pi1 = ctx.var(antighost_name(1))
    expected = xi1 * p + x * xi2 * p - xi1 * xi2 * pi1 + xi1 + x * xi2
    assert S == expected


def explicit_charge(data, alpha, magnetic):
    """rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c + alpha_a xi^a, term by term."""
    ctx = ConstraintSet(data, magnetic=magnetic).ctx
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
    assert any(p.constraints.alpha is not None for p in problems)
    assert any(p.constraints.magnetic is not None for p in problems)
    for problem in problems:
        cs = problem.constraints
        data, alpha, magnetic = cs.data, cs.alpha, cs.magnetic
        expected = explicit_charge(data, alpha, magnetic)
        ctx = cs.ctx
        assert build_S(data, ctx) + affine_form(ctx, alpha or ()) == expected
        assert (cs.core, cs.S) == (build_S(data, ctx), expected)


def test_charge_refuses_the_pack_of_another_frame():
    # the one check of frame/pack agreement, made by the assembly; the
    # classical-limit reference reads both off the package and does not
    # repeat it
    data = abelian_r1()
    cs = ConstraintSet(data, None, None)
    for pack in (flat_pack(data.coords, 2), flat_pack(("y",), 1)):
        with pytest.raises(ValueError, match="disagree on base or rank"):
            assemble_bfv(cs, pack)


def test_build_s_rejects_bad_affine_part():
    # the charge takes alpha only through its constraint set, which checks it
    data = rank2_line()
    _, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        ConstraintSet(data, [h["y"], h["y"]])
    coords, g = ring(["x"])
    with pytest.raises(ValueError, match="alpha must have 2 components"):
        ConstraintSet(data, [g["x"], g["x"], g["x"]])


# nilpotency


def test_master_passes_on_closed_frames():
    for data in (abelian_r1(), so3_action()):
        report = check_master(ConstraintSet(data))
        assert report.status == PASS
        assert report.residuals == []
        assert any("dual route" in note for note in report.notes)


def test_master_broken_jacobi_reproduces_both_defects():
    data = broken_jacobi()
    S = build_S(data, data.ctx)
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
    report = check_master(ConstraintSet(data))
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
    ctx = data.ctx
    S = build_S(data, ctx) + affine_form(ctx, alpha)
    ss = S.ctx.poisson(S, S)
    assert word_coefficient(ss, (0, 1)) == EvenPoly.const(S.ctx.even_names, 2)
    assert check_master(ConstraintSet(data, alpha)).status == FAIL
    report = check_master(ConstraintSet(data, alpha, magnetic_plane(1)))
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
        report = check_master(ConstraintSet(data, alpha, magnetic))
        closed = (
            check_axioms(data).status == PASS
            and structural(data, alpha, magnetic) == {}
        )
        assert (report.status == PASS) == closed


@pytest.mark.parametrize("name", sorted(path.stem for path in CORPUS.glob("*.json")))
def test_structural_two_form_matches_the_reference_on_the_corpus(name):
    cs = load_problem(CORPUS / f"{name}.json").constraints
    data, alpha, magnetic = cs.data, cs.alpha, cs.magnetic
    assert components(cs.structural, data.coords) == structural(data, alpha, magnetic)


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
            ghost = ConstraintSet(data, alpha, magnetic).structural
            assert components(ghost, coords) == structural(data, alpha, magnetic)


# covariant momenta


def test_covariant_momenta_plain_and_corrected():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    ctx = data.ctx
    assert covariant_momenta(pack, ctx) == [
        ctx.var("p_x1"),
        ctx.var("p_x2"),
        ctx.var("p_x3"),
    ]

    coords, _ = ring(["x"])
    omega = {(0, 0, 0): EvenPoly.const(coords, 5)}
    pack1 = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    ctx1 = abelian_r1().ctx
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
        _, pack = random_pack(rng, data)
        ctx = data.ctx
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
    ctx = rank2_line().ctx
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
    H = frame_package(data, pack).H
    ctx = H.ctx
    expected = ctx.lift(potential) + sum(
        (ctx.var(momentum_name(name)) ** 2 for name in coords), ctx.zero()
    ) / 2
    assert H == expected


def test_build_h_connection_terms():
    coords, _ = ring(["x"])
    omega = {(0, 0, 0): EvenPoly.const(coords, 3)}
    pack = GeometryPack(coords, 1, g_inv=identity_metric(coords), omega=omega)
    H = frame_package(abelian_r1(), pack).H
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
    H = frame_package(rank2_line(), pack).H
    even = H.ctx.even_names
    # word (xi_1, pi_1) carries the cross term -g p omega
    assert word_coefficient(H, (0, 2)) == -2 * EvenPoly.variable(even, "p_x")
    # the square of the ghost correction survives on the four-letter word
    assert word_coefficient(H, (0, 1, 2, 3)) == EvenPoly.const(even, 1)


def test_build_h_requires_fields():
    coords, g = ring(["x"])
    data = abelian_r1()
    # without an inverse metric H is the lifted potential
    pkg = frame_package(data, GeometryPack(coords, 1, potential=g["x"]))
    assert pkg.H == pkg.constraints.ctx.lift(g["x"])
    with pytest.raises(ValueError, match="omega"):
        frame_package(data, GeometryPack(coords, 1, g_inv=identity_metric(coords)))
    with pytest.raises(ValueError, match="absorb"):
        frame_package(
            data,
            GeometryPack(
                coords,
                1,
                g_inv=identity_metric(coords),
                omega={},
                beta=(g["x"],),
            ),
        )
    # the assembly refuses a drift before it looks at the metric
    for g_inv in (None, identity_metric(data.coords)):
        pack = GeometryPack(data.coords, 1, g_inv=g_inv, beta=(g["x"],))
        with pytest.raises(ValueError, match="^drift term present"):
            frame_package(data, pack)


# assembly and the obstruction tensor


def test_assemble_so3_flat_all_pass():
    data = so3_action()
    pkg = frame_package(data, flat_pack(data.coords, data.rank))
    reports = (pkg.constraints.master, pkg.cartan, pkg.charge_invariance)
    assert [r.status for r in reports] == [PASS, PASS, PASS]
    assert [r.name for r in reports] == ["master", "cartan", "charge_invariance"]


def test_assemble_abelian_plane_all_pass():
    data = abelian_r2()
    pkg = frame_package(data, flat_pack(data.coords, data.rank))
    assert pkg.constraints.master.status == pkg.cartan.status == PASS
    assert pkg.charge_invariance.status == PASS


def test_cartan_obstruction_on_the_shear_pair():
    data = shear_pair()
    assert check_axioms(data).status == PASS
    pkg = frame_package(data, line_pack(2))
    cartan = pkg.cartan
    assert cartan.status == FAIL
    assert cartan.residuals == [
        ("S[c=1,j=1,a=1,b=2]", "-1"),
        ("S[c=2,j=1,a=1,b=2]", "1"),
    ]
    invariance = pkg.charge_invariance
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
    assert pkg.constraints.master.status == PASS
    cartan = pkg.cartan
    assert cartan.status == FAIL
    assert cartan.residuals == [
        (
            "shape",
            "bracket residual leaves the covariant tensor shape; "
            "offending words: xi_1, xi_2",
        )
    ]
    assert pkg.charge_invariance.status == FAIL


# the twins of the CLI matrix whose surface H does not preserve
SHAPE_TWINS = (
    "abelian_r2_metric_magnetic",
    "abelian_r2_connection",
    "so3_action_geometry",
)


def evolution_inputs() -> dict[str, dict]:
    """Corpus files with both metrics, a connection and no drift, plus the
    twisted and connection twins of the CLI matrix."""
    docs = TOOL.inputs()
    names = [path.stem for path in sorted(CORPUS.glob("*.json"))]
    out = {
        name: docs[name]
        for name in names
        if {"metric", "metric_inv", "connection"} <= docs[name].keys()
        and "beta" not in docs[name]
    }
    for name in (*TOOL.TWISTED_TWINS, "abelian_r2_connection", "so3_action_geometry"):
        out[name] = docs[name]
    return out


@pytest.mark.parametrize("name, doc", sorted(evolution_inputs().items()))
def test_one_ghost_part_of_sh_is_the_evolution_residual(name, doc):
    # (S, H) at one ghost is -xi^a ({H, Phi_a} - omega^b_ai g^ij p_j Phi_b),
    # H the evolution Hamiltonian; H_cov has no tau, so neither has this
    problem = problem_from_dict(doc)
    pack, cs = problem.pack, problem.constraints
    pkg = assemble_bfv(cs, pack)
    ctx = pkg.constraints.ctx
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
    one_ghost = from_parts(
        ctx, {word: f for word, f in pkg.SH.by_word().items() if word.bit_count() == 1}
    )
    assert one_ghost == predicted
    # a non-invariant surface is exactly the shape failure of cartan
    cartan = pkg.cartan
    shape = [label for label, _ in cartan.residuals] == ["shape"]
    assert shape == (not one_ghost.is_zero)
    assert shape == (name in SHAPE_TWINS)


def test_cartan_reports_the_part_no_tensor_reassembles():
    # (core, H_cov) of a connection twin without its one-ghost words: every
    # word has the shape, but the xi xi xi pi pi words are not the rebuilt
    # tensor contracted with the covariant momenta
    problem = problem_from_dict(evolution_inputs()["so3_action_geometry"])
    pack, cs = problem.pack, problem.constraints
    ctx = cs.ctx
    package, _ = problem.package
    h_cov = package.H - ctx.lift(pack.potential)
    R = ctx.poisson(cs.core, h_cov)
    assert sum(word.bit_count() == 1 for word in R.by_word()) == 3
    R = from_parts(ctx, {w: f for w, f in R.by_word().items() if w.bit_count() != 1})
    up = raised(ctx, pack.g_inv, covariant_momenta(pack, ctx))
    report = _cartan_core(cs, pack, R, up)
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


@pytest.mark.parametrize("momenta", [(0, 0), (1, 1)], ids=["constant", "quadratic"])
def test_cartan_refuses_a_xi_xi_pi_word_not_linear_in_the_momenta(momenta):
    # xi_1 xi_2 pi_1, alone and times p_x1 p_x2: no candidate entry of the
    # tensor is read off a coefficient of momentum order 0 or 2
    problem = load_problem(CORPUS / "abelian_r2.json")
    cs = problem.constraints
    pack = problem.pack
    R = from_terms(cs.ctx, [((0, 1, 2), (0, 0, *momenta), 1)])
    up = raised(cs.ctx, pack.g_inv, covariant_momenta(pack, cs.ctx))
    report = _cartan_core(cs, pack, R, up)
    assert report.status == FAIL
    assert report.residuals == [
        (
            "shape",
            "bracket residual leaves the covariant tensor shape; "
            "offending words: xi_1 xi_2 pi_1",
        )
    ]


def test_the_package_raises_the_covariant_momenta_once(tmp_path, monkeypatch):
    # H_cov and the cartan reassembly share one raise; shear_pair's tensor
    # is nonzero, so the reassembly really contracts with the list
    raises, handed, reports = [], [], []

    def counted_raised(*args):
        raises.append(raised(*args))
        return raises[-1]

    def recorded_core(cs, pack, R, up):
        handed.append(up)
        reports.append(_cartan_core(cs, pack, R, up))
        return reports[-1]

    for module in (nqkit.bfv, nqkit.dynamics):
        monkeypatch.setattr(module, "raised", counted_raised)
    monkeypatch.setattr(nqkit.bfv, "_cartan_core", recorded_core)
    path, out = str(CORPUS / "shear_pair.json"), str(tmp_path / "bfv.json")
    result = invoke(["emit", path, "--what", "bfv", "--out", out])
    assert result.exit_code == 0
    assert len(raises) == 1
    assert len(handed) == 1 and handed[0] is raises[0]
    assert reports[0].residuals == [
        ("S[c=1,j=1,a=1,b=2]", "-1"),
        ("S[c=2,j=1,a=1,b=2]", "1"),
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
    assert pkg.cartan.status == SKIPPED

    broken = broken_jacobi()
    pkg2 = frame_package(broken, flat_pack(broken.coords, broken.rank))
    assert pkg2.constraints.master.status == FAIL
    assert pkg2.cartan.status == SKIPPED


def test_assemble_topological_case():
    data = so3_action()
    pkg = frame_package(data, GeometryPack(data.coords, data.rank))
    assert pkg.H.is_zero
    assert pkg.constraints.master.status == PASS
    assert pkg.cartan.status == SKIPPED
    assert pkg.charge_invariance.status == PASS


def test_potential_sub_residual():
    data = so3_action()
    coords = data.coords
    _, g = ring(list(coords))
    radial = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    invariant = frame_package(data, flat_pack(coords, data.rank, potential=radial))
    assert invariant.charge_invariance.status == PASS

    tilted = frame_package(data, flat_pack(coords, data.rank, potential=g["x1"]))
    report = tilted.charge_invariance
    assert report.status == FAIL
    assert [label for label, _ in report.residuals] == ["potential_part"]


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
    return from_terms(ctx, terms)


def test_bracket_with_charge_squares_to_zero():
    data = so3_action()
    S = build_S(data, data.ctx)
    ctx = S.ctx
    rng = random.Random(11)
    for ghost in (0, -1):
        for _ in range(5):
            e = random_window_element(ctx, rng, data.rank, ghost)
            assert ctx.poisson(S, ctx.poisson(S, e)).is_zero


def test_ghost_degree_is_additive_under_the_bracket():
    data = so3_action()
    ctx = data.ctx
    rng = random.Random(23)
    odd_count = len(ctx.odd_names)
    for _ in range(20):
        word_f = tuple(sorted(rng.sample(range(odd_count), rng.randrange(3))))
        word_g = tuple(sorted(rng.sample(range(odd_count), rng.randrange(3))))
        exp_f = tuple(rng.randrange(2) for _ in range(6))
        exp_g = tuple(rng.randrange(2) for _ in range(6))
        F = from_terms(ctx, [(word_f, exp_f, Rat(1))])
        G = from_terms(ctx, [(word_g, exp_g, Rat(1))])
        bracket = ctx.poisson(F, G)
        if not bracket.is_zero:
            assert ghost_degree(bracket) == ghost_degree(F) + ghost_degree(G)


# truncated ghost-number-zero cohomology


def test_h0_abelian_line_window():
    data = abelian_r1()
    report = bfv_h0(ConstraintSet(data), 2, 1)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (4, 3, 1)
    assert any("truncated" in note for note in report.notes)


def test_h0_abelian_plane_window():
    data = abelian_r2()
    report = bfv_h0(ConstraintSet(data), 1, 1)
    assert report.h_dim == 1


def test_h0_so3_constant_window():
    # only the overall constants survive at degree (0, 0): the window
    # elements bilinear in xi and pi map onto the angular momenta, which
    # are linearly independent over the base
    data = so3_action()
    report = bfv_h0(ConstraintSet(data), 0, 0)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (1, 0, 1)


def test_h0_rejects_bad_input():
    data = abelian_r1()
    with pytest.raises(ValueError, match="nonnegative"):
        bfv_h0(ConstraintSet(data), -1, 0)
    with pytest.raises(ValueError, match="master equation fails"):
        bfv_h0(ConstraintSet(broken_jacobi()), 1, 1)
