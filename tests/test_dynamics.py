"""Hamiltonian assembly, flow invariance and the geometric side conditions."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from nqkit.constraints import build_constraints, check_first_class
from nqkit.dynamics import (
    DECOMPOSITION_SIGNS,
    _momentum_split,
    GeometryPack,
    build_hamiltonian,
    check_evolution_invariance,
    check_metric_compat,
    check_structural,
    solve_connection,
    StructuralResiduals,
    structural_residuals,
)
from nqkit.graded import cotangent_context, momentum_name
from nqkit.poly import EvenPoly
from nqkit.problem import load_problem
from nqkit.report import FAIL, PASS
from tests.test_algebroid import (
    abelian_algebroid,
    nilpotent_bundle,
    random_frame,
    random_poly,
    rank2_line,
    so3_action,
)
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_poly import random_point, ring
from tests.test_poly import random_poly as random_fraction_poly


CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def identity_metric(coords):
    n = len(coords)
    return [
        [EvenPoly.const(coords, 1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def zero_connection(coords, rank):
    zero = EvenPoly.zero(coords)
    return [[[zero for _ in coords] for _ in range(rank)] for _ in range(rank)]


def flat_pack(coords, rank, **fields) -> GeometryPack:
    return GeometryPack(
        coords=coords,
        rank=rank,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega=zero_connection(coords, rank),
        **fields,
    )


# pack validation


def test_pack_rejects_asymmetric_metric():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    one = EvenPoly.const(coords, 1)
    with pytest.raises(ValueError, match="symmetric"):
        GeometryPack(coords, 1, g_inv=[[one, g["x1"]], [zero, one]])


def test_pack_rejects_non_inverse_metrics():
    coords, g = ring(["x"])
    with pytest.raises(ValueError, match="exact inverses"):
        GeometryPack(
            coords,
            1,
            g_inv=[[EvenPoly.const(coords, 2)]],
            g_low=[[EvenPoly.const(coords, 1)]],
        )


def test_pack_rejects_bad_shapes():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    with pytest.raises(ValueError, match="rank x rank x base_dim"):
        GeometryPack(coords, 2, omega=[[[zero, zero]]])
    with pytest.raises(ValueError, match="alpha must have 1 components"):
        GeometryPack(coords, 1, alpha=[zero, EvenPoly.const(coords, 1)])
    _, h = ring(["y"])
    with pytest.raises(ValueError, match="over the base ring"):
        GeometryPack(coords, 1, alpha=[h["y"]])
    with pytest.raises(ValueError, match="magnetic must be 2 x 2"):
        GeometryPack(coords, 1, magnetic=[[zero, zero]])
    with pytest.raises(ValueError, match="magnetic: matrix must be antisymmetric"):
        GeometryPack(coords, 1, magnetic=[[zero, g["x1"]], [g["x1"], zero]])
    with pytest.raises(ValueError, match="magnetic: matrix must be antisymmetric"):
        GeometryPack(coords, 1, magnetic=[[g["x1"], zero], [zero, zero]])
    with pytest.raises(ValueError, match="one component per coordinate"):
        GeometryPack(coords, 1, beta=(zero,))


# hamiltonian assembly


def test_build_hamiltonian_flat():
    coords, g = ring(["x1", "x2", "x3"])
    pack = GeometryPack(coords, 3, g_inv=identity_metric(coords))
    H = build_hamiltonian(pack)
    ctx = H.ctx
    expected = (
        ctx.var("p_x1") ** 2 + ctx.var("p_x2") ** 2 + ctx.var("p_x3") ** 2
    ) / 2
    assert H == expected


def test_build_hamiltonian_with_potential_and_drift():
    coords, g = ring(["x"])
    pack = GeometryPack(
        coords, 1, g_inv=identity_metric(coords), potential=g["x"] ** 2
    )
    H = build_hamiltonian(pack)
    assert H == H.ctx.var("p_x") ** 2 / 2 + H.ctx.var("x") ** 2

    coords2, g2 = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords2)
    pack2 = GeometryPack(
        coords2, 2, g_inv=identity_metric(coords2), beta=(zero, g2["x1"])
    )
    H2 = build_hamiltonian(pack2)
    ctx = H2.ctx
    expected = (ctx.var("p_x1") ** 2 + ctx.var("p_x2") ** 2) / 2 + ctx.var(
        "x1"
    ) * ctx.var("p_x2")
    assert H2 == expected


def test_build_hamiltonian_needs_inverse_metric():
    coords, g = ring(["x"])
    with pytest.raises(ValueError, match="g_inv"):
        build_hamiltonian(GeometryPack(coords, 1, g_low=identity_metric(coords)))


# flow invariance


def families_of(data, pack):
    """The structural residuals the evolution check consumes, or None without them."""
    if pack.g_low is None or pack.omega is None:
        return None
    return structural_residuals(data, pack)


def test_evolution_so3_killing():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    report = check_evolution_invariance(
        build_hamiltonian(pack),
        build_constraints(data),
        pack,
        families_of(data, pack),
    )
    assert report.status == PASS
    assert report.residuals == []
    assert any("dual route" in note for note in report.notes)


def test_evolution_gradient_obstruction():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    pack = flat_pack(coords, 2, potential=g["x1"])
    report = check_evolution_invariance(
        build_hamiltonian(pack),
        build_constraints(data),
        pack,
        families_of(data, pack),
    )
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "-1")]


def test_evolution_magnetic_regression():
    # frozen residual (p_2, 0) for unit twist with compensating affine part
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), g["x1"])
    pack = flat_pack(coords, 2, alpha=alpha, magnetic=magnetic_plane(1))
    cs = build_constraints(data, alpha=alpha, magnetic=pack.magnetic)
    assert check_first_class(cs).status == PASS
    report = check_evolution_invariance(
        build_hamiltonian(pack), cs, pack, families_of(data, pack)
    )
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "p_x2")]
    assert any("authoritative" in note for note in report.notes)


def test_evolution_with_nontrivial_connection_passes():
    # anchor (1, x) with alpha = (1, x) closes under the flow of 1/2 p^2
    # once the connection pairs the second frame direction with the first
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
    cs = build_constraints(data, alpha=alpha)
    report = check_evolution_invariance(
        build_hamiltonian(pack), cs, pack, families_of(data, pack)
    )
    assert report.status == PASS
    assert check_structural(structural_residuals(data, pack)).status == PASS
    assert check_metric_compat(structural_residuals(data, pack)).status == PASS


def test_evolution_endomorphism_residual_matches_both_routes():
    # tau alone: the bracket residual and the index formulas agree exactly
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])
    alpha = (EvenPoly.const(coords, 1),)
    pack = flat_pack(
        coords, 1, alpha=alpha, tau=[[EvenPoly.const(coords, 3)]]
    )
    cs = build_constraints(data, alpha=alpha)
    report = check_evolution_invariance(
        build_hamiltonian(pack), cs, pack, families_of(data, pack)
    )
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "3*p_x + 3")]


def test_evolution_requires_connection_and_frame_data():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    pack = GeometryPack(coords, 2, g_inv=identity_metric(coords))
    with pytest.raises(ValueError, match="omega"):
        check_evolution_invariance(
            build_hamiltonian(pack), build_constraints(data), pack, None
        )


def test_decomposition_signs_are_pinned():
    assert DECOMPOSITION_SIGNS == (1, 1, -1)


def substitute(f: EvenPoly, images) -> EvenPoly:
    """Replace coordinates of f by polynomials of its ring; unmapped ones stay."""
    base = [
        f._coerce(images[name]) if name in images else EvenPoly.variable(f.coords, name)
        for name in f.coords
    ]
    result = EvenPoly.zero(f.coords)
    for e, c in f.terms.items():
        term = EvenPoly.const(f.coords, c)
        for image, k in zip(base, e):
            if k:
                term = term * image**k
        result = result + term
    return result


def test_substitute_agrees_with_evaluate():
    coords, g = ring(["x", "y"])
    rng = random.Random(23)
    for _ in range(50):
        p = random_fraction_poly(rng, coords)
        point = random_point(rng, coords)
        substituted = substitute(p, point)
        assert substituted.terms.keys() <= {(0, 0)}
        assert substituted.constant_term() == p.evaluate(point)
    # a genuine polynomial substitution
    p = g["x"] ** 2 + g["y"]
    q = substitute(p, {"x": g["y"] + 1})
    assert q == g["y"] ** 2 + 3 * g["y"] + 1


def momentum_split_by_substitution(ctx, E):
    """Derivatives in the momenta at p = 0: the reference for the term buckets."""
    at_zero = {p: 0 for p, _ in ctx.pairs_even}
    part0 = substitute(E, at_zero)
    part1 = [substitute(E.diff(p), at_zero) for p in at_zero]
    hessian = [
        [substitute(E.diff(p).diff(q), at_zero) for q in at_zero] for p in at_zero
    ]
    return part0, part1, hessian


def test_momentum_split_matches_the_substitution_route():
    ctx = cotangent_context(("x1", "x2", "x3"))
    rng = random.Random(61)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 10)):
            powers = [0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                powers[rng.randrange(3)] += 1
            x_exponent = tuple(rng.randint(0, 2) for _ in range(3))
            terms[x_exponent + tuple(powers)] = Fraction(
                rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)
            )
        E = EvenPoly(ctx.even_names, terms)
        assert _momentum_split(ctx, E) == momentum_split_by_substitution(ctx, E)
    cubic = E + EvenPoly(ctx.even_names, {(1, 0, 0, 2, 0, 1): Fraction(1)})
    with pytest.raises(RuntimeError, match="not quadratic in the momenta"):
        _momentum_split(ctx, cubic)


# structural families


def test_structural_trivial_families():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    families = structural_residuals(data, pack)
    for family in (families.metric, families.alpha, families.potential):
        assert all(value.is_zero for value in family.values())


def test_structural_anchorless_potential_family():
    # with a vanishing anchor the potential condition reduces to -tau(alpha)
    data = nilpotent_bundle()
    coords, g = ring(["x"])
    zero = EvenPoly.zero(coords)
    tau = [
        [EvenPoly.const(coords, 1 if i == j else 0) for j in range(3)]
        for i in range(3)
    ]
    alpha = (g["x"], zero, zero)
    pack = GeometryPack(
        coords,
        3,
        g_low=identity_metric(coords),
        omega=zero_connection(coords, 3),
        tau=tau,
        alpha=alpha,
        potential=g["x"] ** 2,
    )
    families = structural_residuals(data, pack)
    assert families.potential[0] == -g["x"]
    assert families.potential[1].is_zero
    assert all(v.is_zero for v in families.metric.values())


def structural_residuals_by_triple_products(data, pack):
    """The three families from their uncontracted index formulas.

    The reference for the contraction through the lowered anchor: every
    product is formed in full, zero factors included.
    """
    r, n, coords = data.rank, data.base_dim, data.coords
    g_low, omega = pack.g_low, pack.omega
    tau = pack.tau_or_zero()
    alpha = pack.alpha_or_zero()
    potential = pack.potential_or_zero()

    def along(a, f):
        value = EvenPoly.zero(coords)
        for k in range(n):
            value = value + data.anchor[a][k] * f.diff(coords[k])
        return value

    metric = {}
    for a in range(r):
        for i in range(n):
            for j in range(i, n):
                value = along(a, g_low[i][j])
                for k in range(n):
                    value = value + g_low[k][j] * data.anchor[a][k].diff(coords[i])
                    value = value + g_low[i][k] * data.anchor[a][k].diff(coords[j])
                for b in range(r):
                    for k in range(n):
                        value = value - omega[b][a][i] * g_low[k][j] * data.anchor[b][k]
                        value = value - omega[b][a][j] * g_low[k][i] * data.anchor[b][k]
                metric[(a, i, j)] = value
    alpha_res = {}
    for a in range(r):
        for i in range(n):
            value = alpha[a].diff(coords[i])
            for b in range(r):
                value = value - omega[b][a][i] * alpha[b]
                for j in range(n):
                    value = value + tau[b][a] * g_low[i][j] * data.anchor[b][j]
            alpha_res[(a, i)] = value
    potential_res = {}
    for a in range(r):
        value = along(a, potential)
        for b in range(r):
            value = value - tau[b][a] * alpha[b]
        potential_res[a] = value
    return StructuralResiduals(metric, alpha_res, potential_res)


def evolution_residuals_by_full_sums(H, cs, pack):
    """{H, Phi_a} - gamma^b_a Phi_b with gamma summed over (i, j) before contracting."""
    ctx, data = cs.ctx, cs.data
    r, n = data.rank, data.base_dim
    tau = pack.tau_or_zero()
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    out = []
    for a in range(r):
        R = ctx.poisson(H, cs.phis[a])
        for b in range(r):
            gamma = -ctx.lift(tau[b][a])
            for i in range(n):
                for j in range(n):
                    gamma = gamma + ctx.lift(
                        pack.omega[b][a][i] * pack.g_inv[i][j]
                    ) * momenta[j]
            R = R - gamma * cs.phis[b]
        if not R.is_zero:
            out.append((f"evolution[a={a + 1}]", str(R)))
    return out


def unimodular_metric_pair(rng, coords):
    """g_low = U^T U and g_inv = V V^T with U unitriangular and V = U^-1.

    A non-constant symmetric metric whose inverse is again polynomial.
    """
    n = len(coords)
    one, zero = EvenPoly.const(coords, 1), EvenPoly.zero(coords)
    U = [
        [
            one if i == j else random_poly(coords, rng, 2) if j > i else zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    V = [[zero] * n for _ in range(n)]
    for j in range(n):
        for i in reversed(range(n)):
            value = one if i == j else zero
            for k in range(i + 1, n):
                value = value - U[i][k] * V[k][j]
            V[i][j] = value

    def gram(A, B):
        # sum_k A[k][i] B[k][j]
        return [
            [sum((A[k][i] * B[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)
        ]

    transposed_V = [[V[j][i] for j in range(n)] for i in range(n)]
    return gram(U, U), gram(transposed_V, transposed_V)


def random_pack(rng, data):
    """Random omega, tau, alpha and potential, about half of omega and tau zero."""
    coords, r, n = data.coords, data.rank, data.base_dim
    zero = EvenPoly.zero(coords)

    def sparse():
        return random_poly(coords, rng, 2) if rng.random() < 0.5 else zero

    g_low, g_inv = unimodular_metric_pair(rng, coords)
    return GeometryPack(
        coords,
        r,
        g_inv=g_inv,
        g_low=g_low,
        omega=[[[sparse() for _ in range(n)] for _ in range(r)] for _ in range(r)],
        tau=[[sparse() for _ in range(r)] for _ in range(r)],
        alpha=[random_poly(coords, rng, 2) for _ in range(r)],
        potential=random_poly(coords, rng, 2),
    )


def test_contractions_match_the_uncontracted_formulas():
    cases = []
    for path in sorted(CORPUS.glob("*.json")):
        problem = load_problem(path)
        if problem.pack.g_low is not None and problem.pack.omega is not None:
            cases.append((problem.data, problem.pack))
    rng = random.Random(43)
    for _ in range(6):
        data = random_frame(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        cases.append((data, random_pack(rng, data)))
    assert len(cases) > 6
    tau_terms = 0
    for data, pack in cases:
        expected = structural_residuals_by_triple_products(data, pack)
        assert structural_residuals(data, pack) == expected
        if pack.g_inv is None:
            continue
        cs = build_constraints(data, pack.alpha, pack.magnetic)
        H = build_hamiltonian(pack)
        report = check_evolution_invariance(H, cs, pack, families_of(data, pack))
        assert report.residuals == evolution_residuals_by_full_sums(H, cs, pack)
        if pack.beta is None and pack.magnetic is None:
            assert any(note.startswith("dual route") for note in report.notes)
        if pack.tau is not None:
            tau_terms += sum(not entry.is_zero for row in pack.tau for entry in row)
    assert tau_terms > 0


def test_metric_compat_leafwise():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    one = EvenPoly.const(coords, 1)
    data = abelian_algebroid(coords, [[zero, one]])
    g_low = [[one, zero], [zero, one + g["x1"] ** 2]]
    pack = GeometryPack(
        coords, 1, g_low=g_low, omega=zero_connection(coords, 1)
    )
    assert check_metric_compat(structural_residuals(data, pack)).status == PASS


def test_metric_compat_obstructed_line():
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])
    pack = GeometryPack(
        coords,
        1,
        g_low=[[EvenPoly.const(coords, 1) + g["x"] ** 2]],
        omega=zero_connection(coords, 1),
    )
    report = check_metric_compat(structural_residuals(data, pack))
    assert report.status == FAIL
    assert report.residuals == [("compat[a=1,i=1,j=1]", "2*x")]


# the connection solver


def test_solve_connection_killing_case():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    unsolved = GeometryPack(data.coords, data.rank, g_inv=pack.g_inv, g_low=pack.g_low)
    solution = solve_connection(data, unsolved, degree=0)
    assert solution.feasible
    assert all(
        entry.is_zero
        for plane in solution.omega
        for row in plane
        for entry in row
    )
    solved = GeometryPack(
        data.coords,
        data.rank,
        g_inv=pack.g_inv,
        g_low=pack.g_low,
        omega=solution.omega,
    )
    verified = check_metric_compat(structural_residuals(data, solved))
    assert verified.status == PASS


def test_solve_connection_leafwise():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    one = EvenPoly.const(coords, 1)
    data = abelian_algebroid(coords, [[zero, one]])
    g_low = [[one, zero], [zero, one + g["x1"] ** 2]]
    pack = GeometryPack(coords, 1, g_low=g_low)
    solution = solve_connection(data, pack, degree=1)
    assert solution.feasible
    solved = GeometryPack(coords, 1, g_low=g_low, omega=solution.omega)
    verified = check_metric_compat(structural_residuals(data, solved))
    assert verified.status == PASS


def test_solve_connection_infeasible_certificate():
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])
    pack = GeometryPack(coords, 1, g_low=[[EvenPoly.const(coords, 1) + g["x"] ** 2]])
    solution = solve_connection(data, pack, degree=2)
    assert not solution.feasible
    assert solution.omega is None
    assert any("degree <= 2" in note for note in solution.notes)


def test_solve_connection_recovers_line_fixture():
    # the consistent connection on the anchor (1, x) with flat metric
    data = rank2_line()
    coords, g = ring(["x"])
    pack = GeometryPack(coords, 2, g_low=identity_metric(coords))
    solution = solve_connection(data, pack, degree=1)
    assert solution.feasible
    assert solution.solution_dim > 0
    solved = GeometryPack(coords, 2, g_low=pack.g_low, omega=solution.omega)
    verified = check_metric_compat(structural_residuals(data, solved))
    assert verified.status == PASS
