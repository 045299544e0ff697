"""Hamiltonian assembly, flow invariance and the geometric side conditions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from pathlib import Path

import pytest

from nqkit.constraints import ConstraintSet, check_first_class
from nqkit.dynamics import (
    DECOMPOSITION_SIGNS,
    _assert_decomposition,
    GeometryPack,
    build_hamiltonian,
    check_evolution_invariance,
    check_metric_compat,
    check_structural,
    solve_connection,
    StructuralResiduals,
    structural_residuals,
)
from nqkit.graded import extended_context, momentum_name, momentum_orders
from nqkit.poly import EvenPoly
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS
from tests.cubes import connection_cube, tau_matrix
from tests.reference_forms import evaluate, packed, unpacked
from tests.test_algebroid import (
    abelian_algebroid,
    nilpotent_bundle,
    random_frame,
    random_poly,
    rank2_line,
    so3_action,
)
from tests.test_cli_matrix import TOOL
from tests.test_constraints import abelian_r2, magnetic_plane
from tests.test_generated_frames import gen
from tests.test_poly import random_point, ring
from tests.test_poly import random_poly as random_fraction_poly


CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def identity_metric(coords):
    n = len(coords)
    return [
        [EvenPoly.const(coords, 1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def flat_pack(coords, rank, **fields) -> GeometryPack:
    return GeometryPack(
        coords=coords,
        rank=rank,
        g_inv=identity_metric(coords),
        g_low=identity_metric(coords),
        omega={},
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


def test_pack_metric_checks_name_the_field_and_skip_zero_products(monkeypatch):
    coords, g = ring(["x", "y", "z"])
    zero = EvenPoly.zero(coords)
    one = EvenPoly.const(coords, 1)
    y = g["y"]
    # a unimodular block metric: 9 of its 27 entry pairs are nonzero
    g_inv = [[1 + y * y, -y, zero], [-y, one, zero], [zero, zero, one]]
    g_low = [[one, y, zero], [y, 1 + y * y, zero], [zero, zero, one]]
    identity = identity_metric(coords)
    lopsided = [[one, y, zero], [zero, 1 + y * y, zero], [zero, zero, one]]
    with pytest.raises(ValueError, match="^g_low must be symmetric$"):
        GeometryPack(coords, 1, g_inv=g_inv, g_low=lopsided)
    with pytest.raises(ValueError, match="^g_inv and g_low are not exact inverses$"):
        GeometryPack(coords, 1, g_inv=identity, g_low=g_low)
    products = []
    real_mul = EvenPoly.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(EvenPoly, "__mul__", counting_mul)
    GeometryPack(coords, 1, g_inv=g_inv, g_low=g_low)
    assert len(products) == 9
    ident = identity_metric(("a", "b", "c", "d", "e"))
    GeometryPack(("a", "b", "c", "d", "e"), 1, g_inv=ident, g_low=ident)
    assert len(products) == 9 + 5


def test_pack_rejects_bad_shapes():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    with pytest.raises(ValueError, match="rank x rank x base_dim"):
        GeometryPack(coords, 2, omega={(0, 2, 0): g["x1"]})
    with pytest.raises(ValueError, match="tau keys index rank x rank"):
        GeometryPack(coords, 1, tau={(0, 0, 0): g["x1"]})
    with pytest.raises(ValueError, match="one component per coordinate"):
        GeometryPack(coords, 1, beta=(zero,))


def test_pack_keeps_only_nonzero_entries():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    pack = GeometryPack(
        coords,
        2,
        omega={(1, 0, 1): g["x1"], (0, 1, 0): zero, (0, 0, 1): g["x2"]},
        tau={(1, 1): zero},
        beta=(zero, zero),
    )
    assert pack.omega == {(0, 0, 1): g["x2"], (1, 0, 1): g["x1"]}
    assert list(pack.omega) == [(0, 0, 1), (1, 0, 1)]
    assert pack.tau == {}
    assert pack.beta is None
    # a connection that is zero everywhere is still given; tau defaults to none
    flat = GeometryPack(coords, 2, omega={(0, 0, 0): zero})
    assert flat.omega == {}
    assert GeometryPack(coords, 2).omega is None
    assert GeometryPack(coords, 2).tau == {}


# hamiltonian assembly


def test_build_hamiltonian_flat():
    coords, g = ring(["x1", "x2", "x3"])
    pack = GeometryPack(coords, 3, g_inv=identity_metric(coords))
    H = build_hamiltonian(pack, extended_context(coords, 0))
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
    H = build_hamiltonian(pack, extended_context(coords, 0))
    assert H == H.ctx.var("p_x") ** 2 / 2 + H.ctx.var("x") ** 2

    coords2, g2 = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords2)
    pack2 = GeometryPack(
        coords2, 2, g_inv=identity_metric(coords2), beta=(zero, g2["x1"])
    )
    H2 = build_hamiltonian(pack2, extended_context(coords2, 0))
    ctx = H2.ctx
    expected = (ctx.var("p_x1") ** 2 + ctx.var("p_x2") ** 2) / 2 + ctx.var(
        "x1"
    ) * ctx.var("p_x2")
    assert H2 == expected


def test_build_hamiltonian_needs_inverse_metric():
    coords, g = ring(["x"])
    with pytest.raises(ValueError, match="g_inv"):
        build_hamiltonian(
            GeometryPack(coords, 1, g_low=identity_metric(coords)),
            extended_context(coords, 0),
        )


# flow invariance


def families_of(cs, pack):
    """The structural residuals the evolution check consumes, or None without them."""
    if pack.g_low is None or pack.omega is None:
        return None
    return structural_residuals(cs, pack)


def test_evolution_so3_killing():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    cs = ConstraintSet(data)
    report = check_evolution_invariance(cs, pack, families_of(cs, pack))
    assert report.status == PASS
    assert report.residuals == []
    assert any("dual route" in note for note in report.notes)


def test_evolution_gradient_obstruction():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    pack = flat_pack(coords, 2, potential=g["x1"])
    cs = ConstraintSet(data)
    report = check_evolution_invariance(cs, pack, families_of(cs, pack))
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "-1")]


def test_evolution_magnetic_regression():
    # frozen residual (p_2, 0) for unit twist with compensating affine part
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    alpha = (EvenPoly.zero(coords), g["x1"])
    pack = flat_pack(coords, 2)
    cs = ConstraintSet(data, alpha=alpha, magnetic=magnetic_plane(1))
    assert check_first_class(cs).status == PASS
    report = check_evolution_invariance(cs, pack, families_of(cs, pack))
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "p_x2")]
    assert any("authoritative" in note for note in report.notes)


def test_evolution_with_nontrivial_connection_passes():
    # anchor (1, x) with alpha = (1, x) closes under the flow of 1/2 p^2
    # once the connection pairs the second frame direction with the first
    data = rank2_line()
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
    cs = ConstraintSet(data, alpha=alpha)
    report = check_evolution_invariance(cs, pack, families_of(cs, pack))
    assert report.status == PASS
    assert check_structural(structural_residuals(cs, pack)).status == PASS
    assert check_metric_compat(structural_residuals(cs, pack)).status == PASS


def test_evolution_endomorphism_residual_matches_both_routes():
    # tau alone: the bracket residual and the index formulas agree exactly
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])
    alpha = (EvenPoly.const(coords, 1),)
    pack = flat_pack(coords, 1, tau={(0, 0): EvenPoly.const(coords, 3)})
    cs = ConstraintSet(data, alpha=alpha)
    report = check_evolution_invariance(cs, pack, families_of(cs, pack))
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "3*p_x + 3")]


def test_evolution_requires_connection_and_frame_data():
    data = abelian_r2()
    coords, g = ring(["x1", "x2"])
    pack = GeometryPack(coords, 2, g_inv=identity_metric(coords))
    cs = ConstraintSet(data)
    with pytest.raises(ValueError, match="omega"):
        check_evolution_invariance(cs, pack, None)


def test_evolution_without_a_lowered_metric_skips_the_decomposition():
    # the raised metric, connection and tau of so3_action without g_low: the
    # bracket route alone decides, and no structural residuals are needed
    problem = load_problem(CORPUS / "so3_action.json")
    cs, pack = problem.constraints, problem.pack
    raised = GeometryPack(
        pack.coords, pack.rank, g_inv=pack.g_inv, omega=pack.omega, tau=pack.tau
    )
    report = check_evolution_invariance(cs, raised, None)
    assert report.status == PASS
    assert report.notes[-1] == "no lowered metric: structural decomposition skipped"
    # with g_low the decomposition runs and needs the residuals
    with pytest.raises(ValueError, match="needs the structural residuals"):
        check_evolution_invariance(cs, pack, None)


def test_decomposition_signs_are_pinned():
    assert DECOMPOSITION_SIGNS == (1, 1, -1)


# the decomposition guard keeps its teeth


def evolution_problem(name):
    if name == "so4":
        return problem_from_dict(gen.so_n(4))
    # a connection that is not metric compatible: the residuals are
    # p_x2^2 and -p_x1^2
    return problem_from_dict(TOOL.inputs()["abelian_r2_connection"])


@pytest.mark.parametrize(
    "name, quadratic", [("so4", False), ("abelian_r2_connection", True)]
)
def test_decomposition_guard_catches_every_perturbed_family_entry(name, quadratic):
    problem = evolution_problem(name)
    pack, cs = problem.pack, problem.constraints
    families = structural_residuals(cs, pack)
    report = check_evolution_invariance(cs, pack, families)
    assert any(note.startswith("dual route") for note in report.notes)
    # a zero residual on so(4); a nonzero hessian on the other input
    assert (report.status == FAIL) == quadratic
    x = EvenPoly.variable(pack.coords, pack.coords[0])
    caught = 0
    for order, family in ((0, "potential"), (1, "alpha"), (2, "metric")):
        entries = getattr(families, family)
        for k, key in enumerate(sorted(entries)):
            fields = {
                "metric": families.metric,
                "alpha": families.alpha,
                "potential": families.potential,
                family: {**entries, key: entries[key] + (1 if k % 2 else x)},
            }
            with pytest.raises(RuntimeError, match=f"at momentum order {order}$"):
                check_evolution_invariance(cs, pack, StructuralResiduals(**fields))
            caught += 1
    assert caught == sum(
        map(len, (families.metric, families.alpha, families.potential))
    )


def test_decomposition_guard_catches_cubic_and_odd_residual_terms():
    problem = evolution_problem("abelian_r2_connection")
    pack, cs = problem.pack, problem.constraints
    ctx, families = cs.ctx, structural_residuals(cs, pack)
    p1, p2 = ctx.var("p_x1"), ctx.var("p_x2")
    residuals = [p2**2, -(p1**2)]  # the bracket residuals of this input
    _assert_decomposition(problem.data, pack, ctx, residuals, families)
    cubic = [residuals[0] + ctx.var("x2") * p1 * p2**2, residuals[1]]
    with pytest.raises(RuntimeError, match="at momentum order 3$"):
        _assert_decomposition(problem.data, pack, ctx, cubic, families)
    odd = [residuals[0], residuals[1] + ctx.var("xi_1") * ctx.var("pi_2")]
    with pytest.raises(RuntimeError, match="internal dual-route mismatch"):
        _assert_decomposition(problem.data, pack, ctx, odd, families)


def substitute(f: EvenPoly, images) -> EvenPoly:
    """Replace coordinates of f by polynomials of its ring; unmapped ones stay."""
    base = [
        f._coerce(images[name]) if name in images else EvenPoly.variable(f.coords, name)
        for name in f.coords
    ]
    result = EvenPoly.zero(f.coords)
    for e, c in unpacked(f).items():
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
        assert unpacked(substituted).keys() <= {(0, 0)}
        assert unpacked(substituted).get((0, 0), 0) == evaluate(p, point)
    # a genuine polynomial substitution
    p = g["x"] ** 2 + g["y"]
    q = substitute(p, {"x": g["y"] + 1})
    assert q == g["y"] ** 2 + 3 * g["y"] + 1


def momentum_orders_by_substitution(ctx, E, max_order):
    """Each momentum word's coefficient as a derivative at p = 0.

    The derivative along a word, at p = 0, over the factorials of the
    multiplicities of its letters, restricted to the positions of the
    pairs: the reference for `momentum_orders`.
    """
    momenta = [p for p, _ in ctx.pairs_even]
    positions = tuple(x for _, x in ctx.pairs_even)
    at_zero = {p: 0 for p in momenta}
    orders = {}
    for order in range(max_order + 1):
        for word in combinations_with_replacement(range(len(momenta)), order):
            derivative = E
            for j in word:
                derivative = derivative.diff(momenta[j])
            scale = prod(factorial(word.count(j)) for j in set(word))
            value = substitute(derivative, at_zero) / scale
            if not value.is_zero:
                orders[word] = restrict(value, positions)
    return orders


def restrict(f, coords):
    """An even polynomial free of the other coordinates, over the ring `coords`."""
    slots = [f.coords.index(name) for name in coords]
    terms = unpacked(f)
    assert all(
        k == 0 for e in terms for s, k in enumerate(e) if s not in slots
    ), "depends on a coordinate outside the ring"
    return EvenPoly(coords, packed({tuple(e[s] for s in slots): c for e, c in terms.items()}))


def twisted_rank2_context():
    coords, g = ring(["x1", "x2", "x3"])
    zero = EvenPoly.zero(coords)
    w = g["x3"] + 2
    twist = [[zero, w, zero], [-w, zero, zero], [zero, zero, zero]]
    return extended_context(coords, 2, twist)


@pytest.mark.parametrize(
    "make_ctx",
    [lambda: extended_context(("x1", "x2", "x3"), 0), twisted_rank2_context],
    ids=["rank0", "rank2_twisted"],
)
def test_momentum_orders_match_the_derivatives_at_zero(make_ctx):
    ctx = make_ctx()
    n = len(ctx.pairs_even)
    rng = random.Random(67)
    degrees = set()
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 10)):
            powers = [0] * n
            for _ in range(rng.randint(0, 3)):
                powers[rng.randrange(n)] += 1
            degrees.add(sum(powers))
            x_exponent = tuple(rng.randint(0, 2) for _ in range(n))
            terms[x_exponent + tuple(powers)] = Fraction(
                rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)
            )
        E = EvenPoly(ctx.even_names, packed(terms))
        assert momentum_orders(ctx, E) == momentum_orders_by_substitution(ctx, E, 3)
    assert degrees == {0, 1, 2, 3}


# structural families


def test_structural_trivial_families():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    families = structural_residuals(ConstraintSet(data), pack)
    for family in (families.metric, families.alpha, families.potential):
        assert all(value.is_zero for value in family.values())


def test_structural_anchorless_potential_family():
    # with a vanishing anchor the potential condition reduces to -tau(alpha)
    data = nilpotent_bundle()
    coords, g = ring(["x"])
    zero = EvenPoly.zero(coords)
    tau = {(i, i): EvenPoly.const(coords, 1) for i in range(3)}
    alpha = (g["x"], zero, zero)
    pack = GeometryPack(
        coords,
        3,
        g_low=identity_metric(coords),
        omega={},
        tau=tau,
        potential=g["x"] ** 2,
    )
    families = structural_residuals(ConstraintSet(data, alpha), pack)
    assert families.potential[0] == -g["x"]
    assert families.potential[1].is_zero
    assert all(v.is_zero for v in families.metric.values())


def structural_residuals_by_triple_products(cs, pack):
    """The three families from their uncontracted index formulas.

    The reference for the contraction through the lowered anchor: every
    product is formed in full, zero factors included.
    """
    data = cs.data
    r, n, coords = data.rank, data.base_dim, data.coords
    g_low, omega, tau = pack.g_low, connection_cube(pack), tau_matrix(pack)
    alpha = cs.alpha if cs.alpha is not None else (EvenPoly.zero(coords),) * r
    potential = pack.potential

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
    omega, tau = connection_cube(pack), tau_matrix(pack)
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    out = []
    for a in range(r):
        R = ctx.poisson(H, cs.phis[a])
        for b in range(r):
            gamma = -ctx.lift(tau[b][a])
            for i in range(n):
                for j in range(n):
                    gamma = gamma + ctx.lift(
                        omega[b][a][i] * pack.g_inv[i][j]
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
    """Random omega, tau, alpha and potential, about half of omega and tau zero,
    as the constraint set with that alpha and the pack.

    The zero entries are passed as well, and the pack drops them.
    """
    coords, r, n = data.coords, data.rank, data.base_dim
    zero = EvenPoly.zero(coords)

    def sparse():
        return random_poly(coords, rng, 2) if rng.random() < 0.5 else zero

    g_low, g_inv = unimodular_metric_pair(rng, coords)
    omega = {(a, b, i): sparse() for a in range(r) for b in range(r) for i in range(n)}
    tau = {(a, b): sparse() for a in range(r) for b in range(r)}
    alpha = [random_poly(coords, rng, 2) for _ in range(r)]
    pack = GeometryPack(
        coords,
        r,
        g_inv=g_inv,
        g_low=g_low,
        omega=omega,
        tau=tau,
        potential=random_poly(coords, rng, 2),
    )
    return ConstraintSet(data, alpha), pack


def test_contractions_match_the_uncontracted_formulas():
    cases = []
    for path in sorted(CORPUS.glob("*.json")):
        problem = load_problem(path)
        if problem.pack.g_low is not None and problem.pack.omega is not None:
            cases.append((problem.constraints, problem.pack))
    rng = random.Random(43)
    for _ in range(6):
        data = random_frame(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        cases.append(random_pack(rng, data))
    assert len(cases) > 6
    tau_terms = 0
    for cs, pack in cases:
        expected = structural_residuals_by_triple_products(cs, pack)
        assert structural_residuals(cs, pack) == expected
        if pack.g_inv is None:
            continue
        H = build_hamiltonian(pack, cs.ctx)
        report = check_evolution_invariance(cs, pack, families_of(cs, pack))
        assert report.residuals == evolution_residuals_by_full_sums(H, cs, pack)
        if pack.beta is None and cs.magnetic is None:
            assert any(note.startswith("dual route") for note in report.notes)
        tau_terms += len(pack.tau)
    assert tau_terms > 0


def test_metric_compat_leafwise():
    coords, g = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords)
    one = EvenPoly.const(coords, 1)
    data = abelian_algebroid(coords, [[zero, one]])
    g_low = [[one, zero], [zero, one + g["x1"] ** 2]]
    pack = GeometryPack(
        coords, 1, g_low=g_low, omega={}
    )
    families = structural_residuals(ConstraintSet(data), pack)
    assert check_metric_compat(families).status == PASS


def test_metric_compat_obstructed_line():
    coords, g = ring(["x"])
    data = abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])
    pack = GeometryPack(
        coords,
        1,
        g_low=[[EvenPoly.const(coords, 1) + g["x"] ** 2]],
        omega={},
    )
    report = check_metric_compat(structural_residuals(ConstraintSet(data), pack))
    assert report.status == FAIL
    assert report.residuals == [("compat[a=1,i=1,j=1]", "2*x")]


# the connection solver


def test_solve_connection_killing_case():
    data = so3_action()
    pack = flat_pack(data.coords, data.rank)
    unsolved = GeometryPack(data.coords, data.rank, g_inv=pack.g_inv, g_low=pack.g_low)
    solution = solve_connection(data, unsolved, degree=0)
    assert solution.feasible
    assert solution.omega == {}
    solved = GeometryPack(
        data.coords,
        data.rank,
        g_inv=pack.g_inv,
        g_low=pack.g_low,
        omega=solution.omega,
    )
    verified = check_metric_compat(structural_residuals(ConstraintSet(data), solved))
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
    verified = check_metric_compat(structural_residuals(ConstraintSet(data), solved))
    assert verified.status == PASS


def tilted_pair():
    """rho_1 = d/dx and rho_2 = x d/dy under the unit metric: L_rho_2 g is
    off the diagonal, and omega^1_2y = 1 is the connection that meets it."""
    coords, g = ring(["x", "y"])
    zero, one = EvenPoly.zero(coords), EvenPoly.const(coords, 1)
    data = abelian_algebroid(coords, [[one, zero], [zero, g["x"]]])
    return data, GeometryPack(coords, 2, g_low=identity_metric(coords))


@pytest.mark.parametrize("name", ["so3_action", "leafwise_metric", "tilted_pair"])
def test_solved_connection_round_trips_through_the_metric_family(name):
    # the solver's columns and the metric family both read `_omega_slots`
    if name == "tilted_pair":
        data, pack = tilted_pair()
    else:
        problem = load_problem(CORPUS / f"{name}.json")
        data, pack = problem.data, problem.pack
    for degree in range(3):
        solution = solve_connection(data, pack, degree)
        assert solution.feasible, degree
        solved = GeometryPack(
            data.coords, data.rank, g_low=pack.g_low, omega=solution.omega
        )
        families = structural_residuals(ConstraintSet(data), solved)
        assert check_metric_compat(families).status == PASS
        if name == "tilted_pair":
            assert solution.omega == {(0, 1, 1): EvenPoly.const(data.coords, 1)}


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
    verified = check_metric_compat(structural_residuals(ConstraintSet(data), solved))
    assert verified.status == PASS
