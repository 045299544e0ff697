"""Every builder that sums into one term dict against its operator chain.

The builders of Q, the affine charge, the constraints, the Hamiltonian
lift, both Hamiltonians, the covariant momenta, the frame tensors, the
first-class residuals, the structural 2-form, the component action, the
cartan reassembly, the evolution multipliers and residuals and the
predicted residuals of the decomposition guard write their terms into one
`{word << word_shift | exponent: coeff}` dict and wrap it once.  Each is
compared here, exactly, with the chain of `value = value + lift(f) * var`
steps it replaced, written out below; the defect tensors are compared with
the tuple kernel of `tests/reference_forms.py` as well.  The inputs are
every corpus file, so(3) to so(5), the log-canonical frames at n = 4 and 6
of `tests/frames.py` and the broken twin at n = 4; the checks of the
geometry also run on the evolution inputs of `tests/test_bfv.py` (twisted,
connection and tau twins).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from nqkit.aksz import (
    _partner_pairs,
    expand_bv,
    expansion_context,
    extended_action_reference,
    multiplier_name,
    velocity_name,
)
from nqkit.bfv import THETA, _cartan_core, assemble_bfv, build_H, covariant_momenta
from nqkit.constraints import check_first_class
from nqkit.dynamics import (
    _assert_decomposition,
    _lie_metric,
    build_hamiltonian,
    check_evolution_invariance,
    structural_residuals,
)
from nqkit.graded import (
    antighost_name,
    ghost_name,
    hamiltonian_lift,
    left_derivation,
    momentum_name,
    transport,
)
from nqkit.poly import EvenPoly, Rat, embed
from nqkit.problem import problem_from_dict
from nqkit.report import family_residuals
from tests import reference_forms as ref
from tests.cubes import structure_cube
from tests.frames import log_canonical
from tests.reference_forms import affine_form, packed, unpacked
from tests.test_bfv import evolution_inputs
from tests.test_generated_frames import gen

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def documents() -> dict[str, dict]:
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}
    for n in (3, 4, 5):
        docs[f"so{n}"] = gen.so_n(n)
    for n in (4, 6):
        docs[f"log_canonical{n}"] = log_canonical(n)
    docs["log_canonical4_broken"] = log_canonical(4, broken=True)
    return docs


DOCUMENTS = documents()


@pytest.fixture(params=sorted(DOCUMENTS), scope="module")
def problem(request):
    return problem_from_dict(DOCUMENTS[request.param])


# inputs with an inverse metric and a connection and no drift
GEOMETRY = {
    name: doc
    for name, doc in {**DOCUMENTS, **evolution_inputs()}.items()
    if {"metric_inv", "connection"} <= doc.keys() and "beta" not in doc
}


@pytest.fixture(params=sorted(GEOMETRY), scope="module")
def geometry(request):
    return problem_from_dict(GEOMETRY[request.param])


def over(fixture, docs, holds):
    """Parametrize a test's `fixture` over the inputs of `docs` whose problem
    `holds`, so that no case is made for an input the test does not fit."""
    names = [name for name in sorted(docs) if holds(problem_from_dict(docs[name]))]
    return pytest.mark.parametrize(fixture, names, indirect=True)


def untwisted(problem):
    return problem.constraints.ctx.twist is None


# the operator chains the builders replaced


def chain_q_images(data, ctx):
    ghosts = [ctx.var(ghost_name(a + 1)) for a in range(data.rank)]
    images = {}
    for i, name in enumerate(data.coords):
        value = ctx.zero()
        for a in range(data.rank):
            if not data.anchor[a][i].is_zero:
                value = value + ctx.lift(data.anchor[a][i]) * ghosts[a]
        images[name] = value
    structure = [ctx.zero() for _ in range(data.rank)]
    for (a, b), entries in data.nonzero_structure.items():
        if a < b:
            pair = ghosts[a] * ghosts[b]
            for c, f in entries:
                structure[c] = structure[c] - ctx.lift(f) * pair
    for c, value in enumerate(structure):
        images[ghost_name(c + 1)] = value
    return images


def chain_phis(cs):
    ctx, data = cs.ctx, cs.data
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    return tuple(
        sum((ctx.lift(rho) * p for rho, p in zip(row, momenta)), ctx.lift(f))
        for row, f in zip(data.anchor, cs.alpha or (data.zero(),) * data.rank)
    )


def chain_hamiltonian_lift(ctx, images):
    lift = ctx.zero()
    for p, x in ctx.pairs_even:
        lift = lift + images[x] * ctx.var(p)
    for xi, pi in ctx.pairs_odd:
        lift = lift + images[xi] * ctx.var(pi)
    return lift


def chain_covariant_momenta(pack, ctx):
    out = [ctx.var(momentum_name(name)) for name in pack.coords]
    for (b, a, i), w in pack.omega.items():
        pair = ctx.var(ghost_name(a + 1)) * ctx.var(antighost_name(b + 1))
        out[i] = out[i] - ctx.lift(w) * pair
    return out


def chain_build_H(pack, ctx):
    pcov = covariant_momenta(pack, ctx)
    H = ctx.lift(pack.potential)
    for i in range(len(pack.coords)):
        for j in range(len(pack.coords)):
            H = H + ctx.lift(pack.g_inv[i][j]) * pcov[i] * pcov[j] / 2
    return H


def chain_build_hamiltonian(pack, ctx):
    momenta = [ctx.var(momentum_name(name)) for name in pack.coords]
    n = len(pack.coords)
    H = ctx.lift(pack.potential)
    for i in range(n):
        if pack.beta is not None:
            H = H + ctx.lift(pack.beta[i]) * momenta[i]
        for j in range(n):
            H = H + ctx.lift(pack.g_inv[i][j]) * momenta[i] * momenta[j] / 2
    return H


def chain_lie_metric(data, g_low, a, i, j):
    value = data.anchor_apply(a, g_low[i][j])
    for k in range(data.base_dim):
        if not g_low[k][j].is_zero:
            value = value + g_low[k][j] * data.anchor[a][k].diff(data.coords[i])
        if not g_low[i][k].is_zero:
            value = value + g_low[i][k] * data.anchor[a][k].diff(data.coords[j])
    return value


def chain_anchor_apply(data, a, f):
    value = data.zero()
    for i, name in enumerate(data.coords):
        value = value + data.anchor[a][i] * f.diff(name)
    return value


def chain_jacobi_defect(data):
    r = data.rank
    nonzero = data.nonzero_structure
    totals = {}

    def add(p, q, s, d, value):
        key = (*sorted((p, q, s)), d)
        if q < p < s:
            value = -value
        totals[key] = totals[key] + value if key in totals else value

    for (q, s), entries in nonzero.items():
        if q > s:
            continue
        for e, inner in entries:
            for p in range(r):
                if p != q and p != s:
                    for d, outer in nonzero.get((e, p), ()):
                        add(p, q, s, d, outer * inner)
        for d, f in entries:
            for p in range(r):
                if p != q and p != s:
                    add(p, q, s, d, -chain_anchor_apply(data, p, f))
    return {key: value * 2 for key, value in totals.items() if not value.is_zero}


def chain_first_class_residuals(cs):
    data, ctx = cs.data, cs.ctx
    brackets = {}
    for a, b in combinations(range(cs.rank), 2):
        R = ctx.poisson(cs.phis[a], cs.phis[b])
        for c, f in data.nonzero_structure.get((a, b), ()):
            R = R - ctx.lift(f) * cs.phis[c]
        brackets[(a, b)] = R
    return family_residuals("bracket", brackets, "ab")


def chain_cartan_residual(pack, ctx, tensor):
    """-g^ij pcov_i S^c_jab xi^a xi^b pi_c, as `_cartan_core` reassembles it."""
    pcov = chain_covariant_momenta(pack, ctx)
    R = ctx.zero()
    for (c, j, a, b), entry in tensor.items():
        block = ctx.lift(entry) * ctx.var(ghost_name(a + 1))
        block = block * ctx.var(ghost_name(b + 1)) * ctx.var(antighost_name(c + 1))
        for i in range(len(pack.coords)):
            R = R - ctx.lift(pack.g_inv[i][j]) * pcov[i] * block
    return R


def chain_evolution_residuals(cs, pack):
    ctx, data = cs.ctx, cs.data
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    gammas = {key: -ctx.lift(t) for key, t in pack.tau.items()}
    for (b, a, i), w in pack.omega.items():
        for j in range(data.base_dim):
            term = ctx.lift(w * pack.g_inv[i][j]) * momenta[j]
            gammas[(b, a)] = gammas.get((b, a), ctx.zero()) + term
    H = build_hamiltonian(pack, ctx)
    residuals = {}
    for a in range(data.rank):
        R = ctx.poisson(H, cs.phis[a])
        for b in range(data.rank):
            if (b, a) in gammas:
                R = R - gammas[(b, a)] * cs.phis[b]
        residuals[(a,)] = R
    return family_residuals("evolution", residuals, "a")


def chain_predicted_residuals(data, pack, ctx, families):
    """P_a = k0 V_a + sum_u q_u (k1 A_au + k2 sum_{v >= u} c_uv M_auv q_v)."""
    k2, k1, k0 = (1, 1, -1)
    n = data.base_dim
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    q = [
        sum((ctx.lift(g) * p for g, p in zip(row, momenta)), ctx.zero())
        for row in pack.g_inv
    ]
    out = []
    for a in range(data.rank):
        P = ctx.lift(families.potential[a] * k0)
        for u in range(n):
            cofactor = ctx.lift(families.alpha[(a, u)] * k1)
            for v in range(u, n):
                c = k2 if u < v else Rat(k2, 2)
                cofactor = cofactor + ctx.lift(families.metric[(a, u, v)] * c) * q[v]
            P = P + q[u] * cofactor
        out.append(P)
    return out


def chain_integrand(package):
    coords, rank = package.data.coords, package.data.rank
    ectx = expansion_context(coords, rank)
    theta = ectx.var(THETA)
    integrand = -transport(package.Q, ectx)
    for name in coords:
        d_position = ectx.var(velocity_name(name)) * theta
        integrand = integrand + ectx.var(momentum_name(name)) * d_position
    for a in range(1, rank + 1):
        d_ghost = ectx.var(velocity_name(ghost_name(a))) * theta
        integrand = integrand - ectx.var(antighost_name(a)) * d_ghost
    return ectx, integrand


def chain_action_reference(package):
    constraints, pack = package.constraints, package.pack
    data = constraints.data
    ectx = expansion_context(data.coords, data.rank)
    total = ectx.zero()
    for name in data.coords:
        total = total + ectx.var(momentum_name(name)) * ectx.var(velocity_name(name))
    if pack.g_inv is not None:
        total = total - transport(build_hamiltonian(pack, constraints.ctx), ectx)
    else:
        total = total - ectx.lift(pack.potential)
    for a, phi in enumerate(constraints.phis, start=1):
        total = total - ectx.var(multiplier_name(a)) * transport(phi, ectx)
    return total


# the tuple kernel: R1 and R2 from their defining sums, on exponent tuples


def tuple_anchor_defect(data):
    n, r = data.base_dim, data.rank
    anchor = [[unpacked(f) for f in row] for row in data.anchor]
    cube = [[[unpacked(f) for f in row] for row in block] for block in structure_cube(data)]
    out = {}
    for a, b in combinations(range(r), 2):
        for i in range(n):
            terms = {}
            for j in range(n):
                ref.accumulate_product(terms, anchor[a][j], ref.derivative(anchor[b][i], j))
                ref.accumulate_product(
                    terms, anchor[b][j], ref.derivative(anchor[a][i], j), -1
                )
            for c in range(r):
                ref.accumulate_product(terms, cube[c][a][b], anchor[c][i], -1)
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                out[(a, b, i)] = terms
    return out


def tuple_jacobi_defect(data):
    """R2^d_abc as the signed sum over all permutations s of (a, b, c) of
    C^d_{e s(a)} C^e_{s(b)s(c)} - rho_{s(a)}^j d_j C^d_{s(b)s(c)}."""
    n, r = data.base_dim, data.rank
    anchor = [[unpacked(f) for f in row] for row in data.anchor]
    cube = [[[unpacked(f) for f in row] for row in block] for block in structure_cube(data)]
    out = {}
    for triple in combinations(range(r), 3):
        for d in range(r):
            terms = {}
            for perm in permutations(range(3)):
                sign = -1 if sum(
                    1 for u, v in combinations(perm, 2) if u > v
                ) % 2 else 1
                p, q, s = (triple[k] for k in perm)
                for e in range(r):
                    ref.accumulate_product(terms, cube[d][e][p], cube[e][q][s], sign)
                for j in range(n):
                    ref.accumulate_product(
                        terms, anchor[p][j], ref.derivative(cube[d][q][s], j), -sign
                    )
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                out[(*triple, d)] = terms
    return out


# the comparisons


def test_the_inputs_reach_x_dependent_structure_and_nonzero_defects():
    broken = problem_from_dict(DOCUMENTS["log_canonical4_broken"]).data
    assert len(broken.anchor_defect) == 6 and len(broken.jacobi_defect) == 2
    for name in ("log_canonical4", "log_canonical6"):
        data = problem_from_dict(DOCUMENTS[name]).data
        assert max(f.total_degree() for _, f in data.nonzero_structure[(0, 1)]) == 1
        assert data.anchor_defect == {} and data.jacobi_defect == {}


def test_q_images_and_their_lift_match_the_chains(problem):
    # the frame's one table of Q, on its own context, and its lift into the
    # phase space of the constraints, twisted or not
    data, cs = problem.data, problem.constraints
    assert data.q == chain_q_images(data, data.ctx)
    chain = chain_q_images(data, cs.ctx)
    assert hamiltonian_lift(cs.ctx, data.q) == chain_hamiltonian_lift(cs.ctx, chain)
    ctx, images = data.ctx, data.q
    square = {name: left_derivation(ctx, images, f) for name, f in images.items()}
    assert hamiltonian_lift(ctx, square) == chain_hamiltonian_lift(ctx, square)


def test_affine_charge_and_constraints_match_the_chains(problem):
    data, cs = problem.data, problem.constraints
    assert cs.affine == affine_form(cs.ctx, cs.alpha or ())
    assert cs.phis == chain_phis(cs)
    # the structural 2-form on the phase space of the constraints
    ctx = cs.ctx
    affine = affine_form(ctx, cs.alpha or ())
    images = chain_q_images(data, ctx)
    expected = left_derivation(ctx, images, affine)
    magnetic = cs.magnetic or ()
    for i, j in combinations(range(len(magnetic)), 2):
        pulled = images[data.coords[i]] * images[data.coords[j]]
        expected = expected - ctx.lift(magnetic[i][j]) * pulled
    assert cs.structural == expected


@over("problem", DOCUMENTS, lambda p: p.pack.g_inv is not None)
def test_hamiltonians_match_the_chains(problem):
    pack, ctx = problem.pack, problem.constraints.ctx
    assert build_hamiltonian(pack, ctx) == chain_build_hamiltonian(pack, ctx)
    if pack.omega is not None and pack.beta is None:
        assert build_H(pack, ctx) == chain_build_H(pack, ctx)


@over("problem", DOCUMENTS, lambda p: p.pack.g_low is not None)
def test_lie_metric_matches_the_chain(problem):
    data, pack = problem.data, problem.pack
    lie = _lie_metric(data, pack.g_low)
    for (a, i, j), terms in lie.items():
        expected = chain_lie_metric(data, pack.g_low, a, i, j)
        assert EvenPoly._summed(data.coords, terms) == expected
    if pack.omega is not None:
        families = structural_residuals(problem.constraints, pack)
        iota = [
            [
                sum((pack.g_low[k][j] * rho for k, rho in enumerate(row)), data.zero())
                for j in range(data.base_dim)
            ]
            for row in data.anchor
        ]
        expected = {
            key: chain_lie_metric(data, pack.g_low, *key) for key in lie
        }
        for (b, a, i), w in pack.omega.items():
            for s in range(data.base_dim):
                pair = (min(s, i), max(s, i))
                expected[(a, *pair)] = expected[(a, *pair)] - w * iota[b][s]
                if s == i:  # (i, i) takes both slots
                    expected[(a, i, i)] = expected[(a, i, i)] - w * iota[b][i]
        assert families.metric == expected


def test_anchor_derivative_matches_the_chain(problem):
    data = problem.data
    entries = [f for row in data.anchor for f in row]
    entries += [f for pairs in data.nonzero_structure.values() for _, f in pairs]
    for a in range(data.rank):
        for f in entries:
            assert data.anchor_apply(a, f) == chain_anchor_apply(data, a, f)


def test_defect_tensors_match_the_chain_and_the_tuple_kernel(problem):
    data = problem.data
    assert data.jacobi_defect == chain_jacobi_defect(data)
    assert {k: unpacked(v) for k, v in data.anchor_defect.items()} == (
        tuple_anchor_defect(data)
    )
    assert {k: unpacked(v) for k, v in data.jacobi_defect.items()} == (
        tuple_jacobi_defect(data)
    )


def test_first_class_residuals_match_the_chain(problem):
    cs = problem.constraints
    assert check_first_class(cs).residuals == chain_first_class_residuals(cs)


# the expansion needs an untwisted phase space and a package: no drift, and
# a connection wherever there is an inverse metric
@over(
    "problem",
    DOCUMENTS,
    lambda p: untwisted(p)
    and p.pack.beta is None
    and (p.pack.g_inv is None or p.pack.omega is not None),
)
def test_component_action_matches_the_chains(problem):
    cs, pack = problem.constraints, problem.pack
    package = assemble_bfv(cs, pack)
    assert extended_action_reference(package) == chain_action_reference(package)
    ectx, integrand = chain_integrand(package)
    shifts = {
        base: ectx.var(THETA) * ectx.var(partner)
        for base, partner in _partner_pairs(package.data.coords, package.data.rank)
    }
    integrand = integrand + left_derivation(ectx, shifts, integrand)
    assert expand_bv(package).action == integrand.left_deriv(THETA)


def test_transport_within_one_ring_matches_the_embedding(problem):
    cs = problem.constraints
    ctx = cs.ctx
    S = cs.S
    moved = transport(S, ctx)
    assert moved == S
    assert all(
        moved.by_word()[w].terms == embed(f, ctx.even_names).terms
        for w, f in S.by_word().items()
    )


def test_covariant_momenta_match_the_chain(geometry):
    ctx = geometry.constraints.ctx
    pack = geometry.pack
    assert covariant_momenta(pack, ctx) == chain_covariant_momenta(pack, ctx)


@over("geometry", GEOMETRY, lambda p: p.pack.g_low is not None and p.rank >= 2)
def test_cartan_reassembly_matches_the_chain(geometry):
    # a residual reassembled by the chain from a seeded tensor: the flat
    # reassembly of `_cartan_core` rebuilds it exactly, or the report would
    # be a shape finding, and reads the tensor back
    cs, pack = geometry.constraints, geometry.pack
    data = cs.data
    rng = random.Random(151)
    tensor = {}
    for c, j in zip(range(data.rank), range(data.base_dim)):
        for a, b in combinations(range(data.rank), 2):
            exponent = tuple(rng.randint(0, 1) for _ in data.coords)
            coeff = rng.choice([1, -2, Fraction(1, 3)])
            tensor[(c, j, a, b)] = EvenPoly(data.coords, packed({exponent: coeff}))
    report = _cartan_core(cs, pack, chain_cartan_residual(pack, cs.ctx, tensor))
    assert report.residuals == family_residuals("S", tensor, "cjab")
    assert report.notes == [
        "the extracted tensor reassembles the bracket residual exactly"
    ]


def test_evolution_residuals_match_the_chain(geometry):
    cs, pack = geometry.constraints, geometry.pack
    families = structural_residuals(cs, pack) if pack.g_low is not None else None
    report = check_evolution_invariance(cs, pack, families)
    assert report.residuals == chain_evolution_residuals(cs, pack)


# the decomposition needs a lowered metric and no twist
@over("geometry", GEOMETRY, lambda p: p.pack.g_low is not None and untwisted(p))
def test_decomposition_prediction_matches_the_chain(geometry):
    # the guard passes on the residuals the chain predicts, and only on them
    cs, pack = geometry.constraints, geometry.pack
    data, ctx = cs.data, cs.ctx
    families = structural_residuals(cs, pack)
    predicted = chain_predicted_residuals(data, pack, ctx, families)
    _assert_decomposition(data, pack, ctx, predicted, families)
    p = ctx.var(momentum_name(data.coords[0]))
    for a in range(data.rank):
        bumped = list(predicted)
        bumped[a] = bumped[a] + p * p
        with pytest.raises(RuntimeError, match="momentum order 2"):
            _assert_decomposition(data, pack, ctx, bumped, families)
