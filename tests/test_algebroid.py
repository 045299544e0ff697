"""Defect tensors, the odd derivation Q and the E-forms it differentiates."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from pathlib import Path

import pytest

from nqkit.algebroid import (
    Algebroid,
    anchor_defect,
    check_axioms,
    cohomology_h1,
    is_exact_one_form,
    jacobi_defect,
)
from nqkit.graded import antighost_name, ghost_name, left_derivation, momentum_name
from nqkit.poly import EvenPoly, Rat
from nqkit.problem import load_problem, problem_from_dict
from nqkit.report import FAIL, PASS
from tests.cubes import cube_algebroid, structure_cube
from tests.reference_forms import (
    affine_form,
    components,
    de_rham,
    e_differential,
    ghost_poly,
    one_form,
    packed,
    parity,
    pullback,
    q_apply,
)
from tests.test_poly import ring
from tests.test_generated_frames import gen
from tests.test_graded import word_coefficient

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def levi(a: int, b: int, c: int) -> int:
    if {a, b, c} != {0, 1, 2}:
        return 0
    seq = (a, b, c)
    inversions = sum(
        1 for u in range(3) for v in range(u + 1, 3) if seq[u] > seq[v]
    )
    return -1 if inversions % 2 else 1


def so3_action() -> Algebroid:
    """Rotation frame on 3-space: anchor eps_aij x^j, bracket eps_abc."""
    coords, g = ring(["x1", "x2", "x3"])
    x = [g["x1"], g["x2"], g["x3"]]
    zero = EvenPoly.zero(coords)
    anchor = [
        [sum((levi(a, i, j) * x[j] for j in range(3)), zero) for i in range(3)]
        for a in range(3)
    ]
    structure = [
        [[levi(a, b, c) * EvenPoly.const(coords, 1) for b in range(3)] for a in range(3)]
        for c in range(3)
    ]
    return cube_algebroid(coords, anchor, structure)


def abelian_algebroid(coords, anchor: list[list[EvenPoly]]) -> Algebroid:
    """Anchor with identically vanishing structure functions."""
    r = len(anchor)
    zero = EvenPoly.zero(tuple(coords))
    structure = [[[zero for _ in range(r)] for _ in range(r)] for _ in range(r)]
    return cube_algebroid(coords, anchor, structure)


def abelian_r1() -> Algebroid:
    coords, g = ring(["x"])
    return abelian_algebroid(coords, [[EvenPoly.const(coords, 1)]])


def rank2_line() -> Algebroid:
    """Frame (d/dx, x d/dx) on the line, with [e1, e2] = e1."""
    coords, g = ring(["x"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    structure = [[[zero, one], [-one, zero]], [[zero, zero], [zero, zero]]]
    return cube_algebroid(coords, [[one], [g["x"]]], structure)


def broken_jacobi() -> Algebroid:
    """Rank 3 over the line with a position-dependent bracket that fails both
    compatibility tensors: anchor (1, x, 0) and C^1_23 = x."""
    coords, g = ring(["x"])
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    x = g["x"]
    z3 = [[zero] * 3 for _ in range(3)]
    structure = [
        [[zero, zero, zero], [zero, zero, x], [zero, -x, zero]],
        [row[:] for row in z3],
        [row[:] for row in z3],
    ]
    return cube_algebroid(coords, [[one], [x], [zero]], structure)


def nilpotent_bundle() -> Algebroid:
    """Zero anchor with C^1_23 = x: a family of nilpotent brackets.

    The structure function is position dependent, yet both defect tensors
    vanish identically, so this must pass the axioms.
    """
    coords, g = ring(["x"])
    zero = EvenPoly.zero(coords)
    x = g["x"]
    z3 = [[zero] * 3 for _ in range(3)]
    structure = [
        [[zero, zero, zero], [zero, zero, x], [zero, -x, zero]],
        [row[:] for row in z3],
        [row[:] for row in z3],
    ]
    return cube_algebroid(coords, [[zero], [zero], [zero]], structure)


# construction and forms


def test_construction_rejects_asymmetric_structure():
    # the constructor takes C^c_ab over a < b and fills in C^c_ba = -C^c_ab,
    # so a key on or below the diagonal is the one way to state asymmetry
    coords, g = ring(["x"])
    one = EvenPoly.const(coords, 1)
    for key in [(0, 1, 0), (0, 0, 0), (1, 1, 1)]:
        with pytest.raises(ValueError, match="a < b < rank"):
            Algebroid(coords, ((one,), (one,)), {key: one})


def test_construction_rejects_shape_and_ring_mismatch():
    coords, g = ring(["x"])
    other_coords, h = ring(["y"])
    one = EvenPoly.const(coords, 1)
    with pytest.raises(ValueError, match="rank x base_dim"):
        Algebroid(coords, ((one, one),), {})
    with pytest.raises(ValueError, match="base coordinate ring"):
        Algebroid(coords, ((EvenPoly.const(other_coords, 1),),), {})
    # a structure key past the rank, and an entry outside the base ring
    for key in [(2, 0, 1), (0, 0, 2), (-1, 0, 1), (0, -1, 1)]:
        with pytest.raises(ValueError, match="a < b < rank"):
            Algebroid(coords, ((one,), (one,)), {key: one})
    with pytest.raises(ValueError, match="base coordinate ring"):
        Algebroid(coords, ((one,), (one,)), {(0, 0, 1): h["y"]})


def test_construction_stores_the_nonzero_index_over_both_orders():
    coords, g = ring(["x"])
    one, zero, x = EvenPoly.const(coords, 1), EvenPoly.zero(coords), g["x"]
    anchor = ((one,), (x,), (zero,))
    data = Algebroid(coords, anchor, {(2, 0, 1): x, (0, 0, 1): one, (1, 1, 2): zero})
    assert data.nonzero_structure == {
        (0, 1): [(0, one), (2, x)],
        (1, 0): [(0, -one), (2, -x)],
    }
    # the order the keys are given in does not matter, and zeros are dropped
    assert data == Algebroid(coords, anchor, {(0, 0, 1): one, (2, 0, 1): x})
    assert data != Algebroid(coords, anchor, {(0, 0, 1): one})


def test_anchor_apply_so3():
    data = so3_action()
    coords, g = ring(["x1", "x2", "x3"])
    assert data.anchor_apply(0, g["x2"]) == g["x3"]
    assert data.anchor_apply(0, g["x3"]) == -g["x2"]
    assert data.anchor_apply(0, g["x1"]).is_zero
    # the quadratic radius is invariant under every rotation frame field
    radius = g["x1"] ** 2 + g["x2"] ** 2 + g["x3"] ** 2
    for a in range(3):
        assert data.anchor_apply(a, radius).is_zero


# differentials


def random_poly(coords, rng, degree=3):
    terms = {}
    for _ in range(6):
        exponent = tuple(rng.randrange(degree) for _ in coords)
        terms[exponent] = Rat(rng.randrange(-5, 6))
    return EvenPoly(coords, packed(terms))


def test_de_rham_squared_is_zero():
    coords, g = ring(["x1", "x2", "x3"])
    rng = random.Random(7)
    for _ in range(20):
        f = {(): random_poly(coords, rng)}
        assert de_rham(coords, de_rham(coords, f)) == {}


def test_frame_differential_squares_to_zero_when_axioms_hold():
    data = so3_action()
    ctx = data.ctx
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly(data.coords, rng)
        df = q_apply(data, ctx.lift(f))
        assert components(df, data.coords) == e_differential(data, {(): f})
        assert q_apply(data, df).is_zero


def test_frame_differential_square_detects_defect():
    data = broken_jacobi()
    coords, g = ring(["x"])
    square = q_apply(data, q_apply(data, data.ctx.lift(g["x"])))
    # the (1,2) component is the anchor defect contracted with df
    assert components(square, coords) == {
        (0, 1): EvenPoly.const(coords, 1),
        (1, 2): -g["x"],
    }


def test_pullback_chain_identity():
    # the library d_E after the pullback minus the pullback after the
    # coordinate differential equals the anchor defect contracted with the
    # 1-form
    rng = random.Random(13)
    for data in (so3_action(), rank2_line(), broken_jacobi()):
        ctx = data.ctx
        defect = anchor_defect(data)
        for _ in range(5):
            beta = [random_poly(data.coords, rng) for _ in range(data.base_dim)]
            pulled = pullback(data, one_form(beta))
            alpha = [pulled.get((a,), data.zero()) for a in range(data.rank)]
            lhs = components(q_apply(data, affine_form(ctx, alpha)), data.coords)
            rhs = pullback(data, de_rham(data.coords, one_form(beta)))
            zero = data.zero()
            for a, b in combinations(range(data.rank), 2):
                expected = sum(
                    (
                        defect.get((a, b, i), zero) * beta[i]
                        for i in range(data.base_dim)
                    ),
                    zero,
                )
                assert lhs.get((a, b), zero) - rhs.get((a, b), zero) == expected


# defect tensors on the frozen fixture


def test_anchor_defect_broken_values():
    data = broken_jacobi()
    coords, g = ring(["x"])
    defect = anchor_defect(data)
    # sparse: the zero entry at (a, b) = (1, 3) is not stored
    assert defect == {(0, 1, 0): EvenPoly.const(coords, 1), (1, 2, 0): -g["x"]}


def test_jacobi_defect_broken_values():
    data = broken_jacobi()
    coords, g = ring(["x"])
    defect = jacobi_defect(data)
    # sparse: only the nonzero entry is stored, a missing key reads as zero
    assert defect == {(0, 1, 2, 0): EvenPoly.const(coords, -2)}
    zero = EvenPoly.zero(coords)
    assert defect.get((0, 1, 2, 1), zero).is_zero
    assert defect.get((0, 1, 2, 2), zero).is_zero


def test_jacobi_defect_vanishes_for_nilpotent_bundle():
    # zero anchor with position-dependent nilpotent bracket: both tensors vanish
    data = nilpotent_bundle()
    assert anchor_defect(data) == {}
    assert jacobi_defect(data) == {}


def jacobi_defect_by_permutations(data):
    """R2 from its defining six-term signed sum: the reference for the cyclic form."""
    out = {}
    r = data.rank
    C = structure_cube(data)
    for a, b, c in combinations(range(r), 3):
        for d in range(r):
            total = data.zero()
            for seq in permutations((a, b, c)):
                pa, pb, pc = seq
                inversions = sum(
                    1 for u in range(3) for v in range(u + 1, 3) if seq[u] > seq[v]
                )
                term = data.zero()
                for e in range(r):
                    term = term + C[d][e][pa] * C[e][pb][pc]
                term = term - data.anchor_apply(pa, C[d][pb][pc])
                total = total + (-term if inversions % 2 else term)
            out[(a, b, c, d)] = total
    return out


def random_frame(rng, base_dim, rank):
    """Random polynomial anchor and random antisymmetric structure functions."""
    coords, _ = ring([f"x{i + 1}" for i in range(base_dim)])
    anchor = [[random_poly(coords, rng, 2) for _ in coords] for _ in range(rank)]
    structure = [
        [[EvenPoly.zero(coords) for _ in range(rank)] for _ in range(rank)]
        for _ in range(rank)
    ]
    for c in range(rank):
        for a, b in combinations(range(rank), 2):
            if rng.random() < 0.6:
                entry = random_poly(coords, rng, 2)
                structure[c][a][b], structure[c][b][a] = entry, -entry
    return cube_algebroid(coords, anchor, structure)


def test_cyclic_jacobi_defect_matches_the_permutation_sum():
    frames = [load_problem(path).data for path in sorted(CORPUS.glob("*.json"))]
    frames += [so3_action(), nilpotent_bundle()]
    rng = random.Random(29)
    for _ in range(8):
        frames.append(random_frame(rng, rng.randrange(1, 3), rng.randrange(3, 5)))
    nonzero = 0
    for data in frames:
        # the sparse tensor holds exactly the nonzero entries of the full sum
        expected = {
            key: value
            for key, value in jacobi_defect_by_permutations(data).items()
            if not value.is_zero
        }
        assert jacobi_defect(data) == expected
        assert data.jacobi_defect == expected
        nonzero += len(expected)
    assert nonzero > 0


def q_images_by_full_sums(data, ctx):
    """Q from its defining sums over all (a, b): the reference for the a < b form."""
    ghosts = [ctx.var(ghost_name(a + 1)) for a in range(data.rank)]
    images = {}
    for i, name in enumerate(data.coords):
        value = ctx.zero()
        for a in range(data.rank):
            value = value + ctx.lift(data.anchor[a][i]) * ghosts[a]
        images[name] = value
    C = structure_cube(data)
    for c in range(data.rank):
        value = ctx.zero()
        for a in range(data.rank):
            for b in range(data.rank):
                pair = ghosts[a] * ghosts[b]
                value = value + ctx.lift(C[c][a][b]) * pair
        images[ghost_name(c + 1)] = value / -2
    return images


def test_q_images_match_the_full_double_sum():
    frames = [load_problem(path).data for path in sorted(CORPUS.glob("*.json"))]
    frames += [so3_action(), nilpotent_bundle()]
    rng = random.Random(37)
    for _ in range(8):
        frames.append(random_frame(rng, rng.randrange(1, 4), rng.randrange(2, 5)))
    cubic = 0
    for data in frames:
        ctx = data.ctx
        expected = q_images_by_full_sums(data, ctx)
        assert data.q == expected
        cubic += sum(
            1 for c in range(data.rank) if not expected[ghost_name(c + 1)].is_zero
        )
    assert cubic > 0


def anchor_defect_by_definition(data):
    """R1 from its defining sum over every frame field, zero entries included."""
    C = structure_cube(data)
    rho = data.anchor
    out = {}
    for a, b in combinations(range(data.rank), 2):
        for i in range(data.base_dim):
            value = data.anchor_apply(a, rho[b][i]) - data.anchor_apply(b, rho[a][i])
            for c in range(data.rank):
                value = value - C[c][a][b] * rho[c][i]
            out[(a, b, i)] = value
    return out


def so_n_frames():
    return [problem_from_dict(gen.so_n(n)).data for n in (3, 4, 5, 6)]


def test_sparse_anchor_defect_matches_the_defining_sum():
    frames = [load_problem(path).data for path in sorted(CORPUS.glob("*.json"))]
    frames += [so3_action(), nilpotent_bundle()]
    rng = random.Random(41)
    for _ in range(8):
        frames.append(random_frame(rng, rng.randrange(1, 4), rng.randrange(2, 5)))
    nonzero = 0
    for data in frames:
        defect = anchor_defect(data)
        assert not any(value.is_zero for value in defect.values())
        expected = anchor_defect_by_definition(data)
        assert defect == {k: v for k, v in expected.items() if not v.is_zero}
        assert list(defect) == sorted(defect)
        nonzero += len(defect)
    assert nonzero > 0


def test_defect_lift_is_the_reference_differential_applied_twice():
    # D = (d_E d_E x^i) p_i + (d_E d_E e^d) pi_d, each d_E by the index
    # formulas of the reference; so(n) satisfies both axioms, the seeded
    # random frames break both
    frames = [load_problem(path).data for path in sorted(CORPUS.glob("*.json"))]
    frames += so_n_frames() + [nilpotent_bundle()]
    rng = random.Random(43)
    for _ in range(6):
        frames.append(random_frame(rng, rng.randrange(1, 3), rng.randrange(3, 5)))
    broken = 0
    for data in frames:
        ctx = data.ctx
        expected = ctx.zero()
        for name in data.coords:
            dx = e_differential(data, {(): EvenPoly.variable(data.coords, name)})
            square = ghost_poly(data, e_differential(data, dx))
            expected = expected + square * ctx.var(momentum_name(name))
        for d in range(data.rank):
            de = e_differential(data, {(d,): EvenPoly.const(data.coords, 1)})
            square = ghost_poly(data, e_differential(data, de))
            expected = expected + square * ctx.var(antighost_name(d + 1))
        assert data.defect_lift == expected
        assert data.defect_lift.ctx is data.ctx
        broken += not expected.is_zero
    assert broken >= 6


def test_defect_tensors_are_cached_per_frame():
    data = broken_jacobi()
    assert data.anchor_defect is data.anchor_defect
    assert data.jacobi_defect is data.jacobi_defect
    assert data.defect_lift is data.defect_lift
    assert data.anchor_defect == anchor_defect(data)


# the axiom check


@pytest.mark.parametrize(
    "factory", [so3_action, abelian_r1, rank2_line, nilpotent_bundle]
)
def test_check_axioms_passes(factory):
    report = check_axioms(factory())
    assert report.status == PASS
    assert report.identity == "Q^2 = 0"
    assert report.residuals == []


def test_check_axioms_fails_on_broken_fixture():
    report = check_axioms(broken_jacobi())
    assert report.status == FAIL
    named = dict(report.residuals)
    assert named["anchor[a=1,b=2,i=1]"] == "1"
    assert named["anchor[a=2,b=3,i=1]"] == "-x"
    assert named["jacobi[a=1,b=2,c=3,d=1]"] == "-2"
    assert len(named) == 3


# Q as an odd derivation


def test_q_is_an_odd_left_derivation():
    data = so3_action()
    ctx = data.ctx
    images = data.q
    x1, x2 = ctx.var("x1"), ctx.var("x2")
    xi = [ctx.var(ghost_name(a)) for a in (1, 2, 3)]
    pool = [x1, xi[0], x2 * xi[0] * xi[1], xi[0] * xi[1] * xi[2], x1 * x2]
    for F in pool:
        for G in pool:
            sign = -1 if parity(F) else 1
            lhs = left_derivation(ctx, images, F * G)
            rhs = left_derivation(ctx, images, F) * G + sign * F * left_derivation(
                ctx, images, G
            )
            assert lhs == rhs


def test_q_squares_to_zero_on_valid_data():
    data = so3_action()
    ctx = data.ctx
    images = data.q
    xi = [ctx.var(ghost_name(a)) for a in (1, 2, 3)]
    F = (
        ctx.var("x1")
        + ctx.var("x2") * xi[0]
        + ctx.var("x3") * xi[0] * xi[1]
        + xi[0] * xi[1] * xi[2]
    )
    assert left_derivation(ctx, images, left_derivation(ctx, images, F)).is_zero


def test_q_square_exposes_anchor_defect():
    data = broken_jacobi()
    ctx = data.ctx
    images = data.q
    square = left_derivation(ctx, images, images["x"])
    word = (ctx.odd_index[ghost_name(1)], ctx.odd_index[ghost_name(2)])
    assert word_coefficient(square, word) == EvenPoly.const(ctx.even_names, 1)


# truncated cohomology


def test_cohomology_h1_abelian_line():
    report = cohomology_h1(abelian_r1(), trunc=2)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (3, 3, 0)
    assert report.flags == {
        "truncated": True,
        "degree_filtration_preserved": True,
    }


def test_cohomology_h1_rank2_line():
    # the class of the 1-form dual to the vanishing frame field survives
    report = cohomology_h1(rank2_line(), trunc=2)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (3, 2, 1)


def test_cohomology_h1_so3_vanishes():
    constant = cohomology_h1(so3_action(), trunc=0)
    assert constant.closed_dim == 0
    assert constant.h_dim == 0
    quadratic = cohomology_h1(so3_action(), trunc=2)
    assert quadratic.h_dim == 0
    assert quadratic.closed_dim == quadratic.exact_dim
    assert quadratic.flags["degree_filtration_preserved"]


def test_cohomology_flags_degree_growth():
    report = cohomology_h1(broken_jacobi(), trunc=1)
    assert report.flags["degree_filtration_preserved"] is False


def test_closed_basis_members_are_closed():
    for factory in (abelian_r1, rank2_line, so3_action):
        data = factory()
        ctx = data.ctx
        report = cohomology_h1(data, trunc=2)
        for alpha in report.closed_basis:
            assert len(alpha) == data.rank
            assert q_apply(data, affine_form(ctx, alpha)).is_zero
            assert e_differential(data, one_form(alpha)) == {}


def test_is_exact_one_form_finds_primitive():
    data = rank2_line()
    ctx = data.ctx
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    primitive = is_exact_one_form(data, alpha, degree=3)
    assert primitive == g["x"]
    assert q_apply(data, ctx.lift(primitive)) == affine_form(ctx, alpha)


def test_is_exact_one_form_detects_obstruction():
    data = rank2_line()
    coords, g = ring(["x"])
    one, zero = EvenPoly.const(coords, 1), EvenPoly.zero(coords)
    # closed, and no primitive at any degree
    assert is_exact_one_form(data, (zero, one), degree=4) is None
    # exact, but its primitive x lies above the window
    assert is_exact_one_form(data, (one, g["x"]), degree=0) is None


def test_is_exact_one_form_refuses_an_unclosed_form():
    # Q(x xi^1) = -2 x xi^1 xi^2 is nonzero, so x xi^1 has no primitive at
    # any degree: refused before the window is solved
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (g["x"], EvenPoly.zero(coords))
    assert not q_apply(data, affine_form(data.ctx, alpha)).is_zero
    with pytest.raises(ValueError, match="^not closed: the frame differential"):
        is_exact_one_form(data, alpha, degree=4)
