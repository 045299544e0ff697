"""Acceptance battery: one test per contract item, every comparison exact.

Each test prints a single verdict line, so a verbose run reads as a
checklist.  Nothing here tolerates approximate equality; all residuals
are required to vanish identically in the rational coefficient ring.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path


from nqkit.aksz import (
    check_bookkeeping,
    check_supercharge,
    expand_bv,
    extended_action_reference,
    ghost_zero_truncation,
)
from nqkit.algebroid import (
    check_axioms,
    cohomology_h1,
    is_exact_one_form,
    jacobi_defect,
)
from nqkit.bfv import assemble_bfv, build_S, check_master, covariant_momenta
from nqkit.constraints import (
    ConstraintSet,
    check_first_class,
    extract_structure,
)
from nqkit.dynamics import (
    DECOMPOSITION_SIGNS,
    GeometryPack,
    check_evolution_invariance,
    structural_residuals,
)
from nqkit.graded import antighost_name, extended_context, ghost_name, letters
from nqkit.parser import parse_poly
from nqkit.poly import EvenPoly, embed
from nqkit.problem import load_problem
from nqkit.report import FAIL, PASS
from tests.conftest import invoke
from tests.reference_forms import (
    affine_form,
    components,
    de_rham,
    one_form,
    packed,
    pullback,
    q_apply,
)
from tests.test_algebroid import (
    abelian_r1,
    broken_jacobi,
    rank2_line,
    so3_action,
)
from tests.test_bfv import shear_pair
from tests.test_constraints import abelian_r2
from tests.test_graded import random_graded, word_coefficient
from tests.test_oracle import fixture_table
from tests.test_poly import ring

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

# corpus verdicts for the exit-code contract; warnings and skips exit 0
EXPECTED_EXIT = {
    "abelian_r1": 0,
    "abelian_r2": 0,
    "abelian_r2_magnetic": 0,
    "beta_drift": 1,
    "broken_jacobi": 1,
    "leafwise_metric": 0,
    "rank2_line": 0,
    "rank2_line_affine": 0,
    "shear_pair": 1,
    "so3_action": 0,
}


def verdict(number: int, text: str) -> None:
    print(f"criterion {number:>2}: PASS - {text}")


def corpus_problem(name: str):
    return load_problem(CORPUS / f"{name}.json")


def constant_twist_context():
    coords, _ = ring(["x1", "x2"])
    three = EvenPoly.const(coords, 3)
    twist = [[EvenPoly.zero(coords), three], [-three, EvenPoly.zero(coords)]]
    return extended_context(["x1", "x2"], rank=2, twist=twist)


def test_criterion_01_bracket_axioms_on_random_triples():
    contexts = [extended_context(["x1", "x2"], rank=2), constant_twist_context()]
    rng = random.Random(20260823)
    triples = 0
    for ctx in contexts:
        for _ in range(100):
            pf, pg, ph = (rng.randint(0, 1) for _ in range(3))
            F = random_graded(rng, ctx, parity=pf, max_terms=2)
            G = random_graded(rng, ctx, parity=pg, max_terms=2)
            H = random_graded(rng, ctx, parity=ph, max_terms=2)

            def sign(a: int, b: int) -> int:
                return -1 if (a * b) % 2 else 1

            # graded antisymmetry: {F, G} = -(-1)^{|F||G|} {G, F}
            assert ctx.poisson(F, G) == -sign(pf, pg) * ctx.poisson(G, F)
            # graded Leibniz in the second slot
            assert ctx.poisson(F, G * H) == ctx.poisson(F, G) * H + sign(
                pf, pg
            ) * (G * ctx.poisson(F, H))
            # graded Jacobi, cyclic form
            total = (
                sign(pf, ph) * ctx.poisson(F, ctx.poisson(G, H))
                + sign(pg, pf) * ctx.poisson(G, ctx.poisson(H, F))
                + sign(ph, pg) * ctx.poisson(H, ctx.poisson(F, G))
            )
            assert total.is_zero
            triples += 1
    assert triples == 200
    verdict(1, "antisymmetry, Leibniz, Jacobi on 200 triples, both twists")


def test_criterion_02_equivalence_of_the_three_verdicts():
    bundled = {
        "abelian_r1": abelian_r1(),
        "abelian_r2": abelian_r2(),
        "so3_action": so3_action(),
        "rank2_line": rank2_line(),
        "broken_jacobi": broken_jacobi(),
    }
    statuses = {}
    for name, data in bundled.items():
        axioms = check_axioms(data).status
        cs = ConstraintSet(data)
        first = check_first_class(cs).status
        master = check_master(cs).status
        assert axioms == first == master, name
        statuses[name] = axioms
    assert statuses.pop("broken_jacobi") == FAIL
    assert set(statuses.values()) == {PASS}

    # the cubic-ghost part of (S, S) carries the Jacobi defect verbatim
    data = broken_jacobi()
    ctx = data.ctx
    S = build_S(data, ctx=ctx)
    SS = ctx.poisson(S, S)
    defect = jacobi_defect(data)
    r = data.rank
    phase = tuple(ctx.even_names)
    for (a, b, c, d), value in defect.items():
        word = (a, b, c, r + d)
        assert word_coefficient(SS, word) == embed(value, phase)
    # and no cubic-ghost word of (S, S) falls outside the defect table
    cubic = {
        letters(word)
        for word in SS.by_word()
        if sum(1 for k in letters(word) if k < r) == 3 and word.bit_count() == 4
    }
    assert cubic == {
        (a, b, c, r + d)
        for (a, b, c, d), value in defect.items()
        if not value.is_zero
    }
    assert any(not value.is_zero for value in defect.values())
    verdict(2, "axioms = first class = master on 5 fixtures; (S,S) carries R2")


def test_criterion_03_round_trip_extraction():
    for name, data in (
        ("so3", so3_action()),
        ("abelian_r1", abelian_r1()),
        ("abelian_r2", abelian_r2()),
        ("rank2_line", rank2_line()),
    ):
        result = extract_structure(ConstraintSet(data).phis)
        assert result.feasible, name
        assert result.data == data, name
    verdict(3, "extract(build(data)) = data on so(3), abelian, rank-2 line")


def test_criterion_04_affine_and_twist_sector():
    data = rank2_line()
    coords, g = ring(["x"])
    alpha = (EvenPoly.const(coords, 1), g["x"])
    assert q_apply(data, affine_form(data.ctx, alpha)).is_zero
    assert is_exact_one_form(data, alpha, 2) == g["x"]

    coords2, g2 = ring(["x1", "x2"])
    zero = EvenPoly.zero(coords2)
    for b in (1, 3, Fraction(-1, 2)):
        scale = EvenPoly.const(coords2, b)
        magnetic = ((zero, scale), (-scale, zero))
        alpha_b = (zero, scale * g2["x1"])
        data2 = abelian_r2()
        twisted = ConstraintSet(data2, alpha=alpha_b, magnetic=magnetic)
        assert check_first_class(twisted).status == PASS, b
        untwisted = ConstraintSet(data2, alpha=alpha_b, magnetic=None)
        assert check_first_class(untwisted).status == FAIL, b
    verdict(4, "alpha=(1,x) exact with primitive x; twist pairs with alpha")


def test_criterion_05_chain_map_on_random_one_forms():
    rng = random.Random(1729)
    fixtures = [
        abelian_r1(),
        abelian_r2(),
        so3_action(),
        rank2_line(),
        shear_pair(),
    ]
    for data in fixtures:
        coords = data.coords
        ctx = data.ctx
        for _ in range(50):
            beta_components = []
            for _ in coords:
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exponent = tuple(rng.randint(0, 2) for _ in coords)
                    terms[exponent] = Fraction(rng.randint(-3, 3))
                beta_components.append(EvenPoly(coords, packed(terms)))
            beta = one_form(beta_components)
            lhs = pullback(data, de_rham(coords, beta))
            # the library d_E, Q on the ghost polynomial of the pulled-back form
            pulled = pullback(data, beta)
            alpha = [pulled.get((a,), data.zero()) for a in range(data.rank)]
            rhs = q_apply(data, affine_form(ctx, alpha))
            assert components(rhs, coords) == lhs
    verdict(5, "pullback O d = Ed O pullback on 50 random 1-forms x 5 fixtures")


def test_criterion_06_dynamics_two_route_agreement():
    # the decomposition signs are one global constant, asserted inside the
    # evolution check against the bracket route on every drift-free call
    assert DECOMPOSITION_SIGNS == (1, 1, -1)
    for name in (
        "abelian_r1",
        "abelian_r2",
        "so3_action",
        "rank2_line",
        "rank2_line_affine",
        "shear_pair",
    ):
        problem = corpus_problem(name)
        cs = problem.constraints
        families = structural_residuals(cs, problem.pack)
        report = check_evolution_invariance(cs, problem.pack, families)
        assert any("signs (1, 1, -1)" in note for note in report.notes), name
        all_zero = all(
            value.is_zero
            for family in (families.metric, families.alpha, families.potential)
            for value in family.values()
        )
        assert report.status == (PASS if all_zero else FAIL), name

    # and the agreement also holds on a failing fixture: a pure tau twist
    coords, g = ring(["x"])
    data = abelian_r1()
    pack = GeometryPack(
        coords,
        1,
        g_inv=[[EvenPoly.const(coords, 1)]],
        g_low=[[EvenPoly.const(coords, 1)]],
        omega={},
        tau={(0, 0): EvenPoly.const(coords, 3)},
    )
    cs = ConstraintSet(data, alpha=(EvenPoly.const(coords, 1),))
    report = check_evolution_invariance(cs, pack, structural_residuals(cs, pack))
    assert report.status == FAIL
    assert report.residuals == [("evolution[a=1]", "3*p_x + 3")]
    assert any("signs (1, 1, -1)" in note for note in report.notes)
    verdict(6, "momentum-graded routes agree with one global sign triple")


def test_criterion_07_cartan_flat_and_resubstitution():
    # flat euclidean so(3) is cartan: the bracket vanishes identically
    so3 = corpus_problem("so3_action")
    package = assemble_bfv(so3.constraints, so3.pack)
    assert package.cartan.status == PASS
    core = build_S(so3.data, ctx=package.constraints.ctx)
    assert package.constraints.ctx.poisson(core, package.H).is_zero

    # constant-connection fixture with a position-dependent bracket: the
    # reported tensor entries rebuild the bracket with zero residual
    shear = corpus_problem("shear_pair")
    package = assemble_bfv(shear.constraints, shear.pack)
    report = package.cartan
    assert report.status == FAIL
    assert report.residuals
    ctx = package.constraints.ctx
    pack = shear.pack
    coords = shear.data.coords
    n = len(coords)
    pcov = covariant_momenta(pack, ctx)
    rebuilt = ctx.zero()
    pattern = re.compile(r"S\[c=(\d+),j=(\d+),a=(\d+),b=(\d+)\]\Z")
    for label, value in report.residuals:
        c, j, a, b = (int(k) - 1 for k in pattern.match(label).groups())
        entry = ctx.lift(parse_poly(value, coords))
        block = entry * ctx.var(ghost_name(a + 1)) * ctx.var(
            ghost_name(b + 1)
        ) * ctx.var(antighost_name(c + 1))
        for i in range(n):
            rebuilt = rebuilt - ctx.lift(pack.g_inv[i][j]) * pcov[i] * block
    bracket = ctx.poisson(build_S(shear.data, ctx=ctx), package.H)
    assert not bracket.is_zero
    assert rebuilt == bracket
    verdict(7, "flat so(3) bracket vanishes; shear tensor re-substitutes to 0")


def test_criterion_08_cohomology_dimensions_match_the_oracle(oracle_document):
    document = oracle_document["h1"]
    for name, data in fixture_table().items():
        report = cohomology_h1(data, 2)
        want = document[name]
        got = {
            "closed": report.closed_dim,
            "exact": report.exact_dim,
            "h": report.h_dim,
        }
        assert got == {k: want[k] for k in got}, name
    constant = cohomology_h1(so3_action(), 0)
    want = document["so3_constant_sector"]
    assert constant.h_dim == want["h"] == 0
    verdict(8, "truncated H^1 equals the standalone oracle on all fixtures")


def test_criterion_09_classical_limit_of_the_component_action():
    names = (
        "abelian_r1",
        "abelian_r2",
        "so3_action",
        "rank2_line",
        "rank2_line_affine",
        "leafwise_metric",
    )
    for name in names:
        problem = corpus_problem(name)
        package = assemble_bfv(problem.constraints, problem.pack)
        assert check_supercharge(package).status == PASS, name
        action = expand_bv(package)
        assert check_bookkeeping(action).status == PASS, name
        truncated = ghost_zero_truncation(action)
        reference = extended_action_reference(package)
        assert truncated == reference, name
    verdict(9, "ghost-zero truncation equals p xdot - H - lam Phi on 6 packs")


def test_criterion_10_cli_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, expected in EXPECTED_EXIT.items():
        result = invoke(["check", f"corpus/{name}.json", "--all"])
        assert result.exit_code == expected, name

    # byte-stable JSON, matching the frozen snapshots
    for name in ("so3_action", "shear_pair", "beta_drift"):
        first = tmp_path / f"{name}.first.json"
        second = tmp_path / f"{name}.second.json"
        for out in (first, second):
            invoke(["check", f"corpus/{name}.json", "--all", "--json", str(out)])
        assert first.read_bytes() == second.read_bytes()
        expected_doc = (CORPUS / "expected" / f"{name}.json").read_bytes()
        assert first.read_bytes() == expected_doc, name

    # usage and input failures exit 2
    result = invoke(
        ["emit", "corpus/so3_action.json", "--what", "bogus", "--out", "x"]
    )
    assert result.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"base_dim": 1}))
    result = invoke(["check", str(bad), "--all"])
    assert result.exit_code == 2

    # the pinned exactness example
    result = invoke(["cohomology", "corpus/rank2_line_affine.json", "--is-exact"])
    assert result.exit_code == 0
    assert result.output.strip() == "exact, primitive f = x"
    verdict(10, "exit codes 0/1/2 across the corpus; reports byte-stable")
