"""Each term pair once: the routes that skip repeated or empty term pairs,
against the routes that form every pair.

- `GradedContext.self_bracket`, {F, F} from the images of (F, .) alone,
  against `graded_poisson` of the tuple kernel, for the charge S and the
  super-time charge Q of every corpus file, so(3) to so(6), the
  log-canonical frames and their broken twin and `dense_random`, and for an
  odd F on the twisted `abelian_r2_magnetic` that is not closed;
- the product grouped by word against `graded_mul`, on factors that reach
  the grouped branch;
- `anchor_defect`, whose index i runs over the anchor supports a pair can
  reach, against the loop over every i that it replaced;
- the structure extraction on constraints whose structure functions are not
  unique, with the exact dimension of their solution space.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import nqkit.graded
from nqkit.algebroid import Algebroid, anchor_defect
from nqkit.bfv import DRIFT_REFUSAL, assemble_bfv
from nqkit.constraints import extract_structure
from nqkit.graded import GradedPoly, extended_context, word_order
from nqkit.poly import EvenPoly, Terms, accumulate_product
from nqkit.problem import problem_from_dict
from tests import reference_forms as ref
from tests.frames import log_canonical
from tests.test_generated_frames import gen

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def documents() -> dict[str, dict]:
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}
    for n in (3, 4, 5, 6):
        docs[f"so{n}"] = gen.so_n(n)
    for n in (4, 6):
        docs[f"log_canonical{n}"] = log_canonical(n)
    docs["log_canonical4_broken"] = log_canonical(4, broken=True)
    for seed in (1, 2):
        docs[f"dense_random{seed}"] = gen.dense_random(seed)
    return docs


DOCUMENTS = documents()
# the drift refuses the package, so only these have a super-time charge
PACKAGED = sorted(name for name, doc in DOCUMENTS.items() if "beta" not in doc)


def reference_self_bracket(F: GradedPoly) -> dict:
    terms = ref.graded_terms(F)
    return ref.graded_poisson(F.ctx, terms, terms)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_self_bracket_of_the_charge_matches_the_reference(name):
    cs = problem_from_dict(DOCUMENTS[name]).constraints
    S = cs.S
    assert ref.graded_terms(cs.self_bracket) == reference_self_bracket(S)
    # the images given or derived here: one answer
    assert cs.ctx.self_bracket(S) == cs.self_bracket
    assert cs.self_bracket == cs.ctx.poisson(S, S)


@pytest.mark.parametrize("name", PACKAGED)
def test_self_bracket_of_the_supercharge_matches_the_reference(name):
    problem = problem_from_dict(DOCUMENTS[name])
    Q = assemble_bfv(problem.constraints, problem.pack).Q
    assert ref.graded_terms(Q.ctx.self_bracket(Q)) == reference_self_bracket(Q)


def test_the_drift_is_the_only_input_without_a_package():
    drifts = sorted(set(DOCUMENTS) - set(PACKAGED))
    assert drifts == ["beta_drift"]
    problem = problem_from_dict(DOCUMENTS["beta_drift"])
    with pytest.raises(ValueError, match=DRIFT_REFUSAL):
        assemble_bfv(problem.constraints, problem.pack)


def test_self_bracket_of_an_unclosed_odd_element_on_a_twisted_phase_space():
    cs = problem_from_dict(DOCUMENTS["abelian_r2_magnetic"]).constraints
    ctx = cs.ctx
    assert ctx.twist is not None
    v = ctx.var
    F = (
        cs.S
        + v("x1") * v("x2") * v("xi_1")
        + v("p_x1") * v("p_x2") * v("xi_2")
        + v("x1") * v("xi_1") * v("xi_2") * v("pi_2")
    )
    bracket = ctx.self_bracket(F)
    assert not bracket.is_zero
    assert ref.graded_terms(bracket) == reference_self_bracket(F)
    assert bracket == ctx.self_bracket(F, ctx.hamiltonian_field(F))
    # the twist enters: the same F on the untwisted phase space differs
    plain = cs.data.ctx
    untwisted = nqkit.graded.transport(F, plain)
    assert nqkit.graded.transport(plain.self_bracket(untwisted), ctx) != bracket


def test_self_bracket_refuses_an_element_with_an_even_term():
    ctx = extended_context(("x",), 1)
    v = ctx.var
    for F in (v("x"), v("xi_1") + v("x"), v("xi_1") * v("pi_1") + v("xi_1")):
        with pytest.raises(ValueError, match="needs an odd F"):
            ctx.self_bracket(F)
    assert ctx.self_bracket(ctx.zero()).is_zero


# the product grouped by word


def random_factor(rng: random.Random, ctx, words: list[tuple[int, ...]], per_word: int):
    """Terms of a few words, several exponents each, with cancelling coefficients."""
    n = len(ctx.even_names)
    items = {}
    for word in words:
        for _ in range(per_word):
            exponent = tuple(rng.randint(0, 2) for _ in range(n))
            items[(word, exponent)] = rng.choice(
                [rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
            )
    return ref.from_terms(ctx, ((w, e, c) for (w, e), c in items.items() if c))


def test_grouped_product_matches_the_tuple_kernel(monkeypatch):
    # the flat loop never calls the even product; the grouped branch calls
    # it once per disjoint word pair
    grouped = []

    def counted(out: Terms, left: Terms, right: Terms, sign: int = 1) -> None:
        grouped.append((len(left), len(right)))
        accumulate_product(out, left, right, sign)

    monkeypatch.setattr(nqkit.graded, "accumulate_product", counted)
    ctx = extended_context(("x", "y", "z"), 3)
    # words over the ghost and antighost letters, which the brackets
    # multiply; drawn over theta as well, this seed's factors no longer all
    # reach the grouped branch
    odd = range(6)
    all_words = [w for size in range(4) for w in combinations(odd, size)]
    rng = random.Random(131)
    for _ in range(40):
        per_word = rng.randint(5, 12)
        F = random_factor(rng, ctx, rng.sample(all_words, rng.randint(2, 5)), per_word)
        # the empty word: some word pair is disjoint, so a grouped product
        # calls the even product at least once
        words = [(), *rng.sample(all_words[1:], rng.randint(1, 4))]
        G = random_factor(rng, ctx, words, 12)
        for left, right in [(F, G), (G, F), (F + G, F - G)]:
            before = len(grouped)
            product = left * right
            expected = ref.graded_mul(ref.graded_terms(left), ref.graded_terms(right))
            assert ref.graded_terms(product) == expected
            assert len(grouped) > before, "the factors did not reach the grouped branch"
    # words apart from their terms: a sparse product keeps the flat loop
    sparse = ref.from_terms(ctx, ((w, (1, 0, 0, 0, 0, 0), 1) for w in all_words[:12]))
    before = len(grouped)
    assert ref.graded_terms(sparse * sparse) == ref.graded_mul(
        ref.graded_terms(sparse), ref.graded_terms(sparse)
    )
    assert len(grouped) == before


def test_grouped_product_signs_each_word_pair():
    # (xi_1 + xi_2)(a + b + ...)(xi_3): the Koszul sign of every pair of
    # words, read back by word
    ctx = extended_context(("x", "y"), 3)
    v = ctx.var
    dense = (v("x") + v("y") + 1) ** 4
    F = (v("xi_2") + v("xi_1")) * dense
    G = v("xi_3") * dense - v("xi_1") * dense
    product = F * G
    assert ref.graded_terms(product) == ref.graded_mul(
        ref.graded_terms(F), ref.graded_terms(G)
    )
    assert sorted(product.by_word(), key=word_order) == [0b011, 0b101, 0b110]


# the anchor defect over supports


def all_index_anchor_defect(data: Algebroid) -> dict:
    """R1 with i over every coordinate, as before the supports."""
    anchor, nonzero = data.anchor, data.nonzero_structure
    out = {}
    for a, b in combinations(range(data.rank), 2):
        for i in range(data.base_dim):
            terms: Terms = {}
            data._add_derivative(terms, a, anchor[b][i].terms)
            data._add_derivative(terms, b, anchor[a][i].terms, -1)
            for c, f in nonzero.get((a, b), ()):
                accumulate_product(terms, f.terms, anchor[c][i].terms, -1)
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                out[(a, b, i)] = EvenPoly._trusted(data.coords, terms)
    return out


def bomb_shape(power: int) -> dict:
    """The two dense anchor entries on six coordinates of the expansion
    bomb, at a lower power, with a structure function whose row reaches a
    third coordinate."""
    total = "a + b + c + d + e + f"
    return {
        "base_dim": 6,
        "rank": 3,
        "coords": list("abcdef"),
        "anchor": [
            [f"({total} + 1)^{power}", "0", "0", "0", "0", "0"],
            ["0", f"({total} + 2)^{power}", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "c*d", "0"],
        ],
        "structure": {"3,1,2": "a", "1,2,3": "1"},
    }


ANCHOR_INPUTS = {
    **{f"so{n}": gen.so_n(n) for n in (3, 4, 5, 6)},
    "log_canonical4_broken": log_canonical(4, broken=True),
    **{f"dense_random{seed}": gen.dense_random(seed) for seed in (1, 2)},
    "bomb_shape3": bomb_shape(3),
}


@pytest.mark.parametrize("name", sorted(ANCHOR_INPUTS))
def test_anchor_defect_over_supports_matches_every_index(name):
    data = problem_from_dict(ANCHOR_INPUTS[name]).data
    expected = all_index_anchor_defect(data)
    found = anchor_defect(data)
    assert found == expected
    assert list(found) == list(expected)  # the same order of keys


def test_the_anchor_inputs_reach_a_structure_row_and_nonzero_entries():
    data = problem_from_dict(bomb_shape(3)).data
    found = anchor_defect(data)
    # x^5 (e) is in the support of row 3 alone, reached by C^3_12 = a
    assert (0, 1, 4) in found
    assert {i for _, _, i in found} == {0, 1, 4}
    assert anchor_defect(problem_from_dict(ANCHOR_INPUTS["so5"]).data) == {}


# the structure extraction when C is not unique


def test_extraction_reports_the_dimension_of_a_non_unique_structure():
    # Phi_a = a p on a line: every bracket vanishes, and each of the three
    # pairs solves C^1 + 2 C^2 + 3 C^3 = 0 at degree 0, two free unknowns
    ctx = extended_context(("x",), 0)
    p = ctx.var("p_x")
    result = extract_structure([p, 2 * p, 3 * p])
    assert result.feasible
    assert result.ansatz_degree == 0
    assert result.solution_dim == 6
    assert result.notes == [
        "structure functions not unique: solution space has dimension 6"
    ]
