"""Fiber-affine constraint systems on the graded phase space.

A `ConstraintSet` is an `Algebroid` with an optional affine part and an
optional magnetic 2-form, the one owner of both: it checks them and
builds the constraints Phi_a = rho_a^i(x) p_i + alpha_a(x) on its `ctx`,
the one phase space T*E[1] of a problem: the frame's own `data.ctx`, or
its twist when a nonzero magnetic 2-form twists the momentum bracket.
The affine part is the tuple of its r components alpha_a and the magnetic
2-form the antisymmetric n x n matrix B_ij, both over the base ring.  The
structural 2-form d_E alpha - rho^* B that the brackets predict is an
E-form: a ghost polynomial, with d_E = Q, computed with the frame's table
of Q and kept on the phase space, as the closure is.
The constraints alone fix the odd BFV charge S = core + affine: the lift
of Q to the phase space plus the affine part alpha_a xi^a.  A constraint
set keeps S, the derivation (S, .) and the self-bracket (S, S), and the
master check compares (S, S) with twice the closure the constraint
brackets predict.  The module verifies closure of the constraint
brackets, inverts the construction by reading frame data back off
fiber-linear constraints, and returns the `irreducible` report of a rank
probe.  All verdicts are exact; probes that sample points say so in their
verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Sequence

from .algebroid import Algebroid, _affine_form, check_axioms
from .graded import (
    GradedContext,
    GradedPoly,
    _accumulate_product,
    _lifted_terms,
    extended_context,
    hamiltonian_lift,
    left_derivation,
    momentum_name,
    momentum_orders,
    word_residuals,
)
from .linalg import rank, read_back, solve, vector_column
from .poly import EvenPoly, Rat, exact_quotient, monomial_exponents, unpack
from .report import FAIL, PASS, WARN, CheckReport, family_residuals

DEFAULT_PROBE_SEED = 271828
_RANDOM_PROBE_COUNT = 5

Matrix = tuple[tuple[EvenPoly, ...], ...]


class ConstraintSet:
    """Constraints Phi_a = rho_a^i p_i + alpha_a on the phase space `ctx`.

    A constraint set is its frame data, its affine part alpha and its
    magnetic 2-form B, each checked here, once: alpha must have r
    components and B must be n x n, both over the base ring, and B must be
    antisymmetric, as the twist of the phase space is.  Both stay None when
    absent.  The context (twisted only by a checked B), the structural
    2-form and the closure, the constraints (built from frame data and so
    fiber-affine), and the charge S of the constraints, its derivation
    (S, .), its self-bracket and the master report are computed on first
    use and kept, so a verb that reads none of them builds no phase space,
    and one invocation derives (S, .) once and brackets S with itself once
    however many reports and windows need them.  Treated as immutable.
    """

    def __init__(
        self,
        data: Algebroid,
        alpha: Sequence[EvenPoly] | None = None,
        magnetic: Matrix | None = None,
    ):
        if alpha is not None:
            alpha = affine_part(data.coords, data.rank, alpha)
        if magnetic is not None:
            magnetic = tuple(tuple(row) for row in magnetic)
            n = data.base_dim
            if len(magnetic) != n or any(
                len(row) != n or any(f.coords != data.coords for f in row)
                for row in magnetic
            ):
                raise ValueError(f"magnetic must be {n} x {n} over the base ring")
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            if any(not (magnetic[i][j] + magnetic[j][i]).is_zero for i, j in pairs):
                raise ValueError("the magnetic twist must be antisymmetric")
        self.data = data
        self.alpha = alpha
        self.magnetic = magnetic

    @cached_property
    def ctx(self) -> GradedContext:
        """T*E[1] of the frame: the one context of the constraints, H and the
        charge, built on first use.

        Without a magnetic 2-form, or with a zero one, it is `data.ctx`;
        either way the charge lifts the frame's one table of Q.  A magnetic
        2-form B_ij twists the momentum bracket to {p_i, p_j} = -B_ij: the
        sign is fixed so that for B_12 = b on the plane the constraints p_1
        and p_2 + b x^1 close, as {p_1, p_2} must cancel the derivative term.
        """
        magnetic = self.magnetic
        if magnetic is None or all(f.is_zero for row in magnetic for f in row):
            return self.data.ctx
        twist = [[-f for f in row] for row in magnetic]
        return extended_context(self.data.coords, self.data.rank, twist)

    @cached_property
    def phis(self) -> tuple[GradedPoly, ...]:
        """Phi_a = rho_a^i p_i + alpha_a; callers must not mutate them."""
        ctx, data = self.ctx, self.data
        momenta = [momentum_name(name) for name in data.coords]
        phis = []
        for row, f in zip(data.anchor, self.alpha or (data.zero(),) * data.rank):
            terms = _lifted_terms(ctx, f)  # no term of it holds a momentum,
            for rho, p in zip(row, momenta):  # each of these one p_i alone
                terms.update(_lifted_terms(ctx, rho, p))
            phis.append(GradedPoly._trusted(ctx, terms))
        return tuple(phis)

    @property
    def degenerate(self) -> tuple[int, ...]:
        """The indexes of the identically zero constraints."""
        return tuple(a for a, phi in enumerate(self.phis) if phi.is_zero)

    @cached_property
    def structural(self) -> GradedPoly:
        """The structural 2-form d_E alpha - rho^* B of the constraint brackets.

        An E-form, computed with the frame's Q on `data.ctx`: d_E is Q, and
        rho^* B is 1/2 B_ij Q(x^i) Q(x^j), which is the sum over i < j of
        B_ij Q(x^i) Q(x^j) since B is antisymmetric.  A twist does not change
        term keys, so the terms of `affine` are read on `data.ctx` and the
        result's are wrapped on `ctx` as they are.  Computed on first use;
        callers must not mutate it.
        """
        data, ctx = self.data, self.data.ctx
        affine = GradedPoly._trusted(ctx, self.affine.coeffs)
        magnetic = self.magnetic
        pairs = [
            (i, j)
            for i, j in combinations(range(data.base_dim), 2)
            if magnetic is not None and not magnetic[i][j].is_zero
        ]
        if affine.is_zero and not pairs:
            return self.ctx.zero()  # no alpha and no B: nothing to differentiate
        images = data.q
        terms = dict(left_derivation(ctx, images, affine).coeffs)
        for i, j in pairs:
            pulled = {}
            q_i, q_j = images[data.coords[i]].coeffs, images[data.coords[j]].coeffs
            _accumulate_product(pulled, q_i, q_j, ctx.word_shift)
            minus_b = _lifted_terms(ctx, magnetic[i][j], scale=-1)
            _accumulate_product(terms, minus_b, pulled, ctx.word_shift)
        return GradedPoly(self.ctx, terms)

    @cached_property
    def closure(self) -> GradedPoly:
        """structural + D on `ctx`: the predicted (S, S) / 2, computed on first
        use, with the terms of D as they are.

        Its xi^a xi^b coefficients are the predicted first-class residuals;
        callers must not mutate it.
        """
        return self.structural + GradedPoly._trusted(
            self.ctx, self.data.defect_lift.coeffs
        )

    @cached_property
    def core(self) -> GradedPoly:
        """The lift of Q, `build_S`; alpha = 0 makes it the whole charge."""
        return build_S(self.data, self.ctx)

    @cached_property
    def affine(self) -> GradedPoly:
        """alpha_a xi^a, the affine part of the charge."""
        return _affine_form(self.ctx, self.alpha or ())

    @cached_property
    def S(self) -> GradedPoly:
        """The charge core + affine, odd of ghost degree +1 (or zero)."""
        return self.core + self.affine

    @cached_property
    def field(self) -> dict[str, GradedPoly]:
        """(S, .) as images of the coordinates, for `left_derivation`."""
        return self.ctx.hamiltonian_field(self.S)

    @cached_property
    def self_bracket(self) -> GradedPoly:
        """(S, S) from the images of `field` alone (`GradedContext.self_bracket`);
        `check_master` holds it against twice the closure."""
        return self.ctx.self_bracket(self.S, self.field)

    @cached_property
    def master(self) -> CheckReport:
        return check_master(self)


def affine_part(
    coords: tuple[str, ...], rank: int, alpha: Sequence[EvenPoly]
) -> tuple[EvenPoly, ...]:
    """The components alpha_a, checked against the frame."""
    alpha = tuple(alpha)
    if len(alpha) != rank or any(f.coords != coords for f in alpha):
        raise ValueError(f"alpha must have {rank} components over the base ring")
    return alpha


def decompose_fiber_affine(
    ctx: GradedContext, F: GradedPoly
) -> tuple[EvenPoly, list[EvenPoly]]:
    """Split F = alpha(x) + sum_i rho^i(x) p_i, or raise when F is not affine.

    Both pieces come back over the positions-only subring.
    """
    if any(word for word in F.by_word()):
        raise ValueError("constraint has odd content")
    paired = {name for pair in ctx.pairs_even for name in pair}
    for name in ctx.even_names:
        if name not in paired and F.even_part().degree_in(name) > 0:
            raise ValueError(f"constraint depends on unpaired coordinate {name!r}")
    orders = momentum_orders(ctx, F.even_part())
    if any(len(word) > 1 for word in orders):
        raise ValueError("constraint is not affine in the momenta")
    zero = EvenPoly.zero(tuple(x for _, x in ctx.pairs_even))
    rho = [orders.get((j,), zero) for j in range(len(ctx.pairs_even))]
    return orders.get((), zero), rho


def build_S(data: Algebroid, ctx: GradedContext) -> GradedPoly:
    """The lift Q(x^i) p_i + Q(xi^c) pi_c of Q on the phase space ctx.

    Written out: rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c.  This is the
    core of the charge; a constraint set adds the affine part alpha_a xi^a.
    ctx is `data.ctx` or a twist of it, into which the frame's one table of
    Q lifts as it is; a context with other coordinate names is refused.
    """
    ghost = data.ctx
    if (ctx.even_names, ctx.odd_names) != (ghost.even_names, ghost.odd_names):
        raise ValueError("the context is not a phase space of this frame")
    return hamiltonian_lift(ctx, data.q)


def check_master(cs: ConstraintSet) -> CheckReport:
    """Nilpotency of the charge of the constraints under the graded bracket.

    The self-bracket is also predicted from the frame data used to build S:
    it is twice the `closure` of the constraints, the structural 2-form
    plus the lift of the defect tensors; disagreement between the routes
    raises.
    """
    ss = cs.self_bracket
    if ss != cs.closure * 2:
        raise RuntimeError("internal dual-route mismatch in the self-bracket")
    notes = [
        "dual route: the self-bracket matches the anchor and jacobi "
        "defects with the structural 2-form"
    ]
    residuals = word_residuals("ss", ss)
    status = FAIL if residuals else PASS
    return CheckReport("master", status, "(S, S) = 0", residuals, notes)


def check_first_class(cs: ConstraintSet) -> CheckReport:
    """Closure of the constraint brackets in the span of the constraints.

    The residual R_ab = {Phi_a, Phi_b} - C^c_ab Phi_c is computed with the
    bracket and compared with the xi^a xi^b coefficient of the predicted
    `closure`; disagreement between the two routes raises.
    """
    data, ctx = cs.data, cs.ctx
    closure = cs.closure.by_word()
    brackets: dict[tuple[int, int], GradedPoly] = {}
    fields = [ctx.hamiltonian_field(phi) for phi in cs.phis[:-1]]  # {Phi_a, .}
    for a, b in combinations(range(cs.data.rank), 2):
        terms = dict(left_derivation(ctx, fields[a], cs.phis[b]).coeffs)
        for c, f in data.nonzero_structure.get((a, b), ()):  # - C^c_ab Phi_c
            minus_f = _lifted_terms(ctx, f, scale=-1)
            _accumulate_product(terms, minus_f, cs.phis[c].coeffs, ctx.word_shift)
        R = GradedPoly(ctx, terms)
        word = 1 << a | 1 << b
        expected = ctx.lift(closure[word]) if word in closure else ctx.zero()
        if R != expected:
            raise RuntimeError("internal dual-route mismatch in the constraint bracket")
        brackets[(a, b)] = R
    residuals = family_residuals("bracket", brackets, "ab")

    notes = [
        "dual route: bracket residuals match the anchor defect plus the "
        "structural 2-form",
    ]
    if cs.degenerate:
        labels = ", ".join(str(a + 1) for a in cs.degenerate)
        notes.append(f"degenerate constraints (identically zero): {labels}")
    status = FAIL if residuals else PASS
    return CheckReport(
        "first_class", status, "{Phi_a, Phi_b} = C^c_ab Phi_c", residuals, notes
    )


# reverse direction: frame data from fiber-linear constraints


class ExtractionResult:
    def __init__(
        self,
        feasible: bool,
        data: Algebroid | None,
        ansatz_degree: int,
        solution_dim: int,
        axioms: CheckReport | None,
        notes: list[str] | None = None,
    ):
        self.feasible = feasible
        self.data = data
        self.ansatz_degree = ansatz_degree
        self.solution_dim = solution_dim
        self.axioms = axioms
        self.notes = [] if notes is None else notes


def extract_structure(
    phis: Sequence[GradedPoly], ansatz_degree: int | None = None
) -> ExtractionResult:
    """Recover anchor and structure functions from fiber-linear constraints.

    The anchor is read off the momentum coefficients; the structure functions
    are the solution of the exact linear system {Phi_a, Phi_b} = C^c_ab Phi_c
    with polynomial C of bounded degree.  The degree ansatz starts at zero and
    grows to the requested bound, so the least-structure solution is found
    first; infeasibility at the bound is exact, not a tolerance call.
    """
    if not phis:
        raise ValueError("no constraints given")
    ctx = phis[0].ctx
    if any(phi.ctx != ctx for phi in phis):
        raise ValueError("constraints must share one context")
    if ctx.twist is not None:
        raise ValueError("structure extraction requires an untwisted bracket")
    rho_rows: list[list[EvenPoly]] = []
    for phi in phis:
        alpha_part, rho = decompose_fiber_affine(ctx, phi)
        if not alpha_part.is_zero:
            raise ValueError("structure extraction requires fiber-linear input")
        rho_rows.append(rho)
    base = rho_rows[0][0].coords if rho_rows and rho_rows[0] else ()
    r, n = len(phis), len(base)

    # momentum coefficients of the pairwise brackets are the closure targets
    targets: dict[tuple[int, int], list[EvenPoly]] = {}
    for a in range(r):
        for b in range(a + 1, r):
            bracket = ctx.poisson(phis[a], phis[b])
            _, target = decompose_fiber_affine(ctx, bracket)
            targets[(a, b)] = target
    if ansatz_degree is None:
        ansatz_degree = max(
            (t.total_degree() for ts in targets.values() for t in ts), default=0
        )

    for degree in range(ansatz_degree + 1):
        attempt = _solve_structure(base, rho_rows, targets, degree)
        if attempt is None:
            continue
        structure, solution_dim = attempt
        data = Algebroid(
            base,
            tuple(tuple(row) for row in rho_rows),
            structure,
        )
        axioms = check_axioms(data)
        notes = []
        if solution_dim:
            notes.append(
                f"structure functions not unique: solution space has "
                f"dimension {solution_dim}"
            )
        if generic_rank([list(row) for row in rho_rows]) == r:
            notes.append(
                "anchor has full generic rank: closure forces the jacobi "
                "defect to vanish"
            )
        return ExtractionResult(True, data, degree, solution_dim, axioms, notes)
    return ExtractionResult(
        False,
        None,
        ansatz_degree,
        0,
        None,
        [
            f"no polynomial structure functions of degree <= {ansatz_degree} "
            f"reproduce the constraint brackets"
        ],
    )


def _solve_structure(
    base: tuple[str, ...],
    rho_rows: list[list[EvenPoly]],
    targets: dict[tuple[int, int], list[EvenPoly]],
    degree: int,
) -> tuple[dict[tuple[int, int, int], EvenPoly], int] | None:
    r, n = len(rho_rows), len(base)
    unknowns = [(c, m) for c in range(r) for m in monomial_exponents(n, degree)]
    # C^c_ab = x^m contributes x^m rho_c^i to the p_i coefficient, whatever (a, b)
    columns = [vector_column(dict(enumerate(rho_rows[c])), m) for c, m in unknowns]

    structure: dict[tuple[int, int, int], EvenPoly] = {}
    total_free = 0
    for (a, b), target in targets.items():
        result = solve(columns, vector_column(dict(enumerate(target))))
        if result is None:
            return None
        solution, free = result
        total_free += free
        entries = read_back(base, unknowns, solution)
        for c in range(r):
            structure[(c, a, b)] = entries.get(c, EvenPoly.zero(base))
    return structure, total_free


# reducibility diagnostics


def generic_rank(matrix: list[list[EvenPoly]]) -> int:
    """Rank over the rational function field, by fraction-free elimination.

    Bareiss elimination with row and column pivoting: after k pivots every
    remaining entry is a (k+1)-minor of the original matrix, so dividing by
    the previous pivot is exact (Sylvester's identity) and a nonzero
    remainder raises.  The pivot is the first nonzero entry of the first
    remaining row; a row that becomes zero stays zero and is dropped.  Each
    row is first scaled by the common denominator of its coefficients, which
    keeps the rank and lets the elimination run on integers.
    """
    rows = [_integral(row) for row in matrix if any(not f.is_zero for f in row)]
    if not rows:
        return 0
    previous = EvenPoly.const(rows[0][0].coords, 1)
    found = 0
    while rows:
        pivot_row = rows.pop(0)
        j = next(k for k, f in enumerate(pivot_row) if not f.is_zero)
        pivot = pivot_row[j]
        reduced = []
        for row in rows:
            lead, new_row = row[j], []
            for k, (f, g) in enumerate(zip(row, pivot_row)):
                if k == j:
                    continue
                # pivot * f - lead * g: no zero factor, no zero numerator divided
                numerator = pivot * f if f.terms else f
                if lead.terms and g.terms:
                    numerator = numerator - lead * g
                if numerator.terms:
                    numerator = exact_quotient(numerator, previous)
                new_row.append(numerator)
            if any(not f.is_zero for f in new_row):
                reduced.append(new_row)
        rows, previous = reduced, pivot
        found += 1
    return found


def _integral(row: Sequence[EvenPoly]) -> list[EvenPoly]:
    """The row times the lcm of its coefficient denominators."""
    scale = lcm(*(c.denominator for f in row for c in f.terms.values()))
    if scale == 1:
        return list(row)
    return [
        EvenPoly(f.coords, {e: int(c * scale) for e, c in f.terms.items()})
        for f in row
    ]


def _rank_at(
    rows: list[list[list[tuple]]], degrees: list[int], point: tuple[Rat, ...]
) -> int:
    """The rank of the integral rows at a rational point, over the integers.

    Each entry of a row is given by its terms (c, exponent tuple), unpacked
    once for every point.  With the point written as X / D over the common
    denominator D, a row of degree d times D^d has the integer entries sum
    c X^e D^(d - |e|); scaling a row by a nonzero constant keeps the rank.
    Each row is one column: the rank of the transpose is the same.
    """
    scale = lcm(*(v.denominator for v in point))
    numerators = [v.numerator * (scale // v.denominator) for v in point]
    columns = []
    for row, degree in zip(rows, degrees):
        powers = [scale**k for k in range(degree + 1)]
        column = {}
        for i, terms in enumerate(row):
            total = 0
            for c, e in terms:
                term = c * powers[degree - sum(e)]
                for value, k in zip(numerators, e):
                    if k:
                        term *= value**k
                total += term
            column[i] = total
        columns.append(column)
    return rank(columns)


def irreducibility_probe(
    data: Algebroid, points: Sequence[Sequence[Rat | int]] = ()
) -> CheckReport:
    """The `irreducible` report: generic anchor rank plus exact pointwise
    ranks on a probed point set.

    The points given, then five drawn with `DEFAULT_PROBE_SEED`.  Full rank
    everywhere means the constraints are independent; the verdict, the
    first note, is scoped to what was checked, so a clean probe reads
    "irreducible on probed set" and passes rather than claiming a global
    certificate, and any other verdict warns.
    """
    r, n = data.rank, data.base_dim
    probe_points: list[tuple[Rat, ...]] = []
    for point in points:
        if len(point) != n:
            raise ValueError(
                f"probe point {tuple(point)} has arity {len(point)}, base "
                f"dimension is {n}"
            )
        probe_points.append(tuple(Fraction(v) for v in point))
    rng = random.Random(DEFAULT_PROBE_SEED)
    for _ in range(_RANDOM_PROBE_COUNT):
        probe_points.append(
            tuple(
                Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
                for _ in range(n)
            )
        )

    integral = [_integral(row) for row in data.anchor]
    degrees = [max((f.total_degree() for f in row), default=0) for row in integral]
    rows = [  # each term unpacked once, for every point
        [[(c, unpack(e, n)) for e, c in f.terms.items()] for f in row]
        for row in integral
    ]
    point_results = [
        (point, _rank_at(rows, degrees, point)) for point in probe_points
    ]
    # a rank at a point bounds the generic rank from below, and min(r, n)
    # bounds it from above: when they meet, no elimination is needed
    best = max(k for _, k in point_results)
    if best == min(r, n):
        generic = best
    else:
        generic = generic_rank([list(row) for row in data.anchor])

    if generic < r:
        verdict = "generically reducible"
    else:
        failing = next((p for p, k in point_results if k < r), None)
        if failing is None:
            verdict = "irreducible on probed set"
        else:
            label = ", ".join(str(v) for v in failing)
            verdict = f"reducible at point ({label})"
    return CheckReport(
        "irreducible",
        PASS if verdict == "irreducible on probed set" else WARN,
        "the constraint gradients have full rank on the probed set",
        [],
        [
            verdict,
            f"generic rank {generic}, full rank is {r}",
            f"probe seed {DEFAULT_PROBE_SEED}",
        ],
    )
