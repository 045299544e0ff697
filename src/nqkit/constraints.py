"""Fiber-affine constraint systems on the graded phase space.

Constraints of the form Phi_a = rho_a^i(x) p_i + alpha_a(x) are built from an
`Algebroid` and an optional affine part on `phase_space(data, magnetic)`,
the one phase space T*E[1] of a problem, whose momentum bracket may be
twisted by a magnetic 2-form.  The affine part is the tuple of its r
components alpha_a and the magnetic 2-form the antisymmetric n x n matrix
B_ij, both over the base ring.  The structural 2-form d_E alpha - rho^* B
that the brackets predict is an E-form: a ghost polynomial, with d_E = Q.
The constraints alone fix the odd BFV charge S = core + affine: the lift
of Q to the phase space plus the affine part alpha_a xi^a.  A constraint
set keeps S, the derivation (S, .) and the self-bracket (S, S), and the
master check compares (S, S) with twice the closure the constraint
brackets predict.  The module verifies closure of the constraint
brackets, inverts the construction by reading frame data back off
fiber-linear constraints, and provides reducibility diagnostics.  All
verdicts are exact; probes that sample points say so in their verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Sequence

from .algebroid import Algebroid, check_axioms, ghost_context, q_images
from .graded import (
    GradedContext,
    GradedPoly,
    extended_context,
    ghost_name,
    hamiltonian_lift,
    left_derivation,
    momentum_name,
    momentum_orders,
    transport,
    word_residuals,
)
from .linalg import rank, read_back, solve
from .poly import EvenPoly, Exponent, Rat, exact_quotient, monomial_exponents, unpack
from .report import FAIL, PASS, CheckReport, family_residuals

DEFAULT_PROBE_SEED = 271828
_RANDOM_PROBE_COUNT = 5

Matrix = tuple[tuple[EvenPoly, ...], ...]


class ConstraintSet:
    """Constraints Phi_a on a problem's phase space, with their frame data.

    `degenerate` lists the indexes of the identically zero constraints and
    `notes` names them for the first-class report.  The charge S of the
    constraints, its derivation (S, .), its self-bracket and the master
    report are computed on first use and kept, so one invocation derives
    (S, .) once and brackets S with itself once however many reports and
    windows need them.  Treated as immutable.
    """

    def __init__(
        self,
        ctx: GradedContext,
        phis: tuple[GradedPoly, ...],
        data: Algebroid,
        alpha: Sequence[EvenPoly] | None = None,
        magnetic: Matrix | None = None,
    ):
        for phi in phis:
            if phi.ctx != ctx:
                raise ValueError("constraints must live in the set's context")
            decompose_fiber_affine(ctx, phi)  # raises when malformed
        self.ctx = ctx
        self.phis = phis
        self.data = data
        self.alpha = alpha
        self.magnetic = magnetic
        self.degenerate = tuple(a for a, phi in enumerate(phis) if phi.is_zero)
        self.notes = ()
        if self.degenerate:
            labels = ", ".join(str(a + 1) for a in self.degenerate)
            self.notes = (f"degenerate constraints (identically zero): {labels}",)

    @property
    def rank(self) -> int:
        return len(self.phis)

    @cached_property
    def structural(self) -> GradedPoly:
        """d_E alpha - rho^* B, computed on first use; callers must not mutate it."""
        return structural_two_form(self.data, self.alpha, self.magnetic)

    @cached_property
    def closure(self) -> GradedPoly:
        """structural + D: the predicted (S, S) / 2, computed on first use.

        Its xi^a xi^b coefficients are the predicted first-class residuals;
        callers must not mutate it.
        """
        return self.structural + self.data.defect_lift

    @cached_property
    def core(self) -> GradedPoly:
        """The lift of Q, `build_S`; alpha = 0 makes it the whole charge."""
        return build_S(self.data, self.ctx)

    @cached_property
    def affine(self) -> GradedPoly:
        """alpha_a xi^a, the affine part of the charge."""
        return affine_charge(self.data, self.alpha, self.ctx)

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
        return left_derivation(self.ctx, self.field, self.S)

    @cached_property
    def master(self) -> CheckReport:
        return check_master(self)


def phase_space(data: Algebroid, magnetic: Matrix | None = None) -> GradedContext:
    """T*E[1] of the frame: the one context of the constraints, H and the charge.

    Without a magnetic 2-form, or with a zero one, it is `ghost_context(data)`,
    so the charge shares the table of Q.  A magnetic 2-form B_ij twists the
    momentum bracket to {p_i, p_j} = -B_ij: the sign is fixed so that for
    B_12 = b on the plane the constraints p_1 and p_2 + b x^1 close, as
    {p_1, p_2} must cancel the derivative term.
    """
    if magnetic is None or all(f.is_zero for row in magnetic for f in row):
        return ghost_context(data)
    twist = [[-f for f in row] for row in magnetic]
    return extended_context(data.coords, data.rank, twist)


def affine_part(
    coords: tuple[str, ...], rank: int, alpha: Sequence[EvenPoly] | None
) -> tuple[EvenPoly, ...]:
    """The components alpha_a (zeros when absent), checked against the frame."""
    if alpha is None:
        return (EvenPoly.zero(coords),) * rank
    alpha = tuple(alpha)
    if len(alpha) != rank or any(f.coords != coords for f in alpha):
        raise ValueError(f"alpha must have {rank} components over the base ring")
    return alpha


def affine_charge(
    data: Algebroid, alpha: Sequence[EvenPoly] | None, ctx: GradedContext
) -> GradedPoly:
    """alpha_a xi^a, once alpha is checked against the frame.

    In `ghost_context(data)` this is the E-form of alpha; in the extended
    phase space it is the affine part of the charge.
    """
    affine = ctx.zero()
    for c, f in enumerate(affine_part(data.coords, data.rank, alpha)):
        affine = affine + ctx.lift(f) * ctx.var(ghost_name(c + 1))
    return affine


def build_constraints(
    data: Algebroid,
    alpha: Sequence[EvenPoly] | None = None,
    magnetic: Matrix | None = None,
) -> ConstraintSet:
    """Phi_a = rho_a^i p_i + alpha_a on `phase_space(data, magnetic)`."""
    alpha = affine_part(data.coords, data.rank, alpha)
    ctx = phase_space(data, magnetic)
    phis = []
    for a in range(data.rank):
        phi = ctx.lift(alpha[a])
        for i, name in enumerate(data.coords):
            phi = phi + ctx.lift(data.anchor[a][i]) * ctx.var(momentum_name(name))
        phis.append(phi)
    return ConstraintSet(ctx, tuple(phis), data, alpha, magnetic)


def decompose_fiber_affine(
    ctx: GradedContext, F: GradedPoly
) -> tuple[EvenPoly, list[EvenPoly]]:
    """Split F = alpha(x) + sum_i rho^i(x) p_i, or raise when F is not affine.

    Both pieces come back over the positions-only subring.
    """
    if any(word for word in F.parts):
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


def structural_two_form(
    data: Algebroid, alpha: Sequence[EvenPoly] | None, magnetic: Matrix | None
) -> GradedPoly:
    """The structural 2-form d_E alpha - rho^* B of the constraint brackets.

    An E-form in `ghost_context(data)`: d_E is Q, and rho^* B is
    1/2 B_ij Q(x^i) Q(x^j), which is the sum over i < j of B_ij Q(x^i) Q(x^j)
    since B is antisymmetric.
    """
    ctx = ghost_context(data)
    affine = affine_charge(data, alpha, ctx)
    pairs = [
        (i, j)
        for i, j in combinations(range(data.base_dim), 2)
        if magnetic is not None and not magnetic[i][j].is_zero
    ]
    if affine.is_zero and not pairs:
        return affine  # no alpha and no B: nothing to differentiate or pull back
    images = q_images(data, ctx)
    structural = left_derivation(ctx, images, affine)
    for i, j in pairs:
        structural = structural - ctx.lift(magnetic[i][j]) * (
            images[data.coords[i]] * images[data.coords[j]]
        )
    return structural


def build_S(data: Algebroid, ctx: GradedContext) -> GradedPoly:
    """The lift Q(x^i) p_i + Q(xi^c) pi_c of Q on the phase space ctx.

    Written out: rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c.  This is the
    core of the charge; a constraint set adds the affine part alpha_a xi^a
    of `affine_charge`.
    """
    return hamiltonian_lift(ctx, q_images(data, ctx))


def check_master(cs: ConstraintSet) -> CheckReport:
    """Nilpotency of the charge of the constraints under the graded bracket.

    The self-bracket is also predicted from the frame data used to build S:
    it is twice the `closure` of the constraints, the structural 2-form
    plus the lift of the defect tensors; disagreement between the routes
    raises.
    """
    ss = cs.self_bracket
    closure = cs.closure
    if closure.ctx != ss.ctx:  # a twisted phase space
        closure = transport(closure, ss.ctx)
    if ss != closure * 2:
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
    closure = cs.closure.parts
    brackets: dict[tuple[int, int], GradedPoly] = {}
    fields = [ctx.hamiltonian_field(phi) for phi in cs.phis[:-1]]  # {Phi_a, .}
    for a, b in combinations(range(cs.rank), 2):
        R = left_derivation(ctx, fields[a], cs.phis[b])
        for c, f in data.nonzero_structure.get((a, b), ()):
            R = R - ctx.lift(f) * cs.phis[c]
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
    notes.extend(cs.notes)
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
    columns = []
    for c, m in unknowns:
        shifted = EvenPoly(base, {m: 1})
        columns.append(_base_column([shifted * rho for rho in rho_rows[c]]))

    structure: dict[tuple[int, int, int], EvenPoly] = {}
    total_free = 0
    for (a, b), target in targets.items():
        result = solve(columns, _base_column(target))
        if result is None:
            return None
        solution, free = result
        total_free += free
        entries = read_back(base, unknowns, solution)
        for c in range(r):
            structure[(c, a, b)] = entries.get(c, EvenPoly.zero(base))
    return structure, total_free


def _base_column(vector: list[EvenPoly]) -> dict[tuple[int, Exponent], Rat]:
    """Coefficients of a base-indexed vector keyed by (index, exponent)."""
    return {
        (i, e): coeff for i, entry in enumerate(vector) for e, coeff in entry.terms.items()
    }


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
    rows: list[list[EvenPoly]], degrees: list[int], point: tuple[Rat, ...]
) -> int:
    """The rank of the integral rows at a rational point, over the integers.

    With the point written as X / D over the common denominator D, a row
    of degree d times D^d has the integer entries sum c X^e D^(d - |e|);
    scaling a row by a nonzero constant keeps the rank.  Each row is one
    column: the rank of the transpose is the same.
    """
    scale = lcm(*(v.denominator for v in point))
    numerators = [v.numerator * (scale // v.denominator) for v in point]
    columns = []
    for row, degree in zip(rows, degrees):
        powers = [scale**k for k in range(degree + 1)]
        column = {}
        for i, f in enumerate(row):
            total = 0
            for key, c in f.terms.items():
                e = unpack(key, len(point))
                term = c * powers[degree - sum(e)]
                for value, k in zip(numerators, e):
                    if k:
                        term *= value**k
                total += term
            column[i] = total
        columns.append(column)
    return rank(columns)


class ProbeReport:
    def __init__(
        self,
        generic_rank: int,
        rank_required: int,
        seed: int,
        point_results: list[tuple[tuple[Rat, ...], int]],
        verdict: str,
    ):
        self.generic_rank = generic_rank
        self.rank_required = rank_required
        self.seed = seed
        self.point_results = point_results
        self.verdict = verdict


def irreducibility_probe(
    data: Algebroid, points: Sequence[Sequence[Rat | int]] = ()
) -> ProbeReport:
    """Generic anchor rank plus exact pointwise ranks on a probed point set.

    The points given, then five drawn with `DEFAULT_PROBE_SEED`.  Full rank
    everywhere means the constraints are independent; the verdict is scoped
    to what was checked, so a clean probe reads "irreducible on probed set"
    rather than claiming a global certificate.
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

    rows = [_integral(row) for row in data.anchor]
    degrees = [max((f.total_degree() for f in row), default=0) for row in rows]
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
    return ProbeReport(generic, r, DEFAULT_PROBE_SEED, point_results, verdict)
