"""Fiber-affine constraint systems on the graded phase space.

Constraints of the form Phi_a = rho_a^i(x) p_i + alpha_a(x) are built from an
`Algebroid` and an optional affine part, on a momentum bracket that may be
twisted by a magnetic 2-form.  The affine part is the tuple of its r
components alpha_a and the magnetic 2-form the antisymmetric n x n matrix
B_ij, both over the base ring.  The structural 2-form d_E alpha - rho^* B
that the brackets predict is an E-form: a ghost polynomial, with d_E = Q.
The module verifies closure of the constraint brackets, inverts the
construction by reading frame data back off fiber-linear constraints, and
provides reducibility diagnostics.  All verdicts are exact; probes that
sample points say so in their verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterator, Sequence

from .algebroid import Algebroid, check_axioms, ghost_context, q_images
from .graded import (
    GradedContext,
    GradedPoly,
    cotangent_context,
    ghost_name,
    left_derivation,
    momentum_name,
)
from .linalg import rank, solve
from .poly import EvenPoly, Exponent, Rat, exact_quotient, monomial_exponents
from .report import FAIL, PASS, CheckReport

DEFAULT_PROBE_SEED = 271828
_RANDOM_PROBE_COUNT = 5

Matrix = tuple[tuple[EvenPoly, ...], ...]


class ConstraintSet:
    """Constraints Phi_a on a cotangent context, with the frame data they came from.

    Treated as immutable.
    """

    def __init__(
        self,
        ctx: GradedContext,
        phis: tuple[GradedPoly, ...],
        data: Algebroid,
        alpha: Sequence[EvenPoly] | None = None,
        magnetic: Matrix | None = None,
        degenerate: tuple[int, ...] = (),
        notes: tuple[str, ...] = (),
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
        self.degenerate = degenerate
        self.notes = notes

    @property
    def rank(self) -> int:
        return len(self.phis)

    @cached_property
    def structural(self) -> GradedPoly:
        """d_E alpha - rho^* B, computed on first use; callers must not mutate it."""
        return structural_two_form(self.data, self.alpha, self.magnetic)


def twist_of_magnetic(magnetic: Matrix | None) -> list[list[EvenPoly]] | None:
    """Momentum-bracket twist matrix of a magnetic 2-form B_ij.

    The sign is fixed so that for B_12 = b on the plane the constraints
    p_1 and p_2 + b x^1 close: {p_1, p_2} must cancel the derivative term.
    """
    if magnetic is None or all(f.is_zero for row in magnetic for f in row):
        return None
    return [[-f for f in row] for row in magnetic]


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
    """Phi_a = rho_a^i p_i + alpha_a on the (possibly twisted) phase space."""
    alpha = affine_part(data.coords, data.rank, alpha)
    ctx = cotangent_context(data.coords, twist=twist_of_magnetic(magnetic))
    phis = []
    for a in range(data.rank):
        phi = ctx.lift(alpha[a])
        for i, name in enumerate(data.coords):
            phi = phi + ctx.lift(data.anchor[a][i]) * ctx.var(momentum_name(name))
        phis.append(phi)
    degenerate = tuple(a for a, phi in enumerate(phis) if phi.is_zero)
    notes = ()
    if degenerate:
        labels = ", ".join(str(a + 1) for a in degenerate)
        notes = (f"degenerate constraints (identically zero): {labels}",)
    return ConstraintSet(
        ctx=ctx,
        phis=tuple(phis),
        data=data,
        alpha=alpha,
        magnetic=magnetic,
        degenerate=degenerate,
        notes=notes,
    )


def decompose_fiber_affine(
    ctx: GradedContext, F: GradedPoly
) -> tuple[EvenPoly, list[EvenPoly]]:
    """Split F = alpha(x) + sum_i rho^i(x) p_i, or raise when F is not affine.

    Both pieces come back over the positions-only subring.
    """
    if any(word for word in F.parts):
        raise ValueError("constraint has odd content")
    momenta = [p for p, _ in ctx.pairs_even]
    positions = [x for _, x in ctx.pairs_even]
    paired = set(momenta) | set(positions)
    for name in ctx.even_names:
        if name not in paired and F.even_part().degree_in(name) > 0:
            raise ValueError(f"constraint depends on unpaired coordinate {name!r}")
    base = tuple(positions)
    momentum_slots = [ctx.even_index[p] for p in momenta]
    position_slots = [ctx.even_index[x] for x in positions]
    alpha_terms: dict[Exponent, Rat] = {}
    rho_terms: list[dict[Exponent, Rat]] = [{} for _ in momenta]
    for exponent, coeff in F.even_part().terms.items():
        p_degree = sum(exponent[slot] for slot in momentum_slots)
        if p_degree > 1:
            raise ValueError("constraint is not affine in the momenta")
        x_exponent = tuple(exponent[slot] for slot in position_slots)
        if p_degree == 0:
            alpha_terms[x_exponent] = coeff
        else:
            i = next(
                k for k, slot in enumerate(momentum_slots) if exponent[slot] == 1
            )
            rho_terms[i][x_exponent] = coeff
    return EvenPoly(base, alpha_terms), [EvenPoly(base, t) for t in rho_terms]


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


def first_class_terms(
    data: Algebroid, structural: GradedPoly, ctx: GradedContext
) -> Iterator[tuple[tuple[int, int], Exponent, Rat]]:
    """R_ab = (d_E alpha - rho^* B)_ab + R1^i_ab p_i, term by term.

    The structural 2-form plus the anchor defect, on frame pairs a < b, with
    exponents in any context whose even coordinates are the positions
    followed by their momenta, as they are in the ghost context.  There the
    ghost xi_a is the odd letter a - 1, so the word of a structural term is
    its frame pair.
    """
    n = data.base_dim
    if ctx.even_names != data.coords + tuple(momentum_name(x) for x in data.coords):
        raise ValueError("the context must carry the positions, then their momenta")
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    yield from structural.terms()
    for pair, vector in data.anchor_defect.items():
        for i, f in enumerate(vector):
            for e, coeff in f.terms.items():
                yield pair, e + units[i], coeff


def first_class_residuals(
    data: Algebroid, structural: GradedPoly, ctx: GradedContext
) -> dict[tuple[int, int], GradedPoly]:
    """The predicted {Phi_a, Phi_b} - C^c_ab Phi_c on frame pairs a < b."""
    items: dict[tuple[int, int], list] = {pair: [] for pair in data.anchor_defect}
    for pair, e, coeff in first_class_terms(data, structural, ctx):
        items[pair].append(((), e, coeff))
    return {pair: GradedPoly.from_terms(ctx, terms) for pair, terms in items.items()}


def check_first_class(cs: ConstraintSet) -> CheckReport:
    """Closure of the constraint brackets in the span of the constraints.

    The residual R_ab = {Phi_a, Phi_b} - C^c_ab Phi_c is computed with the
    bracket and compared with `first_class_residuals`; disagreement between
    the two routes raises.
    """
    data, ctx = cs.data, cs.ctx
    predicted = first_class_residuals(data, cs.structural, ctx)
    residuals: list[tuple[str, str]] = []
    for (a, b), expected in predicted.items():
        R = ctx.poisson(cs.phis[a], cs.phis[b])
        for c in range(data.rank):
            if not data.structure[c][a][b].is_zero:
                R = R - ctx.lift(data.structure[c][a][b]) * cs.phis[c]
        if R != expected:
            raise RuntimeError("internal dual-route mismatch in the constraint bracket")
        if not R.is_zero:
            residuals.append((f"bracket[a={a + 1},b={b + 1}]", str(R)))

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
) -> tuple[tuple[tuple[tuple[EvenPoly, ...], ...], ...], int] | None:
    r, n = len(rho_rows), len(base)
    unknowns = [(c, m) for c in range(r) for m in monomial_exponents(n, degree)]
    # C^c_ab = x^m contributes x^m rho_c^i to the p_i coefficient, whatever (a, b)
    columns = []
    for c, m in unknowns:
        shifted = EvenPoly(base, {m: 1})
        columns.append(_base_column([shifted * rho for rho in rho_rows[c]]))

    zero = EvenPoly.zero(base)
    structure = [[[zero for _ in range(r)] for _ in range(r)] for _ in range(r)]
    total_free = 0
    for (a, b), target in targets.items():
        result = solve(columns, _base_column(target))
        if result is None:
            return None
        solution, free = result
        total_free += free
        terms: list[dict[Exponent, Rat]] = [{} for _ in range(r)]
        for k, value in solution.items():
            c, m = unknowns[k]
            terms[c][m] = value
        for c in range(r):
            value = EvenPoly(base, terms[c])
            structure[c][a][b] = value
            structure[c][b][a] = -value
    return (
        tuple(tuple(tuple(row) for row in plane) for plane in structure),
        total_free,
    )


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
            new_row = [
                exact_quotient(pivot * f - row[j] * g, previous)
                for k, (f, g) in enumerate(zip(row, pivot_row))
                if k != j
            ]
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
    data: Algebroid,
    points: Sequence[Sequence[Rat | int]] = (),
    seed: int = DEFAULT_PROBE_SEED,
) -> ProbeReport:
    """Generic anchor rank plus exact pointwise ranks on a probed point set.

    Full rank everywhere means the constraints are independent; the verdict
    is scoped to what was actually checked, so a clean probe reads
    "irreducible on probed set" rather than claiming a global certificate.
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
    rng = random.Random(seed)
    for _ in range(_RANDOM_PROBE_COUNT):
        probe_points.append(
            tuple(
                Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
                for _ in range(n)
            )
        )

    point_results = []
    for point in probe_points:
        assignment = dict(zip(data.coords, point))
        # one column per frame field: the rank of the transpose is the same
        numeric = [
            {i: entry.evaluate(assignment) for i, entry in enumerate(row)}
            for row in data.anchor
        ]
        point_results.append((point, rank(numeric)))
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
    return ProbeReport(generic, r, seed, point_results, verdict)
