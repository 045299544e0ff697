"""Hamiltonians on the (possibly twisted) phase space and their invariance.

A `GeometryPack` collects the optional geometric fields that enter the
quadratic Hamiltonian H = 1/2 g^{ij} p_i p_j + beta^i p_i + V: both metrics
(supplied separately, since polynomial matrices rarely have polynomial
inverses), the frame connection omega^a_{bi}, the endomorphism tau^a_b, the
affine 1-form alpha (its r components), the magnetic 2-form B (an
antisymmetric n x n matrix) and the drift vector beta.

The central check is invariance of the constraint surface under the flow,
{H, Phi_a} = gamma^b_a Phi_b with the engine's multiplier convention

    gamma^b_a = omega^b_{ai} g^{ij} p_j - tau^b_a.

For an untwisted, drift-free pack the residual decomposes by momentum order
into three structural conditions (metric compatibility, covariant constancy
of alpha, potential alignment); the decomposition constants are fixed once
and asserted on every run, so any drift between the bracket route and the
index-formula route raises instead of passing silently.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .algebroid import Algebroid
from .constraints import ConstraintSet, Matrix, affine_part, twist_of_magnetic
from .graded import GradedContext, GradedPoly, cotangent_context, momentum_name
from .linalg import solve
from .poly import EvenPoly, Exponent, Rat, embed, monomial_exponents
from .report import FAIL, PASS, CheckReport

# momentum-order decomposition constants (orders 2, 1, 0), fixed per build
DECOMPOSITION_SIGNS = (1, 1, -1)


def _as_matrix(rows: Sequence[Sequence[EvenPoly]] | None) -> Matrix | None:
    if rows is None:
        return None
    return tuple(tuple(row) for row in rows)


def _as_cube(
    planes: Sequence[Sequence[Sequence[EvenPoly]]] | None,
) -> tuple[tuple[tuple[EvenPoly, ...], ...], ...] | None:
    if planes is None:
        return None
    return tuple(tuple(tuple(row) for row in plane) for plane in planes)


class GeometryPack:
    """Optional geometric fields over a fixed base ring and frame rank.

    omega[a][b][i] holds omega^a_{bi}; tau[a][b] holds tau^a_b; alpha[a]
    holds alpha_a; magnetic[i][j] holds B_ij.  Each field is checked here,
    once, against the base ring and the rank.  Fields with a natural zero
    default (alpha, tau, potential, magnetic, beta) may simply be omitted;
    the metrics and connection have no canonical default and the operations
    that need them say so.  Treated as immutable.
    """

    def __init__(
        self,
        coords: tuple[str, ...],
        rank: int,
        g_inv: Matrix | None = None,
        g_low: Matrix | None = None,
        omega: tuple[tuple[tuple[EvenPoly, ...], ...], ...] | None = None,
        tau: Matrix | None = None,
        alpha: Sequence[EvenPoly] | None = None,
        potential: EvenPoly | None = None,
        magnetic: Matrix | None = None,
        beta: tuple[EvenPoly, ...] | None = None,
    ):
        self.coords = tuple(coords)
        self.rank = rank
        self.g_inv = _as_matrix(g_inv)
        self.g_low = _as_matrix(g_low)
        self.omega = _as_cube(omega)
        self.tau = _as_matrix(tau)
        self.alpha = None if alpha is None else affine_part(self.coords, rank, alpha)
        self.potential = potential
        self.magnetic = _as_matrix(magnetic)
        self.beta = tuple(beta) if beta is not None else None
        n, r = len(self.coords), self.rank
        if self.magnetic is not None:
            self._check_square("magnetic", self.magnetic, n)
            for i in range(n):
                for j in range(i, n):
                    if not (self.magnetic[i][j] + self.magnetic[j][i]).is_zero:
                        raise ValueError("magnetic: matrix must be antisymmetric")
        for name, metric in (("g_inv", self.g_inv), ("g_low", self.g_low)):
            if metric is None:
                continue
            self._check_square(name, metric, n)
            for i in range(n):
                for j in range(n):
                    if not (metric[i][j] - metric[j][i]).is_zero:
                        raise ValueError(f"{name} must be symmetric")
        if self.g_inv is not None and self.g_low is not None:
            for i in range(n):
                for j in range(n):
                    total = EvenPoly.zero(self.coords)
                    for k in range(n):
                        total = total + self.g_inv[i][k] * self.g_low[k][j]
                    expected = EvenPoly.const(self.coords, 1 if i == j else 0)
                    if total != expected:
                        raise ValueError(
                            "g_inv and g_low are not exact inverses"
                        )
        if self.omega is not None:
            if len(self.omega) != r or any(
                len(plane) != r or any(len(row) != n for row in plane)
                for plane in self.omega
            ):
                raise ValueError("omega must be rank x rank x base_dim")
            self._check_entries(e for p in self.omega for row in p for e in row)
        if self.tau is not None:
            self._check_square("tau", self.tau, r)
        if self.potential is not None and self.potential.coords != self.coords:
            raise ValueError("potential must live in the base ring")
        if self.beta is not None:
            if len(self.beta) != n:
                raise ValueError("beta must have one component per coordinate")
            self._check_entries(self.beta)

    def _check_square(self, name: str, matrix: Matrix, size: int) -> None:
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError(f"{name} must be {size} x {size}")
        self._check_entries(e for row in matrix for e in row)

    def _check_entries(self, entries) -> None:
        for entry in entries:
            if entry.coords != self.coords:
                raise ValueError("all components must live in the base ring")

    # zero defaults for the fields that have one

    def alpha_or_zero(self) -> tuple[EvenPoly, ...]:
        return affine_part(self.coords, self.rank, self.alpha)

    def tau_or_zero(self) -> Matrix:
        if self.tau is not None:
            return self.tau
        zero = EvenPoly.zero(self.coords)
        return tuple(tuple(zero for _ in range(self.rank)) for _ in range(self.rank))

    def potential_or_zero(self) -> EvenPoly:
        return (
            self.potential
            if self.potential is not None
            else EvenPoly.zero(self.coords)
        )

    def beta_or_zero(self) -> tuple[EvenPoly, ...]:
        if self.beta is not None:
            return self.beta
        zero = EvenPoly.zero(self.coords)
        return tuple(zero for _ in self.coords)

    def phase_context(self) -> GradedContext:
        return cotangent_context(
            self.coords, twist=twist_of_magnetic(self.magnetic)
        )


def build_hamiltonian(pack: GeometryPack) -> GradedPoly:
    """H = 1/2 g^{ij} p_i p_j + beta^i p_i + V on the pack's phase space."""
    if pack.g_inv is None:
        raise ValueError("hamiltonian needs the inverse metric g_inv")
    ctx = pack.phase_context()
    momenta = [ctx.var(momentum_name(name)) for name in pack.coords]
    n = len(pack.coords)
    H = ctx.lift(pack.potential_or_zero())
    beta = pack.beta_or_zero()
    for i in range(n):
        H = H + ctx.lift(beta[i]) * momenta[i]
        for j in range(n):
            H = H + ctx.lift(pack.g_inv[i][j]) * momenta[i] * momenta[j] / 2
    return H


# structural residual families


class StructuralResiduals:
    """The three index-formula residual families, keyed 0-based.

    metric[(a, i, j)] with i <= j, alpha[(a, i)], potential[a].
    """

    def __init__(
        self,
        metric: dict[tuple[int, int, int], EvenPoly],
        alpha: dict[tuple[int, int], EvenPoly],
        potential: dict[int, EvenPoly],
    ):
        self.metric = metric
        self.alpha = alpha
        self.potential = potential

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructuralResiduals):
            return NotImplemented
        return (self.metric, self.alpha, self.potential) == (
            other.metric,
            other.alpha,
            other.potential,
        )

    __hash__ = None


def _require(pack: GeometryPack, names: Sequence[str]) -> None:
    missing = [name for name in names if getattr(pack, name) is None]
    if missing:
        raise ValueError(f"missing geometry fields: {', '.join(missing)}")


def _lie_metric(data: Algebroid, g_low: Matrix, a: int, i: int, j: int) -> EvenPoly:
    """(L_rho_a g)_{ij} = rho_a^k d_k g_ij + g_kj d_i rho_a^k + g_ik d_j rho_a^k."""
    value = data.anchor_apply(a, g_low[i][j])
    for k in range(data.base_dim):
        if not g_low[k][j].is_zero:
            value = value + g_low[k][j] * data.anchor[a][k].diff(data.coords[i])
        if not g_low[i][k].is_zero:
            value = value + g_low[i][k] * data.anchor[a][k].diff(data.coords[j])
    return value


def _lowered_anchor(data: Algebroid, g_low: Matrix) -> list[list[EvenPoly]]:
    """The lowered anchor iota_rho(g), (iota_rho g)_bj = g_kj rho_b^k."""
    n = data.base_dim
    lowered = []
    for row in data.anchor:
        entries = [EvenPoly.zero(data.coords) for _ in range(n)]
        for k, rho in enumerate(row):
            if rho.is_zero:
                continue
            for j in range(n):
                if not g_low[k][j].is_zero:
                    entries[j] = entries[j] + g_low[k][j] * rho
        lowered.append(entries)
    return lowered


def structural_residuals(data: Algebroid, pack: GeometryPack) -> StructuralResiduals:
    """Metric compatibility, covariant constancy of alpha, potential alignment.

    With the lowered anchor (iota_rho g)_bj = g_kj rho_b^k, contracted once:

    (i)   (L_rho_a g)_ij - omega^b_ai (iota_rho g)_bj - omega^b_aj (iota_rho g)_bi
    (ii)  d_i alpha_a - omega^b_ai alpha_b + tau^b_a (iota_rho g)_bi
    (iii) rho_a^i d_i V - tau^b_a alpha_b

    Zero factors of omega and tau are skipped.
    """
    _require(pack, ["g_low", "omega"])
    r, n = data.rank, data.base_dim
    g_low, omega = pack.g_low, pack.omega
    tau = pack.tau_or_zero()
    alpha = pack.alpha_or_zero()
    potential = pack.potential_or_zero()
    iota = _lowered_anchor(data, g_low)

    metric: dict[tuple[int, int, int], EvenPoly] = {}
    for a in range(r):
        for i in range(n):
            for j in range(i, n):
                value = _lie_metric(data, g_low, a, i, j)
                for b in range(r):
                    if not omega[b][a][i].is_zero:
                        value = value - omega[b][a][i] * iota[b][j]
                    if not omega[b][a][j].is_zero:
                        value = value - omega[b][a][j] * iota[b][i]
                metric[(a, i, j)] = value

    alpha_res: dict[tuple[int, int], EvenPoly] = {}
    for a in range(r):
        for i in range(n):
            value = alpha[a].diff(data.coords[i])
            for b in range(r):
                if not omega[b][a][i].is_zero:
                    value = value - omega[b][a][i] * alpha[b]
                if not tau[b][a].is_zero:
                    value = value + tau[b][a] * iota[b][i]
            alpha_res[(a, i)] = value

    potential_res: dict[int, EvenPoly] = {}
    for a in range(r):
        value = data.anchor_apply(a, potential)
        for b in range(r):
            if not tau[b][a].is_zero:
                value = value - tau[b][a] * alpha[b]
        potential_res[a] = value
    return StructuralResiduals(metric, alpha_res, potential_res)


def check_metric_compat(families: StructuralResiduals) -> CheckReport:
    """Covariant constancy of the lowered metric along every frame field.

    The metric family of `structural_residuals` reads only g_low and omega,
    so the families of the full pack serve this check as well.
    """
    residuals = []
    for (a, i, j), value in sorted(families.metric.items()):
        if not value.is_zero:
            residuals.append(
                (f"compat[a={a + 1},i={i + 1},j={j + 1}]", str(value))
            )
    status = FAIL if residuals else PASS
    return CheckReport(
        "metric_compat", status, "L_rho(g) = omega v iota_rho(g)", residuals
    )


def check_structural(families: StructuralResiduals) -> CheckReport:
    """All three structural families as one labeled report."""
    residuals = []
    for (a, i, j), value in sorted(families.metric.items()):
        if not value.is_zero:
            residuals.append(
                (f"metric[a={a + 1},i={i + 1},j={j + 1}]", str(value))
            )
    for (a, i), value in sorted(families.alpha.items()):
        if not value.is_zero:
            residuals.append((f"alpha[a={a + 1},i={i + 1}]", str(value)))
    for a, value in sorted(families.potential.items()):
        if not value.is_zero:
            residuals.append((f"potential[a={a + 1}]", str(value)))
    status = FAIL if residuals else PASS
    return CheckReport(
        "structural",
        status,
        "order-by-order invariance conditions",
        residuals,
    )


# the flow-invariance check with its two-route guard


def _momentum_split(
    ctx: GradedContext, E: EvenPoly
) -> tuple[EvenPoly, list[EvenPoly], list[list[EvenPoly]]]:
    """Split a momentum-quadratic scalar into (order 0, order 1, hessian).

    Each term goes to the bucket of its momentum degree, with the momenta
    stripped from its exponent; the hessian holds the second derivatives,
    so p_j^2 counts twice on the diagonal and p_j p_k once on each side.
    """
    slots = [ctx.even_index[p] for p, _ in ctx.pairs_even]
    n = len(slots)
    part0: dict[Exponent, Rat] = {}
    part1: list[dict[Exponent, Rat]] = [{} for _ in range(n)]
    hessian: list[list[dict[Exponent, Rat]]] = [
        [{} for _ in range(n)] for _ in range(n)
    ]
    for exponent, coeff in E.terms.items():
        # the momentum indices of the term, with multiplicity
        momenta = [j for j, slot in enumerate(slots) for _ in range(exponent[slot])]
        if len(momenta) > 2:
            raise RuntimeError("residual is not quadratic in the momenta")
        stripped = list(exponent)
        for slot in slots:
            stripped[slot] = 0
        x_exponent = tuple(stripped)
        if not momenta:
            part0[x_exponent] = coeff
        elif len(momenta) == 1:
            part1[momenta[0]][x_exponent] = coeff
        else:
            j, k = momenta
            if j == k:
                hessian[j][j][x_exponent] = 2 * coeff
            else:
                hessian[j][k][x_exponent] = hessian[k][j][x_exponent] = coeff
    coords = E.coords
    return (
        EvenPoly(coords, part0),
        [EvenPoly(coords, terms) for terms in part1],
        [[EvenPoly(coords, terms) for terms in row] for row in hessian],
    )


def check_evolution_invariance(
    H: GradedPoly,
    cs: ConstraintSet,
    pack: GeometryPack,
    families: StructuralResiduals | None,
) -> CheckReport:
    """Invariance of the constraint surface: {H, Phi_a} = gamma^b_a Phi_b.

    The bracket residual is authoritative.  For an untwisted, drift-free pack
    with a lowered metric it is additionally decomposed by momentum order and
    matched, with the build's fixed sign triple, against `families`, the
    structural residuals of the pack (None only when it has no lowered
    metric); a mismatch is an engine fault and raises.
    """
    _require(pack, ["g_inv", "omega"])
    ctx = cs.ctx
    if H.ctx != ctx:
        raise ValueError("hamiltonian and constraints live on different phase spaces")
    data = cs.data
    r, n = data.rank, data.base_dim
    tau = pack.tau_or_zero()
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]

    residuals = []
    bracket_residuals: list[GradedPoly] = []
    for a in range(r):
        R = ctx.poisson(H, cs.phis[a])
        for b in range(r):
            gamma = -ctx.lift(tau[b][a])
            for j in range(n):
                # omega^b_ai g^ij, contracted over i before the lift
                raised = EvenPoly.zero(data.coords)
                for i in range(n):
                    if not pack.omega[b][a][i].is_zero:
                        raised = raised + pack.omega[b][a][i] * pack.g_inv[i][j]
                if not raised.is_zero:
                    gamma = gamma + ctx.lift(raised) * momenta[j]
            if not gamma.is_zero:
                R = R - gamma * cs.phis[b]
        bracket_residuals.append(R)
        if not R.is_zero:
            residuals.append((f"evolution[a={a + 1}]", str(R)))

    notes = ["gamma^b_a = omega^b_ai g^ij p_j - tau^b_a"]
    twisted = ctx.twist is not None
    drift = pack.beta is not None and any(not b.is_zero for b in pack.beta)
    if twisted:
        notes.append(
            "magnetic term present: bracket residual is authoritative, "
            "structural decomposition not asserted"
        )
    elif drift:
        notes.append("drift term present: structural decomposition not asserted")
    elif pack.g_low is None:
        notes.append("no lowered metric: structural decomposition skipped")
    else:
        if families is None:
            raise ValueError("the decomposition needs the structural residuals")
        _assert_decomposition(data, pack, ctx, bracket_residuals, families)
        notes.append(
            "dual route: momentum orders (2, 1, 0) match the structural "
            f"residuals with signs {DECOMPOSITION_SIGNS}"
        )
    status = FAIL if residuals else PASS
    return CheckReport(
        "evolution", status, "{H, Phi_a} = gamma^b_a Phi_b", residuals, notes
    )


def _mat_mul(A: list[list[EvenPoly]], B: list[list[EvenPoly]]) -> list[list[EvenPoly]]:
    """Product of square polynomial matrices, skipping zero factors."""
    n = len(A)
    product = []
    for u in range(n):
        row = []
        for v in range(n):
            entry = EvenPoly.zero(A[u][0].coords)
            for w in range(n):
                if not (A[u][w].is_zero or B[w][v].is_zero):
                    entry = entry + A[u][w] * B[w][v]
            row.append(entry)
        product.append(row)
    return product


def _assert_decomposition(
    data: Algebroid,
    pack: GeometryPack,
    ctx: GradedContext,
    bracket_residuals: list[GradedPoly],
    families: StructuralResiduals,
) -> None:
    k2, k1, k0 = DECOMPOSITION_SIGNS
    n = data.base_dim
    G = [
        [embed(entry, ctx.even_names) for entry in row] for row in pack.g_low
    ]
    for a, R in enumerate(bracket_residuals):
        if any(word for word in R.parts):
            raise RuntimeError("evolution residual has odd content")
        part0, part1, hessian = _momentum_split(ctx, R.even_part())

        expected0 = embed(families.potential[a], ctx.even_names)
        if part0 != k0 * expected0:
            raise RuntimeError(
                "internal dual-route mismatch at momentum order 0"
            )
        for m in range(n):
            lowered = EvenPoly.zero(ctx.even_names)
            for j in range(n):
                if not (G[m][j].is_zero or part1[j].is_zero):
                    lowered = lowered + G[m][j] * part1[j]
            expected1 = embed(families.alpha[(a, m)], ctx.even_names)
            if lowered != k1 * expected1:
                raise RuntimeError(
                    "internal dual-route mismatch at momentum order 1"
                )
        lowered = _mat_mul(_mat_mul(G, hessian), G)
        for u in range(n):
            for v in range(u, n):
                expected2 = embed(families.metric[(a, u, v)], ctx.even_names)
                if lowered[u][v] != k2 * expected2:
                    raise RuntimeError(
                        "internal dual-route mismatch at momentum order 2"
                    )


# the linear connection solver


class ConnectionSolution:
    def __init__(
        self,
        feasible: bool,
        omega: tuple[tuple[tuple[EvenPoly, ...], ...], ...] | None,
        solution_dim: int,
        degree: int,
        notes: list[str] | None = None,
    ):
        self.feasible = feasible
        self.omega = omega
        self.solution_dim = solution_dim
        self.degree = degree
        self.notes = [] if notes is None else notes


def _connection_columns(
    data: Algebroid, g_low: Matrix, degree: int
) -> tuple[list[tuple[int, int, int, Exponent]], list[dict]]:
    """One column per unknown omega^b_ai = x^m of the compatibility system.

    The unknowns number rank^2 * base_dim * C(base_dim + degree, base_dim).
    Row keys are (a, pair position, exponent) over the pairs s <= t.  An
    unknown adds -x^m (iota_rho g)_bt to the pair (s, t) when i = s, and
    -x^m (iota_rho g)_bs when i = t, term by term.
    """
    r, n = data.rank, data.base_dim
    pair_list = [(i, j) for i in range(n) for j in range(i, n)]
    exponents = monomial_exponents(n, degree)
    unknowns = [
        (b, a, i, m)
        for b in range(r)
        for a in range(r)
        for i in range(n)
        for m in exponents
    ]
    iota = _lowered_anchor(data, g_low)
    columns = []
    for b, a, i, m in unknowns:
        column: dict[tuple[int, int, Exponent], Rat] = {}
        for pair_pos, (s, t) in enumerate(pair_list):
            for hit, other in ((s, t), (t, s)):
                if i != hit:
                    continue
                for e, coeff in iota[b][other].terms.items():
                    key = (a, pair_pos, tuple(map(add, m, e)))
                    value = column.get(key, 0) - coeff
                    if value:
                        column[key] = value
                    else:
                        del column[key]
        columns.append(column)
    return unknowns, columns


def solve_connection(
    data: Algebroid, pack: GeometryPack, degree: int
) -> ConnectionSolution:
    """Solve the metric-compatibility system for a polynomial connection.

    Returns a particular omega of x-degree <= degree together with the
    dimension of the affine solution space, or an exact infeasibility
    certificate for the ansatz.
    """
    _require(pack, ["g_low"])
    if degree < 0:
        raise ValueError("ansatz degree must be nonnegative")
    r, n = data.rank, data.base_dim
    pair_list = [(i, j) for i in range(n) for j in range(i, n)]
    unknowns, columns = _connection_columns(data, pack.g_low, degree)
    rhs = {
        (a, pair_pos, e): -coeff
        for a in range(r)
        for pair_pos, (i, j) in enumerate(pair_list)
        for e, coeff in _lie_metric(data, pack.g_low, a, i, j).terms.items()
    }

    result = solve(columns, rhs)
    if result is None:
        return ConnectionSolution(
            False,
            None,
            0,
            degree,
            [
                f"no polynomial connection of degree <= {degree} satisfies "
                f"metric compatibility"
            ],
        )
    solution, solution_dim = result
    zero = EvenPoly.zero(data.coords)
    omega = [[[zero for _ in range(n)] for _ in range(r)] for _ in range(r)]
    for k, value in solution.items():
        b, a, i, m = unknowns[k]
        omega[b][a][i] = omega[b][a][i] + EvenPoly(data.coords, {m: value})
    return ConnectionSolution(
        True,
        tuple(tuple(tuple(row) for row in plane) for plane in omega),
        solution_dim,
        degree,
        [],
    )
