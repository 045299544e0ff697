"""Hamiltonians on the (possibly twisted) phase space and their invariance.

A `GeometryPack` collects the optional geometric fields that enter the
quadratic Hamiltonian H = 1/2 g^{ij} p_i p_j + beta^i p_i + V: both metrics
(supplied separately, since polynomial matrices rarely have polynomial
inverses), the frame connection omega^a_{bi}, the endomorphism tau^a_b, the
affine 1-form alpha, the magnetic 2-form B and the drift vector beta.

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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .algebroid import (
    Algebroid,
    AltForm,
    de_rham,
    one_form,
    pullback,
    zero_form,
)
from .constraints import ConstraintSet, twist_of_magnetic
from .graded import GradedContext, GradedPoly, cotangent_context, momentum_name
from .linalg import solve
from .poly import EvenPoly, embed, monomial_exponents
from .report import FAIL, PASS, CheckReport

Matrix = tuple[tuple[EvenPoly, ...], ...]

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


@dataclass(frozen=True)
class GeometryPack:
    """Optional geometric fields over a fixed base ring and frame rank.

    omega[a][b][i] holds omega^a_{bi}; tau[a][b] holds tau^a_b.  Fields with
    a natural zero default (alpha, tau, potential, magnetic, beta) may simply
    be omitted; the metrics and connection have no canonical default and the
    operations that need them say so.
    """

    coords: tuple[str, ...]
    rank: int
    g_inv: Matrix | None = None
    g_low: Matrix | None = None
    omega: tuple[tuple[tuple[EvenPoly, ...], ...], ...] | None = None
    tau: Matrix | None = None
    alpha: AltForm | None = None
    potential: EvenPoly | None = None
    magnetic: AltForm | None = None
    beta: tuple[EvenPoly, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "g_inv", _as_matrix(self.g_inv))
        object.__setattr__(self, "g_low", _as_matrix(self.g_low))
        object.__setattr__(self, "omega", _as_cube(self.omega))
        object.__setattr__(self, "tau", _as_matrix(self.tau))
        if self.beta is not None:
            object.__setattr__(self, "beta", tuple(self.beta))
        n, r = len(self.coords), self.rank
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
        if self.alpha is not None:
            if self.alpha.arity != 1 or self.alpha.coords != self.coords:
                raise ValueError("alpha must be a 1-form over the base ring")
            for key in self.alpha.components:
                if key[0] >= r:
                    raise ValueError("alpha names a frame index beyond the rank")
        if self.potential is not None and self.potential.coords != self.coords:
            raise ValueError("potential must live in the base ring")
        if self.magnetic is not None:
            if self.magnetic.arity != 2 or self.magnetic.coords != self.coords:
                raise ValueError("magnetic term must be a 2-form over the base ring")
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

    def alpha_or_zero(self) -> AltForm:
        return self.alpha if self.alpha is not None else zero_form(self.coords, 1)

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
            self.coords, twist=twist_of_magnetic(self.coords, self.magnetic)
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


@dataclass
class StructuralResiduals:
    """The three index-formula residual families, keyed 0-based.

    metric[(a, i, j)] with i <= j, alpha[(a, i)], potential[a].
    """

    metric: dict[tuple[int, int, int], EvenPoly]
    alpha: dict[tuple[int, int], EvenPoly]
    potential: dict[int, EvenPoly]

    @property
    def all_zero(self) -> bool:
        return (
            all(v.is_zero for v in self.metric.values())
            and all(v.is_zero for v in self.alpha.values())
            and all(v.is_zero for v in self.potential.values())
        )


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
            value = alpha.component((a,)).diff(data.coords[i])
            for b in range(r):
                if not omega[b][a][i].is_zero:
                    value = value - omega[b][a][i] * alpha.component((b,))
                if not tau[b][a].is_zero:
                    value = value + tau[b][a] * iota[b][i]
            alpha_res[(a, i)] = value

    potential_res: dict[int, EvenPoly] = {}
    for a in range(r):
        value = data.anchor_apply(a, potential)
        for b in range(r):
            if not tau[b][a].is_zero:
                value = value - tau[b][a] * alpha.component((b,))
        potential_res[a] = value
    return StructuralResiduals(metric, alpha_res, potential_res)


def check_metric_compat(data: Algebroid, pack: GeometryPack) -> CheckReport:
    """Covariant constancy of the lowered metric along every frame field."""
    _require(pack, ["g_low", "omega"])
    residuals = []
    families = structural_residuals(
        data,
        replace(pack, alpha=None, tau=None, potential=None),
    )
    for (a, i, j), value in sorted(families.metric.items()):
        if not value.is_zero:
            residuals.append(
                (f"compat[a={a + 1},i={i + 1},j={j + 1}]", str(value))
            )
    status = FAIL if residuals else PASS
    return CheckReport(
        "metric_compat", status, "L_rho(g) = omega v iota_rho(g)", residuals
    )


def check_structural(data: Algebroid, pack: GeometryPack) -> CheckReport:
    """All three structural families as one labeled report."""
    families = structural_residuals(data, pack)
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
    """Split a momentum-quadratic scalar into (order 0, order 1, hessian)."""
    momenta = [p for p, _ in ctx.pairs_even]
    at_zero = {p: 0 for p in momenta}
    part0 = E.substitute(at_zero)
    part1 = [E.diff(p).substitute(at_zero) for p in momenta]
    hessian = [
        [E.diff(p).diff(q).substitute(at_zero) for q in momenta] for p in momenta
    ]
    rebuilt = part0
    for j, p in enumerate(momenta):
        rebuilt = rebuilt + part1[j] * EvenPoly.variable(E.coords, p)
    for m, p in enumerate(momenta):
        for n_, q in enumerate(momenta):
            rebuilt = rebuilt + (
                hessian[m][n_]
                * EvenPoly.variable(E.coords, p)
                * EvenPoly.variable(E.coords, q)
                / 2
            )
    if rebuilt != E:
        raise RuntimeError("residual is not quadratic in the momenta")
    return part0, part1, hessian


def check_evolution_invariance(
    H: GradedPoly, cs: ConstraintSet, pack: GeometryPack
) -> CheckReport:
    """Invariance of the constraint surface: {H, Phi_a} = gamma^b_a Phi_b.

    The bracket residual is authoritative.  For an untwisted, drift-free pack
    with a lowered metric it is additionally decomposed by momentum order and
    matched, with the build's fixed sign triple, against the structural
    residual families; a mismatch is an engine fault and raises.
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
        _assert_decomposition(data, pack, ctx, bracket_residuals)
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
) -> None:
    families = structural_residuals(data, pack)
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


# drift absorption


def absorb_beta(data: Algebroid, pack: GeometryPack) -> GeometryPack:
    """Shift the momenta to remove beta, compensating in alpha, V and B.

    With A_i = g_ij beta^j the returned pack has beta = 0, alpha shifted by
    the pulled-back -A, the potential lowered by the kinetic energy of beta,
    the magnetic term shifted by -dA, and tau shifted by omega contracted
    with beta.  The flow-invariance verdict is preserved, which the tests
    confirm rather than assume.
    """
    _require(pack, ["g_low", "beta"])
    n, r = data.base_dim, data.rank
    beta = pack.beta
    A = []
    for i in range(n):
        value = EvenPoly.zero(data.coords)
        for j in range(n):
            value = value + pack.g_low[i][j] * beta[j]
        A.append(value)
    A_form = one_form(data.coords, A)

    new_alpha = pack.alpha_or_zero() - pullback(data, A_form)
    kinetic = EvenPoly.zero(data.coords)
    for i in range(n):
        for j in range(n):
            kinetic = kinetic + pack.g_low[i][j] * beta[i] * beta[j]
    new_potential = pack.potential_or_zero() - kinetic / 2

    magnetic = pack.magnetic
    shifted = (
        magnetic if magnetic is not None else zero_form(data.coords, 2)
    ) - de_rham(data.coords, A_form)
    new_magnetic = None if shifted.is_zero else shifted

    new_tau = None
    if pack.tau is not None or pack.omega is not None:
        tau = pack.tau_or_zero()
        rows = []
        for b in range(r):
            row = []
            for a in range(r):
                value = tau[b][a]
                if pack.omega is not None:
                    for i in range(n):
                        value = value + pack.omega[b][a][i] * beta[i]
                row.append(value)
            rows.append(tuple(row))
        new_tau = tuple(rows)

    return replace(
        pack,
        beta=None,
        alpha=None if new_alpha.is_zero else new_alpha,
        potential=None if new_potential.is_zero else new_potential,
        magnetic=new_magnetic,
        tau=new_tau,
    )


def absorption_map(pack: GeometryPack, ctx_from: GradedContext, ctx_to: GradedContext):
    """Substitution p_i -> p_i - A_i carrying old-pack functions to new-pack ones."""
    _require(pack, ["g_low", "beta"])
    n = len(pack.coords)
    images = {}
    for i, name in enumerate(pack.coords):
        value = EvenPoly.zero(pack.coords)
        for j in range(n):
            value = value + pack.g_low[i][j] * pack.beta[j]
        images[momentum_name(name)] = ctx_to.var(momentum_name(name)) - ctx_to.lift(
            value
        )

    def carry(F: GradedPoly) -> GradedPoly:
        if F.ctx != ctx_from:
            raise ValueError("function lives on the wrong phase space")
        moved = GradedPoly(ctx_to, dict(F.parts))
        return moved.substitute(images)

    return carry


# the linear connection solver


@dataclass
class ConnectionSolution:
    feasible: bool
    omega: tuple[tuple[tuple[EvenPoly, ...], ...], ...] | None
    solution_dim: int
    degree: int
    notes: list[str] = field(default_factory=list)


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

    # one column per unknown omega^b_{ai} = x^m, keyed by (a, pair, exponent)
    unknowns = [
        (b, a, i, m)
        for b in range(r)
        for a in range(r)
        for i in range(n)
        for m in monomial_exponents(n, degree)
    ]
    iota = _lowered_anchor(data, pack.g_low)
    columns = []
    for b, a, i, m in unknowns:
        shifted = EvenPoly(data.coords, {m: Fraction(1)})
        column = {}
        for pair_pos, (s, t) in enumerate(pair_list):
            contribution = EvenPoly.zero(data.coords)
            if i == s:
                contribution = contribution - shifted * iota[b][t]
            if i == t:
                contribution = contribution - shifted * iota[b][s]
            for e, coeff in contribution.terms.items():
                column[(a, pair_pos, e)] = coeff
        columns.append(column)
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
