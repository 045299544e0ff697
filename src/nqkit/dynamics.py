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

For an untwisted, drift-free pack the residual is predicted, order by
momentum order, from three structural conditions (metric compatibility,
covariant constancy of alpha, potential alignment) with the momenta raised
by g^{ij}; the decomposition constants are fixed once and the prediction is
asserted on every run, so any drift between the bracket route and the
index-formula route raises instead of passing silently.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

from .algebroid import Algebroid
from .constraints import ConstraintSet, Matrix, affine_part
from .graded import (
    GradedContext,
    GradedPoly,
    left_derivation,
    momentum_name,
    momentum_orders,
)
from .linalg import read_back, solve
from .poly import EvenPoly, Exponent, Rat, monomial_exponents
from .report import FAIL, PASS, CheckReport, family_residuals

# momentum-order decomposition constants (orders 2, 1, 0), fixed per build
DECOMPOSITION_SIGNS = (1, 1, -1)
METRIC_COMPAT_IDENTITY = "L_rho(g) = omega v iota_rho(g)"
STRUCTURAL_IDENTITY = "order-by-order invariance conditions"
EVOLUTION_IDENTITY = "{H, Phi_a} = gamma^b_a Phi_b"


def _as_matrix(rows: Sequence[Sequence[EvenPoly]] | None) -> Matrix | None:
    if rows is None:
        return None
    return tuple(tuple(row) for row in rows)


class GeometryPack:
    """Optional geometric fields over a fixed base ring and frame rank.

    omega and tau are stored only as indexes of their nonzero entries in
    ascending keys, omega[(a, b, i)] = omega^a_{bi} and tau[(a, b)] = tau^a_b;
    alpha[a] holds alpha_a and magnetic[i][j] holds B_ij.  Each field is
    checked here, once, against the base ring and the rank.  Fields with a
    natural zero default may be omitted: potential is then the zero
    polynomial and tau the empty index, while alpha, magnetic and beta stay
    None, whose absence is read (an all-zero beta is stored as absent).  The
    metrics and connection have no canonical default (a zero connection is
    the empty index, not None) and the operations that need them say so.
    Treated as immutable.
    """

    def __init__(
        self,
        coords: tuple[str, ...],
        rank: int,
        g_inv: Matrix | None = None,
        g_low: Matrix | None = None,
        omega: Mapping[tuple[int, int, int], EvenPoly] | None = None,
        tau: Mapping[tuple[int, int], EvenPoly] | None = None,
        alpha: Sequence[EvenPoly] | None = None,
        potential: EvenPoly | None = None,
        magnetic: Matrix | None = None,
        beta: tuple[EvenPoly, ...] | None = None,
    ):
        self.coords = tuple(coords)
        self.rank = rank
        self.g_inv = _as_matrix(g_inv)
        self.g_low = _as_matrix(g_low)
        self.alpha = None if alpha is None else affine_part(self.coords, rank, alpha)
        self.potential = EvenPoly.zero(self.coords) if potential is None else potential
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
                for j in range(i + 1, n):
                    if metric[i][j] != metric[j][i]:
                        raise ValueError(f"{name} must be symmetric")
        if self.g_inv is not None and self.g_low is not None:
            # products of nonzero entries only
            columns = [
                [(k, entry) for k, entry in enumerate(column) if not entry.is_zero]
                for column in zip(*self.g_low)
            ]
            for i, row in enumerate(self.g_inv):
                for j, column in enumerate(columns):
                    total = EvenPoly.zero(self.coords)
                    for k, entry in column:
                        if not row[k].is_zero:
                            total = total + row[k] * entry
                    if total != EvenPoly.const(self.coords, 1 if i == j else 0):
                        raise ValueError(
                            "g_inv and g_low are not exact inverses"
                        )
        self.omega = None if omega is None else self._nonzero("omega", omega, (r, r, n))
        self.tau = self._nonzero("tau", {} if tau is None else tau, (r, r))
        self._check_entries((self.potential,))
        if self.beta is not None:
            if len(self.beta) != n:
                raise ValueError("beta must have one component per coordinate")
            self._check_entries(self.beta)
            if all(entry.is_zero for entry in self.beta):
                self.beta = None

    def _nonzero(self, name: str, index: Mapping, shape: tuple[int, ...]) -> dict:
        """The nonzero entries of an index, in ascending keys, once checked."""
        kept = {}
        for key in sorted(index):
            if len(key) != len(shape) or not all(
                0 <= k < size for k, size in zip(key, shape)
            ):
                labels = ("rank", "rank", "base_dim")[: len(shape)]
                raise ValueError(
                    f"{name} keys index {' x '.join(labels)}, found {key}"
                )
            entry = index[key]
            self._check_entries((entry,))
            if not entry.is_zero:
                kept[key] = entry
        return kept

    def _check_square(self, name: str, matrix: Matrix, size: int) -> None:
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError(f"{name} must be {size} x {size}")
        self._check_entries(e for row in matrix for e in row)

    def _check_entries(self, entries) -> None:
        for entry in entries:
            if entry.coords != self.coords:
                raise ValueError("all components must live in the base ring")


def build_hamiltonian(pack: GeometryPack, ctx: GradedContext) -> GradedPoly:
    """H = 1/2 g^{ij} p_i p_j + beta^i p_i + V on the phase space ctx.

    ctx is the problem's phase space, that of its constraints: its twist
    is the pack's magnetic field.
    """
    if pack.g_inv is None:
        raise ValueError("hamiltonian needs the inverse metric g_inv")
    momenta = [ctx.var(momentum_name(name)) for name in pack.coords]
    n = len(pack.coords)
    H = ctx.lift(pack.potential)
    for i in range(n):
        if pack.beta is not None:
            H = H + ctx.lift(pack.beta[i]) * momenta[i]
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


def _omega_slots(n: int, i: int):
    """The pairs s <= t where omega^b_ai enters the metric family, ascending,
    each with the k of the (iota_rho g)_bk it multiplies: (i, i) comes twice."""
    for s in range(i + 1):
        yield (s, i), s
    for t in range(i, n):
        yield (i, t), t


def structural_residuals(data: Algebroid, pack: GeometryPack) -> StructuralResiduals:
    """Metric compatibility, covariant constancy of alpha, potential alignment.

    With the lowered anchor (iota_rho g)_bj = g_kj rho_b^k, contracted once:

    (i)   (L_rho_a g)_ij - omega^b_ai (iota_rho g)_bj - omega^b_aj (iota_rho g)_bi
    (ii)  d_i alpha_a - omega^b_ai alpha_b + tau^b_a (iota_rho g)_bi
    (iii) rho_a^i d_i V - tau^b_a alpha_b

    The omega and tau terms are read off their indexes of nonzero entries.
    """
    _require(pack, ["g_low", "omega"])
    r, n = data.rank, data.base_dim
    g_low = pack.g_low
    alpha = affine_part(data.coords, r, pack.alpha)
    iota = _lowered_anchor(data, g_low)

    metric = {
        (a, i, j): _lie_metric(data, g_low, a, i, j)
        for a in range(r)
        for i in range(n)
        for j in range(i, n)
    }
    alpha_res = {
        (a, i): alpha[a].diff(data.coords[i]) for a in range(r) for i in range(n)
    }
    for (b, a, i), w in pack.omega.items():
        for pair, k in _omega_slots(n, i):
            metric[(a, *pair)] = metric[(a, *pair)] - w * iota[b][k]
        alpha_res[(a, i)] = alpha_res[(a, i)] - w * alpha[b]

    potential_res = {a: data.anchor_apply(a, pack.potential) for a in range(r)}
    for (b, a), t in pack.tau.items():
        for i in range(n):
            alpha_res[(a, i)] = alpha_res[(a, i)] + t * iota[b][i]
        potential_res[a] = potential_res[a] - t * alpha[b]
    return StructuralResiduals(metric, alpha_res, potential_res)


def check_metric_compat(families: StructuralResiduals) -> CheckReport:
    """Covariant constancy of the lowered metric along every frame field.

    The metric family of `structural_residuals` reads only g_low and omega,
    so the families of the full pack serve this check as well.
    """
    residuals = family_residuals("compat", families.metric, "aij")
    status = FAIL if residuals else PASS
    return CheckReport("metric_compat", status, METRIC_COMPAT_IDENTITY, residuals)


def check_structural(families: StructuralResiduals) -> CheckReport:
    """All three structural families as one labeled report."""
    residuals = (
        family_residuals("metric", families.metric, "aij")
        + family_residuals("alpha", families.alpha, "ai")
        + family_residuals(
            "potential", {(a,): f for a, f in families.potential.items()}, "a"
        )
    )
    status = FAIL if residuals else PASS
    return CheckReport("structural", status, STRUCTURAL_IDENTITY, residuals)


# the flow-invariance check with its two-route guard


def check_evolution_invariance(
    H: GradedPoly,
    cs: ConstraintSet,
    pack: GeometryPack,
    families: StructuralResiduals | None,
) -> CheckReport:
    """Invariance of the constraint surface: {H, Phi_a} = gamma^b_a Phi_b.

    The bracket residual is authoritative.  For an untwisted, drift-free pack
    with a lowered metric it is additionally compared with the residual
    predicted, with the build's fixed sign triple, from `families`, the
    structural residuals of the pack (None only when it has no lowered
    metric); a mismatch is an engine fault and raises.
    """
    _require(pack, ["g_inv", "omega"])
    ctx = cs.ctx
    if H.ctx != ctx:
        raise ValueError("hamiltonian and constraints live on different phase spaces")
    data = cs.data
    r = data.rank
    # gamma^b_a by (b, a), built once from the nonzero omega and tau
    momenta = [ctx.var(momentum_name(name)) for name in data.coords]
    gammas = {key: -ctx.lift(t) for key, t in pack.tau.items()}
    for (b, a, i), w in pack.omega.items():
        for j in range(data.base_dim):
            if not pack.g_inv[i][j].is_zero:
                term = ctx.lift(w * pack.g_inv[i][j]) * momenta[j]
                gammas[(b, a)] = gammas.get((b, a), ctx.zero()) + term

    bracket_residuals: list[GradedPoly] = []
    field = ctx.hamiltonian_field(H)  # {H, .}, applied to every Phi_a
    for a in range(r):
        R = left_derivation(ctx, field, cs.phis[a])
        for b in range(r):
            gamma = gammas.get((b, a))
            if gamma is not None:
                R = R - gamma * cs.phis[b]
        bracket_residuals.append(R)
    residuals = family_residuals(
        "evolution", {(a,): R for a, R in enumerate(bracket_residuals)}, "a"
    )

    notes = ["gamma^b_a = omega^b_ai g^ij p_j - tau^b_a"]
    twisted = ctx.twist is not None
    drift = pack.beta is not None
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
    return CheckReport("evolution", status, EVOLUTION_IDENTITY, residuals, notes)


def _assert_decomposition(
    data: Algebroid,
    pack: GeometryPack,
    ctx: GradedContext,
    bracket_residuals: list[GradedPoly],
    families: StructuralResiduals,
) -> None:
    """Compare each residual R_a with P_a, predicted from the families.

    With the raised momenta q_u = g^uj p_j, built here on their own, and the
    nonzero family entries only,

        P_a = k0 V_a + k1 A_am q_m + k2 sum_{u <= v} c_uv M_auv q_u q_v,

    c_uu = 1/2, c_uv = 1: since g_inv g_low = 1, R_a = P_a says that R_a,
    lowered by g_low order by order, is the signed families.  P_a is summed
    as k0 V_a + sum_u q_u (k1 A_au + k2 sum_{v >= u} c_uv M_auv q_v).
    """
    k2, k1, k0 = DECOMPOSITION_SIGNS
    n = data.base_dim
    q: list[GradedPoly] = []
    for a, R in enumerate(bracket_residuals):
        P = ctx.lift(families.potential[a] * k0)
        for u in range(n):
            A = families.alpha[(a, u)]
            row = [(v, families.metric[(a, u, v)]) for v in range(u, n)]
            row = [(v, M) for v, M in row if not M.is_zero]
            if A.is_zero and not row:
                continue
            if not q:
                momenta = [ctx.var(momentum_name(name)) for name in data.coords]
                q = [
                    sum((ctx.lift(g) * p for g, p in zip(g_row, momenta)), ctx.zero())
                    for g_row in pack.g_inv
                ]
            cofactor = ctx.lift(A * k1)
            for v, M in row:
                c = k2 if u < v else Rat(k2, 2)
                cofactor = cofactor + ctx.lift(M * c) * q[v]
            P = P + q[u] * cofactor
        if R != P:
            parts = (R - P).parts.values()
            order = max(len(w) for f in parts for w in momentum_orders(ctx, f))
            raise RuntimeError(
                f"internal dual-route mismatch at momentum order {order}"
            )


# the linear connection solver


class ConnectionSolution:
    def __init__(
        self,
        feasible: bool,
        omega: dict[tuple[int, int, int], EvenPoly] | None,
        solution_dim: int,
        notes: list[str] | None = None,
    ):
        self.feasible = feasible
        self.omega = omega
        self.solution_dim = solution_dim
        self.notes = [] if notes is None else notes


def _connection_columns(
    data: Algebroid, g_low: Matrix, degree: int
) -> tuple[list[tuple[tuple[int, int, int], Exponent]], list[dict]]:
    """One column per unknown omega^b_ai = x^m of the compatibility system.

    The unknowns, ((b, a, i), m), number rank^2 * base_dim * C(base_dim +
    degree, base_dim).  Row keys are (a, s, t, exponent) over the pairs
    s <= t.  An unknown adds -x^m (iota_rho g)_bk to each pair of
    `_omega_slots(n, i)`, term by term.
    """
    r, n = data.rank, data.base_dim
    exponents = monomial_exponents(n, degree)
    unknowns = [
        ((b, a, i), m)
        for b in range(r)
        for a in range(r)
        for i in range(n)
        for m in exponents
    ]
    iota = _lowered_anchor(data, g_low)
    columns = []
    for (b, a, i), m in unknowns:
        column: dict[tuple[int, int, int, Exponent], Rat] = {}
        for (s, t), k in _omega_slots(n, i):
            for e, coeff in iota[b][k].terms.items():
                # only slot (i, i) repeats, adding the same -coeff twice: none cancels
                key = (a, s, t, m + e)
                column[key] = column.get(key, 0) - coeff
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
    unknowns, columns = _connection_columns(data, pack.g_low, degree)
    rhs = {
        (a, i, j, e): -coeff
        for a in range(r)
        for i in range(n)
        for j in range(i, n)
        for e, coeff in _lie_metric(data, pack.g_low, a, i, j).terms.items()
    }

    result = solve(columns, rhs)
    if result is None:
        return ConnectionSolution(
            False,
            None,
            0,
            [
                f"no polynomial connection of degree <= {degree} satisfies "
                f"metric compatibility"
            ],
        )
    solution, solution_dim = result
    omega = dict(sorted(read_back(data.coords, unknowns, solution).items()))
    return ConnectionSolution(True, omega, solution_dim, [])
