"""Extended phase space with one ghost pair per frame direction.

The odd charge S is the Hamiltonian lift of the differential Q of the
frame data, plus the affine part: a single generator of ghost degree +1
that collects the anchor and the structure functions.  Its self-bracket
reproduces every closure defect of the frame data at once, so one
nilpotency test covers the whole identity battery.  A covariantized
Hamiltonian then probes the interaction of the metric data with the
frame: its bracket with the charge either vanishes or is carried by a
single obstruction tensor with three frame indices and one base index.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from .algebroid import Algebroid, q_images
from .constraints import (
    ConstraintSet,
    Matrix,
    affine_charge,
    build_constraints,
    first_class_terms,
    twist_of_magnetic,
)
from .dynamics import GeometryPack
from .graded import (
    GradedContext,
    GradedPoly,
    antighost_name,
    extended_context,
    field_column,
    ghost_name,
    left_derivation,
    momentum_name,
)
from .linalg import image_in, rank
from .poly import EvenPoly, Exponent, Rat, embed, monomial_exponents
from .report import FAIL, PASS, SKIPPED, CheckReport

CARTAN_IDENTITY = "(S, H_cov) = -g^ij pcov_i S^c_jab xi^a xi^b pi_c"


def charge_context(data: Algebroid, magnetic: Matrix | None = None) -> GradedContext:
    return extended_context(data.coords, data.rank, twist_of_magnetic(magnetic))


def build_S(
    data: Algebroid,
    alpha: Sequence[EvenPoly] | None = None,
    magnetic: Matrix | None = None,
    ctx: GradedContext | None = None,
) -> GradedPoly:
    """The lift Q(x^i) p_i + Q(xi^c) pi_c of Q, plus the affine part alpha_a xi^a.

    Written out: rho_a^i xi^a p_i - 1/2 C^c_ab xi^a xi^b pi_c + alpha_a xi^a.
    """
    if ctx is None:
        ctx = charge_context(data, magnetic)
    affine = affine_charge(data, alpha, ctx)
    images = q_images(data, ctx)
    S = ctx.zero()
    for name in data.coords:
        S = S + images[name] * ctx.var(momentum_name(name))
    for c in range(data.rank):
        S = S + images[ghost_name(c + 1)] * ctx.var(antighost_name(c + 1))
    return S + affine


class Charge:
    """The charge S of a constraint set and geometry pack, on its extended phase space.

    `core` is the lift of Q alone, S without the affine part; the cartan and
    charge-invariance checks bracket it with the Hamiltonian.  The
    self-bracket (S, S) and the master report are computed on first use and
    kept, so one invocation brackets S with itself once however many
    reports need it.  The constraints carry the structural 2-form that the
    master check predicts (S, S) from, so it is shared with the first-class
    check of the same constraints.  Treated as immutable.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        pack: GeometryPack,
        ctx: GradedContext,
        core: GradedPoly,
        S: GradedPoly,
    ):
        self.constraints = constraints
        self.pack = pack
        self.ctx = ctx
        self.core = core
        self.S = S

    @property
    def data(self) -> Algebroid:
        return self.constraints.data

    @cached_property
    def self_bracket(self) -> GradedPoly:
        return self.ctx.poisson(self.S, self.S)

    @cached_property
    def master(self) -> CheckReport:
        return check_master(self)


def build_charge(data: Algebroid, pack: GeometryPack) -> Charge:
    """The charge of the constraints Phi_a = rho_a^i p_i + alpha_a of a frame."""
    return charge_of_constraints(
        build_constraints(data, pack.alpha, pack.magnetic), pack
    )


def charge_of_constraints(cs: ConstraintSet, pack: GeometryPack) -> Charge:
    """Build the core lift of Q once, and S as the core plus alpha_a xi^a."""
    data = cs.data
    if data.coords != pack.coords or data.rank != pack.rank:
        raise ValueError("frame data and geometry pack disagree on base or rank")
    ctx = charge_context(data, cs.magnetic)
    core = build_S(data, magnetic=cs.magnetic, ctx=ctx)
    return Charge(cs, pack, ctx, core, core + affine_charge(data, cs.alpha, ctx))


def _word_label(ctx: GradedContext, word: tuple[int, ...]) -> str:
    return " ".join(ctx.odd_names[k] for k in word)


def _expected_self_bracket(charge: Charge) -> GradedPoly:
    # the xi xi coefficients are twice the first-class residual tensor,
    # the xi xi xi pi coefficients are the jacobi defect itself
    data, ctx = charge.data, charge.ctx
    ghost = [ctx.odd_index[ghost_name(a + 1)] for a in range(data.rank)]
    antighost = [ctx.odd_index[antighost_name(d + 1)] for d in range(data.rank)]
    zero_momenta = (0,) * data.base_dim
    items = [
        ((ghost[a], ghost[b]), e, 2 * coeff)
        for (a, b), e, coeff in first_class_terms(
            data, charge.constraints.structural, ctx
        )
    ]
    items += [
        ((ghost[a], ghost[b], ghost[c], antighost[d]), e + zero_momenta, coeff)
        for (a, b, c, d), value in data.jacobi_defect.items()
        for e, coeff in value.terms.items()
    ]
    return GradedPoly.from_terms(ctx, items)


def check_master(charge: Charge) -> CheckReport:
    """Nilpotency of the charge under the graded bracket.

    The self-bracket is also predicted from the frame data used to build S:
    the first-class residual tensor and the jacobi defect; disagreement
    between the routes raises.
    """
    S, ctx = charge.S, charge.ctx
    # the zero charge, of a frame with zero anchor and structure, is allowed
    if not S.is_zero and (S.parity() != 1 or S.ghost_degree() != 1):
        raise ValueError("the charge must be odd of ghost degree +1")
    ss = charge.self_bracket
    if ss != _expected_self_bracket(charge):
        raise RuntimeError("internal dual-route mismatch in the self-bracket")
    notes = [
        "dual route: the self-bracket matches the anchor and jacobi "
        "defects with the structural 2-form"
    ]
    residuals = [
        (f"ss[{_word_label(ctx, word)}]", str(coeff))
        for word, coeff in sorted(ss.parts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    status = FAIL if residuals else PASS
    return CheckReport("master", status, "(S, S) = 0", residuals, notes)


def covariant_momenta(pack: GeometryPack, ctx: GradedContext) -> list[GradedPoly]:
    """p_i minus the ghost-pair correction of the connection."""
    if pack.omega is None:
        raise ValueError("covariant momenta need the connection omega")
    out = []
    for i, name in enumerate(pack.coords):
        p = ctx.var(momentum_name(name))
        for a in range(pack.rank):
            for b in range(pack.rank):
                if pack.omega[b][a][i].is_zero:
                    continue
                p = p - ctx.lift(pack.omega[b][a][i]) * ctx.var(
                    ghost_name(a + 1)
                ) * ctx.var(antighost_name(b + 1))
        out.append(p)
    return out


def build_H(pack: GeometryPack, ctx: GradedContext | None = None) -> GradedPoly:
    """Covariant kinetic term plus the scalar potential."""
    if pack.g_inv is None:
        raise ValueError("the covariant hamiltonian needs the inverse metric g_inv")
    if pack.omega is None:
        raise ValueError("the covariant hamiltonian needs the connection omega")
    if pack.beta is not None:
        raise ValueError("drift term present: absorb it before the extended assembly")
    if ctx is None:
        ctx = extended_context(
            pack.coords, pack.rank, twist_of_magnetic(pack.magnetic)
        )
    pcov = covariant_momenta(pack, ctx)
    H = ctx.lift(pack.potential_or_zero())
    for i in range(len(pack.coords)):
        for j in range(len(pack.coords)):
            H = H + ctx.lift(pack.g_inv[i][j]) * pcov[i] * pcov[j] / 2
    return H


class BFVPackage:
    """Charge, Hamiltonian and the reports of the identity battery.

    `SH` is the bracket (S, H), computed once by the charge-invariance check
    and kept for the theta split of the supercharge.  Treated as immutable.
    """

    def __init__(
        self,
        charge: Charge,
        H: GradedPoly,
        SH: GradedPoly,
        reports: tuple[CheckReport, ...],
    ):
        S = charge.S
        if not S.is_zero and (S.parity() != 1 or S.ghost_degree() != 1):
            raise ValueError("the charge must be odd of ghost degree +1")
        if not H.is_zero and (H.parity() != 0 or H.ghost_degree() != 0):
            raise ValueError("the hamiltonian must be even of ghost degree 0")
        self.charge = charge
        self.H = H
        self.SH = SH
        self.reports = reports

    @property
    def ctx(self) -> GradedContext:
        return self.charge.ctx

    @property
    def S(self) -> GradedPoly:
        return self.charge.S

    @property
    def data(self) -> Algebroid:
        return self.charge.data

    def report(self, name: str) -> CheckReport:
        for entry in self.reports:
            if entry.name == name:
                return entry
        raise KeyError(f"no report named {name!r}")


def _split_momentum_linear(
    coeff: EvenPoly, base: tuple[str, ...]
) -> list[EvenPoly] | None:
    """Write a phase-space coefficient as sum_i c_i(x) p_i, or None."""
    coords = coeff.coords
    n = len(base)
    momentum_positions = [coords.index(momentum_name(name)) for name in base]
    linear: list[dict[Exponent, Rat]] = [{} for _ in range(n)]
    for exponent, value in coeff.terms.items():
        weights = [exponent[pos] for pos in momentum_positions]
        if sum(weights) != 1:
            return None
        i = weights.index(1)
        stripped = list(exponent)
        stripped[momentum_positions[i]] = 0
        linear[i][tuple(stripped)] = value
    return [EvenPoly(coords, terms) for terms in linear]


def _cartan_core(charge: Charge, R: GradedPoly) -> CheckReport:
    """Read the obstruction tensor off R = (core, H_cov)."""
    data, pack, ctx = charge.data, charge.pack, charge.ctx
    n, r = len(data.coords), data.rank
    if R.is_zero:
        return CheckReport(
            "cartan",
            PASS,
            CARTAN_IDENTITY,
            [],
            ["the obstruction tensor vanishes: cartan geometry"],
        )

    # candidate entries from the momentum-linear xi xi pi words
    tensor: dict[tuple[int, int, int, int], EvenPoly] = {}
    offending: list[str] = []
    for word, coeff in R.parts.items():
        names = [ctx.odd_names[k] for k in word]
        ghost_count = sum(1 for name in names if name.startswith("xi_"))
        if (len(word), ghost_count) == (3, 2):
            linear = _split_momentum_linear(coeff, data.coords)
            if linear is None:
                offending.append(_word_label(ctx, word))
                continue
            a, b = word[0], word[1]
            c = word[2] - r
            for j in range(n):
                entry = EvenPoly.zero(coeff.coords)
                for i in range(n):
                    entry = entry - embed(pack.g_low[j][i], coeff.coords) * linear[i]
                if not entry.is_zero:
                    tensor[(c, j, a, b)] = entry
        elif (len(word), ghost_count) != (5, 3):
            offending.append(_word_label(ctx, word))
    if offending:
        raise ValueError(
            "bracket residual leaves the covariant tensor shape; offending "
            "words: " + ", ".join(sorted(offending))
        )

    # the normalization is fixed by reassembling the residual exactly
    pcov = covariant_momenta(pack, ctx)
    rebuilt = ctx.zero()
    for j in range(n):
        block = ctx.zero()
        for (c, jj, a, b), entry in tensor.items():
            if jj != j:
                continue
            block = block + ctx.lift(entry) * ctx.var(ghost_name(a + 1)) * ctx.var(
                ghost_name(b + 1)
            ) * ctx.var(antighost_name(c + 1))
        for i in range(n):
            rebuilt = rebuilt - ctx.lift(pack.g_inv[i][j]) * pcov[i] * block
    if rebuilt != R:
        raise ValueError(
            "bracket residual leaves the covariant tensor shape; "
            f"unmatched part: {R - rebuilt}"
        )

    residuals = [
        (f"S[c={c + 1},j={j + 1},a={a + 1},b={b + 1}]", str(entry))
        for (c, j, a, b), entry in sorted(tensor.items())
    ]
    return CheckReport(
        "cartan",
        FAIL,
        CARTAN_IDENTITY,
        residuals,
        ["the extracted tensor reassembles the bracket residual exactly"],
    )


def _charge_invariance(
    charge: Charge, H: GradedPoly, core_bracket: GradedPoly
) -> tuple[CheckReport, GradedPoly]:
    """The charge-invariance report and the bracket (S, H) it checks.

    `core_bracket` is (core, H_cov), shared with the cartan check.
    """
    data, pack, ctx = charge.data, charge.pack, charge.ctx
    S = charge.S
    affine = S - charge.core
    potential = ctx.lift(pack.potential_or_zero())
    h_cov = H - potential

    gradient = ctx.zero()
    for a in range(data.rank):
        for i, name in enumerate(data.coords):
            gradient = gradient + ctx.var(ghost_name(a + 1)) * ctx.lift(
                data.anchor[a][i] * pack.potential_or_zero().diff(name)
            )
    parts = [
        ("cartan_part", core_bracket),
        ("dalpha_part", ctx.poisson(affine, h_cov)),
        ("potential_part", ctx.poisson(S, potential)),
    ]
    if parts[2][1] != gradient:
        raise RuntimeError("internal dual-route mismatch in the potential part")
    # with alpha = 0 and V = 0, S is the core and H is H_cov: one bracket
    total = core_bracket if affine.is_zero and potential.is_zero else ctx.poisson(S, H)
    if parts[0][1] + parts[1][1] + parts[2][1] != total:
        raise RuntimeError("internal dual-route mismatch in the charge invariance")
    residuals = [(label, str(value)) for label, value in parts if not value.is_zero]
    status = PASS if total.is_zero else FAIL
    report = CheckReport(
        "charge_invariance",
        status,
        "(S, H) = 0",
        residuals,
        [
            "sub-residuals mirror the metric, affine and potential families "
            "of the structural check"
        ],
    )
    return report, total


def assemble_bfv(charge: Charge) -> BFVPackage:
    """Add the Hamiltonian to a charge, then run the full identity battery."""
    data, pack, ctx = charge.data, charge.pack, charge.ctx
    if pack.g_inv is not None:
        H = build_H(pack, ctx)
    else:
        if pack.beta is not None:
            raise ValueError(
                "drift term present: absorb it before the extended assembly"
            )
        H = ctx.lift(pack.potential_or_zero())
    reports = [charge.master]
    # (core, H_cov), shared by the cartan and charge-invariance checks
    core_bracket = ctx.poisson(charge.core, H - ctx.lift(pack.potential_or_zero()))
    if pack.g_inv is not None and pack.g_low is not None:
        if reports[0].status == PASS:
            reports.append(_cartan_core(charge, core_bracket))
        else:
            reports.append(
                CheckReport(
                    "cartan",
                    SKIPPED,
                    CARTAN_IDENTITY,
                    [],
                    ["master equation fails: the obstruction tensor is undefined"],
                )
            )
    else:
        reports.append(
            CheckReport(
                "cartan",
                SKIPPED,
                CARTAN_IDENTITY,
                [],
                ["no metric pair: the covariant obstruction is not defined"],
            )
        )
    invariance, SH = _charge_invariance(charge, H, core_bracket)
    reports.append(invariance)
    return BFVPackage(charge, H, SH, tuple(reports))


# truncated ghost-number-zero cohomology of (S, .)


class H0Report:
    def __init__(
        self,
        x_degree: int,
        p_degree: int,
        closed_dim: int,
        exact_dim: int,
        h_dim: int,
        notes: tuple[str, ...],
    ):
        self.x_degree = x_degree
        self.p_degree = p_degree
        self.closed_dim = closed_dim
        self.exact_dim = exact_dim
        self.h_dim = h_dim
        self.notes = notes


def _balanced_words(rank: int, ghost_shift: int) -> list[tuple[int, ...]]:
    """Odd words with #xi - #pi equal to the requested ghost number."""
    words = []
    for k in range(rank + 1):
        k_pi = k - ghost_shift
        if not 0 <= k_pi <= rank:
            continue
        for xs in combinations(range(rank), k):
            for ps in combinations(range(rank), k_pi):
                words.append(tuple(xs) + tuple(rank + c for c in ps))
    return words


def _bracket_columns(
    ctx: GradedContext,
    field: dict[str, GradedPoly],
    n: int,
    words: list[tuple[int, ...]],
    x_degree: int,
    p_degree: int,
) -> list[dict]:
    """The derivation `field` on each monomial x^xe p^pe xi^word of a window.

    Sources run over x-monomials, then p-monomials, then words; each
    column is keyed by (word, exponent).
    """
    p_exponents = monomial_exponents(n, p_degree)
    return [
        field_column(ctx, field, word, xe + pe)
        for xe in monomial_exponents(n, x_degree)
        for pe in p_exponents
        for word in words
    ]


def bfv_h0(charge: Charge, x_degree: int, p_degree: int) -> H0Report:
    """Kernel minus image of (S, .) on a finite ghost-number-0 window.

    Both dimensions are exact on the window: an element counts as closed
    only if its bracket vanishes identically, and image vectors are kept
    only when their out-of-window part cancels exactly.  The report is a
    truncated diagnostic, not the reduced-space isomorphism.
    """
    if x_degree < 0 or p_degree < 0:
        raise ValueError("truncation degrees must be nonnegative")
    ctx, S = charge.ctx, charge.S
    field = ctx.hamiltonian_field(S)  # (S, .), applied to every column below
    if not left_derivation(ctx, field, S).is_zero:
        raise ValueError("the master equation fails: (S, .) does not square to zero")
    n, r = len(charge.data.coords), charge.data.rank

    def in_window(key: tuple[tuple[int, ...], Exponent]) -> bool:
        exponent = key[1]
        return sum(exponent[:n]) <= x_degree and sum(exponent[n:]) <= p_degree

    window = _bracket_columns(
        ctx, field, n, _balanced_words(r, 0), x_degree, p_degree
    )
    closed_dim = len(window) - rank(window)
    # gh -1 sources one degree above the window; a single bracket moves
    # any monomial degree by at most one, so deeper sources reach the
    # window only through cancellations this truncation ignores
    sources = _bracket_columns(
        ctx, field, n, _balanced_words(r, -1), x_degree + 1, p_degree + 1
    )
    exact_dim = image_in(sources, in_window)

    if exact_dim > closed_dim:
        raise RuntimeError("internal window inconsistency in the cohomology count")
    return H0Report(
        x_degree,
        p_degree,
        closed_dim,
        exact_dim,
        closed_dim - exact_dim,
        (
            "truncated diagnostic: kernel and image are exact on the window, "
            "sources one degree above",
        ),
    )
