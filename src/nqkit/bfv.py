"""The covariant Hamiltonian added to the charge of a constraint set.

The constraint set fixes the odd charge S: the Hamiltonian lift of the
differential Q of the frame data, plus the affine part, a single
generator of ghost degree +1 that collects the anchor and the structure
functions.  Its self-bracket reproduces every closure defect of the
frame data at once, so one nilpotency test covers the whole identity
battery.  A covariantized Hamiltonian built from the geometry pack then
probes the interaction of the metric data with the frame: its bracket
with the charge either vanishes or is carried by a single obstruction
tensor with three frame indices and one base index.
"""

from __future__ import annotations

from itertools import combinations

from .algebroid import Algebroid
from .constraints import ConstraintSet, build_S, check_master
from .dynamics import GeometryPack
from .graded import (
    GradedContext,
    GradedPoly,
    OddWord,
    antighost_name,
    field_column,
    ghost_name,
    left_derivation,
    letters,
    momentum_name,
    momentum_orders,
    word_label,
)
from .linalg import image_in, rank
from .poly import WIDTH, EvenPoly, Exponent, lex_bits, monomial_exponents, unpack
from .report import FAIL, PASS, SKIPPED, CheckReport, family_residuals

# build_S and check_master are defined with the constraint set and re-exported
__all__ = [
    "CARTAN_IDENTITY",
    "DRIFT_REFUSAL",
    "BFVPackage",
    "H0Report",
    "assemble_bfv",
    "bfv_h0",
    "build_H",
    "build_S",
    "check_master",
    "covariant_momenta",
]

CARTAN_IDENTITY = "(S, H_cov) = -g^ij pcov_i S^c_jab xi^a xi^b pi_c"
DRIFT_REFUSAL = "drift term present: absorb it before the extended assembly"


def covariant_momenta(pack: GeometryPack, ctx: GradedContext) -> list[GradedPoly]:
    """p_i minus the ghost-pair correction of the connection."""
    if pack.omega is None:
        raise ValueError("covariant momenta need the connection omega")
    out = [ctx.var(momentum_name(name)) for name in pack.coords]
    for (b, a, i), w in pack.omega.items():
        out[i] = out[i] - ctx.lift(w) * ctx.var(ghost_name(a + 1)) * ctx.var(
            antighost_name(b + 1)
        )
    return out


def build_H(pack: GeometryPack, ctx: GradedContext) -> GradedPoly:
    """Covariant kinetic term plus the scalar potential, on the phase space ctx."""
    if pack.g_inv is None:
        raise ValueError("the covariant hamiltonian needs the inverse metric g_inv")
    if pack.omega is None:
        raise ValueError("the covariant hamiltonian needs the connection omega")
    if pack.beta is not None:
        raise ValueError(DRIFT_REFUSAL)
    pcov = covariant_momenta(pack, ctx)
    H = ctx.lift(pack.potential)
    for i in range(len(pack.coords)):
        for j in range(len(pack.coords)):
            H = H + ctx.lift(pack.g_inv[i][j]) * pcov[i] * pcov[j] / 2
    return H


class BFVPackage:
    """Constraints with their charge, pack, Hamiltonian and battery reports.

    `SH` is the bracket (S, H), computed once by the charge-invariance check
    and kept for the theta split of the supercharge.  Treated as immutable.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        pack: GeometryPack,
        H: GradedPoly,
        SH: GradedPoly,
        reports: tuple[CheckReport, ...],
    ):
        if not H.is_zero and (H.parity() != 0 or H.ghost_degree() != 0):
            raise ValueError("the hamiltonian must be even of ghost degree 0")
        self.constraints = constraints
        self.pack = pack
        self.H = H
        self.SH = SH
        self.reports = reports

    @property
    def ctx(self) -> GradedContext:
        return self.constraints.ctx

    @property
    def S(self) -> GradedPoly:
        return self.constraints.S

    @property
    def data(self) -> Algebroid:
        return self.constraints.data

    def report(self, name: str) -> CheckReport:
        for entry in self.reports:
            if entry.name == name:
                return entry
        raise KeyError(f"no report named {name!r}")


def _shape_finding(detail: str) -> CheckReport:
    """The cartan FAIL of a residual that no obstruction tensor reassembles.

    A one-ghost residual is one: H does not preserve the constraint surface.
    """
    message = f"bracket residual leaves the covariant tensor shape; {detail}"
    return CheckReport("cartan", FAIL, CARTAN_IDENTITY, [("shape", message)])


def _cartan_core(cs: ConstraintSet, pack: GeometryPack, R: GradedPoly) -> CheckReport:
    """Read the obstruction tensor off R = (core, H_cov); it is empty iff R is zero."""
    data, ctx = cs.data, cs.ctx
    n, r = len(data.coords), data.rank
    # candidate entries from the momentum-linear xi xi pi words
    tensor: dict[tuple[int, int, int, int], EvenPoly] = {}
    offending: list[str] = []
    for word, coeff in R.parts.items():
        word_letters = letters(word)
        ghost_count = sum(ctx.odd_ghost[k] == 1 for k in word_letters)
        if (len(word_letters), ghost_count) == (3, 2):
            orders = momentum_orders(ctx, coeff)
            if any(len(p_word) != 1 for p_word in orders):
                offending.append(word_label(ctx, word))
                continue
            a, b, c = word_letters
            c -= r
            for j in range(n):
                entry = data.zero()
                for (i,), linear in orders.items():
                    if not pack.g_low[j][i].is_zero:
                        entry = entry - pack.g_low[j][i] * linear
                if not entry.is_zero:
                    tensor[(c, j, a, b)] = entry
        elif (len(word_letters), ghost_count) != (5, 3):
            offending.append(word_label(ctx, word))
    if offending:
        return _shape_finding("offending words: " + ", ".join(sorted(offending)))

    # the normalization is fixed by reassembling the residual exactly
    pcov = covariant_momenta(pack, ctx)
    blocks: dict[int, GradedPoly] = {}
    for (c, j, a, b), entry in tensor.items():
        blocks[j] = blocks.get(j, ctx.zero()) + ctx.lift(entry) * ctx.var(
            ghost_name(a + 1)
        ) * ctx.var(ghost_name(b + 1)) * ctx.var(antighost_name(c + 1))
    rebuilt = ctx.zero()
    for j, block in blocks.items():
        for i in range(n):
            rebuilt = rebuilt - ctx.lift(pack.g_inv[i][j]) * pcov[i] * block
    if rebuilt != R:
        return _shape_finding(f"unmatched part: {R - rebuilt}")

    residuals = family_residuals("S", tensor, "cjab")
    if residuals:
        note = "the extracted tensor reassembles the bracket residual exactly"
    else:
        note = "the obstruction tensor vanishes: cartan geometry"
    status = FAIL if residuals else PASS
    return CheckReport("cartan", status, CARTAN_IDENTITY, residuals, [note])


def _charge_invariance(
    cs: ConstraintSet,
    pack: GeometryPack,
    h_cov: GradedPoly,
    potential: GradedPoly,
    core_bracket: GradedPoly,
) -> tuple[CheckReport, GradedPoly]:
    """The charge-invariance report and the bracket (S, H), H = h_cov + potential.

    `core_bracket` is (core, H_cov), shared with the cartan check; the
    brackets with S apply the (S, .) the constraints keep.
    """
    data, ctx = cs.data, cs.ctx
    field, affine = cs.field, cs.affine

    # (S, V) = rho_a^i d_i V xi^a, by the anchor derivative
    gradient = ctx.zero()
    for a in range(data.rank):
        derivative = data.anchor_apply(a, pack.potential)
        if not derivative.is_zero:
            gradient = gradient + ctx.var(ghost_name(a + 1)) * ctx.lift(derivative)
    parts = [
        ("cartan_part", core_bracket),
        ("dalpha_part", ctx.poisson(affine, h_cov)),
        ("potential_part", left_derivation(ctx, field, potential)),
    ]
    if parts[2][1] != gradient:
        raise RuntimeError("internal dual-route mismatch in the potential part")
    # with alpha = 0 and V = 0, S is the core and H is H_cov: one bracket
    if affine.is_zero and potential.is_zero:
        total = core_bracket
    else:
        total = left_derivation(ctx, field, h_cov + potential)
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


def assemble_bfv(cs: ConstraintSet, pack: GeometryPack) -> BFVPackage:
    """Add the Hamiltonian H = H_cov + V of a pack to the charge of cs.

    Then run the battery.  A ValueError means a pack of another frame, a
    refused drift term or an inverse metric without a connection; every
    finding is a report.
    """
    data, ctx = cs.data, cs.ctx
    if data.coords != pack.coords or data.rank != pack.rank:
        raise ValueError("frame data and geometry pack disagree on base or rank")
    if pack.beta is not None:
        raise ValueError(DRIFT_REFUSAL)
    potential = ctx.lift(pack.potential)
    if pack.g_inv is not None:
        H = build_H(pack, ctx)
        h_cov = H - potential
    else:
        H, h_cov = potential, ctx.zero()
    reports = [cs.master]
    # (core, H_cov), shared by the cartan and charge-invariance checks;
    # with alpha = 0 the core is S, whose (S, .) the constraints keep
    if cs.affine.is_zero:
        core_bracket = left_derivation(ctx, cs.field, h_cov)
    else:
        core_bracket = ctx.poisson(cs.core, h_cov)
    if pack.g_inv is None or pack.g_low is None:
        skipped = "no metric pair: the covariant obstruction is not defined"
    elif reports[0].status != PASS:
        skipped = "master equation fails: the obstruction tensor is undefined"
    else:
        skipped = None
    if skipped is None:
        reports.append(_cartan_core(cs, pack, core_bracket))
    else:
        reports.append(CheckReport("cartan", SKIPPED, CARTAN_IDENTITY, [], [skipped]))
    invariance, SH = _charge_invariance(cs, pack, h_cov, potential, core_bracket)
    reports.append(invariance)
    return BFVPackage(cs, pack, H, SH, tuple(reports))


# truncated ghost-number-zero cohomology of (S, .)


class H0Report:
    def __init__(
        self,
        closed_dim: int,
        exact_dim: int,
        h_dim: int,
        notes: tuple[str, ...],
    ):
        self.closed_dim = closed_dim
        self.exact_dim = exact_dim
        self.h_dim = h_dim
        self.notes = notes


def _balanced_words(rank: int, ghost_shift: int) -> list[OddWord]:
    """Odd words with #xi - #pi equal to the requested ghost number."""
    words = []
    for k in range(rank + 1):
        k_pi = k - ghost_shift
        if not 0 <= k_pi <= rank:
            continue
        for xs in combinations(range(rank), k):
            for ps in combinations(range(rank, 2 * rank), k_pi):
                words.append(sum(1 << a for a in xs + ps))
    return words


def _bracket_columns(
    ctx: GradedContext,
    field: dict[str, GradedPoly],
    n: int,
    words: list[OddWord],
    x_degree: int,
    p_degree: int,
) -> list[dict]:
    """The derivation `field` on each monomial x^xe p^pe xi^word of a window.

    Sources run over x-monomials, then p-monomials, then words; each
    column is keyed by (word, exponent).  Over the 2n coordinates the key
    of x^xe p^pe is that of x^xe, xe moved up past the n momentum fields,
    plus that of p^pe, pe with its degree field moved up past x.
    """
    shift = WIDTH * n
    p_keys = [
        pe >> shift << 2 * shift | pe & lex_bits(n)
        for pe in monomial_exponents(n, p_degree)
    ]
    return [
        field_column(ctx, field, word, (xe << shift) + pk)
        for xe in monomial_exponents(n, x_degree)
        for pk in p_keys
        for word in words
    ]


def bfv_h0(cs: ConstraintSet, x_degree: int, p_degree: int) -> H0Report:
    """Kernel minus image of (S, .) on a finite ghost-number-0 window.

    Both dimensions are exact on the window: an element counts as closed
    only if its bracket vanishes identically, and image vectors are kept
    only when their out-of-window part cancels exactly.  The report is a
    truncated diagnostic, not the reduced-space isomorphism.
    """
    if x_degree < 0 or p_degree < 0:
        raise ValueError("truncation degrees must be nonnegative")
    if not cs.self_bracket.is_zero:
        raise ValueError("the master equation fails: (S, .) does not square to zero")
    ctx, field = cs.ctx, cs.field  # (S, .), applied to every column
    n, r = len(cs.data.coords), cs.data.rank

    def in_window(key: tuple[OddWord, Exponent]) -> bool:
        exponent = unpack(key[1], 2 * n)
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
        closed_dim,
        exact_dim,
        closed_dim - exact_dim,
        (
            "truncated diagnostic: kernel and image are exact on the window, "
            "sources one degree above",
        ),
    )
