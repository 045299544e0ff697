"""The covariant Hamiltonian added to the charge of a constraint set.

The constraint set fixes the odd charge S: the Hamiltonian lift of the
differential Q of the frame data, plus the affine part, a single
generator of ghost degree +1 that collects the anchor and the structure
functions.  Its self-bracket reproduces every closure defect of the
frame data at once, so one nilpotency test covers the whole identity
battery.  The covariant Hamiltonian H_cov = 1/2 g^ij pcov_i pcov_j,
built by `assemble_bfv` from the covariant momenta of the geometry pack,
then probes the interaction of the metric data with the frame: its
bracket with the charge either vanishes or is carried by a single
obstruction tensor with three frame indices and one base index, which
the cartan check reassembles with the same momenta.  The package's
super-time charge Q = S + theta H lives on the same phase space, whose
last odd letter theta no bracket reaches.  A problem assembles its
package once, on first use (`Problem.package`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .constraints import ConstraintSet, _affine_form, build_S, check_master
from .dynamics import GeometryPack
from .graded import (
    THETA,
    GradedContext,
    GradedPoly,
    OddWord,
    _accumulate_product,
    _lifted_terms,
    antighost_name,
    ghost_name,
    in_window,
    left_derivation,
    letters,
    merge_words,
    momentum_name,
    momentum_orders,
    window_columns,
    word_label,
)
from .linalg import image_in, rank
from .poly import EvenPoly, Rat, Terms
from .report import FAIL, PASS, SKIPPED, CheckReport, family_residuals

# build_S and check_master are defined with the constraint set, THETA with
# the names of the phase space, and re-exported
__all__ = [
    "CARTAN_IDENTITY",
    "DRIFT_REFUSAL",
    "THETA",
    "BFVPackage",
    "H0Report",
    "assemble_bfv",
    "bfv_h0",
    "build_S",
    "check_master",
    "covariant_momenta",
]

CARTAN_IDENTITY = "(S, H_cov) = -g^ij pcov_i S^c_jab xi^a xi^b pi_c"
DRIFT_REFUSAL = "drift term present: absorb it before the extended assembly"


def covariant_momenta(pack: GeometryPack, ctx: GradedContext) -> list[GradedPoly]:
    """p_i minus the ghost-pair correction of the connection,
    p_i - omega^b_ai xi^a pi_b: each (a, b) holds the terms of its own word."""
    if pack.omega is None:
        raise ValueError("covariant momenta need the connection omega")
    out = [_lifted_terms(ctx, None, momentum_name(name)) for name in pack.coords]
    for (b, a, i), w in pack.omega.items():
        xi, pi = ctx.odd_index[ghost_name(a + 1)], ctx.odd_index[antighost_name(b + 1)]
        word, sign = merge_words(1 << xi, 1 << pi)
        out[i].update(_lifted_terms(ctx, w, scale=-sign, word=word))
    return [GradedPoly._trusted(ctx, terms) for terms in out]


def _kinetic(
    pack: GeometryPack, pcov: list[GradedPoly], ctx: GradedContext
) -> GradedPoly:
    """H_cov = 1/2 g^ij pcov_i pcov_j, from the covariant momenta on ctx."""
    s = ctx.word_shift
    terms: Terms = {}
    for i, row in enumerate(pack.g_inv):
        half_row: Terms = {}  # 1/2 g^ij pcov_j over the nonzero g^ij
        for j, g in enumerate(row):
            if g.terms:
                half_g = _lifted_terms(ctx, g, scale=Rat(1, 2))
                _accumulate_product(half_row, pcov[j].coeffs, half_g, s)
        _accumulate_product(terms, pcov[i].coeffs, half_row, s)
    return GradedPoly(ctx, terms)


class BFVPackage:
    """Constraints with their charge, pack, Hamiltonian and battery reports.

    `H` is H_cov + V, the covariant Hamiltonian of the pack plus its
    potential, or V alone when it has no inverse metric; `SH` is the
    bracket (S, H), computed once by the charge-invariance check and kept
    for the theta split of the supercharge.  The package keeps the
    `cartan` and `charge_invariance` reports; the charge S, its phase space
    and the master report are read off `constraints`.  The super-time
    charge `Q` is built on first use and kept, as the constraints keep
    their charge.  Treated as immutable.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        pack: GeometryPack,
        H: GradedPoly,
        SH: GradedPoly,
        cartan: CheckReport,
        charge_invariance: CheckReport,
    ):
        self.constraints = constraints
        self.pack = pack
        self.H = H
        self.SH = SH
        self.cartan = cartan
        self.charge_invariance = charge_invariance

    @cached_property
    def Q(self) -> GradedPoly:
        """Q = S + theta H on the package's own phase space, whose last odd
        letter is theta: odd of ghost degree +1 since S and theta H are;
        callers must not mutate it."""
        cs = self.constraints
        return cs.S + cs.ctx.var(THETA) * self.H


def _shape_finding(detail: str) -> CheckReport:
    """The cartan FAIL of a residual that no obstruction tensor reassembles.

    A one-ghost residual is one: H does not preserve the constraint surface.
    """
    message = f"bracket residual leaves the covariant tensor shape; {detail}"
    return CheckReport("cartan", FAIL, CARTAN_IDENTITY, [("shape", message)])


def _cartan_core(
    cs: ConstraintSet, pack: GeometryPack, R: GradedPoly, pcov: list[GradedPoly]
) -> CheckReport:
    """Read the obstruction tensor off R = (core, H_cov); it is empty iff R is zero.

    The reassembly contracts it with `pcov`, the momenta H_cov is built from."""
    data, ctx = cs.data, cs.ctx
    n, r = len(data.coords), data.rank
    # candidate entries from the momentum-linear xi xi pi words
    tensor: dict[tuple[int, int, int, int], EvenPoly] = {}
    offending: list[str] = []
    for word, coeff in R.by_word().items():
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

    # the normalization is fixed by reassembling the residual exactly:
    # R = -g^ij pcov_i block_j, block_j the sum of entry xi^a xi^b pi_c
    s = ctx.word_shift
    blocks: dict[int, Terms] = {}
    for (c, j, a, b), entry in tensor.items():
        word = 1 << a | 1 << b | 1 << r + c  # the word it was read off
        blocks.setdefault(j, {}).update(_lifted_terms(ctx, entry, word=word))
    terms: Terms = {}
    for j, block in blocks.items():
        row: Terms = {}  # -g^ij pcov_i over the nonzero g^ij
        for i in range(n):
            if pack.g_inv[i][j].terms:
                minus_g = _lifted_terms(ctx, pack.g_inv[i][j], scale=-1)
                _accumulate_product(row, minus_g, pcov[i].coeffs, s)
        _accumulate_product(terms, row, block, s)
    rebuilt = GradedPoly(ctx, terms)
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
    gradient = [data.anchor_apply(a, pack.potential) for a in range(data.rank)]
    gradient = _affine_form(ctx, gradient)
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

    H_cov = 1/2 g^ij pcov_i pcov_j is built from the covariant momenta,
    which the cartan reassembly reuses; without an inverse metric H is V
    alone.  H is even and of ghost degree 0 either way.  Then run the
    battery, whose cartan and charge-invariance reports the package keeps.
    A ValueError means a pack of another frame, a refused drift term or an
    inverse metric without a connection; every finding is a report.
    """
    data, ctx = cs.data, cs.ctx
    if data.coords != pack.coords or data.rank != pack.rank:
        raise ValueError("frame data and geometry pack disagree on base or rank")
    if pack.beta is not None:
        raise ValueError(DRIFT_REFUSAL)
    potential = ctx.lift(pack.potential)
    if pack.g_inv is not None:
        if pack.omega is None:
            raise ValueError("the covariant hamiltonian needs the connection omega")
        pcov = covariant_momenta(pack, ctx)
        h_cov = _kinetic(pack, pcov, ctx)
        H = h_cov + potential
    else:
        H, h_cov = potential, ctx.zero()
    # (core, H_cov), shared by the cartan and charge-invariance checks;
    # with alpha = 0 the core is S, whose (S, .) the constraints keep
    if cs.affine.is_zero:
        core_bracket = left_derivation(ctx, cs.field, h_cov)
    else:
        core_bracket = ctx.poisson(cs.core, h_cov)
    if pack.g_inv is None or pack.g_low is None:
        skipped = "no metric pair: the covariant obstruction is not defined"
    elif cs.master.status != PASS:
        skipped = "master equation fails: the obstruction tensor is undefined"
    else:
        skipped = None
    if skipped is None:
        cartan = _cartan_core(cs, pack, core_bracket, pcov)
    else:
        cartan = CheckReport("cartan", SKIPPED, CARTAN_IDENTITY, [], [skipped])
    invariance, SH = _charge_invariance(cs, pack, h_cov, potential, core_bracket)
    return BFVPackage(cs, pack, H, SH, cartan, invariance)


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
    _, window = window_columns(ctx, field, _balanced_words(r, 0), x_degree, p_degree)
    closed_dim = len(window) - rank(window)
    # gh -1 sources one degree above the window; a single bracket moves
    # any monomial degree by at most one, so deeper sources reach the
    # window only through cancellations this truncation ignores
    _, sources = window_columns(
        ctx, field, _balanced_words(r, -1), x_degree + 1, p_degree + 1
    )
    exact_dim = image_in(sources, in_window(n, x_degree, p_degree))

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
