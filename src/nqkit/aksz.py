"""Super-time charge and the component form of the one-dimensional action.

The charge S and the covariant Hamiltonian H combine into one odd
generator Q = S + theta H on the phase space extended by a single odd
super-time direction theta of ghost degree +1.  Theta has no bracket
partner, so it rides through the bracket as a spectator and the self
bracket splits exactly as

    (Q, Q) = (S, S) - 2 theta (S, H).

Nilpotency of Q therefore certifies the master equation and charge
invariance in one stroke.

The component expansion sends every phase-space coordinate z to a
superfield z(t) + theta z~(t), where the partner z~ has ghost degree
gh(z) - 1 and opposite parity, and reads off the theta coefficient of

    P_i d X^i - Pi_a d Xi^a - Q(superfields),     d F = (dF/dt) theta.

The shift theta z~ has the parity of z, so D: z -> theta z~ is an even
derivation, and since theta^2 = 0 the Taylor expansion of a function F
on superfields stops after one step: F(z + theta z~) = F + D(F).  The
expansion is therefore one `left_derivation`, never a substitution.

Multiplying theta from the right in d fixes the antighost kinetic sign:
the integrand starts with p_i x_i_dot - pi_a xi_a_dot and its ghost-free
sector is p_i x_i_dot - H(x, p) - lam^a Phi_a, with the multiplier lam^a
appearing as the theta partner of the ghost xi_a.  Time derivatives are
formal first-order markers (x_dot, xi_dot); the ring has no higher jets.

Both stages read the BFV package (S, H) alone.  `build_supercharge` is
the one place Q is written; `check_supercharge` and `expand_bv` call it.
`expand_bv` returns the action only after the classical-limit guard: the
field table passes the bookkeeping, and the ghost-free sector equals
`extended_action_reference`, which is built from the constraints and the
Hamiltonian and never from S.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .bfv import BFVPackage
from .dynamics import build_hamiltonian
from .graded import (
    GradedContext,
    GradedPoly,
    antighost_name,
    ghost_name,
    left_derivation,
    letters,
    momentum_name,
    transport,
    word_residuals,
)
from .poly import EvenPoly, field_bits, lex_bits, monomial_factors, unpack
from .report import FAIL, PASS, CheckReport

THETA = "theta"

SUPERCHARGE_IDENTITY = "(Q, Q) = 0"
BOOKKEEPING_IDENTITY = "every component term has ghost number 0 and even parity"


def velocity_name(name: str) -> str:
    return f"{name}_dot"


def partner_name(name: str) -> str:
    return f"{name}_odd"


def multiplier_name(a: int) -> str:
    """1-based multiplier name; the theta partner of the matching ghost."""
    return f"lam_{a}"


# the theta-extended bracket context and the charge on it


def supercharge_context(ctx: GradedContext) -> GradedContext:
    """The given bracket context extended by the odd super-time direction."""
    if THETA in ctx.even_index or THETA in ctx.odd_index:
        raise ValueError("the context already carries a super-time direction")
    return GradedContext(
        even=tuple(zip(ctx.even_names, ctx.even_ghost)),
        odd=tuple(zip(ctx.odd_names, ctx.odd_ghost)) + ((THETA, 1),),
        pairs_even=ctx.pairs_even,
        pairs_odd=ctx.pairs_odd,
        twist=ctx.twist,
    )


def build_supercharge(package: BFVPackage) -> GradedPoly:
    """Q = S + theta H, odd of ghost degree +1 since S and theta H are."""
    ctx = supercharge_context(package.ctx)
    theta = ctx.var(THETA)
    return transport(package.S, ctx) + theta * transport(package.H, ctx)


def check_supercharge(package: BFVPackage) -> CheckReport:
    """Nilpotency of the super-time charge.

    The self bracket is computed directly and, as an internal guard,
    matched against (S, S) - 2 theta (S, H), read off the constraints and
    the package that bracketed them; the verdict must also agree with the
    package's master and invariance reports.
    """
    Q = build_supercharge(package)
    ctx = Q.ctx
    QQ = ctx.poisson(Q, Q)
    SS, SH = package.constraints.self_bracket, package.SH
    theta = ctx.var(THETA)
    split = transport(SS, ctx) - 2 * theta * transport(SH, ctx)
    if QQ != split:
        raise RuntimeError("internal theta-split mismatch in the self-bracket")
    master = package.report("master")
    invariance = package.report("charge_invariance")
    agreed = master.status == PASS and invariance.status == PASS
    if QQ.is_zero != agreed:
        raise RuntimeError(
            "internal mismatch between the supercharge bracket and the "
            "package reports"
        )
    residuals = word_residuals("qq", QQ)
    return CheckReport(
        "supercharge",
        PASS if QQ.is_zero else FAIL,
        SUPERCHARGE_IDENTITY,
        residuals,
        [
            "theta split: (Q, Q) = (S, S) - 2 theta (S, H)",
            f"package verdicts: master {master.status}, "
            f"charge_invariance {invariance.status}",
        ],
    )


# component fields


class FieldEntry:
    """One component field: name, ghost degree, parity, partner flag."""

    def __init__(self, name: str, ghost: int, parity: int, is_partner: bool):
        self.name = name
        self.ghost = ghost
        self.parity = parity
        self.is_partner = is_partner


def expansion_context(coords: Sequence[str], rank: int) -> GradedContext:
    """The component-field ring: no bracket pairs, one velocity marker for
    each position and each ghost, one theta partner for every phase-space
    coordinate, and theta itself for the expansion step."""
    even = [(name, 0) for name in coords]
    even += [(velocity_name(name), 0) for name in coords]
    even += [(momentum_name(name), 0) for name in coords]
    even += [(multiplier_name(a), 0) for a in range(1, rank + 1)]
    even += [(partner_name(antighost_name(a)), -2) for a in range(1, rank + 1)]
    odd = [(partner_name(name), -1) for name in coords]
    odd += [(partner_name(momentum_name(name)), -1) for name in coords]
    odd += [(ghost_name(a), 1) for a in range(1, rank + 1)]
    odd += [(velocity_name(ghost_name(a)), 1) for a in range(1, rank + 1)]
    odd += [(antighost_name(a), -1) for a in range(1, rank + 1)]
    odd.append((THETA, 1))
    return GradedContext(even=even, odd=odd)


def _partner_pairs(coords: Sequence[str], rank: int) -> list[tuple[str, str]]:
    pairs = [(name, partner_name(name)) for name in coords]
    pairs += [
        (momentum_name(name), partner_name(momentum_name(name)))
        for name in coords
    ]
    pairs += [(ghost_name(a), multiplier_name(a)) for a in range(1, rank + 1)]
    pairs += [
        (antighost_name(a), partner_name(antighost_name(a)))
        for a in range(1, rank + 1)
    ]
    return pairs


def field_table(coords: Sequence[str], rank: int) -> tuple[FieldEntry, ...]:
    """Every component field of the expansion ring, theta excluded."""
    ctx = expansion_context(coords, rank)
    partners = {partner for _, partner in _partner_pairs(coords, rank)}
    entries = []
    for names, parity in ((ctx.even_names, 0), (ctx.odd_names, 1)):
        for name in names:
            if name == THETA:
                continue
            entries.append(
                FieldEntry(name, ctx.ghost_of(name), parity, name in partners)
            )
    return tuple(entries)


def _partner_base(name: str) -> str | None:
    """The field whose theta partner this is, by the naming contract."""
    if name.endswith("_odd"):
        return name[: -len("_odd")]
    if name.startswith("lam_"):
        return "xi_" + name[len("lam_") :]
    return None


class ComponentAction:
    """First-order component integrand with its field dictionary."""

    def __init__(self, fields: tuple[FieldEntry, ...], action: GradedPoly):
        self.fields = fields
        self.action = action

    @property
    def context(self) -> GradedContext:
        return self.action.ctx


def term_rows(F: GradedPoly) -> list[dict]:
    """One record per term of F, sorted by word length, word, exponent.

    Words sort by letter count, then letters; the terms of a word by their
    key with the degree field masked off, which orders exponent tuples
    lexicographically.
    """
    ctx = F.ctx
    even_names, n = ctx.even_names, len(ctx.even_names)
    low = lex_bits(n)
    out = []
    for word in sorted(F.parts, key=_word_order):
        odd = [ctx.odd_names[a] for a in letters(word)]
        terms = F.parts[word].terms
        for key in sorted(terms, key=low.__and__):
            exponent = unpack(key, n)
            out.append(
                {
                    "coeff": str(terms[key]),
                    "even": dict(compress(zip(even_names, exponent), exponent)),
                    "odd": odd.copy(),
                }
            )
    return out


def _word_order(word: int) -> tuple[int, tuple[int, ...]]:
    """The order of `terms()` words: letter count, then ascending letters."""
    return word.bit_count(), letters(word)


def expand_bv(package: BFVPackage) -> ComponentAction:
    """Theta coefficient of P dX - Pi dXi - Q on superfields.

    The integrand F = p x_dot theta - pi xi_dot theta - Q is a function of
    the fields z, so on superfields it is F + D(F), one sweep of the
    derivation D: z -> theta z~ (see the module docstring).  The action is
    returned only after the classical-limit guard has passed.
    """
    if package.ctx.twist is not None:
        raise ValueError(
            "the component expansion needs an exact symplectic potential; "
            "absorb the magnetic term first"
        )
    coords, rank = package.data.coords, package.data.rank
    ectx = expansion_context(coords, rank)
    theta = ectx.var(THETA)
    integrand = -transport(build_supercharge(package), ectx)
    for name in coords:
        d_position = ectx.var(velocity_name(name)) * theta
        integrand = integrand + ectx.var(momentum_name(name)) * d_position
    for a in range(1, rank + 1):
        d_ghost = ectx.var(velocity_name(ghost_name(a))) * theta
        integrand = integrand - ectx.var(antighost_name(a)) * d_ghost
    shifts = {
        base: theta * ectx.var(partner)
        for base, partner in _partner_pairs(coords, rank)
    }
    integrand = integrand + left_derivation(ectx, shifts, integrand)
    action = ComponentAction(field_table(coords, rank), integrand.left_deriv(THETA))
    _guard_classical_limit(package, action)
    return action


def ghost_zero_truncation(ca: ComponentAction) -> GradedPoly:
    """The action with every field of nonzero ghost number set to zero."""
    ctx = ca.context
    n = len(ctx.even_names)
    ghosted = sum(field_bits(n, k)[0] for k, gh in enumerate(ctx.even_ghost) if gh)
    terms = ca.action.parts[0].terms if 0 in ca.action.parts else {}
    kept = {key: c for key, c in terms.items() if not key & ghosted}
    return GradedPoly(ctx, {0: EvenPoly(ctx.even_names, kept)})


def extended_action_reference(package: BFVPackage) -> GradedPoly:
    """p x_dot minus H minus lam Phi, assembled from the base fields only.

    This route never sees superfields or S: the constraints Phi_a are the
    package's, as the constraint builder made them, and the Hamiltonian
    comes from the evolution side, so the ghost-free sector of the
    expansion has an independent source.
    """
    constraints, pack = package.constraints, package.pack
    data = constraints.data
    ectx = expansion_context(data.coords, data.rank)
    total = ectx.zero()
    for name in data.coords:
        total = total + ectx.var(momentum_name(name)) * ectx.var(
            velocity_name(name)
        )
    if pack.g_inv is not None:
        total = total - transport(build_hamiltonian(pack, constraints.ctx), ectx)
    else:
        total = total - ectx.lift(pack.potential)
    for a, phi in enumerate(constraints.phis, start=1):
        total = total - ectx.var(multiplier_name(a)) * transport(phi, ectx)
    return total


def check_bookkeeping(ca: ComponentAction) -> CheckReport:
    """Re-count every grading from the field dictionary, not from the ring.

    The table is the serialized contract, so each term's ghost number and
    parity are recomputed from the table entries alone; a corrupted table
    or a mis-assembled action both surface as residuals.
    """
    ctx = ca.context
    residuals: list[tuple[str, str]] = []
    table: dict[str, FieldEntry] = {}
    for entry in ca.fields:
        if entry.name in table:
            residuals.append((f"field[{entry.name}]", "listed twice"))
        table[entry.name] = entry

    for name in ctx.even_names + ctx.odd_names:
        if name == THETA:
            continue
        if name not in table:
            residuals.append((f"field[{name}]", "missing from the table"))
            continue
        entry = table[name]
        ring_parity = ctx.parity_of(name)
        if entry.ghost != ctx.ghost_of(name) or entry.parity != ring_parity:
            residuals.append(
                (
                    f"field[{name}]",
                    f"table says ghost {entry.ghost} parity {entry.parity}, "
                    f"ring says ghost {ctx.ghost_of(name)} parity {ring_parity}",
                )
            )
    for name in table:
        if name == THETA or name in ctx.even_index or name in ctx.odd_index:
            if name == THETA:
                residuals.append((f"field[{name}]", "not a component field"))
            continue
        residuals.append((f"field[{name}]", "unknown to the ring"))

    # theta partners must sit one ghost degree below with flipped parity
    for entry in ca.fields:
        base = _partner_base(entry.name)
        if entry.is_partner:
            if base is None or base not in table:
                residuals.append(
                    (f"field[{entry.name}]", "partner without a base field")
                )
                continue
            source = table[base]
            if (
                entry.ghost != source.ghost - 1
                or entry.parity != 1 - source.parity
            ):
                residuals.append(
                    (
                        f"field[{entry.name}]",
                        f"partner of {base}: expected ghost "
                        f"{source.ghost - 1} and parity {1 - source.parity}, "
                        f"table says ghost {entry.ghost} parity {entry.parity}",
                    )
                )
        elif base is not None and base in table:
            residuals.append(
                (f"field[{entry.name}]", "named like a partner but not flagged")
            )

    # each term's grading from table entries: per word its letters, per
    # term the even fields, read off the key through the field masks
    n = len(ctx.even_names)
    missing = graded_mask = 0
    graded = []
    for k, name in enumerate(ctx.even_names):
        mask, shift, _ = field_bits(n, k)
        entry = table.get(name)
        if entry is None:
            missing |= mask
        elif entry.ghost or entry.parity:
            graded_mask |= mask
            graded.append((mask, shift, entry.ghost, entry.parity))
    found = []
    for word, f in ca.action.parts.items():
        odd = [ctx.odd_names[a] for a in letters(word)]
        if THETA in odd:
            detail = "super-time survives the expansion"
            found += [(word, key, detail) for key in f.terms]
            continue
        if any(name not in table for name in odd):
            continue  # already reported as missing
        word_ghost = sum(table[name].ghost for name in odd)
        word_parity = sum(table[name].parity for name in odd)
        for key in f.terms:
            if key & missing:
                continue  # already reported as missing
            ghost, parity = word_ghost, word_parity
            if key & graded_mask:
                for mask, shift, field_ghost, field_parity in graded:
                    k = (key & mask) >> shift
                    ghost += k * field_ghost
                    parity += k * field_parity
            if ghost:
                found.append((word, key, f"ghost number {ghost}"))
            if parity % 2:
                found.append((word, key, "odd parity"))
    low = lex_bits(n)
    found.sort(key=lambda item: (*_word_order(item[0]), item[1] & low))
    for word, key, detail in found:
        factors = monomial_factors(ctx.even_names, unpack(key, n)) + [
            ctx.odd_names[a] for a in letters(word)
        ]
        residuals.append((f"term[{' '.join(factors) if factors else '1'}]", detail))

    return CheckReport(
        "bookkeeping",
        FAIL if residuals else PASS,
        BOOKKEEPING_IDENTITY,
        residuals,
        [
            "the theta partner of each ghost is its multiplier (lam series)",
            "derivative markers are first order; the ring has no higher jets",
        ],
    )


def _guard_classical_limit(package: BFVPackage, action: ComponentAction) -> None:
    """The BV action must come out of BFV by the AKSZ expansion.

    Its field table must pass the bookkeeping, and its ghost-zero part must
    equal p_i x_dot^i - H - lam^a Phi_a assembled from the package's
    constraints and the evolution side, never from S.
    """
    bookkeeping = check_bookkeeping(action)
    if bookkeeping.status != PASS:
        label, detail = bookkeeping.residuals[0]
        raise RuntimeError(
            f"internal bookkeeping mismatch in the component action: {label} {detail}"
        )
    reference = extended_action_reference(package)
    if ghost_zero_truncation(action) != reference:
        raise RuntimeError(
            "internal dual-route mismatch in the classical limit of the action"
        )
