"""Super-time charge and the component form of the one-dimensional action.

The charge S and the covariant Hamiltonian H combine into one odd
generator Q = S + theta H on their one phase space, whose last odd letter
is the super-time direction theta of ghost degree +1.  Theta has no
bracket partner, so it rides through the bracket as a spectator and the
self bracket splits exactly as

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

One table, `component_fields`, lists the component fields in ring order,
each with its ghost degree, its parity and the coordinate it is the theta
partner of; the ring, the field table and the shifts of D all read it.

Multiplying theta from the right in d fixes the antighost kinetic sign:
the integrand starts with p_i x_i_dot - pi_a xi_a_dot and its ghost-free
sector is p_i x_i_dot - H(x, p) - lam^a Phi_a, with the multiplier lam^a
appearing as the theta partner of the ghost xi_a.  Time derivatives are
formal first-order markers (x_dot, xi_dot); the ring has no higher jets.

Both stages read the BFV package (S, H) alone.  The package writes Q,
`BFVPackage.Q`, once per package; `check_supercharge` reads it on the
phase space, and `expand_bv` transports it into the component ring.
`expand_bv` returns the action only after the classical-limit guard: the
field table passes the bookkeeping, and the ghost-free sector equals
`extended_action_reference`, which is built from the constraints and the
Hamiltonian and never from S.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .bfv import BFVPackage
from .dynamics import build_hamiltonian
from .graded import (
    THETA,
    GradedContext,
    GradedPoly,
    _lifted_terms,
    antighost_name,
    ghost_name,
    left_derivation,
    letters,
    momentum_name,
    transport,
    word_order,
    word_residuals,
)
from .poly import WIDTH, field_bits, lex_bits, monomial_factors, nonzero_fields, unpack
from .report import FAIL, PASS, CheckReport

SUPERCHARGE_IDENTITY = "(Q, Q) = 0"
BOOKKEEPING_IDENTITY = "every component term has ghost number 0 and even parity"


def velocity_name(name: str) -> str:
    return f"{name}_dot"


def partner_name(name: str) -> str:
    return f"{name}_odd"


def multiplier_name(a: int) -> str:
    """1-based multiplier name; the theta partner of the matching ghost."""
    return f"lam_{a}"


# the super-time charge


def check_supercharge(package: BFVPackage) -> CheckReport:
    """Nilpotency of the super-time charge.

    The self bracket is computed directly, from the images of (Q, .) alone
    (`GradedContext.self_bracket`), and, as an internal guard, matched
    against (S, S) - 2 theta (S, H), read off the constraints and the
    package that bracketed them; the verdict must also agree with the
    master report of the constraints and the package's invariance report.
    """
    cs = package.constraints
    QQ = cs.ctx.self_bracket(package.Q)
    split = cs.self_bracket - 2 * cs.ctx.var(THETA) * package.SH
    if QQ != split:
        raise RuntimeError("internal theta-split mismatch in the self-bracket")
    master, invariance = cs.master, package.charge_invariance
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


@cache
def component_fields(
    coords: tuple[str, ...], rank: int
) -> tuple[tuple[str, int, int, str | None], ...]:
    """Every component field in ring order, one row (name, ghost, parity, base).

    `base` is the phase-space coordinate the field is the theta partner of,
    one ghost degree below it and of the opposite parity, or None.  The
    order is the ring's, and term keys and the emitted fields follow it.
    Even: positions, their velocity markers, momenta, the multipliers lam_a
    (partners of the ghosts), the antighost partners.  Odd: position
    partners, momentum partners, ghosts, ghost velocity markers,
    antighosts.  Theta, the last odd letter of the ring, is no component
    field.  A new component field is one row.
    """
    ghosts, momenta = range(1, rank + 1), [momentum_name(x) for x in coords]
    rows = [(x, 0, 0, None) for x in coords]
    rows += [(velocity_name(x), 0, 0, None) for x in coords]
    rows += [(p, 0, 0, None) for p in momenta]
    rows += [(multiplier_name(a), 0, 0, ghost_name(a)) for a in ghosts]
    rows += [(partner_name(pi), -2, 0, pi) for pi in map(antighost_name, ghosts)]
    rows += [(partner_name(z), -1, 1, z) for z in (*coords, *momenta)]
    rows += [(ghost_name(a), 1, 1, None) for a in ghosts]
    rows += [(velocity_name(ghost_name(a)), 1, 1, None) for a in ghosts]
    rows += [(antighost_name(a), -1, 1, None) for a in ghosts]
    return tuple(rows)


@cache
def expansion_context(coords: tuple[str, ...], rank: int) -> GradedContext:
    """The component-field ring: the fields of `component_fields` in their
    order, no bracket pairs, and theta last for the expansion step."""
    rows = component_fields(coords, rank)
    even = [(name, ghost) for name, ghost, parity, _ in rows if not parity]
    odd = [(name, ghost) for name, ghost, parity, _ in rows if parity]
    return GradedContext(even=even, odd=[*odd, (THETA, 1)])


def field_table(coords: Sequence[str], rank: int) -> tuple[FieldEntry, ...]:
    """Every component field of the expansion ring, theta excluded."""
    return tuple(
        FieldEntry(name, ghost, parity, base is not None)
        for name, ghost, parity, base in component_fields(coords, rank)
    )


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
    n = len(ctx.even_names)
    low = lex_bits(n)
    named = {WIDTH * (n - 1 - k): name for k, name in enumerate(ctx.even_names)}
    out = []
    parts = F.by_word()
    for word in sorted(parts, key=word_order):
        odd = [ctx.odd_names[a] for a in letters(word)]
        terms = parts[word].terms
        for key in sorted(terms, key=low.__and__):
            out.append(
                {
                    "coeff": str(terms[key]),
                    "even": {named[at]: k for at, k in nonzero_fields(key & low)},
                    "odd": odd.copy(),
                }
            )
    return out


def expand_bv(package: BFVPackage) -> ComponentAction:
    """Theta coefficient of P dX - Pi dXi - Q on superfields.

    The integrand F = p x_dot theta - pi xi_dot theta - Q is a function of
    the fields z, so on superfields it is F + D(F), one sweep of the
    derivation D: z -> theta z~ (see the module docstring).  The action is
    returned only after the classical-limit guard has passed.
    """
    cs = package.constraints
    if cs.ctx.twist is not None:
        raise ValueError(
            "the component expansion needs an exact symplectic potential; "
            "absorb the magnetic term first"
        )
    coords, rank = cs.data.coords, cs.data.rank
    ectx, ghosts = expansion_context(coords, rank), range(1, rank + 1)
    theta = ectx.var(THETA)
    Q = transport(package.Q, ectx)
    terms = {key: -c for key, c in Q.coeffs.items()}
    # + p_i x_dot^i theta - pi_a xi_dot^a theta: no velocity occurs in Q, so
    # each of these terms is new to the terms of -Q
    kinetic = [(momentum_name(x), velocity_name(x), 1) for x in coords]
    kinetic += [(antighost_name(a), velocity_name(ghost_name(a)), -1) for a in ghosts]
    for z, z_dot, sign in kinetic:
        terms.update((ectx.var(z) * ectx.var(z_dot) * theta * sign).coeffs)
    integrand = GradedPoly._trusted(ectx, terms)
    shifts = {
        base: theta * ectx.var(name)
        for name, _, _, base in component_fields(coords, rank)
        if base is not None
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
    ghosted |= -1 << ctx.word_shift  # every odd letter carries a ghost number
    kept = {key: c for key, c in ca.action.coeffs.items() if not key & ghosted}
    return GradedPoly._trusted(ctx, kept)


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
    if pack.g_inv is not None:
        H = build_hamiltonian(pack, constraints.ctx).even_part()
    else:
        H = pack.potential
    # H and the Phi_a are functions of x and p: the terms of -H hold no
    # velocity and no multiplier, each p_i x_dot^i is one velocity's, and
    # each -lam^a Phi_a holds lam^a alone, so they fill one bucket unsummed
    terms = _lifted_terms(ectx, H, scale=-1)
    for name in data.coords:
        p_dx = (momentum_name(name), velocity_name(name))
        terms.update(_lifted_terms(ectx, None, *p_dx))
    for a, phi in enumerate(constraints.phis, start=1):
        terms.update(_lifted_terms(ectx, phi.even_part(), multiplier_name(a), scale=-1))
    return GradedPoly._trusted(ectx, terms)


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
    for word, f in ca.action.by_word().items():
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
    found.sort(key=lambda item: (*word_order(item[0]), item[1] & low))
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
