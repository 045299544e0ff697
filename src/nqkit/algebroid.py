"""Anchored frames with structure functions and their odd derivation Q.

An `Algebroid` packages a polynomial anchor rho_a^i and antisymmetric
structure functions C^c_ab over a fixed base coordinate ring; the structure
functions are stored only as an index of the nonzero C^c_ab.  The module
provides the two defect tensors whose joint vanishing is the compatibility
axiom pair (anchor morphism and Jacobi), the odd derivation Q on ghost
variables, and a truncated degree-1 cohomology diagnostic.

The frame owns its context and Q: `Algebroid.ctx` is the extended
context of the frame, and `Algebroid.q` is the table of Q on it.  Forms
of the frame (E-forms) are functions on E[1]: a k-form is a `GradedPoly`
in `data.ctx`, homogeneous of degree k in the ghosts xi^a, and the frame
differential d_E is Q, applied with `left_derivation` to the images
`data.q`.  A base form pulls back along the anchor by substituting Q(x^i)
for dx^i.

Defect conventions, pinned for the whole engine:

    R1^i_ab  = rho_a^j d_j rho_b^i - rho_b^j d_j rho_a^i - C^c_ab rho_c^i
    R2^d_abc = sum over permutations s of (a,b,c), with sign:
               C^d_{e s(a)} C^e_{s(b)s(c)} - rho_{s(a)}^j d_j C^d_{s(b)s(c)}
             = 2 * sum over the cyclic shifts (a,b,c), (b,c,a), (c,a,b) of
               C^d_{ea} C^e_{bc} - rho_a^j d_j C^d_{bc}

The cyclic form holds because each summand is antisymmetric in its last two
slots, as C is; R2 is twice the Jacobiator of the frame bracket.  Both
tensors are sparse, keyed (a, b, i) and (a, b, c, d) with only the nonzero
entries stored, and read the stored index of the nonzero C^c_ab, so no
product with a zero structure function is formed.  Their one prediction is
D = R1^i_ab xi^a xi^b p_i + 1/2 R2^d_abc xi^a xi^b xi^c pi_d, the lift of
Q^2: the axiom check lifts Q applied twice, (S, S) is 2 (sigma + D) for the
structural 2-form sigma, and the first-class residuals are the xi^a xi^b
coefficients of sigma + D.  An `Algebroid` caches its context, Q, R1, R2
and D, each computed at most once per frame.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import combinations

from .graded import (
    GradedContext,
    GradedPoly,
    _lifted_terms,
    extended_context,
    ghost_name,
    hamiltonian_lift,
    in_window,
    left_derivation,
    letters,
    merge_words,
    momentum_name,
    window_columns,
)
from .linalg import image_in, kernel, read_back, solve
from .poly import (
    EvenPoly,
    Rat,
    Terms,
    accumulate_product,
    derivative,
    field_bits,
    support,
)
from .report import FAIL, PASS, CheckReport, family_residuals


class Algebroid:
    """Polynomial anchor and structure functions over a base coordinate ring.

    anchor[a][i] is the i-th component of the a-th frame field.  The
    structure functions are given as {(c, a, b): C^c_ab} over a < b, the
    problem file's sparse form with 0-based indices, and are stored only as
    the index `nonzero_structure`: {(a, b): [(c, C^c_ab), ...]} over both
    orders of a, b, with C^c_ba = -C^c_ab and the entries of each pair in
    ascending c.  Zero entries are dropped.  Treated as immutable.
    """

    def __init__(
        self,
        coords: tuple[str, ...],
        anchor: tuple[tuple[EvenPoly, ...], ...],
        structure: Mapping[tuple[int, int, int], EvenPoly],
    ):
        self.coords = coords
        self.anchor = anchor
        n, r = len(self.coords), len(self.anchor)
        for row in self.anchor:
            if len(row) != n:
                raise ValueError("anchor must be rank x base_dim")
            for entry in row:
                self._check_ring(entry)
        entries = []
        for (c, a, b), entry in structure.items():
            if not (0 <= c < r and 0 <= a < b < r):
                raise ValueError(
                    f"structure keys are (c, a, b) with c < rank and "
                    f"a < b < rank, found {(c, a, b)}"
                )
            self._check_ring(entry)
            if not entry.is_zero:
                entries.append((c, a, b, entry))
                entries.append((c, b, a, -entry))
        # in (c, a, b) order, so each pair's entries ascend in c whatever the
        # order of the keys given
        entries.sort(key=lambda item: item[:3])
        # the nonzero C^c_ab, read by the defect tensors, Q and the
        # constraint brackets; callers must not mutate it
        self.nonzero_structure: dict[tuple[int, int], list[tuple[int, EvenPoly]]] = {}
        for c, a, b, entry in entries:
            self.nonzero_structure.setdefault((a, b), []).append((c, entry))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebroid):
            return NotImplemented
        return (self.coords, self.anchor, self.nonzero_structure) == (
            other.coords,
            other.anchor,
            other.nonzero_structure,
        )

    __hash__ = None

    def _check_ring(self, entry: EvenPoly) -> None:
        if entry.coords != self.coords:
            raise ValueError("all components must live in the base coordinate ring")

    @property
    def base_dim(self) -> int:
        return len(self.coords)

    @property
    def rank(self) -> int:
        return len(self.anchor)

    def anchor_apply(self, a: int, f: EvenPoly) -> EvenPoly:
        """Directional derivative rho_a^i d_i f of f along the a-th frame field."""
        terms: Terms = {}
        self._add_derivative(terms, a, f.terms)
        return EvenPoly._summed(self.coords, terms)

    def _add_derivative(self, out: Terms, a: int, f: Terms, sign: int = 1) -> None:
        """Add sign * rho_a^i d_i f to the term dict `out`, cancelled terms kept,
        differentiating only in the coordinates that occur in f."""
        present, n = support(f), len(self.coords)
        for i, rho, mask in self._anchor_rows[a]:
            if present & mask:
                accumulate_product(out, rho, derivative(f, i, n), sign)

    @cached_property
    def _anchor_rows(self) -> list[list[tuple[int, Terms, int]]]:
        """Per frame field, (i, terms of rho_a^i, mask of x^i) over its nonzero
        anchor entries."""
        n = len(self.coords)
        return [
            [(i, f.terms, field_bits(n, i)[0]) for i, f in enumerate(row) if f.terms]
            for row in self.anchor
        ]

    def zero(self) -> EvenPoly:
        return EvenPoly.zero(self.coords)

    @cached_property
    def ctx(self) -> GradedContext:
        """The extended context of the frame, built on first use: its forms,
        Q and the defect lift live here, and so does the charge of an
        untwisted constraint set."""
        return extended_context(self.coords, self.rank)

    @cached_property
    def q(self) -> dict[str, GradedPoly]:
        """Q(x^i) = rho_a^i xi^a and Q(xi^c) = -1/2 C^c_ab xi^a xi^b on `ctx`.

        The only definition of Q: the axiom check squares it, the windows and
        the structural 2-form apply it, and the charge S of the ghost layer
        is its Hamiltonian lift, into a twisted phase space as it is: a twist
        changes the momentum bracket, not the term keys.  Built on first use;
        callers must not mutate it.
        """
        # C^c_ab and xi^a xi^b are both antisymmetric in (a, b), as C is
        # stored, so Q(xi^c) = -sum over a < b of C^c_ab xi^a xi^b, over the
        # nonzero entries only; each entry holds the terms of its own word
        ctx = self.ctx
        ghosts = [1 << ctx.odd_index[ghost_name(a + 1)] for a in range(self.rank)]
        images = {}
        for i, name in enumerate(self.coords):
            terms: Terms = {}
            for g, row in zip(ghosts, self.anchor):
                terms.update(_lifted_terms(ctx, row[i], word=g))
            images[name] = GradedPoly._trusted(ctx, terms)
        structure: list[Terms] = [{} for _ in range(self.rank)]
        for (a, b), entries in self.nonzero_structure.items():
            if a < b:
                word, sign = merge_words(ghosts[a], ghosts[b])
                for c, f in entries:
                    structure[c].update(_lifted_terms(ctx, f, scale=-sign, word=word))
        for c, terms in enumerate(structure):
            images[ghost_name(c + 1)] = GradedPoly._trusted(ctx, terms)
        return images

    @cached_property
    def anchor_defect(self) -> dict[tuple[int, int, int], EvenPoly]:
        """R1 of this frame, computed on first use; callers must not mutate it."""
        return anchor_defect(self)

    @cached_property
    def jacobi_defect(self) -> dict[tuple[int, int, int, int], EvenPoly]:
        """R2 of this frame, computed on first use; callers must not mutate it."""
        return jacobi_defect(self)

    @cached_property
    def defect_lift(self) -> GradedPoly:
        """D = R1^i_ab xi^a xi^b p_i + 1/2 R2^d_abc xi^a xi^b xi^c pi_d, a < b (< c).

        The lift of Q^2 to `ctx`, read off the index formulas alone; that
        context orders x, p and xi, pi, so words and exponents are direct.
        Computed on first use; callers must not mutate it.
        """
        ctx, r = self.ctx, self.rank
        terms: Terms = {}  # the word and the p_i of R1^i_ab tell its entries apart
        for (a, b, i), value in self.anchor_defect.items():
            p_i = momentum_name(self.coords[i])
            terms.update(_lifted_terms(ctx, value, p_i, word=1 << a | 1 << b))
        for (a, b, c, d), value in self.jacobi_defect.items():
            word = 1 << a | 1 << b | 1 << c | 1 << r + d
            terms.update(_lifted_terms(ctx, value, scale=Rat(1, 2), word=word))
        return GradedPoly._trusted(ctx, terms)


# defect tensors


def anchor_defect(data: Algebroid) -> dict[tuple[int, int, int], EvenPoly]:
    """R1 on frame pairs a < b, keyed (a, b, i); only nonzero entries are stored.

    An entry (a, b, i) can be nonzero only if x^i is in the anchor support
    of row a, of row b or of a row c with C^c_ab != 0, so i runs over the
    union of those supports, ascending.  Each entry is summed in one term
    dict and wrapped once.
    """
    anchor, nonzero = data.anchor, data.nonzero_structure
    # the support of each anchor row as a bitmask: bit i for x^i
    supports = [sum(1 << i for i, _, _ in row) for row in data._anchor_rows]
    out: dict[tuple[int, int, int], EvenPoly] = {}
    for a, b in combinations(range(data.rank), 2):
        entries = nonzero.get((a, b), ())
        reach = supports[a] | supports[b]
        for c, _ in entries:
            reach |= supports[c]
        for i in letters(reach):
            terms: Terms = {}
            data._add_derivative(terms, a, anchor[b][i].terms)
            data._add_derivative(terms, b, anchor[a][i].terms, -1)
            for c, f in entries:
                if anchor[c][i].terms:
                    accumulate_product(terms, f.terms, anchor[c][i].terms, -1)
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                out[(a, b, i)] = EvenPoly._trusted(data.coords, terms)
    return out


def jacobi_defect(data: Algebroid) -> dict[tuple[int, int, int, int], EvenPoly]:
    """R2 on frame triples a < b < c, for each target index d, via the cyclic sum.

    Only the nonzero entries are stored; a missing key is zero.  Each
    nonzero C^e_qs with q < s meets the nonzero C^d_ep, looked up by (e, p),
    and each nonzero C^d_qs is differentiated along the frame fields p.  For
    q < s, (p, q, s) is a cyclic shift of the sorted triple unless q < p < s,
    where (p, s, q) is one and the antisymmetry of C flips the sign.  As in
    `anchor_defect`, each entry is summed in one term dict and wrapped once.
    """
    nonzero, r = data.nonzero_structure, data.rank
    totals: dict[tuple[int, int, int, int], Terms] = {}
    for (q, s), entries in nonzero.items():
        if q > s:
            continue
        shifts = [(tuple(sorted((p, q, s))), -1 if q < p < s else 1) for p in range(r)]
        for e, inner in entries:
            for p, (triple, sign) in enumerate(shifts):
                if p != q and p != s:
                    for d, outer in nonzero.get((e, p), ()):
                        terms = totals.setdefault((*triple, d), {})
                        accumulate_product(terms, outer.terms, inner.terms, sign)
        for d, f in entries:
            if f.total_degree() == 0:
                continue  # constant: every frame derivative vanishes
            for p, (triple, sign) in enumerate(shifts):
                if p != q and p != s:
                    terms = totals.setdefault((*triple, d), {})
                    data._add_derivative(terms, p, f.terms, -sign)
    wrapped = {key: EvenPoly._summed(data.coords, t, 2) for key, t in totals.items()}
    return {key: value for key, value in wrapped.items() if value.terms}


# forms of the frame


def _affine_form(ctx: GradedContext, alpha: Sequence[EvenPoly]) -> GradedPoly:
    """alpha_a xi^a from checked components: each holds the terms of its letter."""
    terms = {}
    for c, f in enumerate(alpha):
        word = 1 << ctx.odd_index[ghost_name(c + 1)]
        terms.update(_lifted_terms(ctx, f, word=word))
    return GradedPoly._trusted(ctx, terms)


def check_axioms(data: Algebroid) -> CheckReport:
    """Joint anchor-morphism and Jacobi verification, with a dual-route guard.

    The defect tensors are computed from their index formulas, and their
    lift `defect_lift` is compared, in one equality, with the lift of Q
    applied twice to each coordinate.  A mismatch between the two routes is
    an engine bug and raises, never a data failure.
    """
    r1, r2 = data.anchor_defect, data.jacobi_defect
    residuals = family_residuals("anchor", r1, "abi")
    residuals += family_residuals("jacobi", r2, "abcd")

    ctx, images = data.ctx, data.q
    square = {name: left_derivation(ctx, images, f) for name, f in images.items()}
    if hamiltonian_lift(ctx, square) != data.defect_lift:
        raise RuntimeError("internal dual-route mismatch in Q^2")

    status = FAIL if residuals else PASS
    notes = [
        f"anchor defect entries nonzero: {len(r1)}",
        f"jacobi defect entries nonzero: {len(r2)}",
        "dual route: Q applied twice agrees with the defect tensors",
    ]
    return CheckReport("axioms", status, "Q^2 = 0", residuals, notes)


# truncated degree-1 cohomology


class CohomologyReport:
    def __init__(
        self,
        closed_dim: int,
        exact_dim: int,
        h_dim: int,
        closed_basis: list[tuple[EvenPoly, ...]],
        flags: dict[str, bool] | None = None,
    ):
        self.closed_dim = closed_dim
        self.exact_dim = exact_dim
        self.h_dim = h_dim
        self.closed_basis = closed_basis
        self.flags = {} if flags is None else flags


def cohomology_h1(data: Algebroid, trunc: int, slack: int = 2) -> CohomologyReport:
    """Truncated first cohomology of the frame differential.

    Closed forms are computed exactly within x-degree <= trunc, and each
    member of the closed basis is returned as its r components; the exact
    subspace is the image of functions of degree <= trunc + slack that lands
    entirely inside the window.  Both dimensions are exact rational ranks;
    the truncation caveat is flagged, along with whether the differential
    preserves the degree filtration (anchor of degree <= 1 and constant
    structure functions), in which case the window dimensions are stable.
    """
    if trunc < 0:
        raise ValueError("truncation degree must be nonnegative")
    ctx, images = data.ctx, data.q
    words = [1 << a for a in range(data.rank)]
    # one window per word: this unknown order fixes the closed basis
    windows = [window_columns(ctx, images, [word], trunc) for word in words]
    unknowns = [(word, e) for sources, _ in windows for word, e, _ in sources]
    columns = [column for _, window in windows for column in window]
    closed_basis = []
    for vector in kernel(columns):
        components = read_back(data.coords, unknowns, vector)
        closed_basis.append(tuple(components.get(w, data.zero()) for w in words))

    # exact part: the image of d0 on functions of degree <= trunc + slack
    # that lies entirely inside the window
    _, sources = window_columns(ctx, images, [0], trunc + slack)
    exact_dim = image_in(sources, in_window(data.base_dim, trunc))

    filtration = _max_coeff_degree(data) <= 0
    return CohomologyReport(
        closed_dim=len(closed_basis),
        exact_dim=exact_dim,
        h_dim=len(closed_basis) - exact_dim,
        closed_basis=closed_basis,
        flags={
            "truncated": True,
            "degree_filtration_preserved": filtration,
        },
    )


def _max_coeff_degree(data: Algebroid) -> int:
    """How much the differential can raise x-degree beyond the derivative loss."""
    anchor_deg = max(
        (entry.total_degree() for row in data.anchor for entry in row), default=0
    )
    structure_deg = max(
        (
            f.total_degree()
            for entries in data.nonzero_structure.values()
            for _, f in entries
        ),
        default=0,
    )
    return max(anchor_deg - 1, structure_deg, 0)


def is_exact_one_form(
    data: Algebroid, alpha: Sequence[EvenPoly], degree: int
) -> EvenPoly | None:
    """Solve Q f = alpha_a xi^a for a primitive f of x-degree <= degree.

    alpha is the r components alpha_a, checked against the frame, as
    `ConstraintSet` keeps them.  The 1-form alpha_a xi^a is built in
    `data.ctx`, whose term keys are the row keys of the columns,
    so its terms are the right-hand side as they are.  A form that Q does
    not close has no primitive at any degree: ValueError, before the solve.
    """
    ctx, images = data.ctx, data.q
    form = _affine_form(ctx, alpha)
    if not left_derivation(ctx, images, form).is_zero:
        raise ValueError("not closed: the frame differential of alpha is nonzero")
    sources, columns = window_columns(ctx, images, [0], degree)
    result = solve(columns, form.coeffs)
    if result is None:
        return None
    unknowns = [(word, e) for word, e, _ in sources]
    return read_back(data.coords, unknowns, result[0]).get(0, data.zero())
