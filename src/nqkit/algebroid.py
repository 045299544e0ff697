"""Anchored frames with structure functions and their odd derivation Q.

An `Algebroid` packages a polynomial anchor rho_a^i and antisymmetric
structure functions C^c_ab over a fixed base coordinate ring.  The module
provides the two defect tensors whose joint vanishing is the compatibility
axiom pair (anchor morphism and Jacobi), the odd derivation Q on ghost
variables, and a truncated degree-1 cohomology diagnostic.

Forms of the frame (E-forms) are functions on E[1]: a k-form is a
`GradedPoly` in `ghost_context`, homogeneous of degree k in the ghosts
xi^a, and the frame differential d_E is Q, applied with `left_derivation`
to the images `q_images`.  A base form pulls back along the anchor by
substituting Q(x^i) for dx^i.

Defect conventions, pinned for the whole engine:

    R1^i_ab  = rho_a^j d_j rho_b^i - rho_b^j d_j rho_a^i - C^c_ab rho_c^i
    R2^d_abc = sum over permutations s of (a,b,c), with sign:
               C^d_{e s(a)} C^e_{s(b)s(c)} - rho_{s(a)}^j d_j C^d_{s(b)s(c)}
             = 2 * sum over the cyclic shifts (a,b,c), (b,c,a), (c,a,b) of
               C^d_{ea} C^e_{bc} - rho_a^j d_j C^d_{bc}

The cyclic form holds because each summand is antisymmetric in its last two
slots, as C is.  R2 is twice the Jacobiator of the frame bracket, normalized
so that it equals the canonical xi^a xi^b xi^c pi_d coefficient of the
squared charge built in the ghost layer (a dual-route identity asserted on
every run).  Both tensors are computed at most once per frame: an
`Algebroid` caches them as `anchor_defect` and `jacobi_defect`.  The Jacobi
defect is sparse: it stores only its nonzero entries, and a missing key is
zero.  Both are built from an index of the nonzero C^c_ab, so no product
with a zero structure function is ever formed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .graded import (
    GradedContext,
    GradedPoly,
    extended_context,
    field_column,
    ghost_name,
    left_derivation,
)
from .linalg import image_in, kernel, solve
from .poly import EvenPoly, Exponent, Rat, divide, monomial_exponents
from .report import FAIL, PASS, CheckReport


class Algebroid:
    """Polynomial anchor and structure functions over a base coordinate ring.

    anchor[a][i] is the i-th component of the a-th frame field; structure
    [c][a][b] is C^c_ab, antisymmetric in (a, b).  Treated as immutable.
    """

    def __init__(
        self,
        coords: tuple[str, ...],
        anchor: tuple[tuple[EvenPoly, ...], ...],
        structure: tuple[tuple[tuple[EvenPoly, ...], ...], ...],
    ):
        self.coords = coords
        self.anchor = anchor
        self.structure = structure
        n, r = len(self.coords), len(self.anchor)
        for row in self.anchor:
            if len(row) != n:
                raise ValueError("anchor must be rank x base_dim")
            for entry in row:
                self._check_ring(entry)
        if len(self.structure) != r:
            raise ValueError("structure must be rank x rank x rank")
        for plane in self.structure:
            if len(plane) != r or any(len(row) != r for row in plane):
                raise ValueError("structure must be rank x rank x rank")
            for row in plane:
                for entry in row:
                    self._check_ring(entry)
        for c in range(r):
            for a in range(r):
                for b in range(r):
                    if not (self.structure[c][a][b] + self.structure[c][b][a]).is_zero:
                        raise ValueError(
                            f"structure functions must be antisymmetric, "
                            f"violated at c={c + 1}, a={a + 1}, b={b + 1}"
                        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebroid):
            return NotImplemented
        return (self.coords, self.anchor, self.structure) == (
            other.coords,
            other.anchor,
            other.structure,
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
        """Directional derivative of f along the a-th frame field."""
        result = EvenPoly.zero(self.coords)
        for i, name in enumerate(self.coords):
            if not self.anchor[a][i].is_zero:
                result = result + self.anchor[a][i] * f.diff(name)
        return result

    def zero(self) -> EvenPoly:
        return EvenPoly.zero(self.coords)

    @cached_property
    def anchor_defect(self) -> dict[tuple[int, int], list[EvenPoly]]:
        """R1 of this frame, computed on first use; callers must not mutate it."""
        return anchor_defect(self)

    @cached_property
    def jacobi_defect(self) -> dict[tuple[int, int, int, int], EvenPoly]:
        """R2 of this frame, computed on first use; callers must not mutate it."""
        return jacobi_defect(self)


def algebroid_from_lists(
    coords: tuple[str, ...] | list[str],
    anchor: list[list[EvenPoly]],
    structure: list[list[list[EvenPoly]]],
) -> Algebroid:
    return Algebroid(
        tuple(coords),
        tuple(tuple(row) for row in anchor),
        tuple(tuple(tuple(row) for row in plane) for plane in structure),
    )


# defect tensors


def _nonzero_structure(
    data: Algebroid,
) -> dict[tuple[int, int], list[tuple[int, EvenPoly]]]:
    """The nonzero C^c_ab as {(a, b): [(c, C^c_ab), ...]}, over both orders of a, b."""
    out: dict[tuple[int, int], list[tuple[int, EvenPoly]]] = {}
    for c, plane in enumerate(data.structure):
        for a, row in enumerate(plane):
            for b, value in enumerate(row):
                if not value.is_zero:
                    out.setdefault((a, b), []).append((c, value))
    return out


def anchor_defect(data: Algebroid) -> dict[tuple[int, int], list[EvenPoly]]:
    """R1 on frame pairs a < b, as a base-indexed component vector."""
    nonzero = _nonzero_structure(data)
    out: dict[tuple[int, int], list[EvenPoly]] = {}
    for a, b in combinations(range(data.rank), 2):
        vector = []
        for i in range(data.base_dim):
            value = data.zero()
            if not data.anchor[b][i].is_zero:
                value = data.anchor_apply(a, data.anchor[b][i])
            if not data.anchor[a][i].is_zero:
                value = value - data.anchor_apply(b, data.anchor[a][i])
            for c, f in nonzero.get((a, b), ()):
                if not data.anchor[c][i].is_zero:
                    value = value - f * data.anchor[c][i]
            vector.append(value)
        out[(a, b)] = vector
    return out


def jacobi_defect(data: Algebroid) -> dict[tuple[int, int, int, int], EvenPoly]:
    """R2 on frame triples a < b < c, for each target index d, via the cyclic sum.

    Only the nonzero entries are stored; a missing key is zero.  Each
    nonzero C^e_qs with q < s meets the nonzero C^d_ep, looked up by (e, p),
    and each nonzero C^d_qs is differentiated along the frame fields p.  For
    q < s, (p, q, s) is a cyclic shift of the sorted triple unless q < p < s,
    where (p, s, q) is one and the antisymmetry of C flips the sign.
    """
    r = data.rank
    nonzero = _nonzero_structure(data)
    totals: dict[tuple[int, int, int, int], EvenPoly] = {}

    def add(p: int, q: int, s: int, d: int, value: EvenPoly) -> None:
        key = (*sorted((p, q, s)), d)
        if q < p < s:
            value = -value
        totals[key] = totals[key] + value if key in totals else value

    for (q, s), entries in nonzero.items():
        if q > s:
            continue
        for e, inner in entries:
            for p in range(r):
                if p != q and p != s:
                    for d, outer in nonzero.get((e, p), ()):
                        add(p, q, s, d, outer * inner)
        for d, f in entries:
            if f.total_degree() == 0:
                continue  # constant: every frame derivative vanishes
            for p in range(r):
                if p != q and p != s:
                    derivative = data.anchor_apply(p, f)
                    if not derivative.is_zero:
                        add(p, q, s, d, -derivative)
    return {key: value * 2 for key, value in totals.items() if not value.is_zero}


# the odd derivation Q on (x, xi)


def ghost_context(data: Algebroid) -> GradedContext:
    return extended_context(data.coords, data.rank)


def q_images(data: Algebroid, ctx: GradedContext) -> dict[str, GradedPoly]:
    """Q(x^i) = rho_a^i xi^a and Q(xi^c) = -1/2 C^c_ab xi^a xi^b.

    The only definition of Q: the axiom check squares it, and the charge S
    of the ghost layer is its Hamiltonian lift.  Since C^c_ab and xi^a xi^b
    are both antisymmetric in (a, b), which `Algebroid` enforces,
    Q(xi^c) = -sum over a < b of C^c_ab xi^a xi^b.  Zero entries are skipped.
    """
    ghosts = [ctx.var(ghost_name(a + 1)) for a in range(data.rank)]
    images: dict[str, GradedPoly] = {}
    for i, name in enumerate(data.coords):
        value = ctx.zero()
        for a in range(data.rank):
            if not data.anchor[a][i].is_zero:
                value = value + ctx.lift(data.anchor[a][i]) * ghosts[a]
        images[name] = value
    for c in range(data.rank):
        value = ctx.zero()
        for a, b in combinations(range(data.rank), 2):
            if not data.structure[c][a][b].is_zero:
                value = value - ctx.lift(data.structure[c][a][b]) * (
                    ghosts[a] * ghosts[b]
                )
        images[ghost_name(c + 1)] = value
    return images


def check_axioms(data: Algebroid) -> CheckReport:
    """Joint anchor-morphism and Jacobi verification, with a dual-route guard.

    The defect tensors are computed from their index formulas and compared,
    coefficient for coefficient, against Q applied twice to each coordinate.
    A mismatch between the two routes is an engine bug and raises, never a
    data failure.
    """
    r1 = data.anchor_defect
    r2 = data.jacobi_defect
    residuals: list[tuple[str, str]] = []
    for (a, b), vector in sorted(r1.items()):
        for i, value in enumerate(vector):
            if not value.is_zero:
                residuals.append(
                    (f"anchor[a={a + 1},b={b + 1},i={i + 1}]", str(value))
                )
    for (a, b, c, d), value in sorted(r2.items()):
        residuals.append(
            (f"jacobi[a={a + 1},b={b + 1},c={c + 1},d={d + 1}]", str(value))
        )

    ctx = ghost_context(data)
    images = q_images(data, ctx)
    _assert_q_square_matches(data, ctx, images, r1, r2)

    status = FAIL if residuals else PASS
    notes = [
        f"anchor defect entries nonzero: "
        f"{sum(1 for key, _ in residuals if key.startswith('anchor'))}",
        f"jacobi defect entries nonzero: "
        f"{sum(1 for key, _ in residuals if key.startswith('jacobi'))}",
        "dual route: Q applied twice agrees with the defect tensors",
    ]
    return CheckReport("axioms", status, "Q^2 = 0", residuals, notes)


def _assert_q_square_matches(
    data: Algebroid,
    ctx: GradedContext,
    images: dict[str, GradedPoly],
    r1: dict[tuple[int, int], list[EvenPoly]],
    r2: dict[tuple[int, int, int, int], EvenPoly],
) -> None:
    # Q^2(x^i) is R1^i_ab xi^a xi^b and Q^2(xi^d) is R2^d_abc / 2 xi^a xi^b xi^c,
    # summed over ascending frame indices; each is compared in one equality
    zero_momenta = (0,) * data.base_dim
    ghost = [ctx.odd_index[ghost_name(a + 1)] for a in range(data.rank)]
    for i, name in enumerate(data.coords):
        expected = GradedPoly.from_terms(
            ctx,
            (
                ((ghost[a], ghost[b]), e + zero_momenta, coeff)
                for (a, b), vector in r1.items()
                for e, coeff in vector[i].terms.items()
            ),
        )
        if left_derivation(ctx, images, images[name]) != expected:
            raise RuntimeError("internal dual-route mismatch in the anchor defect")
    by_target: list[list] = [[] for _ in range(data.rank)]
    for (a, b, c, d), value in r2.items():
        word = (ghost[a], ghost[b], ghost[c])
        for e, coeff in value.terms.items():
            by_target[d].append((word, e + zero_momenta, divide(coeff, 2)))
    for d, items in enumerate(by_target):
        expected = GradedPoly.from_terms(ctx, items)
        if left_derivation(ctx, images, images[ghost_name(d + 1)]) != expected:
            raise RuntimeError("internal dual-route mismatch in the jacobi defect")


# truncated degree-1 cohomology


class CohomologyReport:
    def __init__(
        self,
        degree: int,
        trunc: int,
        slack: int,
        closed_dim: int,
        exact_dim: int,
        h_dim: int,
        closed_basis: list[tuple[EvenPoly, ...]],
        flags: dict[str, bool] | None = None,
    ):
        self.degree = degree
        self.trunc = trunc
        self.slack = slack
        self.closed_dim = closed_dim
        self.exact_dim = exact_dim
        self.h_dim = h_dim
        self.closed_basis = closed_basis
        self.flags = {} if flags is None else flags


def _q_columns(
    data: Algebroid, words: list[tuple[int, ...]], degree: int
) -> tuple[list[tuple[tuple[int, ...], Exponent]], list[dict]]:
    """Q on the cochains x^e xi^word, for each word and x-degree <= degree.

    The sources come word by word, monomials in order within a word; each
    column is `field_column` of the images of Q, keyed by (word, exponent)
    in the ghost context, whose exponents end in the momentum half (zero
    here).
    """
    ctx = ghost_context(data)
    images = q_images(data, ctx)
    zero_momenta = (0,) * data.base_dim
    sources = [
        (word, e) for word in words for e in monomial_exponents(data.base_dim, degree)
    ]
    columns = [
        field_column(ctx, images, word, e + zero_momenta) for word, e in sources
    ]
    return sources, columns


def _components_from_vector(
    data: Algebroid,
    unknowns: list[tuple[tuple[int, ...], Exponent]],
    vector: dict[int, Rat],
) -> tuple[EvenPoly, ...]:
    """The components alpha_a of the 1-cochain with these coordinates."""
    terms: list[dict[Exponent, Rat]] = [{} for _ in range(data.rank)]
    for k, value in vector.items():
        (a,), e = unknowns[k]
        terms[a][e] = value
    return tuple(EvenPoly(data.coords, t) for t in terms)


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
    unknowns, columns = _q_columns(data, [(a,) for a in range(data.rank)], trunc)
    closed_basis = [
        _components_from_vector(data, unknowns, vector) for vector in kernel(columns)
    ]

    # exact part: the image of d0 on functions of degree <= trunc + slack
    # that lies entirely inside the window
    n = data.base_dim
    _, sources = _q_columns(data, [()], trunc + slack)
    exact_dim = image_in(sources, lambda key: sum(key[1][:n]) <= trunc)

    filtration = _max_coeff_degree(data) <= 0
    return CohomologyReport(
        degree=1,
        trunc=trunc,
        slack=slack,
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
            entry.total_degree()
            for plane in data.structure
            for row in plane
            for entry in row
        ),
        default=0,
    )
    return max(anchor_deg - 1, structure_deg, 0)


def is_exact_one_form(
    data: Algebroid, alpha: GradedPoly, degree: int
) -> EvenPoly | None:
    """Solve Q f = alpha for a primitive f of x-degree <= degree.

    alpha is a 1-form alpha_a xi^a in `ghost_context(data)`, whose terms are
    keyed like the columns.
    """
    if alpha.ctx != ghost_context(data) or any(len(word) != 1 for word in alpha.parts):
        raise ValueError("exactness query takes a 1-form in the ghost context")
    sources, columns = _q_columns(data, [()], degree)
    rhs = {(word, e): coeff for word, e, coeff in alpha.terms()}
    result = solve(columns, rhs)
    if result is None:
        return None
    solution, _ = result
    return EvenPoly(
        data.coords, {sources[k][1]: value for k, value in solution.items()}
    )
