"""Command line front end.

Four verbs over problem files:

    check             run named identity checks, or --all
    cohomology        frame cohomology windows and exactness queries
    emit              write the assembled charge data or the component action
    solve-connection  solve the metric compatibility condition for omega

Exit codes are uniform: 0 when nothing failed (warnings and skipped
checks do not fail), 1 when a check or prerequisite failed, 2 for bad
input or usage, 3 when an internal consistency guard of the engine
tripped (a bug, never a verdict on the input).  JSON output is byte
stable run to run: keys are sorted and no timing is recorded.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb
from pathlib import Path

import click

from .aksz import (
    ComponentAction,
    build_supercharge,
    check_bookkeeping,
    check_supercharge,
    expand_bv,
    extended_action_reference,
    ghost_zero_truncation,
    term_rows,
)
from .algebroid import (
    check_axioms,
    cohomology_h1,
    e_differential,
    is_exact_one_form,
)
from .bfv import (
    CARTAN_IDENTITY,
    BFVPackage,
    Charge,
    assemble_bfv,
    bfv_h0,
    build_charge,
    charge_of_constraints,
)
from .constraints import (
    ConstraintSet,
    build_constraints,
    check_first_class,
    irreducibility_probe,
)
from .dynamics import (
    StructuralResiduals,
    build_hamiltonian,
    check_evolution_invariance,
    check_metric_compat,
    check_structural,
    solve_connection,
    structural_residuals,
)
from .problem import Problem, ProblemError, connection_strings, load_problem
from .report import FAIL, PASS, SKIPPED, WARN, CheckReport, worst_status

_GEOMETRY_LABELS = {"g_inv": "metric_inv", "g_low": "metric", "omega": "connection"}

# the most unknowns (columns of the linear maps) a cohomology window or a
# connection solve may have; a larger one is refused as an input error
# before it is built.  See README, "Window budget", for what the largest
# windows under it cost.
MAX_WINDOW_COLUMNS = 5000


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _input_error(message: str) -> None:
    click.echo(f"input error: {message}", err=True)
    sys.exit(2)


def _load(file: str) -> Problem:
    try:
        return load_problem(file)
    except ProblemError as error:
        _input_error(f"{error.path}: {error.message}")


def _missing(problem: Problem, *fields: str) -> list[str]:
    return [
        _GEOMETRY_LABELS[f]
        for f in fields
        if getattr(problem.pack, f) is None
    ]


class _Workbench:
    """Shared lazy constructions for one invocation.

    Each frame invariant is built at most once: the constraints (which
    carry the structural 2-form), the charge lifted from them (the master
    report is read off it, and the package is assembled from it), and the
    structural residual families of the geometry pack.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self._constraints: ConstraintSet | None = None
        self._charge: Charge | None = None
        self._package: tuple[BFVPackage | None, str | None] | None = None
        self._families: StructuralResiduals | None = None

    def constraints(self) -> ConstraintSet:
        if self._constraints is None:
            pack = self.problem.pack
            self._constraints = build_constraints(
                self.problem.data, pack.alpha, pack.magnetic
            )
        return self._constraints

    def charge(self) -> Charge:
        if self._charge is None:
            self._charge = charge_of_constraints(
                self.constraints(), self.problem.pack
            )
        return self._charge

    def package(self) -> tuple[BFVPackage | None, str | None]:
        """The assembled extended-phase-space package, or a failure message."""
        if self._package is None:
            try:
                self._package = (assemble_bfv(self.charge()), None)
            except ValueError as error:
                self._package = (None, str(error))
        return self._package

    def families(self) -> StructuralResiduals:
        """The structural residuals; the pack must hold g_low and omega."""
        if self._families is None:
            self._families = structural_residuals(
                self.problem.data, self.problem.pack
            )
        return self._families


# one handler per check flag; each returns the reports it produced


def _run_axioms(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    return [check_axioms(bench.problem.data)]


def _run_first_class(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    return [check_first_class(bench.constraints())]


def _run_irreducible(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    probe = irreducibility_probe(bench.problem.data, bench.problem.points)
    status = PASS if probe.verdict == "irreducible on probed set" else WARN
    return [
        CheckReport(
            "irreducible",
            status,
            "the constraint gradients have full rank on the probed set",
            [],
            [
                probe.verdict,
                f"generic rank {probe.generic_rank}, "
                f"full rank is {probe.rank_required}",
                f"probe seed {probe.seed}",
            ],
        )
    ]


def _run_metric(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    gap = _missing(bench.problem, "g_low", "omega")
    if gap:
        return _unmet(
            "metric_compat",
            "L_rho(g) = omega v iota_rho(g)",
            gap,
            explicit,
        )
    return [check_metric_compat(bench.families())]


def _run_structural(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    problem = bench.problem
    gap = _missing(problem, "g_low", "omega")
    if gap:
        return _unmet(
            "structural", "order-by-order invariance conditions", gap, explicit
        )
    reports = [check_structural(bench.families())]
    # the dynamical route needs the raised metric as well
    if problem.pack.g_inv is None:
        reports.append(
            CheckReport(
                "evolution",
                SKIPPED,
                "{H, Phi_a} = gamma^b_a Phi_b",
                [],
                ["needs metric_inv for the evolution route"],
            )
        )
    else:
        H = build_hamiltonian(problem.pack)
        reports.append(
            check_evolution_invariance(
                H, bench.constraints(), problem.pack, bench.families()
            )
        )
    return reports


def _run_master(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    return [bench.charge().master]


def _run_cartan(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    package, error = bench.package()
    if error is not None:
        if "covariant tensor shape" in error:
            return [
                CheckReport(
                    "cartan", FAIL, CARTAN_IDENTITY, [("shape", error)]
                )
            ]
        if explicit:
            _input_error(error)
        return [CheckReport("cartan", SKIPPED, CARTAN_IDENTITY, [], [error])]
    report = package.report("cartan")
    if explicit and report.status == SKIPPED:
        _input_error("; ".join(report.notes))
    return [report]


def _run_supercharge(bench: _Workbench, explicit: bool) -> list[CheckReport]:
    package, error = bench.package()
    if error is not None:
        if explicit:
            _input_error(error)
        return [
            CheckReport("supercharge", SKIPPED, "(Q, Q) = 0", [], [error])
        ]
    return [check_supercharge(build_supercharge(package))]


def _unmet(
    name: str, identity: str, gap: list[str], explicit: bool
) -> list[CheckReport]:
    message = "needs " + ", ".join(gap)
    if explicit:
        _input_error(f"check '{name}' {message}")
    return [CheckReport(name, SKIPPED, identity, [], [message])]


_CHECKS = (
    ("axioms", _run_axioms),
    ("first_class", _run_first_class),
    ("irreducible", _run_irreducible),
    ("metric", _run_metric),
    ("structural", _run_structural),
    ("master", _run_master),
    ("cartan", _run_cartan),
    ("supercharge", _run_supercharge),
)


class _Group(click.Group):
    """Reports a tripped engine guard (a RuntimeError) as exit code 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise  # click's own control flow subclasses RuntimeError
        except RuntimeError as error:
            click.echo(f"internal error: {error}", err=True)
            sys.exit(3)


@click.group(cls=_Group)
def main() -> None:
    """Exact checks for frame data over polynomial coordinate rings."""


@main.command("check")
@click.argument("file")
@click.option("--axioms", is_flag=True, help="bracket axioms of the frame data")
@click.option("--first-class", is_flag=True, help="constraint algebra closure")
@click.option("--irreducible", is_flag=True, help="rank probe of the gradients")
@click.option("--metric", is_flag=True, help="metric compatibility")
@click.option("--structural", is_flag=True, help="invariance conditions")
@click.option("--master", is_flag=True, help="self-bracket of the charge")
@click.option("--cartan", is_flag=True, help="covariant obstruction tensor")
@click.option("--supercharge", is_flag=True, help="squared odd generator")
@click.option("--all", "run_all", is_flag=True, help="run every check")
@click.option("--json", "json_path", type=click.Path(), default=None)
def cmd_check(file, run_all, json_path, **flags) -> None:
    """Run the selected identity checks over a problem file."""
    selected = [
        (name, handler) for name, handler in _CHECKS if run_all or flags[name]
    ]
    if not selected:
        raise click.UsageError("select at least one check, or pass --all")
    problem = _load(file)
    bench = _Workbench(problem)
    reports: list[CheckReport] = []
    for _, handler in selected:
        reports.extend(handler(bench, explicit=not run_all))
    color = _want_color()
    for report in reports:
        click.echo(report.render_text(color))
    overall = worst_status(reports)
    click.echo(f"overall: {overall}")
    if json_path is not None:
        doc = {
            "problem": file,
            "command": "check",
            "overall": overall,
            "checks": [report.to_json_dict() for report in reports],
        }
        _write_json(json_path, doc)
    sys.exit(1 if any(r.status == FAIL for r in reports) else 0)


@main.command("cohomology")
@click.argument("file")
@click.option("--degree", type=int, default=None, help="form degree (default 1)")
@click.option("--trunc", type=int, default=None, help="polynomial degree window")
@click.option("--p-degree", type=int, default=None, help="momentum degree window")
@click.option("--slack", type=int, default=None, help="extra source degrees")
@click.option("--bfv-h0", "bfv_h0_flag", is_flag=True, help="ghost-zero window")
@click.option("--is-exact", "is_exact_flag", is_flag=True, help="primitive query")
def cmd_cohomology(
    file, degree, trunc, p_degree, slack, bfv_h0_flag, is_exact_flag
) -> None:
    """Cohomology windows of the frame differential, exactly."""
    if bfv_h0_flag and is_exact_flag:
        raise click.UsageError("--bfv-h0 and --is-exact are exclusive")
    if bfv_h0_flag and degree not in (None, 0):
        raise click.UsageError("the ghost-zero window is at degree 0")
    if not bfv_h0_flag and degree not in (None, 1):
        raise click.UsageError("only the degree-1 window is implemented")
    problem = _load(file)
    trunc = problem.truncation.x_degree if trunc is None else trunc
    slack = problem.truncation.slack if slack is None else slack
    p_degree = problem.truncation.p_degree if p_degree is None else p_degree
    if min(trunc, slack, p_degree) < 0:
        raise click.UsageError("degree bounds must be nonnegative")
    _check_window_budget(problem, trunc, slack, p_degree, bfv_h0_flag, is_exact_flag)

    axioms = check_axioms(problem.data)
    if axioms.status != PASS:
        click.echo(axioms.render_text(_want_color()))
        click.echo("prerequisite failed: the bracket axioms do not hold")
        sys.exit(1)

    if is_exact_flag:
        _query_exact(problem, trunc)
    elif bfv_h0_flag:
        _window_h0(problem, trunc, p_degree)
    else:
        _window_h1(problem, trunc, slack)
    sys.exit(0)


def _check_window_budget(
    problem: Problem,
    trunc: int,
    slack: int,
    p_degree: int,
    bfv_h0_flag: bool,
    is_exact_flag: bool,
) -> None:
    """Refuse a window whose estimated column count exceeds the budget.

    Monomials of degree <= d in n variables number C(n + d, n).  The h^1
    window has one unknown per frame index and monomial, plus its sources
    one slack above; the ghost-zero window has one per x-monomial,
    p-monomial and ghost-zero word (C(2r, r) of them), plus its ghost -1
    sources (C(2r, r + 1) words) one degree above in x and p.
    """
    n, r = problem.data.base_dim, problem.data.rank
    if is_exact_flag:
        options = f"--trunc {trunc}"
        columns = comb(n + trunc, n)
    elif bfv_h0_flag:
        options = f"--trunc {trunc} --p-degree {p_degree}"
        columns = comb(n + trunc, n) * comb(n + p_degree, n) * comb(2 * r, r)
        columns += comb(n + trunc + 1, n) * comb(n + p_degree + 1, n) * comb(
            2 * r, r + 1
        )
    else:
        options = f"--trunc {trunc} --slack {slack}"
        columns = r * comb(n + trunc, n) + comb(n + trunc + slack, n)
    if columns > MAX_WINDOW_COLUMNS:
        _input_error(
            f"{options}: the window needs an estimated {columns} columns, "
            f"more than the budget of {MAX_WINDOW_COLUMNS}"
        )


def _query_exact(problem: Problem, trunc: int) -> None:
    alpha = problem.pack.alpha
    if alpha is None:
        _input_error("the exactness query needs the affine part alpha")
    if not e_differential(problem.data, alpha).is_zero:
        click.echo("not closed: the frame differential of alpha is nonzero")
        sys.exit(1)
    primitive = is_exact_one_form(problem.data, alpha, trunc)
    if primitive is None:
        click.echo(f"closed, but no primitive of degree <= {trunc} exists")
        sys.exit(1)
    click.echo(f"exact, primitive f = {primitive}")


def _window_h1(problem: Problem, trunc: int, slack: int) -> None:
    report = cohomology_h1(problem.data, trunc, slack)
    click.echo(f"window: coefficient degree <= {trunc}, source slack {slack}")
    click.echo(
        f"closed {report.closed_dim}   exact {report.exact_dim}   "
        f"h^1 {report.h_dim}"
    )
    for flag in report.flags:
        click.echo(f"  note: {flag}")
    for k, form in enumerate(report.closed_basis):
        click.echo(f"  closed {k + 1}: {_render_one_form(form)}")


def _window_h0(problem: Problem, trunc: int, p_degree: int) -> None:
    charge = build_charge(problem.data, problem.pack)
    try:
        report = bfv_h0(charge, trunc, p_degree)
    except ValueError as error:
        click.echo(f"prerequisite failed: {error}")
        sys.exit(1)
    click.echo(f"window: x degree <= {trunc}, p degree <= {p_degree}")
    click.echo(
        f"closed {report.closed_dim}   exact {report.exact_dim}   "
        f"h^0 {report.h_dim}"
    )
    for note in report.notes:
        click.echo(f"  note: {note}")


def _render_one_form(form) -> str:
    parts = [
        f"({form.components[key]}) e^{key[0] + 1}"
        for key in sorted(form.components)
        if not form.components[key].is_zero
    ]
    return " + ".join(parts) if parts else "0"


@main.command("emit")
@click.argument("file")
@click.option("--what", type=click.Choice(["bfv", "bv"]), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--force", is_flag=True, help="emit even if the gate check fails")
def cmd_emit(file, what, out, force) -> None:
    """Write assembled charge data (bfv) or the component action (bv)."""
    problem = _load(file)
    try:
        package = assemble_bfv(build_charge(problem.data, problem.pack))
    except ValueError as error:
        click.echo(f"assembly failed: {error}", err=True)
        sys.exit(1)

    doc = {
        "what": what,
        "coords": list(problem.coords),
        "rank": problem.rank,
    }
    if what == "bfv":
        gate = package.report("master")
        doc["charge"] = term_rows(package.S)
        if not package.H.is_zero:
            doc["hamiltonian"] = term_rows(package.H)
        doc["checks"] = {r.name: r.status for r in package.reports}
    else:
        sq = build_supercharge(package)
        gate = check_supercharge(sq)
        if gate.status == PASS or force:
            try:
                action = expand_bv(sq)
            except ValueError as error:
                click.echo(f"emission failed: {error}", err=True)
                sys.exit(1)
            _guard_classical_limit(problem, action)
            doc["fields"] = [
                {
                    "name": f.name,
                    "ghost": f.ghost,
                    "parity": f.parity,
                    "partner": f.is_partner,
                }
                for f in action.fields
            ]
            doc["terms"] = action.rows()
        doc["checks"] = {gate.name: gate.status}

    if gate.status != PASS:
        click.echo(gate.render_text(_want_color()))
        if not force:
            click.echo(
                f"required check failed: {gate.name} "
                "(pass --force to emit anyway)"
            )
            sys.exit(1)
        doc["forced"] = True
    _write_json(out, doc)
    click.echo(f"wrote {out}")
    sys.exit(0)


def _guard_classical_limit(problem: Problem, action: ComponentAction) -> None:
    """The BV action must come out of BFV by the AKSZ expansion.

    Its field table must pass the bookkeeping, and its ghost-zero part must
    equal p_i x_dot^i - H - lam^a Phi_a assembled from the base fields alone.
    """
    bookkeeping = check_bookkeeping(action)
    if bookkeeping.status != PASS:
        label, detail = bookkeeping.residuals[0]
        raise RuntimeError(
            f"internal bookkeeping mismatch in the component action: {label} {detail}"
        )
    reference = extended_action_reference(problem.data, problem.pack)
    if ghost_zero_truncation(action) != reference:
        raise RuntimeError(
            "internal dual-route mismatch in the classical limit of the action"
        )


@main.command("solve-connection")
@click.argument("file")
@click.option("--degree", type=int, default=1, help="polynomial ansatz degree")
@click.option("--write", "write_path", type=click.Path(), default=None)
def cmd_solve_connection(file, degree, write_path) -> None:
    """Solve the metric compatibility condition for a connection."""
    if degree < 0:
        raise click.UsageError("the ansatz degree must be nonnegative")
    problem = _load(file)
    if problem.pack.g_low is None:
        _input_error("the connection solve needs the metric")
    unknowns = _connection_unknowns(problem, degree)
    if unknowns > MAX_WINDOW_COLUMNS:
        _input_error(
            f"--degree {degree}: the connection solve needs {unknowns} unknowns, "
            f"more than the budget of {MAX_WINDOW_COLUMNS}"
        )
    solution = solve_connection(problem.data, problem.pack, degree)
    if not solution.feasible:
        click.echo(f"infeasible at ansatz degree {degree}")
        for note in solution.notes:
            click.echo(f"  note: {note}")
        sys.exit(1)
    click.echo(
        f"feasible: solution space dimension {solution.solution_dim} "
        f"at ansatz degree {degree}"
    )
    for a, plane in enumerate(solution.omega):
        for b, row in enumerate(plane):
            for i, entry in enumerate(row):
                if not entry.is_zero:
                    click.echo(f"  omega^{a + 1}_{b + 1},{i + 1} = {entry}")
    if write_path is not None:
        doc = problem.document()
        doc["connection"] = connection_strings(solution.omega)
        _write_json(write_path, doc)
        click.echo(f"wrote {write_path}")
    sys.exit(0)


def _connection_unknowns(problem: Problem, degree: int) -> int:
    """One unknown omega^b_ai = x^m per frame pair, base index and monomial."""
    n, r = problem.data.base_dim, problem.data.rank
    return r * r * n * comb(n + degree, n)


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
