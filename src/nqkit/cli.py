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

import errno
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import comb

from .aksz import SUPERCHARGE_IDENTITY, check_supercharge, expand_bv, term_rows
from .algebroid import check_axioms, cohomology_h1, is_exact_one_form
from .bfv import CARTAN_IDENTITY, bfv_h0
from .constraints import check_first_class, irreducibility_probe
from .dynamics import (
    EVOLUTION_IDENTITY,
    METRIC_COMPAT_IDENTITY,
    STRUCTURAL_IDENTITY,
    check_evolution_invariance,
    check_metric_compat,
    check_structural,
    solve_connection,
)
from .problem import (
    GEOMETRY_FIELDS,
    INT_LITERAL,
    Problem,
    ProblemError,
    connection_strings,
    load_problem,
)
from .report import FAIL, PASS, SKIPPED, CheckReport, worst_status

# the most unknowns (columns of the linear maps) a cohomology window or a
# connection solve may have; a larger one is refused as an input error
# before it is built.  See README, "Window budget", for what the largest
# windows under it cost.
MAX_WINDOW_COLUMNS = 5000


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _err(message: str) -> None:
    """One line on stderr, after what stdout holds, so `2>&1` keeps order."""
    sys.stdout.flush()
    sys.stderr.write(message + "\n")


def _input_error(message: str) -> None:
    _err(f"input error: {message}")
    sys.exit(2)


def _load(file: str) -> Problem:
    try:
        return load_problem(file)
    except ProblemError as error:
        _input_error(f"{error.path}: {error.message}")


def _missing(problem: Problem, *fields: str) -> list[str]:
    return [GEOMETRY_FIELDS[f] for f in fields if getattr(problem.pack, f) is None]


# one handler per check flag: each calls the library for its finished
# reports, read off the problem, or skips a check whose input is missing


def _run_axioms(problem: Problem, explicit: bool) -> list[CheckReport]:
    return [check_axioms(problem.data)]


def _run_first_class(problem: Problem, explicit: bool) -> list[CheckReport]:
    return [check_first_class(problem.constraints)]


def _run_irreducible(problem: Problem, explicit: bool) -> list[CheckReport]:
    return [irreducibility_probe(problem.data, problem.points)]


def _run_metric(problem: Problem, explicit: bool) -> list[CheckReport]:
    gap = _missing(problem, "g_low", "omega")
    if gap:
        return _unmet("metric_compat", METRIC_COMPAT_IDENTITY, gap, explicit)
    return [check_metric_compat(problem.families)]


def _run_structural(problem: Problem, explicit: bool) -> list[CheckReport]:
    gap = _missing(problem, "g_low", "omega")
    if gap:
        return _unmet("structural", STRUCTURAL_IDENTITY, gap, explicit)
    reports = [check_structural(problem.families)]
    # the dynamical route needs the raised metric as well
    if problem.pack.g_inv is None:
        note = "needs metric_inv for the evolution route"
        reports += _skip("evolution", EVOLUTION_IDENTITY, note, explicit=False)
    else:
        reports.append(
            check_evolution_invariance(
                problem.constraints, problem.pack, problem.families
            )
        )
    return reports


def _run_master(problem: Problem, explicit: bool) -> list[CheckReport]:
    return [problem.constraints.master]


def _run_cartan(problem: Problem, explicit: bool) -> list[CheckReport]:
    package, error = problem.package
    if error is not None:
        return _skip("cartan", CARTAN_IDENTITY, error, explicit)
    report = package.cartan
    # skipped without the metric pair, an input gap; with it, only a failed
    # master skips the check, and `_check` counts that as a failure
    if report.status == SKIPPED and explicit and _missing(problem, "g_inv", "g_low"):
        _input_error("; ".join(report.notes))
    return [report]


def _run_supercharge(problem: Problem, explicit: bool) -> list[CheckReport]:
    package, error = problem.package
    if error is not None:
        return _skip("supercharge", SUPERCHARGE_IDENTITY, error, explicit)
    return [check_supercharge(package)]


def _unmet(
    name: str, identity: str, gap: list[str], explicit: bool
) -> list[CheckReport]:
    message = "needs " + ", ".join(gap)
    return _skip(name, identity, message, explicit, f"check '{name}' {message}")


def _skip(
    name: str, identity: str, note: str, explicit: bool, refusal: str | None = None
) -> list[CheckReport]:
    """The SKIPPED report of a check with the note why; a check selected by
    name ends instead in the input error `refusal`, or the note."""
    if explicit:
        _input_error(refusal or note)
    return [CheckReport(name, SKIPPED, identity, [], [note])]


# the checks: the name of the flag (`first_class` is `--first-class`), its
# help line and its handler, in the order the reports are printed
_CHECKS = (
    ("axioms", "bracket axioms of the frame data", _run_axioms),
    ("first_class", "constraint algebra closure", _run_first_class),
    ("irreducible", "rank probe of the gradients", _run_irreducible),
    ("metric", "metric compatibility", _run_metric),
    ("structural", "invariance conditions", _run_structural),
    ("master", "self-bracket of the charge", _run_master),
    ("cartan", "covariant obstruction tensor", _run_cartan),
    ("supercharge", "squared odd generator", _run_supercharge),
)


def _check(file, run_all, json_path, **flags) -> None:
    """Run the selected identity checks over a problem file."""
    selected = [handler for name, _, handler in _CHECKS if run_all or flags[name]]
    if not selected:
        raise _UsageError("select at least one check, or pass --all")
    problem = _load(file)
    _check_output("--json", json_path)
    reports: list[CheckReport] = []
    for handler in selected:
        reports.extend(handler(problem, explicit=not run_all))
    color = _want_color()
    for report in reports:
        print(report.render_text(color))
    overall = worst_status(reports)
    print(f"overall: {overall}")
    if json_path is not None:
        doc = {
            "problem": file,
            "command": "check",
            "overall": overall,
            "checks": [report.to_json_dict() for report in reports],
        }
        _write_json("--json", json_path, doc)
    # a cartan skipped after a failed master is a failed prerequisite; any
    # path that reaches here with cartan selected has computed the master
    failed = any(r.status == FAIL for r in reports) or (
        _run_cartan in selected and problem.constraints.master.status == FAIL
    )
    sys.exit(1 if failed else 0)


def _cohomology(file, trunc, p_degree, slack, bfv_h0_flag, is_exact_flag) -> None:
    """Cohomology windows of the frame differential, exactly."""
    if bfv_h0_flag and is_exact_flag:
        raise _UsageError("--bfv-h0 and --is-exact are exclusive")
    problem = _load(file)
    if min(trunc, slack, p_degree) < 0:
        raise _UsageError("degree bounds must be nonnegative")
    # Monomials of degree <= d in n variables number C(n + d, n).  The h^1
    # window has one unknown per frame index and monomial, plus its sources
    # one slack above; the ghost-zero window has one per x-monomial,
    # p-monomial and ghost-zero word (C(2r, r) of them), plus its ghost -1
    # sources (C(2r, r + 1) words) one degree above in x and p.
    n, r = problem.data.base_dim, problem.data.rank
    if is_exact_flag:
        options = f"--trunc {trunc}"
        columns = comb(n + trunc, n)
        window, bounds = _query_exact, (trunc,)
    elif bfv_h0_flag:
        options = f"--trunc {trunc} --p-degree {p_degree}"
        columns = comb(n + trunc, n) * comb(n + p_degree, n) * comb(2 * r, r)
        columns += comb(n + trunc + 1, n) * comb(n + p_degree + 1, n) * comb(
            2 * r, r + 1
        )
        window, bounds = _window_h0, (trunc, p_degree)
    else:
        options = f"--trunc {trunc} --slack {slack}"
        columns = r * comb(n + trunc, n) + comb(n + trunc + slack, n)
        window, bounds = _window_h1, (trunc, slack)
    _within_budget(
        columns, f"{options}: the window needs an estimated {columns} columns"
    )

    axioms = check_axioms(problem.data)
    if axioms.status != PASS:
        print(axioms.render_text(_want_color()))
        print("prerequisite failed: the bracket axioms do not hold")
        sys.exit(1)
    window(problem, *bounds)
    sys.exit(0)


def _within_budget(columns: int, need: str) -> None:
    """Refuse a linear map of more than `MAX_WINDOW_COLUMNS` columns, before
    it is built; `need` names its options and its count."""
    if columns > MAX_WINDOW_COLUMNS:
        _input_error(f"{need}, more than the budget of {MAX_WINDOW_COLUMNS}")


def _query_exact(problem: Problem, trunc: int) -> None:
    if problem.constraints.alpha is None:
        _input_error("the exactness query needs the affine part alpha")
    try:
        primitive = is_exact_one_form(problem.data, problem.constraints.alpha, trunc)
    except ValueError as error:
        print(error)
        sys.exit(1)
    if primitive is None:
        print(f"closed, but no primitive of degree <= {trunc} exists")
        sys.exit(1)
    print(f"exact, primitive f = {primitive}")


def _window_h1(problem: Problem, trunc: int, slack: int) -> None:
    report = cohomology_h1(problem.data, trunc, slack)
    print(f"window: coefficient degree <= {trunc}, source slack {slack}")
    print(
        f"closed {report.closed_dim}   exact {report.exact_dim}   "
        f"h^1 {report.h_dim}"
    )
    for flag in report.flags:
        print(f"  note: {flag}")
    for k, alpha in enumerate(report.closed_basis):
        print(f"  closed {k + 1}: {_render_cochain(alpha)}")


def _window_h0(problem: Problem, trunc: int, p_degree: int) -> None:
    try:
        report = bfv_h0(problem.constraints, trunc, p_degree)
    except ValueError as error:
        print(f"prerequisite failed: {error}")
        sys.exit(1)
    print(f"window: x degree <= {trunc}, p degree <= {p_degree}")
    print(
        f"closed {report.closed_dim}   exact {report.exact_dim}   "
        f"h^0 {report.h_dim}"
    )
    for note in report.notes:
        print(f"  note: {note}")


def _render_cochain(alpha) -> str:
    """The components alpha_a of a 1-cochain as a sum over the dual frame e^a."""
    parts = [f"({f}) e^{a + 1}" for a, f in enumerate(alpha) if not f.is_zero]
    return " + ".join(parts) if parts else "0"


def _emit(file, what, out, force) -> None:
    """Write assembled charge data (bfv) or the component action (bv)."""
    problem = _load(file)
    _check_output("--out", out)
    package, error = problem.package
    if error is not None:
        _err(f"assembly failed: {error}")
        sys.exit(1)

    doc = {
        "what": what,
        "coords": list(problem.data.coords),
        "rank": problem.data.rank,
    }
    if what == "bfv":
        gate = package.constraints.master
        doc["charge"] = term_rows(package.constraints.S)
        if not package.H.is_zero:
            doc["hamiltonian"] = term_rows(package.H)
        reports = (gate, package.cartan, package.charge_invariance)
        doc["checks"] = {r.name: r.status for r in reports}
    else:
        gate = check_supercharge(package)
        if gate.status == PASS or force:
            try:
                action = expand_bv(package)
            except ValueError as error:
                _err(f"emission failed: {error}")
                sys.exit(1)
            doc["fields"] = [
                {
                    "name": f.name,
                    "ghost": f.ghost,
                    "parity": f.parity,
                    "partner": f.is_partner,
                }
                for f in action.fields
            ]
            doc["terms"] = term_rows(action.action)
        doc["checks"] = {gate.name: gate.status}

    if gate.status != PASS:
        print(gate.render_text(_want_color()))
        if not force:
            print(
                f"required check failed: {gate.name} "
                "(pass --force to emit anyway)"
            )
            sys.exit(1)
        doc["forced"] = True
    _write_json("--out", out, doc)
    print(f"wrote {out}")
    sys.exit(0)


def _solve_connection(file, degree, write_path) -> None:
    """Solve the metric compatibility condition for a connection."""
    if degree < 0:
        raise _UsageError("the ansatz degree must be nonnegative")
    problem = _load(file)
    if problem.pack.g_low is None:
        _input_error("the connection solve needs the metric")
    # one unknown omega^b_ai = x^m per frame pair, base index and monomial
    n, r = problem.data.base_dim, problem.data.rank
    unknowns = r * r * n * comb(n + degree, n)
    _within_budget(
        unknowns, f"--degree {degree}: the connection solve needs {unknowns} unknowns"
    )
    _check_output("--write", write_path)
    solution = solve_connection(problem.data, problem.pack, degree)
    if not solution.feasible:
        print(f"infeasible at ansatz degree {degree}")
        for note in solution.notes:
            print(f"  note: {note}")
        sys.exit(1)
    print(
        f"feasible: solution space dimension {solution.solution_dim} "
        f"at ansatz degree {degree}"
    )
    for (a, b, i), entry in sorted(solution.omega.items()):
        print(f"  omega^{a + 1}_{b + 1},{i + 1} = {entry}")
    if write_path is not None:
        planes = connection_strings(solution.omega, r, n)
        _write_json("--write", write_path, dict(problem.document, connection=planes))
        print(f"wrote {write_path}")
    sys.exit(0)


def _check_output(option: str, path: str | None) -> None:
    """Refuse, before any work, an output path that open() would refuse.

    A directory, or a name in a missing directory, is reported as open()
    reports it; nothing is created or truncated here, and what this cannot
    see (permissions, a full disk) is still caught when the file is written.
    """
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    _input_error(f"{option}: {OSError(code, os.strerror(code), path)}")


def _write_json(option: str, path: str, doc: dict) -> None:
    text = _json_text(doc, "\n") + "\n"
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        _input_error(f"{option}: {error}")


def _json_text(value, pad: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` byte for byte, nested at
    `pad` (a newline and the indentation), without its pure-Python encoder.

    A document holds dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, a float included, is an engine fault.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        # `_quote` raises TypeError on a key that is not a str
        items = [
            f"{_quote(key)}: {_json_text(value[key], inner)}" for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"{kind.__name__} is not a JSON document type")


# The argv front end.  It keeps click 8.4's grammar, help pages, messages
# and exit codes byte for byte (tests/data/cli_usage.json pins them) with
# the standard library alone: importing click took two-thirds of the
# start-up of every invocation.  argparse, with gettext, costs about 40 ms
# to compile cold, three times this whole module, and words its messages
# differently.  Help and error pages import what they need when printed.


class _UsageError(Exception):
    """Bad usage, exit 2; the usage line heads it unless `usage` is False."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


class _Option:
    """A `--name` of a verb: a flag, or an "int", "path" or "choice" value."""

    def __init__(
        self,
        name: str,
        kind: str = "flag",
        help: str = "",
        dest: str | None = None,
        default: int | None = None,
        required: bool = False,
        choices: tuple[str, ...] = (),
    ):
        self.name, self.kind, self.help = name, kind, help
        self.dest = dest or name[2:].replace("-", "_")
        self.default = False if kind == "flag" else default
        self.required, self.choices = required, choices

    def convert(self, value):
        if self.kind == "int":
            # the integer literal of the problem files: ASCII digits, no spaces
            if INT_LITERAL.fullmatch(value):
                try:
                    return int(value)
                except ValueError:  # past int()'s digit limit
                    pass
            problem = f"{value!r} is not a valid integer."
        elif self.kind == "choice" and value not in self.choices:
            problem = f"{value!r} is not one of {', '.join(map(repr, self.choices))}."
        else:
            return value
        raise _UsageError(f"Invalid value for '{self.name}': {problem}")


_HELP = _Option("--help", help="Show this message and exit.")


def _scan(command, args: list[str], path: str, interspersed: bool):
    """The options given, in order of first use with their last values, and
    the positionals; the group stops at its first positional, the verb."""
    given: dict[_Option, object] = {}
    positional: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            positional += args[i:]
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                positional += args[i - 1 :]
                break
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        option = command.options.get(name)
        if option is None:
            if arg[1] != "-":  # click retries it as short options, and has none
                raise _no_such("option", arg[:2], ())
            raise _no_such("option", name, command.options)
        if option.kind == "flag":
            if eq:
                raise _UsageError(f"Option {name!r} does not take a value.", False)
            value = True
        elif not eq:
            if i == len(args):
                raise _UsageError(f"Option {name!r} requires an argument.", False)
            value = args[i]
            i += 1
        given[option] = value
    if _HELP in given:  # once the whole line has split without error
        print(_help_page(command, path))
        sys.exit(0)
    return given, positional


def _no_such(kind: str, name: str, candidates) -> _UsageError:
    message = f"No such {kind} {name!r}."
    if candidates:
        from difflib import get_close_matches

        close = sorted(get_close_matches(name, candidates))
        if len(close) == 1:
            message += f" Did you mean {close[0]!r}?"
        elif close:
            message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return _UsageError(message)


class _Command:
    """A verb: its handler, options and one argument FILE.  The handler is
    read from `callback` on each run, so a wrapper bound there sees every
    call; its docstring is the verb's help line, as click took it."""

    usage = "[OPTIONS] FILE"

    def __init__(self, name: str, callback, options: tuple):
        self.name, self.callback, self.help = name, callback, callback.__doc__
        self.options = {option.name: option for option in (*options, _HELP)}

    def run(self, args: list[str], path: str) -> None:
        """Check the line in click's order, then call the handler."""
        given, positional = _scan(self, args, path, interspersed=True)
        values = {o.dest: o.default for o in self.options.values() if o is not _HELP}
        values.update((o.dest, o.convert(value)) for o, value in given.items())
        if not positional:
            raise _UsageError("Missing argument 'FILE'.")
        for option in self.options.values():
            if option.required and option not in given:
                choices = ",\n\t".join(option.choices)
                hint = f" Choose from:\n\t{choices}" if choices else ""
                raise _UsageError(f"Missing option '{option.name}'.{hint}")
        if len(positional) > 1:
            s = "s" if len(positional) > 2 else ""
            extra = " ".join(positional[1:])
            raise _UsageError(f"Got unexpected extra argument{s} ({extra})")
        self.callback(file=positional[0], **values)


class _Group:
    """The `nqkit` command: its options, then a verb and the verb's line."""

    usage = "[OPTIONS] COMMAND [ARGS]..."

    def __init__(self, help: str, commands: tuple[_Command, ...]):
        self.help = help
        self.commands = {command.name: command for command in commands}
        self.options = {_HELP.name: _HELP}

    def main(self, args=None, prog_name: str | None = None) -> None:
        """Run one command line, argv's by default; ends in SystemExit."""
        args = sys.argv[1:] if args is None else list(args)
        command, path = self, prog_name or _program_name()
        try:
            try:
                if not args:
                    _err(_help_page(self, path))
                    sys.exit(2)
                rest = _scan(self, args, path, interspersed=False)[1]
                if not rest:
                    raise _UsageError("Missing command.")
                if rest[0] not in self.commands:
                    # click splits an option-like unknown verb (after `--`)
                    # once more, so `-- --help` still prints the help page
                    if rest[0][:1] and not rest[0][0].isalnum():
                        _scan(self, rest, path, interspersed=False)
                    raise _no_such("command", rest[0], self.commands)
                command, path = self.commands[rest[0]], f"{path} {rest[0]}"
                command.run(rest[1:], path)
                sys.exit(0)
            except _UsageError as error:
                if error.usage:
                    usage = _usage(command, path, _width())
                    _err(f"{usage}\nTry '{path} --help' for help.\n")
                _err(f"Error: {error}")
                sys.exit(2)
            except RuntimeError as error:  # a tripped engine guard
                _err(f"internal error: {error}")
                sys.exit(3)
            finally:
                sys.stdout.flush()
        except (EOFError, KeyboardInterrupt):
            _err("\nAborted!")
            sys.exit(1)
        except BrokenPipeError:  # the reader has gone; drop what is buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    __call__ = main


def _program_name() -> str:
    """`python -m nqkit.cli` when run as a module, else the script's name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    if name != "__main__":
        package = f"{package}.{name}"
    return f"python -m {package.lstrip('.')}"


# help pages, laid out and wrapped as click 8.4 does


def _width() -> int:
    from shutil import get_terminal_size

    return max(min(get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, first: str = "", rest: str = "") -> str:
    from textwrap import fill

    return fill(text, width, initial_indent=first, subsequent_indent=rest)


def _usage(command, path: str, width: int) -> str:
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(command.usage, width, prefix, " " * len(prefix))
    return f"{prefix}\n" + _wrap(command.usage, width, " " * 11, " " * 11)


def _help_page(command, path: str) -> str:
    width = _width()
    rows = []
    for option in command.options.values():
        metavar = {"flag": "", "int": " INTEGER", "path": " PATH"}.get(
            option.kind, f" [{'|'.join(option.choices)}]"
        )
        text = option.help
        if option.required:
            text = f"{text}  [required]" if text else "[required]"
        rows.append((option.name + metavar, text))
    page = [_usage(command, path, width)]
    if command.help:  # none under python -OO
        page += ["", _wrap(command.help, width, "  ", "  ")]
    page += ["", "Options:", *_columns(rows, width)]
    verbs = getattr(command, "commands", {})
    if verbs:
        limit = width - 6 - max(map(len, verbs))
        rows = [(n, _short_help(verbs[n].help or "", limit)) for n in sorted(verbs)]
        page += ["", "Commands:", *_columns(rows, width)]
    return "\n".join(page)


def _columns(rows: list[tuple[str, str]], width: int) -> list[str]:
    """Terms padded to one column, at most 30 wide, and their wrapped texts."""
    column = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        if len(term) > column - 2 or not text:
            lines.append(f"  {term}")
            term = ""
        if text:
            wrapped = _wrap(text, max(width - column - 2, 10)).splitlines()
            lines.append(f"  {term:<{column}}{wrapped[0]}")
            lines += [" " * (column + 2) + line for line in wrapped[1:]]
    return lines


def _short_help(text: str, limit: int) -> str:
    """A one-sentence help line, or as many of its words as fit with '...'."""
    if len(text) <= limit:
        return text
    words = text.split()
    while words and len(" ".join(words)) + 3 > limit:
        words.pop()
    return " ".join(words) + "..."


# the verbs: name, handler (its docstring is the help line) and options

_VERBS = (
    _Command("check", _check, (
        *(
            _Option("--" + name.replace("_", "-"), help=text)
            for name, text, _ in _CHECKS
        ),
        _Option("--all", help="run every check", dest="run_all"),
        _Option("--json", "path", dest="json_path"),
    )),
    _Command("cohomology", _cohomology, (
        _Option("--trunc", "int", "polynomial degree window", default=2),
        _Option("--p-degree", "int", "momentum degree window", default=1),
        _Option("--slack", "int", "extra source degrees", default=2),
        _Option("--bfv-h0", help="ghost-zero window", dest="bfv_h0_flag"),
        _Option("--is-exact", help="primitive query", dest="is_exact_flag"),
    )),
    _Command("emit", _emit, (
        _Option("--what", "choice", required=True, choices=("bfv", "bv")),
        _Option("--out", "path", required=True),
        _Option("--force", help="emit even if the gate check fails"),
    )),
    _Command("solve-connection", _solve_connection, (
        _Option("--degree", "int", "polynomial ansatz degree", default=1),
        _Option("--write", "path", dest="write_path"),
    )),
)

main = _Group("Exact checks for frame data over polynomial coordinate rings.", _VERBS)
cmd_check, cmd_cohomology, cmd_emit, cmd_solve_connection = _VERBS


if __name__ == "__main__":
    main()
