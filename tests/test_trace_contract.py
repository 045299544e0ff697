"""The names the benchmark tracer wraps must keep resolving in nqkit.

`perfbench/spans.py` binds its spans to module attributes and to the
`callback` of each verb's command by name; a rename or move in the library
would silently drop a span from `--trace`.  The tracer module is loaded by
path, not installed, so nothing in the library is rebound here.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> ModuleType:
    # compiled from source, so no bytecode cache is written under perfbench/
    module = ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()


@pytest.mark.parametrize("name", sorted(spans.SPANNED))
def test_spanned_target_resolves(name):
    module_name, path = spans.SPANNED[name]
    target = importlib.import_module(module_name)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


@pytest.mark.parametrize("name", sorted(spans.VERBS))
def test_verb_command_resolves(name):
    import nqkit.cli

    command = getattr(nqkit.cli, spans.VERBS[name])
    assert callable(command.callback)
    assert nqkit.cli.main.commands[command.name] is command


# one valid command line per verb, as the benchmark's jobs pass them
VERB_LINES = {
    "cmd_check": ["check", "f.json", "--all"],
    "cmd_cohomology": ["cohomology", "f.json", "--trunc", "2"],
    "cmd_emit": ["emit", "f.json", "--what", "bv", "--out", "o.json"],
    "cmd_solve_connection": ["solve-connection", "f.json"],
}


def test_cli_entry_point_runs_a_rebound_verb_callback(monkeypatch):
    # the tracer rebinds each command's callback and then runs jobs through
    # main.main(args=..., prog_name="nqkit"), reading the SystemExit code
    import nqkit.cli

    assert sorted(VERB_LINES) == sorted(spans.VERBS.values())
    for attr, line in VERB_LINES.items():
        command = getattr(nqkit.cli, attr)
        assert nqkit.cli.main.commands[line[0]] is command
        seen = []

        def rebound(**values):
            seen.append(values)
            raise SystemExit(7)

        monkeypatch.setattr(command, "callback", rebound)
        with pytest.raises(SystemExit) as stop:
            nqkit.cli.main.main(args=line, prog_name="nqkit")
        assert stop.value.code == 7
        assert len(seen) == 1 and seen[0]["file"] == "f.json"


@pytest.mark.parametrize("attr", ["__post_init__", "__mul__"])
def test_counted_polynomial_hook_is_bound_on_the_class(attr):
    # the tracer counts constructions and products by rebinding these two
    # names in the class namespace itself
    from nqkit.poly import EvenPoly

    hook = getattr(EvenPoly, attr)
    assert callable(hook)
    assert any(value is hook for value in vars(EvenPoly).values())


def test_public_constructor_calls_post_init(monkeypatch):
    from nqkit.poly import EvenPoly

    seen = []
    original = EvenPoly.__post_init__

    def counted(poly):
        seen.append(poly)
        original(poly)

    monkeypatch.setattr(EvenPoly, "__post_init__", counted)
    poly = EvenPoly(("x",), {(1,): 2, (0,): 0})
    assert len(seen) == 1 and seen[0] is poly
    assert poly.terms == {(1,): 2}


def test_measured_results_yield_one_term_per_coefficient():
    # `S_terms` and `poisson_terms_out` count `result.terms()` on what
    # build_S and GradedContext.poisson return; no library code calls
    # `GradedPoly.terms`, so this pins it for `--trace`
    from nqkit.bfv import build_S
    from nqkit.problem import load_problem

    cs = load_problem(SPANS.parents[1] / "corpus" / "so3_action.json").constraints
    S = build_S(cs.data, cs.ctx)
    results = {"build_S": S, "poisson": cs.ctx.poisson(S, cs.ctx.var("xi_1") * S)}
    for name, result in results.items():
        counts = Counter()
        spans.MEASURES[name](counts, (), result)
        assert result.coeffs and list(counts.values()) == [len(result.coeffs)], name
