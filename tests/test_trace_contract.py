"""The names the benchmark tracer wraps must keep resolving in nqkit.

`perfbench/spans.py` binds its spans to module attributes and click
commands by name; a rename or move in the library would silently drop a
span from `--trace`.  The tracer module is loaded by path, not installed,
so nothing in the library is rebound here.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from types import ModuleType

import click
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
    assert isinstance(command, click.Command)
    assert callable(command.callback)
    assert nqkit.cli.main.get_command(None, command.name) is command


def test_cli_entry_point_is_a_click_group():
    import nqkit.cli

    assert isinstance(nqkit.cli.main, click.Group)


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
