"""The record classes keep their constructor surface.

Each record class of the package is a plain class with a hand-written
`__init__`.  Every one is built here with all its arguments by position
and again by keyword, in the order and under the names the library's call
sites use, and once with only its required arguments.  A dropped default,
a renamed parameter or a reordered one then fails here, not in a CLI run.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from nqkit.aksz import ComponentAction, FieldEntry, expand_bv
from nqkit.algebroid import Algebroid, CohomologyReport
from nqkit.bfv import BFVPackage, H0Report, assemble_bfv
from nqkit.constraints import ConstraintSet, ExtractionResult, check_first_class
from nqkit.dynamics import ConnectionSolution, GeometryPack, StructuralResiduals
from nqkit.parser import _Token
from nqkit.poly import EvenPoly
from nqkit.problem import Problem
from nqkit.report import FAIL, PASS, CheckReport
from tests.test_algebroid import abelian_r1
from tests.test_dynamics import flat_pack


def _material() -> dict:
    data = abelian_r1()
    coords = data.coords
    x = EvenPoly.variable(coords, "x")
    pack = flat_pack(coords, 1)
    constraints = ConstraintSet(data)
    package = assemble_bfv(constraints, pack)
    action = expand_bv(package)
    report = CheckReport("axioms", PASS, "[e_a, e_b] = C^c_ab e_c")
    return {
        "data": data,
        "coords": coords,
        "x": x,
        "form": (x,),
        "pack": pack,
        "constraints": constraints,
        "package": package,
        "action": action,
        "report": report,
    }


def _cases(m: dict) -> dict[str, tuple[type, dict, dict]]:
    """class name -> (class, every argument in order, the defaulted ones)."""
    coords, x = m["coords"], m["x"]
    one = EvenPoly.const(coords, 1)
    zero = EvenPoly.zero(coords)
    return {
        "_Token": (_Token, {"kind": "int", "text": "12", "position": 3}, {}),
        "CheckReport": (
            CheckReport,
            {
                "name": "cartan",
                "status": FAIL,
                "identity": "K = 0",
                "residuals": [("shape", "bad")],
                "notes": ["a note"],
            },
            {"residuals": [], "notes": []},
        ),
        "Algebroid": (
            Algebroid,
            {"coords": coords, "anchor": ((x,), (one,)), "structure": {(0, 0, 1): x}},
            {},
        ),
        "CohomologyReport": (
            CohomologyReport,
            {
                "closed_dim": 6,
                "exact_dim": 4,
                "h_dim": 2,
                "closed_basis": [m["form"]],
                "flags": {"truncated": True},
            },
            {"flags": {}},
        ),
        "ConstraintSet": (
            ConstraintSet,
            {
                "data": m["data"],
                "alpha": m["form"],
                "magnetic": ((zero,),),
            },
            {"alpha": None, "magnetic": None},
        ),
        "ExtractionResult": (
            ExtractionResult,
            {
                "feasible": True,
                "data": m["data"],
                "ansatz_degree": 2,
                "solution_dim": 3,
                "axioms": m["report"],
                "notes": ["a note"],
            },
            {"notes": []},
        ),
        "GeometryPack": (
            GeometryPack,
            {
                "coords": coords,
                "rank": 1,
                "g_inv": ((EvenPoly.const(coords, Fraction(1, 2)),),),
                "g_low": ((EvenPoly.const(coords, 2),),),
                "omega": {(0, 0, 0): x},
                "tau": {(0, 0): x},
                "potential": x * x,
                "beta": (x + one,),
            },
            {
                "g_inv": None,
                "g_low": None,
                "omega": None,
                "tau": {},
                "potential": zero,
                "beta": None,
            },
        ),
        "StructuralResiduals": (
            StructuralResiduals,
            {"metric": {(0, 0, 0): x}, "alpha": {(0, 0): one}, "potential": {0: x}},
            {},
        ),
        "ConnectionSolution": (
            ConnectionSolution,
            {
                "feasible": True,
                "omega": {(0, 0, 0): x},
                "solution_dim": 2,
                "notes": ["a note"],
            },
            {"notes": []},
        ),
        "BFVPackage": (
            BFVPackage,
            {
                "constraints": m["constraints"],
                "pack": m["pack"],
                "H": m["package"].H,
                "SH": m["package"].SH,
                "cartan": m["report"],
                "charge_invariance": m["package"].charge_invariance,
            },
            {},
        ),
        "H0Report": (
            H0Report,
            {
                "closed_dim": 5,
                "exact_dim": 3,
                "h_dim": 2,
                "notes": ("a note",),
            },
            {},
        ),
        "FieldEntry": (
            FieldEntry,
            {"name": "pi_1", "ghost": -1, "parity": 1, "is_partner": False},
            {},
        ),
        "ComponentAction": (
            ComponentAction,
            {
                "fields": m["action"].fields,
                "action": m["action"].action,
            },
            {},
        ),
        "Problem": (
            Problem,
            {
                "constraints": m["constraints"],
                "pack": m["pack"],
                "points": ((Fraction(1, 2),),),
                "document": {"rank": 1},
            },
            {},
        ),
    }


RECORDS = (
    "_Token",
    "CheckReport",
    "Algebroid",
    "CohomologyReport",
    "ConstraintSet",
    "ExtractionResult",
    "GeometryPack",
    "StructuralResiduals",
    "ConnectionSolution",
    "BFVPackage",
    "H0Report",
    "FieldEntry",
    "ComponentAction",
    "Problem",
)


@pytest.fixture(scope="module")
def cases():
    return _cases(_material())


def test_every_record_class_is_covered(cases):
    assert sorted(cases) == sorted(RECORDS)


def stored_form(name: str, field: str, value):
    """The attribute that keeps a constructor argument, and its value there."""
    if (name, field) != ("Algebroid", "structure"):
        return field, value
    # the structure functions are kept only as the index of the nonzero
    # C^c_ab over both orders; the case states one entry
    [((c, a, b), f)] = value.items()
    return "nonzero_structure", {(a, b): [(c, f)], (b, a): [(c, -f)]}


@pytest.mark.parametrize("name", RECORDS)
def test_record_constructor_surface(cases, name):
    cls, arguments, defaults = cases[name]
    by_position = cls(*arguments.values())
    by_keyword = cls(**arguments)
    for field, value in arguments.items():
        field, value = stored_form(name, field, value)
        assert getattr(by_position, field) == value, field
        assert getattr(by_keyword, field) == value, field
    required = [value for field, value in arguments.items() if field not in defaults]
    first, second = cls(*required), cls(*required)
    for field, value in defaults.items():
        assert getattr(first, field) == value, field
        if isinstance(value, (list, dict)):
            assert getattr(first, field) is not getattr(second, field), field


def test_derived_record_fields():
    # the fields the constructors derive instead of taking a second copy
    m = _material()
    assert m["action"].context is m["action"].action.ctx
    cs = m["constraints"]
    problem = Problem(cs, m["pack"], (), "{}")
    assert problem.data is cs.data
    # a zero anchor row, and no alpha, makes the second constraint zero
    data = m["data"]
    zero = EvenPoly.zero(data.coords)
    frame = Algebroid(data.coords, (data.anchor[0], (zero,)), {})
    degenerate = ConstraintSet(frame)
    assert degenerate.degenerate == (1,)
    assert check_first_class(degenerate).notes[1:] == [
        "degenerate constraints (identically zero): 2"
    ]
    assert cs.degenerate == ()
