"""Problem file validation: schema, shapes, reserved names, field paths."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import nqkit.problem
from nqkit.parser import parse_poly
from nqkit.poly import EvenPoly
from nqkit.problem import (
    ProblemError,
    Truncation,
    _parse_entry,
    connection_strings,
    load_problem,
    problem_from_dict,
)
from tests.test_poly import ring

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def minimal(**extra) -> dict:
    doc = {
        "base_dim": 1,
        "rank": 1,
        "coords": ["x"],
        "anchor": [["1"]],
    }
    doc.update(extra)
    return doc


def path_of(excinfo) -> str:
    return excinfo.value.path


def test_minimal_document_loads():
    problem = problem_from_dict(minimal())
    assert problem.base_dim == 1
    assert problem.rank == 1
    assert problem.coords == ("x",)
    assert problem.data.structure[0][0][0].is_zero
    assert problem.pack.g_inv is None
    assert problem.points == ()
    assert problem.truncation == Truncation(2, 1, 2)


def test_full_document_loads():
    doc = minimal(
        metric_inv=[["1"]],
        metric=[["1"]],
        connection=[[["0"]]],
        tau=[["3"]],
        alpha=["x"],
        potential="x^2",
        beta=["x"],
        points=[[2], ["-1/3"]],
        truncation={"x_degree": 4, "slack": 1},
    )
    problem = problem_from_dict(doc)
    coords, g = ring(["x"])
    assert problem.pack.tau[0][0] == EvenPoly.const(coords, 3)
    assert problem.pack.alpha == (g["x"],)
    assert problem.points == ((Fraction(2),), (Fraction(-1, 3),))
    assert problem.truncation == Truncation(x_degree=4, p_degree=1, slack=1)


def test_structure_defaults_to_zero_and_integer_entries_are_accepted():
    doc = minimal(anchor=[[1]], potential=0)
    problem = problem_from_dict(doc)
    assert problem.data.anchor[0][0] == EvenPoly.const(("x",), 1)
    assert problem.pack.potential.is_zero


def test_sparse_structure_fills_antisymmetric_image():
    doc = {
        "base_dim": 1,
        "rank": 2,
        "coords": ["x"],
        "anchor": [["1"], ["x"]],
        "structure": {"1,1,2": "x"},
    }
    problem = problem_from_dict(doc)
    _, g = ring(["x"])
    assert problem.data.structure[0][0][1] == g["x"]
    assert problem.data.structure[0][1][0] == -g["x"]


def test_sparse_structure_accepts_consistent_mirror():
    doc = {
        "base_dim": 1,
        "rank": 2,
        "coords": ["x"],
        "anchor": [["1"], ["x"]],
        "structure": {"1,1,2": "x", "1,2,1": "-x"},
    }
    problem = problem_from_dict(doc)
    _, g = ring(["x"])
    assert problem.data.structure[0][1][0] == -g["x"]


def test_sparse_structure_rejects_inconsistent_mirror():
    doc = {
        "base_dim": 1,
        "rank": 2,
        "coords": ["x"],
        "anchor": [["1"], ["x"]],
        "structure": {"1,1,2": "x", "1,2,1": "x"},
    }
    with pytest.raises(ProblemError, match="negate exactly") as err:
        problem_from_dict(doc)
    assert "structure" in path_of(err)


def test_sparse_structure_rejects_nonzero_diagonal():
    doc = minimal(structure={"1,1,1": "x"})
    with pytest.raises(ProblemError, match="diagonal"):
        problem_from_dict(doc)


def test_sparse_structure_key_and_range_errors():
    with pytest.raises(ProblemError, match="form 'c,a,b'"):
        problem_from_dict(minimal(structure={"1,2": "x"}))
    with pytest.raises(ProblemError, match="1-based"):
        problem_from_dict(minimal(structure={"1,1,2": "x"}))


def test_dense_structure_antisymmetry_checked():
    doc = {
        "base_dim": 1,
        "rank": 2,
        "coords": ["x"],
        "anchor": [["1"], ["0"]],
        "structure": [
            [["0", "x"], ["x", "0"]],
            [["0", "0"], ["0", "0"]],
        ],
    }
    with pytest.raises(ProblemError, match="antisymmetric") as err:
        problem_from_dict(doc)
    assert path_of(err) == "structure"


def test_unknown_field_rejected():
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(extra=1))
    assert path_of(err) == "extra"


@pytest.mark.parametrize(
    "name", ["p_y", "xi_b", "pi_c", "lam_d", "theta", "v_dot", "w_odd"]
)
def test_reserved_coordinate_names_rejected(name):
    doc = {
        "base_dim": 1,
        "rank": 1,
        "coords": [name],
        "anchor": [["1"]],
    }
    with pytest.raises(ProblemError) as err:
        problem_from_dict(doc)
    assert path_of(err) == "coords[1]"


def test_duplicate_and_malformed_coordinates_rejected():
    doc = {
        "base_dim": 2,
        "rank": 1,
        "coords": ["x", "x"],
        "anchor": [["1", "0"]],
    }
    with pytest.raises(ProblemError, match="duplicate"):
        problem_from_dict(doc)
    doc["coords"] = ["x", "2y"]
    with pytest.raises(ProblemError, match="identifiers"):
        problem_from_dict(doc)


def test_decimal_literals_rejected():
    with pytest.raises(ProblemError, match="ratio") as err:
        problem_from_dict(minimal(anchor=[[0.5]]))
    assert path_of(err) == "anchor[1][1]"


def test_expression_errors_carry_their_path():
    with pytest.raises(ProblemError, match="unknown coordinate") as err:
        problem_from_dict(minimal(potential="y"))
    assert path_of(err) == "potential"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(alpha=[True]))
    assert path_of(err) == "alpha[1]"


def test_integer_literals_skip_the_parser_with_its_answer(monkeypatch):
    coords = ("x", "y")
    literals = ["0", "+0", "-0", "7", "+7", "-7", " 12 ", "\t-3\n", "  +0  ", "0042"]
    literals.append("-" + "9" * 60)
    answers = {text: parse_poly(text, coords) for text in literals}
    routed = []

    def parser(text, ring):
        routed.append(text)
        return parse_poly(text, ring)

    monkeypatch.setattr(nqkit.problem, "parse_poly", parser)
    for text in literals:
        entry = _parse_entry(text, coords, "anchor[1][1]")
        assert entry == answers[text]
        assert all(type(c) is int for c in entry.terms.values())
    for value in (0, -5, 12):
        assert _parse_entry(value, coords, "alpha[1]") == parse_poly(str(value), coords)
    assert routed == []
    # anything else takes the full parser
    for text in ["+-4", "- 3", "3/6", "x", "2*x"]:
        assert _parse_entry(text, coords, "potential") == parse_poly(text, coords)
    assert routed == ["+-4", "- 3", "3/6", "x", "2*x"]


def test_overlong_integer_literal_keeps_the_parser_error():
    huge = "1" * 5000  # past the interpreter's digit limit for int()
    for text, position in [(huge, 0), ("-" + huge, 1), ("  +" + huge + " ", 3)]:
        with pytest.raises(ProblemError) as err:
            problem_from_dict(minimal(anchor=[[text]]))
        assert path_of(err) == "anchor[1][1]"
        assert str(err.value).endswith(f"position {position}: integer literal too long")


def test_shape_errors():
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(anchor=[["1"], ["0"]]))
    assert path_of(err) == "anchor"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(beta=["1", "0"]))
    assert path_of(err) == "beta"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(connection=[[["1", "0"]]]))
    assert path_of(err) == "connection[1][1]"


def test_metric_pair_must_invert_exactly():
    doc = minimal(metric=[["x"]], metric_inv=[["1"]])
    with pytest.raises(ProblemError, match="exact inverses") as err:
        problem_from_dict(doc)
    assert path_of(err) == "metric_inv"


def test_magnetic_antisymmetry_checked():
    doc = {
        "base_dim": 2,
        "rank": 1,
        "coords": ["x1", "x2"],
        "anchor": [["1", "0"]],
        "magnetic": [["0", "1"], ["1", "0"]],
    }
    with pytest.raises(ProblemError, match="antisymmetric") as err:
        problem_from_dict(doc)
    assert path_of(err) == "magnetic"
    assert str(err.value) == "magnetic: matrix must be antisymmetric"


def test_points_validation():
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(points=[[1, 2]]))
    assert path_of(err) == "points[1]"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(points=[[0.5]]))
    assert path_of(err) == "points[1][1]"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(points=[["1/0"]]))
    assert path_of(err) == "points[1][1]"


def test_truncation_validation():
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(truncation={"x_degree": -1}))
    assert path_of(err) == "truncation.x_degree"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(truncation={"depth": 2}))
    assert path_of(err) == "truncation.depth"


def test_load_problem_file_errors(tmp_path):
    with pytest.raises(ProblemError) as err:
        load_problem(tmp_path / "absent.json")
    assert path_of(err) == "$"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemError, match="not valid JSON"):
        load_problem(bad)


def test_document_returns_a_fresh_copy():
    doc = minimal()
    problem = problem_from_dict(doc)
    copy1 = problem.document()
    copy1["rank"] = 7
    assert json.loads(problem.raw)["rank"] == 1
    assert problem.document()["rank"] == 1
    assert problem.document() == doc


def test_connection_strings_round_trip():
    doc = minimal(
        metric=[["1"]], metric_inv=[["1"]], connection=[[["1/2*x^2"]]]
    )
    problem = problem_from_dict(doc)
    rendered = connection_strings(problem.pack.omega)
    reparsed = problem_from_dict(minimal(
        metric=[["1"]], metric_inv=[["1"]], connection=rendered
    ))
    assert reparsed.pack.omega == problem.pack.omega


def test_corpus_files_all_load():
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) == 10
    for file in files:
        problem = load_problem(file)
        assert problem.base_dim == len(problem.coords)
    so3 = load_problem(CORPUS / "so3_action.json")
    assert so3.rank == 3
    assert len(so3.points) == 3
