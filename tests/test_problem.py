"""Problem file validation: schema, shapes, reserved names, field paths."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nqkit.problem
from nqkit.aksz import expansion_context
from nqkit.graded import extended_context
from nqkit.parser import parse_poly
from nqkit.poly import EvenPoly
from nqkit.problem import (
    ProblemError,
    _parse_entry,
    connection_strings,
    load_problem,
    problem_from_dict,
)
from tests.conftest import invoke
from tests.test_poly import random_poly, ring

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
    assert problem.data.nonzero_structure == {}
    assert problem.pack.g_inv is None
    assert problem.points == ()


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
    )
    problem = problem_from_dict(doc)
    coords, g = ring(["x"])
    assert problem.pack.omega == {}
    assert problem.pack.tau == {(0, 0): EvenPoly.const(coords, 3)}
    assert problem.constraints.alpha == (g["x"],)
    assert problem.points == ((Fraction(2),), (Fraction(-1, 3),))


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
    x = g["x"]
    assert problem.data.nonzero_structure == {(0, 1): [(0, x)], (1, 0): [(0, -x)]}


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
    assert problem.data.nonzero_structure[(1, 0)] == [(0, -g["x"])]


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


def test_sparse_structure_rejects_a_restated_entry(tmp_path):
    # keys are read in string order, so the later key is '1,1,2'
    doc = {
        "base_dim": 1,
        "rank": 2,
        "coords": ["x"],
        "anchor": [["1"], ["x"]],
        "structure": {"1,1,2": "1", "01,1,2": "5"},
    }
    message = "restates the entry of key '01,1,2'"
    with pytest.raises(ProblemError, match=message) as err:
        problem_from_dict(doc)
    assert path_of(err) == "structure['1,1,2']"
    # a zero diagonal entry stated twice is restated too
    with pytest.raises(ProblemError, match="restates") as err:
        problem_from_dict(minimal(structure={"1,1,1": "0", "1,01,1": "0"}))
    assert path_of(err) == "structure['1,1,1']"
    # through the command line: an input error, no traceback
    path = tmp_path / "restated.json"
    path.write_text(json.dumps(doc))
    result = invoke(["check", str(path), "--axioms"])
    assert result.exit_code == 2
    assert result.output == f"input error: structure['1,1,2']: {message}\n"
    # the mirror key and the index-0 message are unchanged
    mirrored = dict(doc, structure={"1,1,2": "1", "1,2,1": "-1"})
    assert problem_from_dict(mirrored).data.nonzero_structure[(0, 1)][0][0] == 0
    with pytest.raises(ProblemError, match="1-based up to the rank 2") as err:
        problem_from_dict(dict(doc, structure={"0,1,2": "1"}))
    assert path_of(err) == "structure['0,1,2']"


# the example of a repeated key: C^1_12 = 1, stated first, fails the axioms
REPEATED_STRUCTURE = (
    '{"base_dim":2,"rank":2,"coords":["x","y"],"anchor":[["1","0"],["0","1"]],'
    '"structure":{"1,1,2":"1","1,1,2":"0"}}'
)


@pytest.mark.parametrize(
    "text,path",
    [
        (REPEATED_STRUCTURE, "structure['1,1,2']"),
        ('{"base_dim":1,"rank":1,"coords":["x"],"anchor":[["1"]],"anchor":[["x"]]}', "anchor"),
        # a key is repeated when it decodes alike, however it is escaped
        ('{"base_dim":1,"rank":1,"coords":["x"],"anchor":[["1"]],"\\u0061nchor":[["1"]]}', "anchor"),
        ('{"base_dim":1,"base_dim":1,"rank":1,"coords":["x"],"anchor":[["1"]]}', "base_dim"),
    ],
    ids=["structure", "anchor", "escaped", "first_of_the_document"],
)
def test_a_repeated_key_is_refused_with_its_path(tmp_path, text, path):
    # JSON keeps the last value of a repeated key: the loader refuses it
    # rather than check a problem the file does not state
    file = tmp_path / "repeated.json"
    file.write_text(text)
    with pytest.raises(ProblemError) as err:
        load_problem(file)
    assert (path_of(err), err.value.message) == (
        path,
        "repeated key: JSON would keep only its last value",
    )
    result = invoke(["check", str(file), "--axioms"])
    assert result.exit_code == 2
    assert result.stderr == f"input error: {path}: {err.value.message}\n"
    assert "Traceback" not in result.output


def test_the_first_statement_of_the_repeated_key_fails_the_axioms(tmp_path):
    # what the refused file would have hidden: its last statement passes,
    # its first one fails
    for value, code in (("1", 1), ("0", 0)):
        file = tmp_path / f"c112_{value}.json"
        doc = json.loads(REPEATED_STRUCTURE)
        file.write_text(json.dumps(dict(doc, structure={"1,1,2": value})))
        assert invoke(["check", str(file), "--axioms"]).exit_code == code


def test_an_object_outside_the_schema_is_refused_by_its_reader(tmp_path):
    # a repeated key there changes nothing: the field refuses any object
    file = tmp_path / "object.json"
    file.write_text(json.dumps(minimal())[:-1] + ',"potential":{"a":1,"a":2}}')
    with pytest.raises(ProblemError) as err:
        load_problem(file)
    assert (path_of(err), err.value.message) == (
        "potential",
        "expressions must be strings or integers",
    )


OPTIONAL_FIELDS = sorted(
    nqkit.problem._KNOWN_FIELDS - {"base_dim", "rank", "coords", "anchor"}
)


@pytest.mark.parametrize("name", OPTIONAL_FIELDS)
def test_null_is_refused_in_every_optional_field(name):
    # null is no way to leave a field out: the ten optional fields refuse
    # it alike, each with its own path
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(**{name: None}))
    assert path_of(err) == name


def test_null_structure_and_points_read_as_the_wrong_type():
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(structure=None))
    assert str(err.value) == "structure: must have 1 planes or be a sparse object"
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(points=None))
    assert str(err.value) == "points: must be a list of coordinate vectors"


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
    assert err.value.message == (
        "structure functions must be antisymmetric, violated at c=1, a=1, b=2"
    )


def dense_planes(rank: int, entries: dict[tuple[int, int, int], str]) -> list:
    planes = [[["0"] * rank for _ in range(rank)] for _ in range(rank)]
    for (c, a, b), entry in entries.items():
        planes[c - 1][a - 1][b - 1] = entry
    return planes


@pytest.mark.parametrize(
    "entries,first",
    [
        # C^1_12 = C^1_21 and C^1_13 = C^1_31 fail in plane 1, C^2_11 in
        # plane 2 with a smaller b
        (
            {
                (1, 1, 2): "1",
                (1, 2, 1): "1",
                (1, 1, 3): "x",
                (1, 3, 1): "x",
                (2, 1, 1): "1",
            },
            "c=1, a=1, b=2",
        ),
        # a nonzero diagonal entry is a violation of its own
        ({(1, 3, 3): "x", (2, 1, 2): "1", (2, 2, 1): "1"}, "c=1, a=3, b=3"),
    ],
    ids=["scan_order", "diagonal"],
)
def test_dense_structure_reports_the_first_violation_in_c_a_b_order(entries, first):
    doc = {
        "base_dim": 1,
        "rank": 3,
        "coords": ["x"],
        "anchor": [["1"], ["0"], ["0"]],
        "structure": dense_planes(3, entries),
    }
    with pytest.raises(ProblemError) as err:
        problem_from_dict(doc)
    assert str(err.value) == (
        f"structure: structure functions must be antisymmetric, violated at {first}"
    )


def random_structure(rng: random.Random, rank: int, coords) -> tuple[dict, list]:
    """A sparse structure object with some mirrors stated, and its dense twin."""
    sparse: dict[str, str] = {}
    dense = [[["0"] * rank for _ in range(rank)] for _ in range(rank)]
    for c in range(rank):
        for a in range(rank):
            for b in range(a + 1, rank):
                if rng.random() < 0.4:
                    continue
                entry = str(random_poly(rng, coords, 2))
                dense[c][a][b], dense[c][b][a] = entry, f"-({entry})"
                side = rng.randrange(3)  # the a < b key, its mirror, or both
                if side != 1:
                    sparse[f"{c + 1},{a + 1},{b + 1}"] = entry
                if side != 0:
                    sparse[f"{c + 1},{b + 1},{a + 1}"] = f"-({entry})"
    return sparse, dense


def test_sparse_and_dense_structure_load_alike():
    rng = random.Random(41)
    coords = ("x", "y")
    stated = 0
    for _ in range(12):
        rank = rng.randrange(1, 5)
        sparse, dense = random_structure(rng, rank, coords)
        doc = {
            "base_dim": 2,
            "rank": rank,
            "coords": list(coords),
            "anchor": [
                [str(random_poly(rng, coords, 2)) for _ in coords] for _ in range(rank)
            ],
        }
        from_sparse = problem_from_dict(dict(doc, structure=sparse)).data
        from_dense = problem_from_dict(dict(doc, structure=dense)).data
        assert from_sparse == from_dense
        assert list(from_sparse.nonzero_structure) == list(from_dense.nonzero_structure)
        stated += len(from_sparse.nonzero_structure)
    assert stated > 0


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


def test_every_generated_name_is_reserved():
    # the name schemes of graded and aksz against the loader's reserved list
    coords = ("x", "y")
    phase = extended_context(coords, 2)
    generated = {
        name
        for ctx in (phase, expansion_context(coords, 2))
        for name in ctx.even_names + ctx.odd_names
        if name not in coords
    }
    assert {"p_x", "xi_2", "pi_1", "theta"} <= generated
    for name in sorted(generated):
        for k in range(2):
            doc = {
                "base_dim": 2,
                "rank": 2,
                "coords": [name if j == k else coords[j] for j in range(2)],
                "anchor": [["1", "0"], ["0", "1"]],
            }
            with pytest.raises(ProblemError) as err:
                problem_from_dict(doc)
            assert path_of(err) == f"coords[{k + 1}]", name


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
    # the check runs after every field is parsed and before the geometry
    # pack: a parse error anywhere comes first, a metric error after it
    twisted = json.loads((CORPUS / "abelian_r2_magnetic.json").read_text())
    twisted["magnetic"] = [["0", "1"], ["1", "0"]]
    for field, value, message in (
        ("metric", [["1", "x1"], ["0", "1"]], "magnetic: matrix must be antisymmetric"),
        ("beta", ["x1", "1.5"], "beta[2]: position 1: unexpected character '.'"),
        ("alpha", ["y", "0"], "alpha[1]: position 0: unknown coordinate 'y'"),
    ):
        with pytest.raises(ProblemError) as err:
            problem_from_dict(dict(twisted, **{field: value}))
        assert str(err.value) == message


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


def test_truncation_block_is_refused_by_name(tmp_path):
    # the cohomology windows are set by the command line alone: a file
    # that still sets them is refused, and the command that reads it exits 2
    block = {"x_degree": 4, "p_degree": 1, "slack": 1}
    with pytest.raises(ProblemError) as err:
        problem_from_dict(minimal(truncation=block))
    assert (path_of(err), err.value.message) == ("truncation", "unknown field")
    doc = json.loads((CORPUS / "so3_action.json").read_text())
    path = tmp_path / "so3_truncation.json"
    path.write_text(json.dumps(dict(doc, truncation=block)))
    result = invoke(["cohomology", str(path)])
    assert result.exit_code == 2
    assert result.stderr == "input error: truncation: unknown field\n"


def test_load_problem_file_errors(tmp_path):
    with pytest.raises(ProblemError) as err:
        load_problem(tmp_path / "absent.json")
    assert path_of(err) == "$"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemError, match="not valid JSON"):
        load_problem(bad)


def test_problem_keeps_the_document_it_was_given():
    # kept, not copied: like every record, it is not altered afterwards
    doc = minimal()
    assert problem_from_dict(doc).document is doc


def test_load_keeps_the_document_it_decoded(tmp_path):
    # whatever the layout and line ends, the document is the decoded file
    text = json.dumps(minimal(), indent=3)
    path = tmp_path / "minimal.json"
    for ends in ("\r\n", "\r", "\n"):
        path.write_bytes(text.replace("\n", ends).encode())
        document = load_problem(path).document
        assert document == json.loads(path.read_text()) == minimal()


def test_solve_connection_writes_the_same_bytes_from_the_kept_text(tmp_path):
    # a file laid out by hand, with escapes, a key order of its own and CRLF
    # line ends, against the compact encoding of the same document
    doc = json.loads((CORPUS / "so3_action.json").read_text())
    reordered = {key: doc[key] for key in reversed(list(doc))}
    layout = json.dumps(reordered, indent="\t", ensure_ascii=True)
    layout = layout.replace('"x1"', '"\\u0078\\u0031"').replace("\n", "\r\n")
    assert json.loads(layout) == reordered
    written = {}
    for name, text in [("layout", layout), ("compact", json.dumps(reordered))]:
        source = tmp_path / f"{name}.json"
        source.write_bytes(text.encode())
        out = tmp_path / f"{name}_solved.json"
        result = invoke(["solve-connection", str(source), "--write", str(out)])
        assert result.exit_code == 0, result.output
        written[name] = out.read_bytes()
    assert written["layout"] == written["compact"]
    assert json.loads(written["layout"])["coords"] == ["x1", "x2", "x3"]


def test_connection_strings_round_trip():
    doc = minimal(
        metric=[["1"]], metric_inv=[["1"]], connection=[[["1/2*x^2"]]]
    )
    problem = problem_from_dict(doc)
    rendered = connection_strings(problem.pack.omega, 1, 1)
    assert rendered == [[["1/2*x^2"]]]
    reparsed = problem_from_dict(minimal(
        metric=[["1"]], metric_inv=[["1"]], connection=rendered
    ))
    assert reparsed.pack.omega == problem.pack.omega
    # rank 2 over two coordinates, one entry at connection[2][1][2]: a
    # filler that swaps two neighbouring axes renders it elsewhere
    connection = [[["0", "0"], ["0", "0"]], [["0", "x*y"], ["0", "0"]]]
    plane = dict(
        base_dim=2, rank=2, coords=["x", "y"], anchor=[["1", "0"], ["0", "1"]]
    )
    problem = problem_from_dict(dict(plane, connection=connection))
    assert list(problem.pack.omega) == [(1, 0, 1)]
    rendered = connection_strings(problem.pack.omega, 2, 2)
    assert rendered == connection
    reparsed = problem_from_dict(dict(plane, connection=rendered))
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
