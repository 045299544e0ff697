"""Command line behavior: exit codes, report output, byte-stable JSON."""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import nqkit.algebroid
import nqkit.bfv
import nqkit.cli
import nqkit.constraints
import nqkit.dynamics
from nqkit.aksz import (
    FieldEntry,
    build_supercharge,
    expand_bv,
    extended_action_reference,
    field_table,
)
from nqkit.bfv import _balanced_words, assemble_bfv, build_charge
from nqkit.graded import GradedContext
from nqkit.poly import EvenPoly, monomial_exponents
from nqkit.problem import load_problem
from tests.conftest import invoke
from tests.reference_forms import e_differential, one_form
from tests.test_generated_frames import gen

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

# frozen corpus verdicts: warnings and skips do not fail
EXPECTED_EXIT = {
    "abelian_r1": 0,
    "abelian_r2": 0,
    "abelian_r2_magnetic": 0,
    "beta_drift": 1,
    "broken_jacobi": 1,
    "leafwise_metric": 0,
    "rank2_line": 0,
    "rank2_line_affine": 0,
    "shear_pair": 1,
    "so3_action": 0,
}


def run(*args):
    return invoke(args)


def corpus_path(name: str) -> str:
    return str(CORPUS / f"{name}.json")


# check


def test_check_requires_a_selection():
    result = run("check", corpus_path("so3_action"))
    assert result.exit_code == 2


def test_check_axioms_pass_and_fail():
    result = run("check", corpus_path("so3_action"), "--axioms")
    assert result.exit_code == 0
    assert "[PASS] axioms" in result.output
    result = run("check", corpus_path("broken_jacobi"), "--axioms")
    assert result.exit_code == 1
    assert "[FAIL] axioms" in result.output
    assert "jacobi" in result.output


def test_check_warning_does_not_fail():
    result = run("check", corpus_path("rank2_line"), "--irreducible")
    assert result.exit_code == 0
    assert "[WARN] irreducible" in result.output
    assert "generically reducible" in result.output
    assert "probe seed 271828" in result.output


def test_check_all_exit_codes_across_corpus():
    for name, expected in EXPECTED_EXIT.items():
        result = run("check", corpus_path(name), "--all")
        assert result.exit_code == expected, (name, result.output)


def test_check_all_reports_appear_in_canonical_order():
    result = run("check", corpus_path("so3_action"), "--all")
    positions = [
        result.output.index(f"] {name}:")
        for name in (
            "axioms",
            "first_class",
            "irreducible",
            "metric_compat",
            "structural",
            "evolution",
            "master",
            "cartan",
            "supercharge",
        )
    ]
    assert positions == sorted(positions)
    assert result.output.rstrip().endswith("overall: warn")


def test_check_skips_missing_geometry_under_all_but_rejects_explicit():
    result = run("check", corpus_path("abelian_r2_magnetic"), "--all")
    assert result.exit_code == 0
    assert "[SKIPPED] metric_compat" in result.output
    result = run("check", corpus_path("abelian_r2_magnetic"), "--metric")
    assert result.exit_code == 2
    result = run("check", corpus_path("abelian_r2_magnetic"), "--cartan")
    assert result.exit_code == 2


def test_check_drift_blocks_assembly_only_when_explicit():
    result = run("check", corpus_path("beta_drift"), "--all")
    assert result.exit_code == 1  # evolution fails; assembly is skipped
    assert "drift term present" in result.output
    result = run("check", corpus_path("beta_drift"), "--supercharge")
    assert result.exit_code == 2


def test_check_cartan_failure_is_a_finding_not_an_input_error():
    result = run("check", corpus_path("shear_pair"), "--cartan")
    assert result.exit_code == 1
    assert "[FAIL] cartan" in result.output
    assert "reassembles the bracket residual exactly" in result.output


def _wrong_self_bracket(charge):
    return charge.ctx.var("p_x1")


def _oversized_image(columns, inside):
    return 10**6


def _wrong_reference(data, pack):
    return extended_action_reference(data, pack) + 1


def _bumped_field_table(coords, rank):
    fields = list(field_table(coords, rank))
    first = fields[0]
    fields[0] = FieldEntry(first.name, first.ghost + 1, first.parity, first.is_partner)
    return tuple(fields)


EMIT_SO3_BV = ["emit", corpus_path("so3_action"), "--what", "bv", "--out", "bv.json"]


@pytest.mark.parametrize(
    "target, replacement, args, message",
    [
        (
            "nqkit.bfv._expected_self_bracket",
            _wrong_self_bracket,
            ["check", corpus_path("so3_action"), "--master"],
            "internal dual-route mismatch in the self-bracket",
        ),
        (
            "nqkit.bfv.image_in",
            _oversized_image,
            ["cohomology", corpus_path("abelian_r1"), "--bfv-h0", "--trunc", "0"],
            "internal window inconsistency in the cohomology count",
        ),
        (
            "nqkit.cli.extended_action_reference",
            _wrong_reference,
            EMIT_SO3_BV,
            "internal dual-route mismatch in the classical limit of the action",
        ),
        (
            "nqkit.aksz.field_table",
            _bumped_field_table,
            EMIT_SO3_BV,
            "internal bookkeeping mismatch in the component action: field[x1]",
        ),
    ],
    ids=["self_bracket", "window", "classical_limit", "bookkeeping"],
)
def test_tripped_engine_guard_exits_3(
    monkeypatch, tmp_path, target, replacement, args, message
):
    monkeypatch.setattr(target, replacement)
    monkeypatch.chdir(tmp_path)
    result = run(*args)
    assert result.exit_code == 3
    assert f"internal error: {message}" in result.stderr


@pytest.mark.parametrize(
    "args, exit_code, brackets",
    [
        (["check", corpus_path("so3_action"), "--all"], 0, ["(S, S)", "(S, H)"]),
        # the drift refuses the assembly, so no H is built
        (["check", corpus_path("beta_drift"), "--all"], 1, ["(S, S)"]),
        (EMIT_SO3_BV, 0, ["(S, S)", "(S, H)"]),
        # rank 15: the rank at which a repeated invariant costs seconds
        (["check", "so6.json", "--all"], 0, ["(S, S)", "(S, H)"]),
    ],
    ids=["check_all", "check_all_drift", "emit_bv", "check_all_so6"],
)
def test_defect_tensors_computed_once_per_invocation(
    monkeypatch, tmp_path, args, exit_code, brackets
):
    # the defect tensors, the structural 2-form, the structural residuals
    # (when a metric is given), the core charge, its self-bracket and (S, H),
    # once each
    monkeypatch.chdir(tmp_path)
    if args[1] == "so6.json":
        Path("so6.json").write_text(json.dumps(gen.so_n(6)))
    problem = load_problem(args[1])
    charge = build_charge(problem.data, problem.pack)
    named = {"(S, S)": (charge.S, charge.S)}
    if "(S, H)" in brackets:
        named["(S, H)"] = (charge.S, assemble_bfv(charge).H)
    bracketed = []
    poisson = GradedContext.poisson

    def recorded(ctx, F, G):
        bracketed.append((F, G))
        return poisson(ctx, F, G)

    monkeypatch.setattr(GradedContext, "poisson", recorded)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # every nqkit module that binds the function, so no route escapes the count
    modules = [m for key, m in sys.modules.items() if key.startswith("nqkit")]
    owners = {
        "anchor_defect": nqkit.algebroid,
        "jacobi_defect": nqkit.algebroid,
        "structural_two_form": nqkit.constraints,
        "structural_residuals": nqkit.dynamics,
        "build_S": nqkit.bfv,
        "check_master": nqkit.bfv,
    }
    for name, owner in owners.items():
        original = getattr(owner, name)
        wrapper = counted(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    result = run(*args)
    assert result.exit_code == exit_code
    expected = {name: 1 for name in owners}
    if args[0] == "emit":
        expected["structural_residuals"] = 0  # no metric check runs
    assert {name: calls[name] for name in owners} == expected
    counts = {label: bracketed.count(pair) for label, pair in named.items()}
    assert counts == {label: 1 for label in brackets}


def test_stored_coefficients_are_nonzero_ints_or_fractions(tmp_path, monkeypatch):
    # every polynomial the verbs build passes through the filtering
    # constructor or the trusted one; either way it may store only nonzero
    # ints and Fractions, never a float, a bool or a zero
    monkeypatch.chdir(tmp_path)
    Path("so3.json").write_text(json.dumps(gen.so_n(3)))
    stored = Counter()
    bad = []

    def inspect(poly):
        for coeff in poly.terms.values():
            kind = type(coeff)
            stored[kind.__name__] += 1
            if not (kind is int or kind is Fraction) or not coeff:
                bad.append((kind.__name__, coeff, str(poly)))

    post_init = EvenPoly.__post_init__
    trusted = EvenPoly._trusted.__func__

    def guarded_post_init(poly):
        post_init(poly)
        inspect(poly)

    def guarded_trusted(cls, coords, terms):
        poly = trusted(cls, coords, terms)
        inspect(poly)
        return poly

    monkeypatch.setattr(EvenPoly, "__post_init__", guarded_post_init)
    monkeypatch.setattr(EvenPoly, "_trusted", classmethod(guarded_trusted))
    files = [corpus_path(name) for name in EXPECTED_EXIT] + ["so3.json"]
    for file in files:
        for args in (
            ["check", file, "--all"],
            ["emit", file, "--what", "bfv", "--force", "--out", "bfv.json"],
            ["emit", file, "--what", "bv", "--force", "--out", "bv.json"],
            ["cohomology", file],
        ):
            result = run(*args)
            assert result.exit_code in (0, 1), (args, result.output)
            assert bad == [], args
    # the guard saw both kinds of coefficient on these inputs
    assert stored["int"] > 1000 and stored["Fraction"] > 100, stored


@pytest.mark.parametrize(
    "args, verdicts",
    [
        (["check", "--all", "--json", "out.json"], "checks"),
        (["check", "--master", "--json", "out.json"], "checks"),
        (["emit", "--what", "bfv", "--out", "out.json"], "emit"),
        (["emit", "--what", "bv", "--out", "out.json"], "emit"),
        (["cohomology", "--bfv-h0"], None),
    ],
    ids=["check_all", "check_master", "emit_bfv", "emit_bv", "bfv_h0"],
)
def test_zero_frame_is_answered(tmp_path, monkeypatch, args, verdicts):
    # zero anchor and structure is a valid frame; its charge S = 0 satisfies
    # (S, S) = 0, so every verb answers, with no traceback
    frame = tmp_path / "zero.json"
    frame.write_text(
        json.dumps({"base_dim": 1, "rank": 1, "coords": ["x"], "anchor": [["0"]]})
    )
    monkeypatch.chdir(tmp_path)
    # an exception other than SystemExit propagates out of `run`
    result = run(args[0], str(frame), *args[1:])
    assert "Traceback" not in result.output + result.stderr
    assert result.exit_code == 0
    if verdicts == "checks":
        checks = json.loads(Path("out.json").read_text())["checks"]
        statuses = [check["status"] for check in checks]
        assert "fail" not in statuses and "pass" in statuses
        assert "[PASS] master: (S, S) = 0" in result.output
    elif verdicts == "emit":
        statuses = json.loads(Path("out.json").read_text())["checks"].values()
        assert set(statuses) <= {"pass", "skipped"} and "pass" in statuses
    else:
        assert "closed 12   exact 0   h^0 12" in result.output


def test_master_is_reported_when_assembly_is_refused(tmp_path, monkeypatch):
    # the drift term makes assemble_bfv refuse; the master report needs only
    # the charge, so it is still printed, and the JSON is the frozen one
    monkeypatch.chdir(ROOT)
    out = tmp_path / "beta_drift.json"
    result = run("check", "corpus/beta_drift.json", "--all", "--json", str(out))
    assert result.exit_code == 1
    assert "[PASS] master: (S, S) = 0" in result.output
    assert "[SKIPPED] cartan" in result.output
    assert out.read_bytes() == (CORPUS / "expected" / "beta_drift.json").read_bytes()
    statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert statuses["master"] == "pass"


def test_check_malformed_file_names_the_field(tmp_path, monkeypatch):
    result = run("check", "/tmp/does-not-exist-nqkit.json", "--all")
    assert result.exit_code == 2
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text('{"base_dim": 1, "coords": ["x"]}')
    result = run("check", "bad.json", "--all")
    assert result.exit_code == 2
    assert "rank" in result.stderr
    # alpha and magnetic are checked once, in the geometry pack or the reader
    doc = json.loads((CORPUS / "abelian_r2.json").read_text())
    for field, value, message in (
        ("magnetic", [["0", "1"], ["1", "0"]], "magnetic: matrix must be antisymmetric"),
        ("alpha", ["1"], "alpha: must list exactly 2 expressions"),
    ):
        Path("bad.json").write_text(json.dumps(dict(doc, **{field: value})))
        result = run("check", "bad.json", "--all")
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"input error: {message}\n"


@pytest.mark.parametrize(
    "entry,message",
    [
        ("(" * 2000 + "x" + ")" * 2000, "nesting deeper"),  # unbounded: RecursionError
        ("x^99999999999", "exponent larger"),  # unbounded: expands for hours
        pytest.param(
            " -" + "1" * 5000, "position 2: integer literal too long", id="overlong-int"
        ),
        # non-ASCII digits and letters: were an AssertionError traceback
        ("x²", "position 1: unexpected character '²'"),
        ("é", "position 0: unexpected character 'é'"),
        ("xª", "position 1: unexpected character 'ª'"),
    ],
)
def test_hostile_entry_fails_fast_with_its_field_path(tmp_path, entry, message):
    doc = json.loads((CORPUS / "abelian_r1.json").read_text())
    doc["anchor"] = [[entry]]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = run("check", str(path), "--axioms")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "input error: anchor[1][1]: " in result.stderr
    assert message in result.stderr


# `\d` and int() accept any script's decimal digits; the grammar is ASCII.
# One case per place digits are read from text: the plain-integer fast
# path, the tokenizer, rational point literals, sparse keys and the integer
# options, which take only the file grammar's integer literal.
@pytest.mark.parametrize(
    "field,value,where,message",
    [
        ("anchor", [["٣"]], "anchor[1][1]", "position 0: unexpected character '٣'"),
        ("anchor", [["x*٣"]], "anchor[1][1]", "position 2: unexpected character '٣'"),
        ("points", [["٣"]], "points[1][1]", "not an exact rational literal: '٣'"),
        ("structure", {"١,1,1": "0"}, "structure['١,1,1']", "sparse keys have the form"),
        ("--trunc", "٣", None, "'٣' is not a valid integer."),
        ("--slack", "0_1", None, "'0_1' is not a valid integer."),
        ("--trunc", " 1", None, "' 1' is not a valid integer."),
    ],
    ids=[
        "integer-literal",
        "tokenizer",
        "rational",
        "sparse-key",
        "option",
        "option-underscore",
        "option-space",
    ],
)
def test_non_ascii_digits_are_input_errors(tmp_path, field, value, where, message):
    doc = json.loads((CORPUS / "abelian_r1.json").read_text())
    path = tmp_path / "digits.json"
    if where is None:  # a command line option
        path.write_text(json.dumps(doc))
        result = run("cohomology", str(path), field, value)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            f"Error: Invalid value for '{field}': {message}\n"
        )
        return
    doc[field] = value
    path.write_text(json.dumps(doc))
    result = run("check", str(path), "--axioms")
    assert result.exit_code == 2
    assert f"input error: {where}: " in result.stderr
    assert message in result.stderr


def test_missing_file_is_an_input_error_at_the_root(tmp_path):
    path = tmp_path / "absent.json"
    result = run("check", str(path), "--axioms")
    assert result.exit_code == 2
    assert result.stderr == (
        f"input error: $: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_file_that_is_not_utf8_is_an_input_error_at_the_root(tmp_path):
    # a lone Latin-1 e-acute (0xe9) inside a JSON string
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"base_dim": 1, "rank": 1, "coords": ["x"], "anchor": [["\xe9"]]}')
    result = run("check", str(path), "--axioms")
    assert result.exit_code == 2
    assert result.stderr == (
        "input error: $: not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 "
        "in position 57: invalid continuation byte\n"
    )


@pytest.mark.parametrize(
    "args, option",
    [
        (["check", corpus_path("so3_action"), "--axioms", "--json"], "--json"),
        (["emit", corpus_path("so3_action"), "--what", "bfv", "--out"], "--out"),
        (["solve-connection", corpus_path("rank2_line"), "--write"], "--write"),
    ],
    ids=["json", "out", "write"],
)
@pytest.mark.parametrize("target", ["missing_dir", "a_dir"])
def test_unwritable_output_is_an_input_error_naming_the_option(
    tmp_path, args, option, target
):
    path = tmp_path / "no" / "such.json" if target == "missing_dir" else tmp_path
    error = (
        f"[Errno 2] No such file or directory: '{path}'"
        if target == "missing_dir"
        else f"[Errno 21] Is a directory: '{path}'"
    )
    result = run(*args, str(path))
    assert result.exit_code == 2
    # refused before any work: nothing is reported or written
    assert result.stdout == ""
    assert result.stderr == f"input error: {option}: {error}\n"
    if target == "missing_dir":
        assert not path.parent.exists()


def test_number_past_the_digit_limit_is_an_input_error(tmp_path):
    path = tmp_path / "huge.json"
    huge = "1" + "0" * 5000
    path.write_text(f'{{"base_dim": 1, "rank": 1, "coords": ["x"], "anchor": [[{huge}]]}}')
    result = run("check", str(path), "--axioms")
    assert result.exit_code == 2
    assert "input error: $: not valid JSON" in result.stderr


def test_check_json_matches_frozen_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in EXPECTED_EXIT:
        out = tmp_path / f"{name}.json"
        run("check", f"corpus/{name}.json", "--all", "--json", str(out))
        expected = (CORPUS / "expected" / f"{name}.json").read_bytes()
        assert out.read_bytes() == expected, name


def test_check_json_is_byte_stable(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run("check", corpus_path("so3_action"), "--all", "--json", str(first))
    run("check", corpus_path("so3_action"), "--all", "--json", str(second))
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["command"] == "check"
    assert doc["overall"] == "warn"
    assert [c["name"] for c in doc["checks"]][:2] == ["axioms", "first_class"]
    assert all("elapsed" not in c for c in doc["checks"])


# cohomology


def test_cohomology_first_order_window():
    result = run("cohomology", corpus_path("so3_action"))
    assert result.exit_code == 0
    assert "closed 8   exact 8   h^1 0" in result.output
    result = run("cohomology", corpus_path("rank2_line"))
    assert result.exit_code == 0
    assert "closed 3   exact 2   h^1 1" in result.output
    assert "closed 1: (1) e^2" in result.output


def test_cohomology_constant_sector_vanishes_for_so3():
    result = run("cohomology", corpus_path("so3_action"), "--trunc", "0")
    assert result.exit_code == 0
    assert "closed 0   exact 0   h^1 0" in result.output


def test_cohomology_exactness_query():
    result = run("cohomology", corpus_path("rank2_line_affine"), "--is-exact")
    assert result.exit_code == 0
    assert result.output.strip() == "exact, primitive f = x"
    result = run(
        "cohomology", corpus_path("abelian_r2_magnetic"), "--is-exact"
    )
    assert result.exit_code == 1
    assert "not closed" in result.output


def test_exactness_closedness_matches_the_reference(tmp_path):
    # the "not closed" line of --is-exact, Q applied to alpha_a xi^a, against
    # the component formula of the frame differential: the last dual frame
    # form, exact (so closed) alphas and random alphas
    rng = random.Random(31)
    path = tmp_path / "alpha.json"
    verdicts = Counter()
    for name in ("abelian_r2", "rank2_line", "shear_pair", "so3_action"):
        doc = json.loads((CORPUS / f"{name}.json").read_text())
        data = load_problem(CORPUS / f"{name}.json").data
        n, r, zero = data.base_dim, data.rank, data.zero()

        def random_poly(degree):
            exponents = monomial_exponents(n, degree)
            return EvenPoly(data.coords, {e: rng.randint(-3, 3) for e in exponents})

        alphas = [[zero] * (r - 1) + [EvenPoly.const(data.coords, 1)]]
        for _ in range(3):
            exact = e_differential(data, {(): random_poly(2)})
            alphas.append([exact.get((a,), zero) for a in range(r)])
            alphas.append([random_poly(1) for _ in range(r)])
        for alpha in alphas:
            doc["alpha"] = [str(f) for f in alpha]
            path.write_text(json.dumps(doc))
            result = run("cohomology", str(path), "--is-exact")
            closed = e_differential(data, one_form(alpha)) == {}
            assert ("not closed" in result.stdout) != closed, (name, doc["alpha"])
            verdicts[closed] += 1
    assert verdicts[True] >= 8 and verdicts[False] >= 8


def test_cohomology_ghost_zero_window():
    result = run(
        "cohomology",
        corpus_path("abelian_r1"),
        "--bfv-h0",
        "--trunc",
        "2",
        "--p-degree",
        "1",
    )
    assert result.exit_code == 0
    assert "closed 4   exact 3   h^0 1" in result.output


def test_cohomology_ghost_zero_needs_nilpotent_charge():
    result = run("cohomology", corpus_path("shear_pair"), "--bfv-h0")
    # the charge squares to zero here; only the hamiltonian is obstructed
    assert result.exit_code == 0
    result = run("cohomology", corpus_path("broken_jacobi"), "--axioms")
    assert result.exit_code == 2  # no such option


def test_cohomology_prerequisite_and_usage_errors():
    result = run("cohomology", corpus_path("broken_jacobi"))
    assert result.exit_code == 1
    assert "prerequisite failed" in result.output
    result = run("cohomology", corpus_path("so3_action"), "--degree", "2")
    assert result.exit_code == 2
    result = run(
        "cohomology", corpus_path("so3_action"), "--bfv-h0", "--is-exact"
    )
    assert result.exit_code == 2
    result = run("cohomology", corpus_path("so3_action"), "--trunc", "-1")
    assert result.exit_code == 2


def test_oversized_window_fails_fast():
    # estimated 51213 columns; built, this window gave no answer in 20 s
    start = time.perf_counter()
    result = run("cohomology", corpus_path("so3_action"), "--trunc", "40")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "input error: --trunc 40 --slack 2: " in result.stderr
    assert "estimated 51213 columns" in result.stderr
    assert f"budget of {nqkit.cli.MAX_WINDOW_COLUMNS}" in result.stderr


def test_oversized_connection_solve_fails_fast():
    # 3^2 * 3 * C(43, 3) = 333207 unknowns; built, this solve gave no
    # answer in 20 s
    start = time.perf_counter()
    result = run("solve-connection", corpus_path("so3_action"), "--degree", "40")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "input error: --degree 40: " in result.stderr
    assert "needs 333207 unknowns" in result.stderr
    assert f"budget of {nqkit.cli.MAX_WINDOW_COLUMNS}" in result.stderr


@pytest.mark.parametrize("name", ["so3_action", "rank2_line", "leafwise_metric"])
def test_connection_budget_counts_the_solver_unknowns(monkeypatch, name):
    problem = load_problem(corpus_path(name))
    built = []
    original = nqkit.dynamics._connection_columns

    def recording(data, g_low, degree):
        unknowns, columns = original(data, g_low, degree)
        built.append(len(unknowns))
        return unknowns, columns

    monkeypatch.setattr(nqkit.dynamics, "_connection_columns", recording)
    for degree in (0, 1, 2):
        unknowns = nqkit.cli._connection_unknowns(problem, degree)
        monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", unknowns - 1)
        result = run("solve-connection", corpus_path(name), "--degree", str(degree))
        assert result.exit_code == 2
        assert f"needs {unknowns} unknowns" in result.stderr
        monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", unknowns)
        result = run("solve-connection", corpus_path(name), "--degree", str(degree))
        assert result.exit_code in (0, 1)  # feasible or not, but solved
        assert built[-1] == unknowns


def _window_columns(name, window, trunc, slack, p_degree):
    """Columns of a window counted from the builders' own enumerations."""
    data = load_problem(corpus_path(name)).data
    n, r = data.base_dim, data.rank

    def monomials(degree):
        return len(monomial_exponents(n, degree))

    if window == "h1":
        return r * monomials(trunc) + monomials(trunc + slack)
    if window == "is_exact":
        return monomials(trunc)
    return monomials(trunc) * monomials(p_degree) * len(
        _balanced_words(r, 0)
    ) + monomials(trunc + 1) * monomials(p_degree + 1) * len(_balanced_words(r, -1))


@pytest.mark.parametrize(
    "name, window, flags",
    [
        ("so3_action", "h1", []),
        ("rank2_line", "h1", []),
        ("rank2_line_affine", "is_exact", ["--is-exact"]),
        ("abelian_r2", "h0", ["--bfv-h0"]),
        ("so3_action", "h0", ["--bfv-h0"]),
    ],
)
def test_window_budget_counts_the_columns_it_builds(monkeypatch, name, window, flags):
    trunc, slack, p_degree = 1, 1, 0
    columns = _window_columns(name, window, trunc, slack, p_degree)
    args = ["cohomology", corpus_path(name), *flags, "--trunc", str(trunc)]
    args += ["--slack", str(slack), "--p-degree", str(p_degree)]
    monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", columns - 1)
    result = run(*args)
    assert result.exit_code == 2
    assert f"estimated {columns} columns" in result.stderr
    monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", columns)
    assert run(*args).exit_code == 0


# emit


def test_emit_bfv_document(tmp_path):
    out = tmp_path / "so3_bfv.json"
    result = run(
        "emit", corpus_path("so3_action"), "--what", "bfv", "--out", str(out)
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["what"] == "bfv"
    assert doc["coords"] == ["x1", "x2", "x3"]
    assert doc["checks"]["master"] == "pass"
    assert doc["checks"]["cartan"] == "pass"
    assert "forced" not in doc
    assert any(row["odd"] == ["xi_1"] for row in doc["charge"])
    assert any(row["even"].get("p_x1") == 2 for row in doc["hamiltonian"])


def test_emit_bfv_topological_has_no_hamiltonian(tmp_path):
    out = tmp_path / "magnetic_bfv.json"
    result = run(
        "emit",
        corpus_path("abelian_r2_magnetic"),
        "--what",
        "bfv",
        "--out",
        str(out),
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert "hamiltonian" not in doc


def test_emit_bv_matches_the_library_expansion(tmp_path):
    out = tmp_path / "ab1_bv.json"
    result = run(
        "emit", corpus_path("abelian_r1"), "--what", "bv", "--out", str(out)
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    problem = load_problem(CORPUS / "abelian_r1.json")
    action = expand_bv(
        build_supercharge(assemble_bfv(build_charge(problem.data, problem.pack)))
    )
    assert doc["terms"] == action.rows()
    assert {"coeff": "-1/2", "even": {"p_x": 2}, "odd": []} in doc["terms"]
    names = {f["name"]: f for f in doc["fields"]}
    assert names["lam_1"]["partner"] is True
    assert names["pi_1_odd"]["ghost"] == -2


def test_emit_bv_gate_and_force(tmp_path):
    out = tmp_path / "broken_bv.json"
    result = run(
        "emit", corpus_path("broken_jacobi"), "--what", "bv", "--out", str(out)
    )
    assert result.exit_code == 1
    assert not out.exists()
    result = run(
        "emit",
        corpus_path("broken_jacobi"),
        "--what",
        "bv",
        "--out",
        str(out),
        "--force",
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["forced"] is True
    assert doc["checks"]["supercharge"] == "fail"


@pytest.mark.parametrize(
    "name, force",
    [("so3_action", False), ("broken_jacobi", True), ("shear_pair", True)],
    ids=["so3_action", "broken_jacobi_forced", "shear_pair_forced"],
)
def test_emit_bv_checks_the_classical_limit(monkeypatch, tmp_path, name, force):
    # a passing and a forced emission both run the bookkeeping and the
    # ghost-zero truncation against p x_dot - H - lam Phi, and pass them
    calls = Counter()
    for target in ("check_bookkeeping", "extended_action_reference"):
        original = getattr(nqkit.cli, target)

        def counted(*args, _target=target, _original=original):
            calls[_target] += 1
            return _original(*args)

        monkeypatch.setattr(nqkit.cli, target, counted)
    out = tmp_path / "bv.json"
    args = ["emit", corpus_path(name), "--what", "bv", "--out", str(out)]
    result = run(*args, *(["--force"] if force else []))
    assert result.exit_code == 0, result.output
    assert "internal error" not in result.stderr
    assert calls == {"check_bookkeeping": 1, "extended_action_reference": 1}
    assert json.loads(out.read_text()).get("forced", False) is force


def test_emit_rejects_unknown_target(tmp_path):
    result = run(
        "emit",
        corpus_path("so3_action"),
        "--what",
        "everything",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert result.exit_code == 2


def test_emit_drift_assembly_failure(tmp_path):
    result = run(
        "emit",
        corpus_path("beta_drift"),
        "--what",
        "bfv",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert result.exit_code == 1
    assert "assembly failed" in result.stderr


# solve-connection


def test_solve_connection_recovers_the_line_fixture():
    result = run("solve-connection", corpus_path("rank2_line"), "--degree", "1")
    assert result.exit_code == 0
    assert "feasible" in result.output
    assert "omega^1_2,1 = 1" in result.output


def test_solve_connection_write_round_trips(tmp_path):
    out = tmp_path / "solved.json"
    result = run(
        "solve-connection",
        corpus_path("rank2_line"),
        "--write",
        str(out),
    )
    assert result.exit_code == 0
    solved = load_problem(out)
    original = load_problem(CORPUS / "rank2_line.json")
    assert solved.pack.omega[0][1][0] == original.pack.omega[0][1][0]
    result = run("check", str(out), "--metric")
    assert result.exit_code == 0


def test_solve_connection_infeasible_certificate(tmp_path):
    doc = {
        "base_dim": 1,
        "rank": 1,
        "coords": ["x"],
        "anchor": [["1"]],
        "metric": [["1 + x^2"]],
    }
    file = tmp_path / "obstructed.json"
    file.write_text(json.dumps(doc))
    result = run("solve-connection", str(file), "--degree", "1")
    assert result.exit_code == 1
    assert "infeasible" in result.output


def test_solve_connection_requires_the_metric():
    result = run("solve-connection", corpus_path("broken_jacobi"))
    assert result.exit_code == 2
    assert "needs the metric" in result.stderr


# color policy


def test_color_only_on_tty_without_no_color(monkeypatch):
    from nqkit import cli

    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._want_color() is True
    monkeypatch.setenv("NO_COLOR", "1")
    assert cli._want_color() is False
    monkeypatch.setattr("sys.stdout.isatty", lambda: False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._want_color() is False
