"""Command line behavior: exit codes, report output, byte-stable JSON."""

from __future__ import annotations

import ast
import errno
import json
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import nqkit.aksz
import nqkit.algebroid
import nqkit.bfv
import nqkit.cli
import nqkit.constraints
import nqkit.dynamics
import nqkit.graded
import nqkit.problem
from nqkit.aksz import expand_bv, term_rows
from nqkit.bfv import _charge_invariance, assemble_bfv
from nqkit.constraints import ConstraintSet
from nqkit.graded import GradedContext, GradedPoly, left_derivation
from nqkit.poly import EvenPoly, monomial_exponents
from nqkit.problem import load_problem
from nqkit.report import FAIL, CheckReport
from tests.conftest import invoke
from tests.test_cli_matrix import TOOL
from tests import test_dynamics as dynamics_tests
from tests.test_aksz import bumped_field_table, wrong_reference
from tests.reference_forms import e_differential, one_form
from tests.test_generated_frames import gen
from tests.test_window_columns import counted

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


def test_a_report_the_disk_refuses_is_an_input_error(tmp_path, monkeypatch):
    # the path passes the check before work; the write fails as a full
    # device fails, after the report is printed
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_device(*args, **kwargs):
        raise full

    monkeypatch.setattr(nqkit.cli, "open", full_device, raising=False)
    out = tmp_path / "report.json"
    result = run("check", corpus_path("so3_action"), "--axioms", "--json", str(out))
    assert result.exit_code == 2
    assert result.stdout == run("check", corpus_path("so3_action"), "--axioms").stdout
    assert result.stderr == f"input error: --json: {full}\n"
    assert not out.exists()


def test_check_drift_blocks_assembly_only_when_explicit():
    result = run("check", corpus_path("beta_drift"), "--all")
    assert result.exit_code == 1  # evolution fails; assembly is skipped
    assert "drift term present" in result.output
    result = run("check", corpus_path("beta_drift"), "--supercharge")
    assert result.exit_code == 2


def test_check_zero_drift_is_no_drift(tmp_path):
    # an all-zero beta is absent: every check and the BV emission answer as
    # they do on the file without it
    twin = tmp_path / "zero_beta.json"
    twin.write_text(json.dumps(TOOL.inputs()["abelian_r2_zero_beta"]))
    reports = []
    for path in (corpus_path("abelian_r2"), str(twin)):
        out = tmp_path / "report.json"
        result = run("check", path, "--all", "--json", str(out))
        assert result.exit_code == 0, result.output
        assert "drift" not in result.output
        report = json.loads(out.read_text())
        assert report.pop("problem") == path
        reports.append(report)
    assert reports[0] == reports[1]
    statuses = {c["name"]: c["status"] for c in reports[1]["checks"]}
    assert statuses["cartan"] == statuses["supercharge"] == "pass"
    result = run("emit", str(twin), "--what", "bv", "--out", str(tmp_path / "bv.json"))
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
def test_check_zero_potential_is_no_potential(tmp_path, monkeypatch, name):
    # an absent potential is stored as the zero polynomial, so a stated "0"
    # answers byte for byte alike, the path in the report included
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    assert "potential" not in doc
    runs = []
    for label, variant in (("absent", doc), ("zero", dict(doc, potential="0"))):
        (tmp_path / label).mkdir()
        monkeypatch.chdir(tmp_path / label)
        Path("problem.json").write_text(json.dumps(variant))
        result = run("check", "problem.json", "--all", "--json", "report.json")
        runs.append((result.exit_code, result.output, Path("report.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == EXPECTED_EXIT[name]


def test_check_cartan_failure_is_a_finding_not_an_input_error():
    result = run("check", corpus_path("shear_pair"), "--cartan")
    assert result.exit_code == 1
    assert "[FAIL] cartan" in result.output
    assert "reassembles the bracket residual exactly" in result.output


def test_failed_prerequisite_is_a_finding_not_an_input_error(tmp_path, monkeypatch):
    # a check skipped because a check it needs failed prints the report that
    # --all prints for it and exits 1: on broken_jacobi with a metric pair
    # the master fails, so the cartan obstruction is undefined
    monkeypatch.chdir(tmp_path)
    doc = dict(
        json.loads((CORPUS / "broken_jacobi.json").read_text()),
        metric=[["1"]],
        metric_inv=[["1"]],
        connection=[[["0"]] * 3] * 3,
    )
    Path("broken_jacobi_metric.json").write_text(json.dumps(doc))
    explicit = run(
        "check", "broken_jacobi_metric.json", "--cartan", "--json", "one.json"
    )
    full = run("check", "broken_jacobi_metric.json", "--all", "--json", "all.json")
    assert (explicit.exit_code, full.exit_code) == (1, 1), explicit.stderr
    assert explicit.stderr == ""
    report = json.loads(Path("one.json").read_text())["checks"]
    assert report == [
        c for c in json.loads(Path("all.json").read_text())["checks"]
        if c["name"] == "cartan"
    ]
    assert report[0]["status"] == "skipped"
    assert "master equation fails" in report[0]["notes"][0]
    assert "[SKIPPED] cartan" in explicit.output


@pytest.mark.parametrize(
    "name", ["abelian_r2_connection", "abelian_r2_metric_magnetic"]
)
def test_cartan_shape_failure_still_assembles_the_package(tmp_path, monkeypatch, name):
    # H does not preserve the constraint surface: cartan FAILs on its shape,
    # the package assembles, and the supercharge fails on its own bracket
    monkeypatch.chdir(tmp_path)
    twisted = name == "abelian_r2_metric_magnetic"
    Path("in.json").write_text(json.dumps(TOOL.inputs()[name]))
    explicit = run("check", "in.json", "--supercharge", "--json", "one.json")
    full = run("check", "in.json", "--all", "--json", "all.json")
    assert (explicit.exit_code, full.exit_code) == (1, 1), explicit.stderr
    assert explicit.stderr == ""
    checks = {c["name"]: c for c in json.loads(Path("all.json").read_text())["checks"]}
    assert json.loads(Path("one.json").read_text())["checks"] == [checks["supercharge"]]
    assert checks["supercharge"]["status"] == "fail"
    assert checks["master"]["status"] == "pass"
    assert [r["index"] for r in checks["cartan"]["residuals"]] == ["shape"]

    result = run("emit", "in.json", "--what", "bfv", "--out", "bfv.json")
    assert result.exit_code == 0, result.stderr
    assert json.loads(Path("bfv.json").read_text())["checks"]["cartan"] == "fail"
    result = run("emit", "in.json", "--what", "bv", "--out", "bv.json")
    assert result.exit_code == 1
    assert "required check failed: supercharge" in result.output
    assert not Path("bv.json").exists()
    forced = run("emit", "in.json", "--what", "bv", "--out", "bv.json", "--force")
    if twisted:
        assert forced.exit_code == 1
        assert forced.stderr.rstrip().endswith(
            "emission failed: the component expansion needs an exact "
            "symplectic potential; absorb the magnetic term first"
        )
    else:
        assert forced.exit_code == 0, forced.stderr
        written = json.loads(Path("bv.json").read_text())
        assert written["forced"] is True
        assert written["checks"] == {"supercharge": "fail"}
        assert written["terms"]


def test_missing_fields_and_drift_stay_input_errors(tmp_path, monkeypatch):
    # broken_jacobi fails the master too, but it has no metric pair
    result = run("check", corpus_path("broken_jacobi"), "--cartan")
    assert result.exit_code == 2
    assert "input error: no metric pair" in result.stderr
    for flag in ("--cartan", "--supercharge"):
        result = run("check", corpus_path("beta_drift"), flag)
        assert result.exit_code == 2
        assert "drift term present" in result.stderr
    # a metric pair without a connection: the package cannot assemble
    monkeypatch.chdir(tmp_path)
    doc = json.loads((CORPUS / "abelian_r2.json").read_text())
    del doc["connection"]
    Path("no_connection.json").write_text(json.dumps(doc))
    gap = "the covariant hamiltonian needs the connection omega"
    for flag in ("--cartan", "--supercharge"):
        result = run("check", "no_connection.json", flag)
        assert result.exit_code == 2
        assert f"input error: {gap}" in result.stderr
    result = run("check", "no_connection.json", "--all")
    assert result.exit_code == 0, result.output
    for name in ("cartan", "supercharge"):
        assert f"[SKIPPED] {name}" in result.output
    result = run("emit", "no_connection.json", "--what", "bv", "--out", "bv.json")
    assert result.exit_code == 1
    assert f"assembly failed: {gap}" in result.stderr
    # a skipped evolution route is not a failed prerequisite
    result = run("check", corpus_path("leafwise_metric"), "--structural")
    assert result.exit_code == 0
    assert "[SKIPPED] evolution" in result.output


def counted_cached_property(monkeypatch, owner, name, seen):
    """Patch the cached property `name` of `owner` so that each computation
    first calls seen(instance), then runs the formula it holds."""
    formula = getattr(owner, name).func

    def computed(instance):
        seen(instance)
        return formula(instance)

    patched = cached_property(computed)
    patched.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, patched)


_DEFECT_LIFT = nqkit.algebroid.Algebroid.defect_lift.func


def _wrong_defect_lift(data):
    ctx = data.ctx
    return _DEFECT_LIFT(data) + ctx.var("xi_1") * ctx.var("xi_2")


def _wrong_closure(cs):
    ctx = cs.structural.ctx
    return cs.structural + cs.data.defect_lift + ctx.var("xi_1") * ctx.var("xi_2")


def _oversized_image(columns, inside):
    return 10**6


def _shifted_sh(*args):
    report, SH = _charge_invariance(*args)
    return report, SH + SH.ctx.var("xi_1")


def _failed_invariance(*args):
    report, SH = _charge_invariance(*args)
    return CheckReport(report.name, FAIL, report.identity), SH


def _shifted_derivation(ctx, field, G):
    return left_derivation(ctx, field, G) + ctx.var("xi_1")


def _shifted_bracket(ctx, F, G):
    return left_derivation(ctx, ctx.hamiltonian_field(F), G) + ctx.var("xi_1")


def potential_twin() -> dict:
    """rank2_line_affine with a potential, which no corpus file has."""
    doc = json.loads((CORPUS / "rank2_line_affine.json").read_text())
    return dict(doc, potential="x")


EMIT_SO3_BV = ["emit", corpus_path("so3_action"), "--what", "bv", "--out", "bv.json"]
SUPERCHARGE_SO3 = ["check", corpus_path("so3_action"), "--supercharge"]
CARTAN_POTENTIAL = ["check", "potential_twin.json", "--cartan"]


# target, replacement, args, message: each case patches one side of the
# comparison behind one engine guard and runs an input that reaches it
TRIPPED_GUARDS = [
    (
        "nqkit.algebroid.Algebroid.defect_lift",
        property(_wrong_defect_lift),
        ["check", corpus_path("so3_action"), "--axioms"],
        "internal dual-route mismatch in Q^2",
    ),
    (
        "nqkit.algebroid.Algebroid.defect_lift",
        property(_wrong_defect_lift),
        ["check", corpus_path("so3_action"), "--first-class"],
        "internal dual-route mismatch in the constraint bracket",
    ),
    (
        "nqkit.constraints.ConstraintSet.closure",
        property(_wrong_closure),
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
        "nqkit.aksz.extended_action_reference",
        wrong_reference,
        EMIT_SO3_BV,
        "internal dual-route mismatch in the classical limit of the action",
    ),
    (
        "nqkit.aksz.field_table",
        bumped_field_table,
        EMIT_SO3_BV,
        "internal bookkeeping mismatch in the component action: field[x1]",
    ),
    (
        "nqkit.bfv._charge_invariance",
        _shifted_sh,
        SUPERCHARGE_SO3,
        "internal theta-split mismatch in the self-bracket",
    ),
    (
        "nqkit.bfv._charge_invariance",
        _failed_invariance,
        SUPERCHARGE_SO3,
        "internal mismatch between the supercharge bracket and the "
        "package reports",
    ),
    (
        "nqkit.bfv.left_derivation",
        _shifted_derivation,
        CARTAN_POTENTIAL,
        "internal dual-route mismatch in the potential part",
    ),
    (
        "nqkit.graded.GradedContext.poisson",
        _shifted_bracket,
        CARTAN_POTENTIAL,
        "internal dual-route mismatch in the charge invariance",
    ),
]
TRIPPED_GUARD_IDS = [
    "axioms",
    "first_class",
    "self_bracket",
    "window",
    "classical_limit",
    "bookkeeping",
    "theta_split",
    "package_reports",
    "potential_part",
    "charge_invariance",
]


@pytest.mark.parametrize(
    "target, replacement, args, message", TRIPPED_GUARDS, ids=TRIPPED_GUARD_IDS
)
def test_tripped_engine_guard_exits_3(
    monkeypatch, tmp_path, target, replacement, args, message
):
    monkeypatch.setattr(target, replacement)
    monkeypatch.chdir(tmp_path)
    Path("potential_twin.json").write_text(json.dumps(potential_twin()))
    result = run(*args)
    assert result.exit_code == 3
    assert f"internal error: {message}" in result.stderr


# guards tripped outside the table: a message each prints, and the test
# module and test that trip it
TRIPPED_ELSEWHERE = {
    "internal dual-route mismatch at momentum order 2": (
        dynamics_tests,
        "test_decomposition_guard_catches_every_perturbed_family_entry",
    ),
}


def engine_guards(folder: Path) -> dict[str, tuple[str, bool]]:
    """Every RuntimeError raised in the folder's modules whose message starts
    with "internal ", by file and line: the message up to the first formatted
    value of an f-string, and whether that is the whole message."""
    guards = {}
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func, args = node.exc.func, node.exc.args
            if not (isinstance(func, ast.Name) and func.id == "RuntimeError" and args):
                continue
            parts = args[0].values if isinstance(args[0], ast.JoinedStr) else args[:1]
            first = parts[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if first.value.startswith("internal "):
                guards[f"{path.name}:{node.lineno}"] = (first.value, len(parts) == 1)
    return guards


def trips(guard: tuple[str, bool], message: str) -> bool:
    text, whole = guard
    return message == text if whole else message.startswith(text)


def test_the_guard_walk_reads_constants_and_f_strings(tmp_path):
    source = (
        'raise RuntimeError("internal a")\n'
        'raise RuntimeError(f"internal b {x} c")\n'
        'raise RuntimeError("inexact")\n'
        'raise ValueError("internal d")\n'
    )
    (tmp_path / "m.py").write_text(source)
    guards = engine_guards(tmp_path)
    assert guards == {"m.py:1": ("internal a", True), "m.py:2": ("internal b ", False)}
    assert trips(guards["m.py:2"], "internal b 12")
    assert not trips(guards["m.py:1"], "internal a 12")


def test_every_engine_guard_has_a_tripping_case():
    guards = engine_guards(ROOT / "src" / "nqkit")
    assert len(guards) >= 11  # the guards of six modules when this was written
    messages = [case[3] for case in TRIPPED_GUARDS] + list(TRIPPED_ELSEWHERE)
    untripped = [
        where
        for where, guard in guards.items()
        if not any(trips(guard, message) for message in messages)
    ]
    assert untripped == []
    # and no case is left over from a guard that is gone
    stale = [
        message
        for message in messages
        if not any(trips(guard, message) for guard in guards.values())
    ]
    assert stale == []
    for module, name in TRIPPED_ELSEWHERE.values():
        assert callable(getattr(module, name))


def test_every_engine_guard_is_raised_by_the_library():
    # the command line turns a tripped guard into exit 3 but raises none
    # itself, so a library caller is guarded by the same checks
    guards = engine_guards(ROOT / "src" / "nqkit")
    assert [where for where in guards if where.startswith("cli.py:")] == []
    assert any(where.startswith("aksz.py:") for where in guards)


def test_the_command_line_builds_only_skipped_reports():
    # every finding is a report the library returns; the command line only
    # skips a check whose input is missing
    tree = ast.parse((ROOT / "src" / "nqkit" / "cli.py").read_text())
    statuses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "CheckReport":
            given = [k.value for k in node.keywords if k.arg == "status"]
            statuses += [ast.unparse(arg) for arg in (node.args[1:2] or given)]
    assert statuses and set(statuses) == {"SKIPPED"}


def test_the_command_line_keeps_no_problem_state():
    # the problem owns what its checks build; the only classes of the
    # command line are its argv front end
    tree = ast.parse((ROOT / "src" / "nqkit" / "cli.py").read_text())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"_UsageError", "_Option", "_Command", "_Group"}


def test_one_rule_refuses_every_linear_map_past_the_budget():
    # each window and solve counts its columns and hands the count to one
    # refusal, so a new solve reuses the rule instead of growing a second one
    source = (ROOT / "src" / "nqkit" / "cli.py").read_text()
    readers = {
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "MAX_WINDOW_COLUMNS"
    }
    assert len(readers) == 1, readers
    assert source.count("more than the budget of") == 1


# what the ghost-zero window builds: the axiom check's defect tensors, then
# the constraints with their charge, (S, .) and its self-bracket, but no
# closure, master report or package
H0_BUILDS = {
    "structural": 0,
    "structural_residuals": 0,
    "check_master": 0,
    "assemble_bfv": 0,
}
# the first-class check reads the closure of the constraints and never
# their charge: no lift of Q, no master report and no package
FIRST_CLASS_BUILDS = {
    "structural_residuals": 0,
    "build_S": 0,
    "check_master": 0,
    "assemble_bfv": 0,
}


@pytest.mark.parametrize(
    "args, exit_code, brackets, builds",
    [
        (["check", corpus_path("so3_action"), "--all"], 0, ["(S, S)", "(S, H)"], {}),
        # the drift refuses the assembly, so no H is built
        (
            ["check", corpus_path("beta_drift"), "--all"],
            1,
            ["(S, S)"],
            {"covariant_momenta": 0},
        ),
        # alpha != 0: the core is not S, and (core, .) is derived on its own
        (
            ["check", corpus_path("rank2_line_affine"), "--all"],
            0,
            ["(S, S)", "(S, H)"],
            {},
        ),
        # no metric check runs
        (EMIT_SO3_BV, 0, ["(S, S)", "(S, H)"], {"structural_residuals": 0}),
        (
            ["emit", corpus_path("so3_action"), "--what", "bfv", "--out", "bfv.json"],
            0,
            ["(S, S)", "(S, H)"],
            {"structural_residuals": 0},
        ),
        # rank 15: the rank at which a repeated invariant costs seconds
        (["check", "so6.json", "--all"], 0, ["(S, S)", "(S, H)"], {}),
        (
            ["cohomology", corpus_path("so3_action"), "--bfv-h0"]
            + ["--trunc", "1", "--p-degree", "1"],
            0,
            ["(S, S)"],
            {**H0_BUILDS, "covariant_momenta": 0},
        ),
        (
            ["check", corpus_path("so3_action"), "--first-class"],
            0,
            [],
            {**FIRST_CLASS_BUILDS, "covariant_momenta": 0},
        ),
    ],
    ids=[
        "check_all",
        "check_all_drift",
        "check_all_affine",
        "emit_bv",
        "emit_bfv",
        "check_all_so6",
        "bfv_h0",
        "first_class",
    ],
)
def test_defect_tensors_computed_once_per_invocation(
    monkeypatch, tmp_path, args, exit_code, brackets, builds
):
    # the defect tensors and their lift, the structural 2-form, the
    # structural residuals (when a metric is given), the constraints, their
    # charge with its core, (S, .), self-bracket and master report, the
    # package (assembled, or refused on the drift) with its covariant
    # momenta, and (S, H), once each, unless `builds` says otherwise; (S, .)
    # only when S is bracketed
    monkeypatch.chdir(tmp_path)
    if args[1] == "so6.json":
        Path("so6.json").write_text(json.dumps(gen.so_n(6)))
    problem = load_problem(args[1])
    cs = problem.constraints
    named = {"(S, S)": (cs.S, cs.S)}
    if "(S, H)" in brackets:
        named["(S, H)"] = (cs.S, assemble_bfv(cs, problem.pack).H)
    # a bracket (F, G) is the table of (F, .) applied to G, whichever
    # route (poisson or a kept table) applies it; a self-bracket (F, F) is
    # read off the images of the table alone
    derived = []  # F of every (F, .) table built, with the table
    bracketed = []
    hamiltonian_field = GradedContext.hamiltonian_field
    self_bracket = GradedContext.self_bracket

    def derive(ctx, F):
        table = hamiltonian_field(ctx, F)
        derived.append((F, table))
        return table

    def applied(table, G):
        for F, built in derived:
            if built is table:
                bracketed.append((F, G))

    def read_off(ctx, F, table=None):
        if table is None:
            table = derive(ctx, F)
        applied(table, F)
        return self_bracket(ctx, F, table)

    monkeypatch.setattr(GradedContext, "hamiltonian_field", derive)
    monkeypatch.setattr(GradedContext, "self_bracket", read_off)
    left_derivation = nqkit.graded.left_derivation

    def apply(ctx, table, G):
        applied(table, G)
        return left_derivation(ctx, table, G)

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
        "structural_residuals": nqkit.dynamics,
        "build_S": nqkit.constraints,
        "check_master": nqkit.constraints,
        "assemble_bfv": nqkit.bfv,
        "covariant_momenta": nqkit.bfv,
    }
    wrappers = {
        name: counted(name, getattr(owner, name)) for name, owner in owners.items()
    }
    wrappers["left_derivation"] = apply
    for name, wrapper in wrappers.items():
        original = getattr(owners.get(name, nqkit.graded), name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    # the cached properties that hold their own formula
    properties = {
        "defect_lift": nqkit.algebroid.Algebroid,
        "structural": ConstraintSet,
    }
    for name, owner in properties.items():
        count = counted(name, lambda instance: None)
        counted_cached_property(monkeypatch, owner, name, count)
    # the constraint set is built once, by the loader
    init = counted("ConstraintSet", ConstraintSet.__init__)
    monkeypatch.setattr(ConstraintSet, "__init__", init)
    result = run(*args)
    assert result.exit_code == exit_code
    counted_names = [*owners, *properties, "ConstraintSet"]
    expected = {name: builds.get(name, 1) for name in counted_names}
    assert {name: calls[name] for name in counted_names} == expected
    # (S, .) is derived once, and every bracket with S applies that table
    assert sum(F == cs.S for F, _ in derived) == int(bool(brackets))
    counts = {label: bracketed.count(pair) for label, pair in named.items()}
    assert counts == {label: int(label in brackets) for label in named}


@pytest.mark.parametrize(
    "args,builds",
    [
        (["check", corpus_path("so3_action"), "--all"], 1),
        (["check", corpus_path("rank2_line_affine"), "--all"], 1),
        (["cohomology", corpus_path("rank2_line_affine"), "--is-exact"], 1),
        (["cohomology", corpus_path("so3_action"), "--trunc", "2"], 1),
        # the magnetic twist changes the momentum bracket, not the term keys:
        # the twisted charge lifts the same table
        (["check", corpus_path("abelian_r2_magnetic"), "--all"], 1),
    ],
    ids=["check_all", "check_all_affine", "is_exact", "h1_window", "check_all_twisted"],
)
def test_q_images_built_once_per_context(monkeypatch, args, builds):
    # the axiom check, the structural 2-form, the windows, the closedness
    # test and the charge, twisted or not, share the frame's table of Q;
    # it and the defect tensors read the index of the nonzero C^c_ab that
    # the one frame of the invocation stores
    built, frames = [], []
    Algebroid = nqkit.algebroid.Algebroid
    init = Algebroid.__init__

    def counted_init(data, *args):
        frames.append(data)
        init(data, *args)

    counted_cached_property(monkeypatch, Algebroid, "q", lambda d: built.append(d.ctx))
    monkeypatch.setattr(Algebroid, "__init__", counted_init)
    result = run(*args)
    assert result.exit_code == 0, result.output
    assert len(built) == builds
    assert len({id(ctx) for ctx in built}) == builds
    assert len(frames) == 1


def problem_file(name: str) -> str:
    """A corpus file by name, or another input of the CLI matrix written to
    the working directory."""
    if name in EXPECTED_EXIT:
        return corpus_path(name)
    Path(f"{name}.json").write_text(json.dumps(TOOL.inputs()[name]))
    return f"{name}.json"


# and abelian_r2, which has a metric and a connection, with the alpha and
# magnetic field of abelian_r2_magnetic, with that magnetic field alone (the
# one nonzero closure on a twisted phase space) and with an all-zero one
@pytest.mark.parametrize(
    "name",
    [
        *sorted(EXPECTED_EXIT),
        "abelian_r2_metric_magnetic",
        "abelian_r2_magnetic_open",
        "abelian_r2_zero_magnetic",
    ],
)
def test_the_frame_owns_q_and_the_constraint_set_owns_its_forms(
    monkeypatch, tmp_path, name
):
    monkeypatch.chdir(tmp_path)
    cs = load_problem(problem_file(name)).constraints
    data = cs.data
    assert cs.structural.ctx is cs.ctx
    assert cs.closure.ctx is cs.ctx
    assert all(image.ctx is data.ctx for image in data.q.values())
    zeros = ((data.zero(),) * data.base_dim,) * data.base_dim
    assert ConstraintSet(data, magnetic=zeros).ctx is data.ctx


@pytest.mark.parametrize(
    "name",
    ["abelian_r2_magnetic", "abelian_r2_magnetic_open", "abelian_r2_metric_magnetic"],
)
def test_check_all_on_a_twisted_phase_space_transports_nothing(
    monkeypatch, tmp_path, name
):
    # the structural 2-form and the closure are wrapped on the phase space,
    # so the master check compares the self-bracket with them as they are
    monkeypatch.chdir(tmp_path)
    file = problem_file(name)
    assert load_problem(file).constraints.ctx.twist is not None
    transported = []
    original = nqkit.graded.transport

    def counted(F, ctx):
        transported.append(ctx)
        return original(F, ctx)

    for module in [m for key, m in sys.modules.items() if key.startswith("nqkit")]:
        if getattr(module, "transport", None) is original:
            monkeypatch.setattr(module, "transport", counted)
    result = run("check", file, "--all")
    assert result.exit_code in (0, 1), result.output
    assert "internal error" not in result.stderr
    assert transported == []


@pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
def test_constraints_and_charge_share_one_phase_space(name):
    cs = load_problem(corpus_path(name)).constraints
    assert cs.S.ctx is cs.ctx


@pytest.mark.parametrize(
    "name", [*sorted(EXPECTED_EXIT), "abelian_r2_metric_magnetic"]
)
def test_check_all_builds_one_phase_space(monkeypatch, tmp_path, name):
    # the ghost context, which is the phase space itself without a twist and
    # carries theta for the supercharge; a magnetic field adds the twisted
    # phase space, shared by the constraints, both Hamiltonians, the charge
    # and the supercharge
    monkeypatch.chdir(tmp_path)
    file = problem_file(name)
    twist = load_problem(file).constraints.ctx.twist
    built = []
    init = GradedContext.__init__

    def counted(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        built.append(ctx)

    monkeypatch.setattr(GradedContext, "__init__", counted)
    result = run("check", file, "--all")
    assert result.exit_code in (0, 1), result.output
    assert "internal error" not in result.stderr
    assert len(built) == (1 if twist is None else 2), built


def test_stored_coefficients_are_nonzero_ints_or_fractions(tmp_path, monkeypatch):
    # every polynomial the verbs build, even or graded, passes through the
    # filtering constructor or the trusted one; either way it may store only
    # nonzero ints and Fractions, never a float, a bool or a zero
    monkeypatch.chdir(tmp_path)
    Path("so3.json").write_text(json.dumps(gen.so_n(3)))
    stored = Counter()
    bad = []

    def inspect(poly):
        terms = poly.terms if isinstance(poly, EvenPoly) else poly.coeffs
        for coeff in terms.values():
            kind = type(coeff)
            stored[kind.__name__] += 1
            if not (kind is int or kind is Fraction) or not coeff:
                bad.append((kind.__name__, coeff, str(poly)))

    post_init = EvenPoly.__post_init__
    graded_init = GradedPoly.__init__

    def guarded_post_init(poly):
        post_init(poly)
        inspect(poly)

    def guarded_graded_init(poly, ctx, coeffs):
        graded_init(poly, ctx, coeffs)
        inspect(poly)

    def guarded(trusted):
        def build(cls, *args):
            poly = trusted(cls, *args)
            inspect(poly)
            return poly

        return classmethod(build)

    monkeypatch.setattr(EvenPoly, "__post_init__", guarded_post_init)
    monkeypatch.setattr(EvenPoly, "_trusted", guarded(EvenPoly._trusted.__func__))
    monkeypatch.setattr(GradedPoly, "__init__", guarded_graded_init)
    monkeypatch.setattr(GradedPoly, "_trusted", guarded(GradedPoly._trusted.__func__))
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
    # alpha and magnetic are checked once, by the reader
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


@pytest.mark.parametrize(
    "coords,entry,message",
    [
        # C(70, 6) terms: no answer in 30 s before the term budget
        ("abcdef", "(a+b+c+d+e+f+1)^64", "position 15: the power may have 131115985"),
        # 7.7 s before the term budget
        ("abc", "*".join(["(a+b+c+1)^12"] * 4), "position 12: the product may have 2925"),
    ],
    ids=["power", "product"],
)
def test_expansion_bomb_fails_fast_with_its_field_path(tmp_path, coords, entry, message):
    doc = {"base_dim": len(coords), "rank": 1, "coords": list(coords)}
    doc["anchor"] = [[entry] + ["0"] * (len(coords) - 1)]
    path = tmp_path / "bomb.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = run("check", str(path), "--axioms")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stderr.startswith(f"input error: anchor[1][1]: {message} terms")
    assert "Traceback" not in result.output


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


@pytest.mark.parametrize(
    "field, value, command, last_line",
    [
        (None, [], "check", "input error: $: the problem file must be a JSON object"),
        ("rank", 0, "check", "input error: rank: must be a positive integer"),
        (
            "base_dim",
            True,
            "check",
            "input error: base_dim: must be a positive integer",
        ),
        ("coords", ["x1"], "check", "input error: coords: must list exactly 2 names"),
        (
            "structure",
            [[["0"]]],
            "check",
            "input error: structure: must have 2 planes or be a sparse object",
        ),
        (
            "points",
            {"a": 1},
            "check",
            "input error: points: must be a list of coordinate vectors",
        ),
        ("truncation", [1], "check", "input error: truncation: unknown field"),
        (
            None,
            None,
            "--bfv-h0",
            "Error: No such option '--degree'. Did you mean '--p-degree'?",
        ),
        (
            None,
            None,
            "--is-exact",
            "input error: the exactness query needs the affine part alpha",
        ),
    ],
    ids=[
        "top-level-list",
        "rank-zero",
        "base-dim-bool",
        "coords-short",
        "structure-planes",
        "points-object",
        "truncation-list",
        "bfv-h0-degree",
        "is-exact-no-alpha",
    ],
)
def test_input_errors_name_their_cause(tmp_path, field, value, command, last_line):
    # the document cases are abelian_r2 with one field changed
    path = tmp_path / "bad.json"
    if command == "check":
        doc = json.loads((CORPUS / "abelian_r2.json").read_text())
        path.write_text(json.dumps(value if field is None else {**doc, field: value}))
        result = run("check", str(path), "--axioms")
    else:
        options = ["--degree", "1"] if command == "--bfv-h0" else []
        result = run("cohomology", corpus_path("abelian_r2"), command, *options)
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == last_line


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


def test_nesting_past_the_recursion_limit_is_an_input_error(tmp_path):
    # the decoder raises RecursionError, a RuntimeError like an engine guard
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    result = run("check", str(path), "--axioms")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("input error: $: not valid JSON: ")
    assert "internal error" not in result.stderr


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

# the full stdout of solves whose printed bases, primitives and connections
# depend on the column order of their linear maps, recorded from the
# command line; paths are relative to the repository root
PRINTED_SOLVES = json.loads((ROOT / "tests/data/printed_solves.json").read_text())


@pytest.mark.parametrize(
    "case", PRINTED_SOLVES, ids=[" ".join(case["args"]) for case in PRINTED_SOLVES]
)
def test_printed_solve_answers_are_pinned(monkeypatch, case):
    monkeypatch.chdir(ROOT)
    result = run(*case["args"])
    assert (result.exit_code, result.stderr) == (case["exit_code"], "")
    assert result.stdout == case["stdout"]


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


def test_cohomology_prerequisite_and_usage_errors(tmp_path):
    result = run("cohomology", corpus_path("broken_jacobi"))
    assert result.exit_code == 1
    assert "prerequisite failed" in result.output
    # the axioms hold, but alpha = x2 e^1 is not closed, so (S, S) != 0
    unclosed = tmp_path / "unclosed_alpha.json"
    unclosed.write_text(json.dumps(TOOL.inputs()["abelian_r2_open_alpha"]))
    result = run("cohomology", str(unclosed), "--bfv-h0")
    assert result.exit_code == 1
    assert result.output == (
        "prerequisite failed: the master equation fails: "
        "(S, .) does not square to zero\n"
    )
    result = run("cohomology", corpus_path("so3_action"), "--degree", "1")
    assert result.exit_code == 2  # no such option: the mode sets the degree
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


def test_an_integer_option_past_the_digit_limit_is_a_usage_error():
    # int() refuses 5000 digits; the option reads it as no integer at all
    digits = "1" * 5000
    result = run("cohomology", corpus_path("so3_action"), "--trunc", digits)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"Error: Invalid value for '--trunc': {digits!r} is not a valid integer.\n"
    )


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


def recorded(monkeypatch, module, names) -> list[int]:
    """Record how many columns each call of `module.NAME` is handed, and
    let the call run."""
    seen = []

    def wrap(original):
        def record(columns, *rest):
            seen.append(len(columns))
            return original(columns, *rest)

        return record

    for name in names:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return seen


@pytest.mark.parametrize("name", ["so3_action", "rank2_line", "leafwise_metric"])
def test_connection_budget_counts_the_solver_unknowns(monkeypatch, name):
    built = recorded(monkeypatch, nqkit.dynamics, ["solve"])
    for degree in (0, 1, 2):
        args = ("solve-connection", corpus_path(name), "--degree", str(degree))
        unknowns = counted(monkeypatch, *args)
        assert counted(monkeypatch, *args, budget=unknowns - 1) == unknowns
        monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", unknowns)
        built.clear()
        result = run(*args)
        assert result.exit_code in (0, 1)  # feasible or not, but solved
        assert sum(built) == unknowns


# the elimination routines each window hands its columns to
ELIMINATIONS = {
    "h1": (nqkit.algebroid, ["kernel", "image_in", "solve"]),
    "is_exact": (nqkit.algebroid, ["kernel", "image_in", "solve"]),
    "h0": (nqkit.bfv, ["rank", "image_in"]),
}


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
    args = ("cohomology", corpus_path(name), *flags, "--trunc", "1")
    args += ("--slack", "1", "--p-degree", "0")
    columns = counted(monkeypatch, *args)
    assert counted(monkeypatch, *args, budget=columns - 1) == columns
    monkeypatch.setattr(nqkit.cli, "MAX_WINDOW_COLUMNS", columns)
    built = recorded(monkeypatch, *ELIMINATIONS[window])
    assert run(*args).exit_code == 0
    assert sum(built) == columns


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
    action = expand_bv(assemble_bfv(problem.constraints, problem.pack))
    assert doc["terms"] == term_rows(action.action)
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
        original = getattr(nqkit.aksz, target)

        def counted(*args, _target=target, _original=original):
            calls[_target] += 1
            return _original(*args)

        monkeypatch.setattr(nqkit.aksz, target, counted)
    out = tmp_path / "bv.json"
    args = ["emit", corpus_path(name), "--what", "bv", "--out", str(out)]
    result = run(*args, *(["--force"] if force else []))
    assert result.exit_code == 0, result.output
    assert "internal error" not in result.stderr
    assert calls == {"check_bookkeeping": 1, "extended_action_reference": 1}
    assert json.loads(out.read_text()).get("forced", False) is force


def test_emit_bv_transports_only_into_the_expansion_ring(monkeypatch, tmp_path):
    # the package keeps Q = S + theta H on its own phase space: the
    # supercharge gate and the expansion read one Q, and the one change of
    # layout is the expansion's, into the component ring
    transported, built = [], []
    original = nqkit.graded.transport
    init = GradedContext.__init__

    def counted(F, ctx):
        transported.append(ctx)
        return original(F, ctx)

    def counted_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        built.append(ctx)

    for module in [m for key, m in sys.modules.items() if key.startswith("nqkit")]:
        if getattr(module, "transport", None) is original:
            monkeypatch.setattr(module, "transport", counted)
    monkeypatch.setattr(GradedContext, "__init__", counted_init)
    nqkit.aksz.expansion_context.cache_clear()  # built once per process
    monkeypatch.chdir(tmp_path)
    result = run(*EMIT_SO3_BV)
    assert result.exit_code == 0, result.output
    ring = nqkit.aksz.expansion_context(("x1", "x2", "x3"), 3)
    assert transported == [ring]
    # the phase space and the expansion ring
    assert len(built) == 2 and built[1] is ring


@pytest.mark.parametrize("metric", [True, False], ids=["metric", "potential_only"])
def test_emit_bv_pins_the_potential_term(tmp_path, metric):
    # V = x enters the action through -H: with the metric pair H is H_cov + V,
    # without it H is V alone.  V breaks the charge invariance, so the
    # emission is forced; the classical-limit guard passes and the action
    # holds the one term -x
    doc = potential_twin()
    if not metric:
        for name in ("metric", "metric_inv", "connection"):
            del doc[name]
    path = tmp_path / "potential_twin.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bv.json"
    result = run("emit", str(path), "--what", "bv", "--out", str(out), "--force")
    assert result.exit_code == 0, result.output
    terms = json.loads(out.read_text())["terms"]
    assert {"coeff": "-1", "even": {"x": 1}, "odd": []} in terms
    assert [t for t in terms if set(t["even"]) == {"x"} and not t["odd"]] == [
        {"coeff": "-1", "even": {"x": 1}, "odd": []}
    ]


def test_check_all_checks_alpha_once(monkeypatch):
    # the constraint set checks its alpha at construction; its affine
    # charge, its structural 2-form and the exactness query build from the
    # checked components
    calls = []
    affine_part = nqkit.constraints.affine_part

    def counted(*args):
        calls.append(args)
        return affine_part(*args)

    monkeypatch.setattr(nqkit.constraints, "affine_part", counted)
    for verb, flag in (("check", "--all"), ("cohomology", "--is-exact")):
        calls.clear()
        result = run(verb, corpus_path("rank2_line_affine"), flag)
        assert result.exit_code == 0, result.output
        assert len(calls) == 1, verb


def test_solve_connection_builds_no_phase_space(monkeypatch, tmp_path):
    # the verb reads the frame and the metric alone: no ghost context, no
    # phase space, twisted or not, and no package or structural families
    twisted = json.loads((CORPUS / "abelian_r2.json").read_text())
    magnetic = json.loads((CORPUS / "abelian_r2_magnetic.json").read_text())
    twisted.update(alpha=magnetic["alpha"], magnetic=magnetic["magnetic"])
    (tmp_path / "twisted.json").write_text(json.dumps(twisted))
    built = []
    init = GradedContext.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedContext, "__init__", counted)
    for name in ("assemble_bfv", "structural_residuals"):
        monkeypatch.setattr(nqkit.problem, name, lambda *a, n=name: built.append(n))
    monkeypatch.chdir(tmp_path)
    paths = [corpus_path(name) for name in ("so3_action", "leafwise_metric")]
    for path in [*paths, "twisted.json"]:
        result = run("solve-connection", path, "--write", "solved.json")
        assert result.exit_code == 0, result.output
    assert built == []
    # a check of the same problem builds its phase space
    assert run("check", "twisted.json", "--master").exit_code == 0
    assert built


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
    assert solved.pack.omega[(0, 1, 0)] == original.pack.omega[(0, 1, 0)]
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


@pytest.mark.parametrize(
    "status, code", [("pass", "32"), ("fail", "31"), ("warn", "33"), ("skipped", "90")]
)
def test_color_wraps_only_the_status_tag(status, code):
    report = CheckReport("axioms", status, "Q^2 = 0", [("q[x]", "1")], ["a note"])
    plain = report.render_text()
    tag = status.upper()
    assert plain.startswith(f"[{tag}] axioms: Q^2 = 0\n")
    assert report.render_text(color=True) == plain.replace(
        f"[{tag}]", f"[\x1b[{code}m{tag}\x1b[0m]", 1
    )
