"""The so(n) frames of the benchmark generator through the CLI.

so(n) acting on R^n with the flat metric and zero connection satisfies
every identity, so its frame tensors are mostly zero: this is the input the
zero-skipping contractions are fastest on, and the one the bench alone
exercised before.  Counts of polynomial operations pin that loading and
reading its sparse tensors make no pass over their dense cells.  The
generator module is compiled from its source, so nothing is written under
`perfbench/`.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import ModuleType

import pytest

from nqkit.dynamics import check_evolution_invariance, structural_residuals
from nqkit.poly import EvenPoly
from nqkit.problem import problem_from_dict
from tests.conftest import invoke

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_gen() -> ModuleType:
    module = ModuleType("perfbench_gen")
    exec(compile(GEN.read_text(), str(GEN), "exec"), module.__dict__)
    return module


gen = load_gen()


@pytest.fixture(params=[3, 4], ids=["so3", "so4"])
def so_n_file(request, tmp_path):
    n = request.param
    path = tmp_path / f"so{n}.json"
    path.write_text(json.dumps(gen.so_n(n)))
    return n, path


def test_so_n_check_all_passes_and_warns_reducible(so_n_file, tmp_path):
    n, path = so_n_file
    out = tmp_path / "report.json"
    result = invoke(["check", str(path), "--all", "--json", str(out)])
    assert result.exit_code == 0, result.output
    checks = json.loads(out.read_text())["checks"]
    statuses = {check["name"]: check["status"] for check in checks}
    assert statuses.pop("irreducible") == "warn"
    assert set(statuses) == {
        "axioms",
        "first_class",
        "metric_compat",
        "structural",
        "evolution",
        "master",
        "cartan",
        "supercharge",
    }
    assert set(statuses.values()) == {"pass"}
    rank = n * (n - 1) // 2
    assert f"generic rank {n - 1}, full rank is {rank}" in result.output


def test_so_n_emit_bv_passes_supercharge(so_n_file, tmp_path):
    _, path = so_n_file
    out = tmp_path / "bv.json"
    result = invoke(["emit", str(path), "--what", "bv", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["checks"] == {"supercharge": "pass"}
    assert "forced" not in doc
    assert doc["terms"]


@pytest.mark.parametrize("n", [7, 8])
def test_so_n_generic_anchor_rank_is_n_minus_1(n, tmp_path):
    # the orbits are spheres, so the anchor has generic rank n - 1; the rank
    # comes from fraction-free elimination, since no point reaches min(r, n)
    path = tmp_path / f"so{n}.json"
    path.write_text(json.dumps(gen.so_n(n)))
    result = invoke(["check", str(path), "--irreducible"])
    assert result.exit_code == 0, result.output
    assert f"generic rank {n - 1}, full rank is {n * (n - 1) // 2}" in result.output


@pytest.mark.parametrize("n", [10, 12])
def test_so_n_loads_with_fewer_additions_than_rank_squared(n, monkeypatch):
    # the sparse structure is stored as given: loading makes no pass over
    # the rank^3 cells of a dense cube
    rank = n * (n - 1) // 2
    calls = []
    add = EvenPoly.__add__

    def counted(self, other):
        calls.append(None)
        return add(self, other)

    doc = gen.so_n(n)
    monkeypatch.setattr(EvenPoly, "__add__", counted)
    problem = problem_from_dict(doc)
    assert problem.data.rank == rank
    assert len(calls) < rank**2


def count_polynomials(monkeypatch) -> list:
    """A list that grows by one for every `EvenPoly` built from now on.

    Every polynomial is made by the constructor or by `_trusted`.
    """
    calls = []
    trusted = EvenPoly._trusted.__func__
    post_init = EvenPoly.__post_init__

    def counted_trusted(cls, coords, terms):
        calls.append(None)
        return trusted(cls, coords, terms)

    def counted_post_init(self):
        calls.append(None)
        post_init(self)

    monkeypatch.setattr(EvenPoly, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(EvenPoly, "__post_init__", counted_post_init)
    return calls


def test_so_n_zero_connection_loads_with_fewer_polynomials_than_rank_squared(
    monkeypatch,
):
    # the all-zero connection is read as the empty index: no polynomial is
    # built for its rank^2 * base_dim cells
    rank = 66
    doc = gen.so_n(12)
    without = {name: value for name, value in doc.items() if name != "connection"}
    calls = count_polynomials(monkeypatch)
    problem_from_dict(without)
    others = len(calls)
    calls.clear()
    problem = problem_from_dict(doc)
    assert len(calls) - others < rank**2
    assert problem.pack.omega == {}


def test_so_n_geometry_readers_make_no_pass_over_every_omega_cell(monkeypatch):
    # with the zero connection and no tau, structural_residuals and the
    # evolution check read no omega^b_ai g^ij or tau^b_a cell; each makes
    # fewer is_zero tests than the rank^2 * base_dim^2 such cells, the
    # evolution check's count including the base_dim^2 cells of its H
    n, rank = 8, 28
    problem = problem_from_dict(gen.so_n(n))
    cs = problem.constraints
    calls = []
    is_zero = EvenPoly.is_zero

    def counted(self):
        calls.append(None)
        return is_zero.fget(self)

    monkeypatch.setattr(EvenPoly, "is_zero", property(counted))
    families = structural_residuals(cs, problem.pack)
    structural = len(calls)
    report = check_evolution_invariance(cs, problem.pack, families)
    monkeypatch.undo()
    assert report.status == "pass"
    assert structural < rank**2 * n**2
    assert len(calls) - structural < rank**2 * n**2
