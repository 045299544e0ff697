"""The truncated cohomology windows agree with the standalone oracle.

tools/cohomology_oracle.py recomputes every window from scratch with its
own polynomial dictionaries, its own elimination, and a termwise rewrite
of the charge bracket.  These tests run it as a subprocess, once per
session (the `oracle_document` fixture of conftest.py), and compare
dimension for dimension; the larger windows of the benchmark call its
window functions directly, from the script loaded by path.
"""

from __future__ import annotations

from pathlib import Path
from types import ModuleType

import pytest

from nqkit.algebroid import cohomology_h1
from nqkit.bfv import bfv_h0
from nqkit.constraints import build_constraints

from tests.test_algebroid import abelian_r1, rank2_line, so3_action
from tests.test_constraints import abelian_r2

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "cohomology_oracle.py"

_oracle_module = None


def oracle_module() -> ModuleType:
    # compiled from source, so no bytecode cache is written under tools/
    global _oracle_module
    if _oracle_module is None:
        _oracle_module = ModuleType("cohomology_oracle")
        code = compile(ORACLE.read_text(), str(ORACLE), "exec")
        exec(code, _oracle_module.__dict__)
    return _oracle_module


def fixture_table():
    return {
        "abelian_r1": abelian_r1(),
        "abelian_r2": abelian_r2(),
        "rank2_line": rank2_line(),
        "so3": so3_action(),
    }


def test_first_order_windows_match_the_oracle(oracle_document):
    document = oracle_document["h1"]
    for name, data in fixture_table().items():
        report = cohomology_h1(data, 2)
        want = document[name]
        assert report.closed_dim == want["closed"], name
        assert report.exact_dim == want["exact"], name
        assert report.h_dim == want["h"], name


def test_constant_sector_matches_the_oracle(oracle_document):
    report = cohomology_h1(so3_action(), 0)
    want = oracle_document["h1"]["so3_constant_sector"]
    assert report.closed_dim == want["closed"] == 0
    assert report.h_dim == want["h"] == 0


def test_ghost_zero_windows_match_the_oracle(oracle_document):
    document = oracle_document["bfv_h0"]
    table = fixture_table()
    for name, window in document.items():
        data = table[name]
        cs = build_constraints(data)
        report = bfv_h0(cs, window["x_degree"], window["p_degree"])
        assert report.closed_dim == window["closed"], name
        assert report.exact_dim == window["exact"], name
        assert report.h_dim == window["h"], name


@pytest.mark.parametrize(
    "name, trunc", [("so3", 3), ("so3", 4), ("abelian_r2", 6), ("rank2_line", 4)]
)
def test_benchmark_first_order_windows_match_the_oracle(name, trunc):
    oracle = oracle_module()
    want = oracle.h1_window(oracle.fixtures()[name], trunc)
    report = cohomology_h1(fixture_table()[name], trunc)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (
        want["closed"],
        want["exact"],
        want["h"],
    )


def test_benchmark_ghost_zero_window_matches_the_oracle():
    oracle = oracle_module()
    want = oracle.h0_window(oracle.fixtures()["abelian_r2"], 2, 1)
    data = abelian_r2()
    report = bfv_h0(build_constraints(data), 2, 1)
    assert (report.closed_dim, report.exact_dim, report.h_dim) == (
        want["closed"],
        want["exact"],
        want["h"],
    )
