"""The truncated cohomology windows agree with the standalone oracle.

tools/cohomology_oracle.py recomputes every window from scratch with its
own polynomial dictionaries, its own elimination, and a termwise rewrite
of the charge bracket.  These tests run it as a subprocess and compare
dimension for dimension.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from nqkit.algebroid import cohomology_h1
from nqkit.bfv import assemble_bfv, bfv_h0, build_charge

from tests.test_algebroid import abelian_r1, rank2_line, so3_action
from tests.test_constraints import abelian_r2
from tests.test_dynamics import flat_pack

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "cohomology_oracle.py"

_document = None


def oracle_document():
    global _document
    if _document is None:
        run = subprocess.run(
            [sys.executable, str(ORACLE)],
            capture_output=True,
            text=True,
            check=True,
        )
        _document = json.loads(run.stdout)
    return _document


def fixture_table():
    return {
        "abelian_r1": abelian_r1(),
        "abelian_r2": abelian_r2(),
        "rank2_line": rank2_line(),
        "so3": so3_action(),
    }


def test_first_order_windows_match_the_oracle():
    document = oracle_document()["h1"]
    for name, data in fixture_table().items():
        report = cohomology_h1(data, 2)
        want = document[name]
        assert report.closed_dim == want["closed"], name
        assert report.exact_dim == want["exact"], name
        assert report.h_dim == want["h"], name


def test_constant_sector_matches_the_oracle():
    report = cohomology_h1(so3_action(), 0)
    want = oracle_document()["h1"]["so3_constant_sector"]
    assert report.closed_dim == want["closed"] == 0
    assert report.h_dim == want["h"] == 0


def test_ghost_zero_windows_match_the_oracle():
    document = oracle_document()["bfv_h0"]
    table = fixture_table()
    for name, window in document.items():
        data = table[name]
        pkg = assemble_bfv(build_charge(data, flat_pack(data.coords, data.rank)))
        report = bfv_h0(pkg, window["x_degree"], window["p_degree"])
        assert report.closed_dim == window["closed"], name
        assert report.exact_dim == window["exact"], name
        assert report.h_dim == window["h"], name
