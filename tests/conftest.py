"""Fixtures shared across test modules.

A module-level cache in a test file is not enough for these: pytest
imports `tests/test_oracle.py` as `test_oracle`, and a test file that
imports it as `tests.test_oracle` gets a second copy with its own cache.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "cohomology_oracle.py"


@pytest.fixture(scope="session")
def oracle_document() -> dict:
    """The windows of tools/cohomology_oracle.py, run once per session."""
    run = subprocess.run(
        [sys.executable, str(ORACLE)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(run.stdout)
