"""Selftest of `tools/ab.py` on a stubbed runner and stubbed git.

No timing and no benchmark subprocess: the runner hands back fixed result
documents, and `git archive` is replaced by in-memory tarballs that say
which side they are, so the tests see the export, the alternation, the
table and the exit code.
"""

from __future__ import annotations

import importlib.util
import io
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AB = load_tool()


def tarball(side: str) -> bytes:
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        data = side.encode()
        info = tarfile.TarInfo("side")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return buffer.getvalue()


def result(wall: float, correct: bool = True, failed: int = 0) -> dict:
    metrics = {
        "setup_s": 0.07,
        "wall_s": wall,
        "slowest_job_s": wall / 4,
        "peak_rss_mb": 15.5,
        "verdict_match_rate": 1.0,
    }
    return {
        "correct": correct,
        "attempted": 7,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


class StubRunner:
    """Records the side and seed of each run; the change is 10 % faster,
    except on the seeds in `slower`, and `broken` seeds fail."""

    def __init__(self, slower=(), broken=(), missing=()):
        self.calls: list[tuple[str, int]] = []
        self.slower, self.broken, self.missing = slower, broken, missing

    def __call__(self, tree, workload, seed, seconds):
        side = (tree / "side").read_text()
        self.calls.append((side, seed))
        assert workload == "windows" and seconds == 8
        if side == "change" and seed in self.missing:
            return None
        wall = 0.030 + 0.001 * seed
        if side == "change":
            wall *= 1.1 if seed in self.slower else 0.9
        broken = side == "change" and seed in self.broken
        return result(wall, correct=not broken, failed=int(broken))


@pytest.fixture
def fake_git(monkeypatch):
    revisions = []

    def git(*args, env=None):
        assert args[:2] == ("archive", "--format=tar")
        revisions.append(args[2])
        return tarball("base" if args[2] == "BASE" else "change")

    monkeypatch.setattr(AB, "_git", git)
    return revisions


ARGV = ["--base", "BASE", "--change", "CHANGE", "--workload", "windows",
        "--seeds", "1-10", "--seconds", "8"]


def test_arguments():
    args = AB.parse_args(ARGV)
    assert args.seeds == list(range(1, 11))
    assert (args.base, args.change, args.worktree) == ("BASE", "CHANGE", False)
    assert AB.parse_args(["--base", "B", "--worktree", "--workload", "so_n",
                          "--seeds", "3", "--seconds", "1.5"]).seeds == [3]
    for bad in (
        ["--base", "B", "--workload", "w", "--seeds", "1-2", "--seconds", "8"],
        ["--base", "B", "--change", "C", "--worktree", "--workload", "w",
         "--seeds", "1-2", "--seconds", "8"],
        ARGV[:-4] + ["--seeds", "5-2", "--seconds", "8"],
        ARGV[:-4] + ["--seeds", "x", "--seconds", "8"],
        ARGV[:-1] + ["0"],
    ):
        with pytest.raises(SystemExit) as raised:
            AB.parse_args(bad)
        assert raised.value.code == 2


def test_pairs_alternate_and_the_table_counts_wins(fake_git, capsys):
    runner = StubRunner(slower=(4,))
    assert AB.main(ARGV, runner=runner) == 0
    assert fake_git == ["BASE", "CHANGE"]
    firsts = [runner.calls[2 * i][0] for i in range(10)]
    assert firsts == ["base", "change"] * 5
    assert sorted(runner.calls) == sorted(
        (side, seed) for side in ("base", "change") for seed in range(1, 11)
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("workload windows, seeds 1-10, 8 s runs")
    row = {line.split()[0]: line.split() for line in lines[2:]}
    assert set(row) == {
        "setup_s", "wall_s", "slowest_job_s", "peak_rss_mb", "verdict_match_rate"
    }
    # medians, delta, base IQR, wins, bound
    name, base, change, delta, iqr, wins, bound = row["wall_s"]
    assert float(base) == pytest.approx(0.0355)
    assert float(base) * 0.9 < float(change) < float(base)
    assert delta.startswith("-")
    assert float(iqr) == pytest.approx(0.0055, rel=0.05)
    assert wins == "9/10" and bound == "0.25"
    # ties count for neither side
    assert row["verdict_match_rate"][5] == "0/10"


def test_a_failed_or_missing_run_exits_1(fake_git, capsys):
    assert AB.main(ARGV, runner=StubRunner(broken=(3,))) == 1
    out = capsys.readouterr().out
    assert "FAILED seed 3 change: correct False, failed 1" in out
    assert AB.main(ARGV, runner=StubRunner(missing=(7,))) == 1
    out = capsys.readouterr().out
    assert "FAILED seed 7 change: no result" in out
    assert "wall_s" in out  # the other nine pairs still make the table
