#!/usr/bin/env python3
"""Before/after benchmark of two revisions: the bench half of the A/B protocol.

Each run of `BENCHMARK.json`'s command (`perfbench/run.py --workload W
--seed K --seconds S --trace 0`) gets a fresh copy of its tree, exported
with `git archive` into a temporary directory: the working checkout is
never run, since runs from it read `windows` about 10 % slower than the
same code in a fresh copy.  The base and the change run once per seed, a
pair, and the side that runs first alternates from pair to pair.

For each end-to-end metric of `BENCHMARK.json` the table gives the medians
of both sides, their relative difference, the distance between the
quartiles of the base's runs, the pairs the change wins (ties count for
neither side) and the bound.  The tool exits 1 if any run is not correct,
fails a job or prints no result.

Run from the repository root (standard library only):

    python3 tools/ab.py --base HEAD~1 --change HEAD --workload windows \\
        --seeds 1-10 --seconds 8
    python3 tools/ab.py --base HEAD --worktree --workload so_n --seeds 1-10 \\
        --seconds 35

`--worktree` exports the working tree, untracked files that git does not
ignore included, through a temporary index; the checkout's own index is
left alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")

# (tree, workload, seed, seconds) -> the run's result document, or None
Runner = Callable[[Path, str, int, float], "dict | None"]


def parse_seeds(text: str) -> list[int]:
    """`A-B` (inclusive) or one seed `A`."""
    low, sep, high = text.partition("-")
    try:
        first, last = int(low), int(high) if sep else int(low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"empty or negative seed range {text!r}")
    return list(range(first, last + 1))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV")
    change = parser.add_mutually_exclusive_group(required=True)
    change.add_argument("--change", metavar="REV")
    change.add_argument("--worktree", action="store_true",
                        help="the working tree, exported through a temporary index")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True
    ).stdout


def worktree_tree() -> str:
    """A tree object of the working tree, made through a temporary index."""
    with tempfile.TemporaryDirectory(prefix="nqkit-ab-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def export(archive: bytes, into: Path) -> Path:
    """A fresh copy of a `git archive` tarball in a new directory under `into`."""
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=into))
    # the "data" filter refuses links and paths out of the tree, where the
    # interpreter has it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **safe)
    return tree


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in `tree`: the JSON object on its last stdout line."""
    command = benchmark()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_pairs(
    archives: dict[str, bytes],
    workload: str,
    seeds: list[int],
    seconds: float,
    runner: Runner,
    into: Path,
) -> list[dict[str, dict | None]]:
    """One run per side and seed, each in a fresh export; pair i runs the
    base first when i is even and the change first when it is odd."""
    pairs = []
    for i, seed in enumerate(seeds):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            tree = export(archives[side], into)
            try:
                pair[side] = runner(tree, workload, seed, seconds)
            finally:
                shutil.rmtree(tree, ignore_errors=True)
            print(f"seed {seed} {side}: {summary(pair[side])}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def summary(result: dict | None) -> str:
    if result is None:
        return "no result"
    values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return f"correct {result.get('correct')} failed {result.get('failed')} {values}"


def problems(pairs: list[dict[str, dict | None]], seeds: list[int]) -> list[str]:
    """Every run that gave no result, was not correct or failed a job."""
    out = []
    for seed, pair in zip(seeds, pairs):
        for side in SIDES:
            result = pair[side]
            if result is None:
                out.append(f"seed {seed} {side}: no result")
            elif result.get("correct") is not True or result.get("failed", 0) > 0:
                out.append(
                    f"seed {seed} {side}: correct {result.get('correct')}, "
                    f"failed {result.get('failed')}"
                )
    return out


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def table(pairs: list[dict[str, dict | None]], metrics: list[dict]) -> list[str]:
    """The comparison, one line per end-to-end metric, over the complete pairs."""
    lines = [
        f"{'metric':20} {'base':>12} {'change':>12} {'delta':>8} "
        f"{'base IQR':>10} {'wins':>7} {'bound':>6}"
    ]
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [
            tuple(pair[side]["metrics"][name]["value"] for side in SIDES)
            for pair in pairs
            if all(name in (pair[side] or {}).get("metrics", {}) for side in SIDES)
        ]
        if not both:
            lines.append(f"{name:20} no complete pair")
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        wins = sum(1 for b, c in both if (c < b if lower else c > b))
        mb, mc = statistics.median(base), statistics.median(change)
        delta = f"{(mc - mb) / mb:+.1%}" if mb else "-"
        spread = quartile_distance(base)
        lines.append(
            f"{name:20} {mb:12.6g} {mc:12.6g} {delta:>8} "
            f"{spread:10.3g} {wins:>3}/{len(both):<3} {spec['bound']:>6}"
        )
    return lines


def main(argv: list[str] | None = None, runner: Runner = run_bench) -> int:
    args = parse_args(argv)
    metrics = benchmark()["end_to_end"]
    change = worktree_tree() if args.worktree else args.change
    archives = {
        "base": _git("archive", "--format=tar", args.base),
        "change": _git("archive", "--format=tar", change),
    }
    with tempfile.TemporaryDirectory(prefix="nqkit-ab-") as tmp:
        pairs = run_pairs(
            archives, args.workload, args.seeds, args.seconds, runner, Path(tmp)
        )
    label = "worktree" if args.worktree else args.change
    print(f"workload {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s runs: base {args.base}, change {label}")
    print("\n".join(table(pairs, metrics)))
    bad = problems(pairs, args.seeds)
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
