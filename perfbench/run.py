"""nqkit benchmark: one-shot CLI jobs on four workloads.

``BENCHMARK.json`` gates ``corpus``, ``so_n`` and ``windows``;
``dense_random`` runs the same way on request (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Every job is one ``nqkit <verb>`` in a process of its own, forked from
an interpreter that has just imported the tool (``perfbench/child.py``),
so nothing cached in one job can flatter the next.  Jobs run one after
another from this process: a closed loop with one client.  A pass runs
the workload's job list once, in an order drawn from the seed.  A run
makes a fixed number of passes per workload, sized so that it takes
about ``--seconds`` on the host the benchmark was written on.  Each
job's time is rescaled to a reference host speed by calibration loops
run alongside it, and the job keeps its median over the passes.

Every job's fingerprint (exit code, check statuses, window dimensions,
solution dimension, hashes of its standard output and JSON output) is
compared with the fingerprint recorded at the seed commit in
``perfbench/reference.json`` and, wherever one exists, with a reference
that does not come from the library: the frozen reports in
``corpus/expected``, the dimensions computed by
``tools/cohomology_oracle.py``, and the known verdicts of so(n).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, from the
spans that ``perfbench/spans.py`` records around each module's public
functions.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
ORACLE = ROOT / "tools" / "cohomology_oracle.py"
JOB_TIMEOUT_S = 170
MIN_PASSES = 3
# seconds of run time one pass is given, forks, calibration loops and its
# share of the import probes included: about what a pass took at the seed
# commit on a 2-vCPU host while other tenants kept it busy
PASS_S = {"corpus": 3.5, "so_n": 8.5, "windows": 8.5, "dense_random": 5.5}
# fresh-interpreter import probes in an untraced run, the same number
# before each pass
SETUP_PROBES = 10
# reference host speed: one calibration loop of child.py in this time
CAL_REF_S = 0.001

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("corpus", "so_n", "windows", "dense_random")
CORPUS = (
    "abelian_r1",
    "abelian_r2",
    "abelian_r2_magnetic",
    "beta_drift",
    "broken_jacobi",
    "leafwise_metric",
    "rank2_line",
    "rank2_line_affine",
    "shear_pair",
    "so3_action",
)
# corpus files whose frames are fixtures of the oracle script
ORACLE_FIXTURE = {
    "abelian_r1": "abelian_r1",
    "abelian_r2": "abelian_r2",
    "rank2_line": "rank2_line",
    "so3_action": "so3",
}
SO_N = (3, 4, 5)
DENSE_POOL = 24
DENSE_PER_RUN = 4

# (fingerprint, standard output, JSON output) -> problems found
Expectation = Callable[[dict, str, "bytes | None"], "list[str]"]


@dataclass
class Job:
    key: str
    args: list[str]
    out: str | None = None
    expect: Expectation | None = None


@dataclass
class Result:
    job: Job
    job_s: float
    maxrss_kb: int
    output_bytes: int
    problems: list[str]
    fingerprint: dict | None = None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    cal_s: list = field(default_factory=list)


# ---------------------------------------------------------------- fingerprints

_STATUS = re.compile(r"^\[(PASS|FAIL|WARN|SKIPPED)\] (\w+):", re.M)
_WINDOW = re.compile(r"^closed (\d+)\s+exact (\d+)\s+h\^\d (\d+)$", re.M)
_SOLUTION = re.compile(r"solution space dimension (\d+)")


def fingerprint(code, stdout: str, output: bytes | None) -> dict:
    json_checks = None
    if output is not None:
        json_checks = json.loads(output).get("checks")
        if isinstance(json_checks, list):
            json_checks = {c["name"]: c["status"] for c in json_checks}
    window = _WINDOW.search(stdout)
    solution = _SOLUTION.search(stdout)
    return {
        "code": code,
        "statuses": {name: tag.lower() for tag, name in _STATUS.findall(stdout)},
        "json_checks": json_checks,
        "window": [int(g) for g in window.groups()] if window else None,
        "solution_dim": int(solution.group(1)) if solution else None,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "json_sha256": hashlib.sha256(output).hexdigest() if output else None,
    }


# ------------------------------------------------------ independent references


def expect_report(path: Path) -> Expectation:
    """The JSON report is byte for byte the frozen one."""

    def check(fp: dict, stdout: str, output: bytes | None) -> list[str]:
        if output != path.read_bytes():
            return [f"report differs from {path.relative_to(ROOT)}"]
        return []

    return check


def expect_gates(path: Path) -> Expectation:
    """Verdicts an emit reports agree with the frozen check report."""
    frozen = {c["name"]: c["status"] for c in json.loads(path.read_text())["checks"]}

    def check(fp: dict, stdout: str, output: bytes | None) -> list[str]:
        return [
            f"emit reports {name}={status}, {path.name} says {frozen[name]}"
            for name, status in (fp["json_checks"] or {}).items()
            if frozen.get(name, status) != status
        ]

    return check


def expect_window(dims: dict) -> Expectation:
    """Closed, exact and h dimensions are the oracle's."""
    want = [dims["closed"], dims["exact"], dims["h"]]

    def check(fp: dict, stdout: str, output: bytes | None) -> list[str]:
        if fp["code"] != 0 or fp["window"] != want:
            return [f"window {fp['window']} (exit {fp['code']}), oracle {want}"]
        return []

    return check


def expect_so_n(n: int) -> Expectation:
    """so(n) on R^n passes every check but irreducibility, which warns: the
    generic orbits are spheres, so the gradients have generic rank n - 1."""
    rank_note = f"generic rank {n - 1}, full rank is {n * (n - 1) // 2}"

    def check(fp: dict, stdout: str, output: bytes | None) -> list[str]:
        failing = {k: v for k, v in fp["statuses"].items() if v != "pass"}
        if fp["code"] != 0 or len(fp["statuses"]) != 9:
            return [f"so({n}): exit {fp['code']}, statuses {fp['statuses']}"]
        if failing != {"irreducible": "warn"} or rank_note not in stdout:
            return [f"so({n}): non-passing {failing}, expected '{rank_note}'"]
        return []

    return check


def expect_supercharge(fp: dict, stdout: str, output: bytes | None) -> list[str]:
    if fp["code"] != 0 or fp["json_checks"] != {"supercharge": "pass"}:
        return [f"emit bv: exit {fp['code']}, checks {fp['json_checks']}"]
    return []


def oracle_windows() -> dict:
    """Window dimensions from the oracle script, cached per script hash."""
    source = ORACLE.read_bytes()
    cache = WORK / f"oracle-{hashlib.sha256(source).hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    sys.path.insert(0, str(ORACLE.parent))
    import cohomology_oracle as oracle

    fix = oracle.fixtures()
    dims = {
        f"h1/{name}/{trunc}": oracle.h1_window(fix[name], trunc)
        for name, trunc in [
            ("abelian_r1", 2),
            ("abelian_r2", 2),
            ("rank2_line", 2),
            ("so3", 2),
            ("so3", 3),
            ("so3", 4),
            ("abelian_r2", 6),
            ("rank2_line", 4),
        ]
    }
    dims["h0/abelian_r2/2/1"] = oracle.h0_window(fix["abelian_r2"], 2, 1)
    cache.write_text(json.dumps(dims, sort_keys=True))
    return dims


# ------------------------------------------------------------------ workloads


def _out(key: str) -> str:
    return str((WORK / "out" / (key.replace("/", "--") + ".json")).relative_to(ROOT))


def _write_input(name: str, doc: dict) -> str:
    path = WORK / "in" / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path.relative_to(ROOT))


def corpus_jobs(oracle: dict) -> list[Job]:
    """Every verb on every corpus file; paths are relative to the root,
    because the check report embeds the path it was given."""
    jobs = []
    for name in CORPUS:
        problem = f"corpus/{name}.json"
        expected = ROOT / "corpus" / "expected" / f"{name}.json"
        key = f"corpus/{name}"
        window = None
        if name in ORACLE_FIXTURE:
            window = expect_window(oracle[f"h1/{ORACLE_FIXTURE[name]}/2"])
        jobs += [
            Job(f"{key}/check", ["check", problem, "--all", "--json", _out(f"{key}/check")],
                _out(f"{key}/check"), expect_report(expected)),
            Job(f"{key}/cohomology", ["cohomology", problem], None, window),
            Job(f"{key}/emit_bfv", ["emit", problem, "--what", "bfv", "--out", _out(f"{key}/bfv")],
                _out(f"{key}/bfv"), expect_gates(expected)),
            Job(f"{key}/emit_bv", ["emit", problem, "--what", "bv", "--out", _out(f"{key}/bv")],
                _out(f"{key}/bv"), expect_gates(expected)),
            Job(f"{key}/solve_connection", ["solve-connection", problem, "--degree", "1"]),
        ]
    return jobs


def so_n_jobs(oracle: dict) -> list[Job]:
    jobs = []
    for n in SO_N:
        problem = _write_input(f"so{n}", gen.so_n(n))
        key = f"so_n/so{n}"
        jobs += [
            Job(f"{key}/check", ["check", problem, "--all"], None, expect_so_n(n)),
            Job(f"{key}/emit_bv", ["emit", problem, "--what", "bv", "--out", _out(f"{key}/bv")],
                _out(f"{key}/bv"), expect_supercharge),
        ]
    return jobs


def windows_jobs(oracle: dict) -> list[Job]:
    def h1(file: str, fixture: str, trunc: int) -> Job:
        return Job(
            f"windows/{file}/h1/{trunc}",
            ["cohomology", f"corpus/{file}.json", "--trunc", str(trunc)],
            None,
            expect_window(oracle[f"h1/{fixture}/{trunc}"]),
        )

    def h0(file: str, fixture: str, x_degree: int, p_degree: int) -> Job:
        return Job(
            f"windows/{file}/h0/{x_degree}/{p_degree}",
            ["cohomology", f"corpus/{file}.json", "--bfv-h0",
             "--trunc", str(x_degree), "--p-degree", str(p_degree)],
            None,
            expect_window(oracle[f"h0/{fixture}/{x_degree}/{p_degree}"]),
        )

    return [
        h1("so3_action", "so3", 3),
        h1("so3_action", "so3", 4),
        h1("abelian_r2", "abelian_r2", 6),
        h1("rank2_line", "rank2_line", 4),
        h0("abelian_r2", "abelian_r2", 2, 1),
        Job("windows/rank2_line_affine/is_exact/6",
            ["cohomology", "corpus/rank2_line_affine.json", "--is-exact", "--trunc", "6"]),
        Job("windows/so3_action/solve_connection/2",
            ["solve-connection", "corpus/so3_action.json", "--degree", "2"]),
    ]


def dense_jobs(frames) -> list[Job]:
    """check --all and a forced bfv emit on each frame; no reference exists
    outside the recorded fingerprints, since the frames fail the axioms."""
    jobs = []
    for k in frames:
        problem = _write_input(f"dense{k:02d}", gen.dense_random(k))
        key = f"dense_random/frame{k:02d}"
        jobs += [
            Job(f"{key}/check", ["check", problem, "--all", "--json", _out(f"{key}/check")],
                _out(f"{key}/check")),
            Job(f"{key}/emit_bfv",
                ["emit", problem, "--what", "bfv", "--force", "--out", _out(f"{key}/bfv")],
                _out(f"{key}/bfv")),
        ]
    return jobs


def workload_jobs(name: str, seed: int, whole_pool: bool = False) -> list[Job]:
    """The job list of a workload, in the order the seed draws."""
    rng = random.Random(f"{name}:{seed}")
    if name == "dense_random":
        frames = range(DENSE_POOL) if whole_pool else sorted(
            rng.sample(range(DENSE_POOL), DENSE_PER_RUN)
        )
        jobs = dense_jobs(frames)
    else:
        oracle = oracle_windows() if name in ("corpus", "windows") else {}
        jobs = {"corpus": corpus_jobs, "so_n": so_n_jobs, "windows": windows_jobs}[
            name
        ](oracle)
    rng.shuffle(jobs)
    return jobs


# -------------------------------------------------------------------- running


def prepare() -> None:
    for sub in ("in", "out", "rec"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH="src",
        # same hash order in every child, so counts repeat exactly
        PYTHONHASHSEED="0",
        NO_COLOR="1",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
    )
    return env


def measure_setup() -> tuple[float, list[float]]:
    """Import time of nqkit.cli in a fresh interpreter, and the times of
    the calibration loops taken during and after it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=JOB_TIMEOUT_S, check=True,
    )
    import_s, *cal_s = map(float, proc.stdout.split())
    return import_s, cal_s


class Server:
    """A child interpreter that has imported nqkit.cli and forks one
    process per job; see child.py."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve", "1" if trace else "0"],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the job server did not start")

    def run(self, request: dict) -> int:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["status"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_job(server: Server, job: Job, references: dict | None) -> Result:
    """One job in a process of its own; forking it is not timed."""
    files = {k: WORK / "rec" / f"job.{k}" for k in ("record", "stdout", "stderr")}
    for stale in [*files.values(), ROOT / job.out if job.out else None]:
        if stale is not None and stale.exists():
            stale.unlink()
    status = server.run({
        "args": job.args,
        "timeout_s": JOB_TIMEOUT_S,
        **{k: str(path) for k, path in files.items()},
    })
    if not files["record"].exists():
        tail = files["stderr"].read_text(errors="replace").strip().splitlines()[-1:]
        return Result(job, 0.0, 0, 0, [f"{job.key}: job died (status {status}): {tail}"])
    record = json.loads(files["record"].read_text())
    stdout = files["stdout"].read_text()
    output = (ROOT / job.out).read_bytes() if job.out and (ROOT / job.out).exists() else None
    problems = []
    if record["raised"]:
        problems.append(f"{job.key}: raised {record['raised']}")
    fp = fingerprint(record["code"], stdout, output)
    if references is not None:
        recorded = references.get(job.key)
        if recorded is None:
            problems.append(f"{job.key}: no recorded reference")
        elif recorded != fp:
            fields = sorted(k for k in fp if fp[k] != recorded.get(k))
            problems.append(f"{job.key}: differs from the recorded reference in {fields}")
    if job.expect is not None:
        problems += [f"{job.key}: {p}" for p in job.expect(fp, stdout, output)]
    return Result(
        job,
        record["job_s"],
        record["maxrss_kb"],
        len(stdout.encode()) + (len(output) if output else 0),
        problems,
        fp,
        record.get("spans", []),
        record.get("counts", {}),
        record["cal_s"],
    )


def run_pass(server: Server, jobs: list[Job], references: dict | None) -> list[Result]:
    return [run_job(server, job, references) for job in jobs]


# -------------------------------------------------------------------- metrics


def percentile_line(label: str, values: list[float], unit: str) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    n = len(values)
    line = f"{label}: median {statistics.median(values):.6g} {unit}, n={n}"
    cut = [q for q in (75, 90, 95, 99, 99.9) if n * (100 - q) / 100 >= 10]
    if cut:
        q = cut[-1]
        value = sorted(values)[min(n - 1, int(n * q / 100))]
        line += f", p{q:g} {value:.6g} {unit}"
    return line


def per_job(passes: list[list[Result]], attribute: str, reduce) -> list[float]:
    """Per job, `reduce` over the passes; every pass lists the jobs in one order."""
    return [reduce(getattr(p[k], attribute) for p in passes) for k in range(len(passes[0]))]


def best_times(passes: list[list[Result]]) -> list[float]:
    """Per job, its fastest measured time over the passes."""
    return per_job(passes, "job_s", min)


def at_reference_speed(seconds: float, cal_s: list[float]) -> float:
    """`seconds` rescaled to a host on which one calibration loop takes
    CAL_REF_S, by the mean loop time measured alongside.  The loops come
    at equal steps of CPU time, so their mean follows the average speed
    of a job during which the host changes speed; a median would follow
    whichever speed held for most of it."""
    return seconds * CAL_REF_S / statistics.fmean(cal_s) if cal_s else seconds


def end_to_end(probes: list[tuple[float, list[float]]], passes: list[list[Result]],
               failed: int, attempted: int) -> dict:
    """Timings are medians at reference speed: per job over the passes,
    and over the import probes for set-up.  On a shared host the speed
    of Python drifts by up to twofold within seconds and minutes, and
    the calibration loops run alongside each job track it; see child.py
    and README.md."""
    scaled = [[at_reference_speed(r.job_s, r.cal_s) for r in p] for p in passes]
    times = [statistics.median(column) for column in zip(*scaled)]
    setups = [at_reference_speed(import_s, cal_s) for import_s, cal_s in probes]
    print(percentile_line("setup_s (per import)", setups, "s"))
    print(percentile_line("job_s (per job and pass)", [t for p in scaled for t in p], "s"))
    print(percentile_line("wall_s (per pass)", [sum(p) for p in scaled], "s"))
    print(percentile_line("slowest_job_s (per pass)", [max(p) for p in scaled], "s"))
    print(percentile_line("measured wall_s (per pass)",
                          [sum(r.job_s for r in p) for p in passes], "s"))
    print(percentile_line("calibration loop", [c for p in passes for r in p for c in r.cal_s],
                          "s"))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "slowest_job_s": (max(times), "s"),
        "peak_rss_mb": (max(per_job(passes, "maxrss_kb", statistics.median)) / 1024, "MB"),
        "verdict_match_rate": ((attempted - failed) / attempted, "ratio"),
    }


SELF_TIME_METRICS = {
    "rref_s": ("rref",),
    "jacobi_defect_s": ("jacobi_defect",),
    "anchor_defect_s": ("anchor_defect",),
    "check_axioms_s": ("check_axioms",),
    "cohomology_h1_s": ("cohomology_h1",),
    "is_exact_one_form_s": ("is_exact_one_form",),
    "poisson_s": ("poisson",),
    "left_derivation_s": ("left_derivation",),
    "build_S_s": ("build_S",),
    "check_master_s": ("check_master",),
    "assemble_bfv_s": ("assemble_bfv",),
    "bfv_h0_s": ("bfv_h0",),
    "check_first_class_s": ("check_first_class",),
    "irreducibility_probe_s": ("irreducibility_probe",),
    "generic_rank_s": ("generic_rank",),
    "check_metric_compat_s": ("check_metric_compat",),
    "check_structural_s": ("check_structural",),
    "check_evolution_invariance_s": ("check_evolution_invariance",),
    "solve_connection_s": ("solve_connection",),
    "check_supercharge_s": ("check_supercharge",),
    "expand_bv_s": ("expand_bv",),
    "load_problem_s": ("load_problem",),
    "parse_poly_s": ("parse_poly",),
    "render_s": ("render_text", "to_json_dict", "write_json", "term_rows"),
    "verb_s": tuple(spans.VERBS),
}
CALL_METRICS = {
    "rref_calls": "rref",
    "jacobi_defect_calls": "jacobi_defect",
    "anchor_defect_calls": "anchor_defect",
    "poisson_calls": "poisson",
    "parse_poly_calls": "parse_poly",
}


def layer_counts(results: list[Result]) -> dict:
    """Exact counts of one traced pass."""
    counts: dict = {"output_bytes": sum(r.output_bytes for r in results)}
    for r in results:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
        for metric, name in CALL_METRICS.items():
            counts[metric] = counts.get(metric, 0) + sum(1 for s in r.spans if s[1] == name)
    return counts


def pass_self_times(results: list[Result]) -> dict:
    totals: dict = {}
    for r in results:
        for name, value in spans.self_times(r.spans).items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def per_layer(untraced: list[list[Result]], traced: list[list[Result]]) -> dict:
    counts = layer_counts(traced[0])
    if any(layer_counts(p) != counts for p in traced[1:]):
        print("warning: per-layer counts differ between traced passes", file=sys.stderr)
    selfs = [pass_self_times(p) for p in traced]
    median_self = {
        name: statistics.median(s.get(name, 0.0) for s in selfs)
        for name in {n for s in selfs for n in s}
    }

    def ratio(numerator: str, base: str) -> float:
        return counts.get(numerator, 0) / counts[base] if counts.get(base) else 0.0

    metrics = {
        metric: (sum(median_self.get(n, 0.0) for n in names), "s")
        for metric, names in SELF_TIME_METRICS.items()
    }
    for name in ("rref_cells", "rref_nonzeros", "rref_rows", *CALL_METRICS,
                 "evenpoly_constructed", "mul_calls", "poisson_terms_out", "S_terms"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["rref_pivot_ratio"] = (ratio("rref_pivots", "rref_rows"), "ratio")
    metrics["terms_per_product"] = (ratio("mul_term_pairs", "mul_calls"), "ratio")
    metrics["output_bytes"] = (counts["output_bytes"], "bytes")
    traced_wall = sum(best_times(traced))
    metrics["trace_overhead"] = (traced_wall - sum(best_times(untraced)), "s")

    print(f"self time by module, traced pass of {traced_wall:.4g} s:")
    by_module: dict = {}
    for name, value in median_self.items():
        module = spans.MODULE_OF[name]
        by_module[module] = by_module.get(module, 0.0) + value
    for module, value in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<20} {value:10.4f} s  {100 * value / traced_wall:5.1f} %")
    return metrics


def write_spans(name: str, seed: int, traced: list[list[Result]]) -> None:
    path = WORK / f"spans-{name}-{seed}.jsonl"
    with path.open("w") as handle:
        for number, results in enumerate(traced):
            for job_id, r in enumerate(results):
                handle.write(json.dumps(
                    {"pass": number, "job": job_id, "key": r.job.key, "spans": r.spans}
                ) + "\n")


# ----------------------------------------------------------------------- main


def pass_count(name: str, seconds: float, trace: bool) -> int:
    """Passes in a run: fixed per workload for a given `seconds`, so that
    both commits of a comparison take the median of equally many times.
    A traced run alternates half as many untraced and traced passes, at
    least one of each."""
    count = max(MIN_PASSES, int(seconds / PASS_S[name]))
    return max(1, count // 2) if trace else count


def missing_sources() -> list[str]:
    needed = [ROOT / "src" / "nqkit" / "cli.py", ROOT / "corpus" / "expected", ORACLE, REFERENCE]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload's passes and return the result document.

    An untraced run makes SETUP_PROBES import probes, the same number
    before each pass, so set-up is sampled across the whole run and the
    sample count does not depend on how fast the program is.  A job
    counts as failed once, however many of its passes missed a reference.
    """
    references = json.loads(REFERENCE.read_text())
    jobs = workload_jobs(name, seed)
    passes = pass_count(name, seconds, trace)
    probes_per_pass = 0 if trace else -(-SETUP_PROBES // passes)
    measure_setup()  # fills the bytecode cache, which an installed tool has
    probes: list[tuple[float, list[float]]] = []
    untraced: list[list[Result]] = []
    traced: list[list[Result]] = []
    with contextlib.ExitStack() as stack:
        plain = stack.enter_context(Server(False))
        tracing = stack.enter_context(Server(True)) if trace else None
        for _ in range(passes):
            probes += [measure_setup() for _ in range(probes_per_pass)]
            untraced.append(run_pass(plain, jobs, references))
            if trace:
                traced.append(run_pass(tracing, jobs, references))
    results = [r for p in untraced + traced for r in p]
    problems = [p for r in results for p in r.problems]
    for problem in problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    failed = len({r.job.key for r in results if r.problems})
    print(f"workload {name}, seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs")
    if trace:
        write_spans(name, seed, traced)
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(probes, untraced, failed, len(jobs))
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_sources()
    if missing:
        print(f"cannot run: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare()
    document = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
