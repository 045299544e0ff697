"""Self-test of the benchmark's generators and tracer.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- so(3), so(4) and so(5) from the generator pass ``check_axioms``, and a
  dense_random seed gives the same frame every time (and another seed
  another frame);
- on each workload, every traced function records at least one span on
  the workload expected to call it, which catches a binding the tracer
  missed, such as a ``from .x import f`` in another module;
- per-layer counts repeat exactly across two traced passes, and traced
  fingerprints equal untraced ones, job for job.

It ends by printing the layer-separation figures recorded in
``perfbench/README.md``.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import sys

import gen
import run
import spans

# span name -> a workload whose jobs must call it
EXPECTED_ON = {
    "rref": "windows",
    "anchor_defect": "so_n",
    "jacobi_defect": "so_n",
    "check_axioms": "so_n",
    "cohomology_h1": "windows",
    "is_exact_one_form": "windows",
    "poisson": "so_n",
    "left_derivation": "so_n",
    "build_S": "so_n",
    "check_master": "so_n",
    "assemble_bfv": "so_n",
    "bfv_h0": "windows",
    "check_first_class": "so_n",
    "irreducibility_probe": "so_n",
    "generic_rank": "so_n",
    "check_metric_compat": "so_n",
    "check_structural": "so_n",
    "check_evolution_invariance": "so_n",
    "solve_connection": "windows",
    "check_supercharge": "so_n",
    "expand_bv": "so_n",
    "term_rows": "dense_random",
    "load_problem": "corpus",
    "parse_poly": "corpus",
    "render_text": "so_n",
    "to_json_dict": "corpus",
    "write_json": "corpus",
    "verb_check": "corpus",
    "verb_cohomology": "windows",
    "verb_emit": "corpus",
    "verb_solve_connection": "corpus",
}


def check_generators(failures: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from nqkit.algebroid import check_axioms
    from nqkit.problem import problem_from_dict

    for n in run.SO_N:
        status = check_axioms(problem_from_dict(gen.so_n(n)).data).status
        if status != "pass":
            failures.append(f"so({n}) axioms: {status}")
    for seed in (0, 7):
        if json.dumps(gen.dense_random(seed)) != json.dumps(gen.dense_random(seed)):
            failures.append(f"dense_random({seed}) is not reproducible")
    if gen.dense_random(0) == gen.dense_random(1):
        failures.append("dense_random ignores its seed")


def check_workload(name: str, failures: list[str]) -> dict:
    references = json.loads(run.REFERENCE.read_text())
    jobs = run.workload_jobs(name, 0)
    with run.Server(False) as plain, run.Server(True) as tracing:
        untraced = run.run_pass(plain, jobs, references)
        traced = [run.run_pass(tracing, jobs, references) for _ in range(2)]
    for result in untraced + traced[0] + traced[1]:
        failures += result.problems
    for plain, first in zip(untraced, traced[0]):
        if plain.fingerprint != first.fingerprint:
            failures.append(f"{name}: traced fingerprint differs for {plain.job.key}")
    counts = [run.layer_counts(p) for p in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        failures.append(f"{name}: counts differ between traced passes: {diff}")
    seen = {s[1] for r in traced[0] for s in r.spans}
    for span_name, workload in EXPECTED_ON.items():
        if workload == name and span_name not in seen:
            failures.append(f"{name}: no span of {span_name}")
    return {"traced": traced[0], "counts": counts[0]}


def layer_separation(by_workload: dict) -> dict:
    def share(workload: str, span_name: str) -> float:
        results = by_workload[workload]["traced"]
        wall = sum(r.job_s for r in results)
        return run.pass_self_times(results).get(span_name, 0.0) / wall

    so_n_checks = [
        r for r in by_workload["so_n"]["traced"] if r.job.key.endswith("/check")
    ]
    jacobi = sum(1 for r in so_n_checks for s in r.spans if s[1] == "jacobi_defect")

    def terms_per_product(workload: str) -> float:
        counts = by_workload[workload]["counts"]
        return counts["mul_term_pairs"] / counts["mul_calls"]

    return {
        "rref_s_share_of_windows_job_time": share("windows", "rref"),
        "rref_s_share_of_so_n_job_time": share("so_n", "rref"),
        "jacobi_defect_calls_per_so_n_check_all": jacobi / len(so_n_checks),
        "terms_per_product_dense_random": terms_per_product("dense_random"),
        "terms_per_product_so_n": terms_per_product("so_n"),
    }


def main() -> int:
    missing = run.missing_sources()
    if missing:
        print(f"cannot test: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    run.prepare()
    failures: list[str] = []
    check_generators(failures)
    by_workload = {}
    for name in run.WORKLOADS:
        by_workload[name] = check_workload(name, failures)
        print(f"{name}: checked", flush=True)
    unknown = set(EXPECTED_ON) ^ (set(spans.SPANNED) | set(spans.VERBS))
    if unknown:
        failures.append(f"span names without an expected workload: {sorted(unknown)}")
    print(json.dumps(layer_separation(by_workload), indent=2))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
