"""Record the reference fingerprint of every benchmark job.

Run from the repository root, at the commit whose answers are the
reference:

    python3 perfbench/record.py

runs each job of every workload once, the whole dense_random pool
included, refuses to record if any job misses its independent reference
(frozen corpus reports, oracle dimensions, so(n) verdicts), and writes
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    missing = run.missing_sources()
    if missing and missing != [str(run.REFERENCE.relative_to(run.ROOT))]:
        print(f"cannot record: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    run.prepare()
    fingerprints = {}
    problems = []
    with run.Server(False) as server:
        for name in run.WORKLOADS:
            for job in run.workload_jobs(name, 0, whole_pool=True):
                result = run.run_job(server, job, None)
                problems += result.problems
                fingerprints[job.key] = result.fingerprint
                print(f"{job.key}: {result.job_s:.3f} s", flush=True)
    if problems:
        for problem in problems:
            print(f"mismatch: {problem}", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fingerprints)} fingerprints to {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
