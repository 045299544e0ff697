"""Child side of the benchmark: import probes and a forking job server.

Both modes run from the repository root with PYTHONPATH=src.

    python3 perfbench/child.py setup

starts from a fresh interpreter, imports ``nqkit.cli`` and prints the
import time in seconds (every invocation of the tool pays it), then the
times of the calibration loops taken during and after the import.

    python3 perfbench/child.py serve TRACE

imports ``nqkit.cli`` once (and, when TRACE is 1, installs the tracer of
``spans.py``), then reads one JSON request per line from standard input.
For each it forks a child that runs ``nqkit ARGS...`` through
``nqkit.cli.main`` and exits, so every job runs in a process of its own
that starts in the state of a freshly imported tool and keeps nothing
for the next job.  The forked child writes its standard output and
error to the files the request names, and a JSON record with the time
of ``main`` up to its exit, including the flush of its output
(``job_s``), the times of the calibration loops taken just before and,
when not tracing, during it (``cal_s``), the exit code, ``ru_maxrss`` in
KiB and, when tracing, the spans and counters of the job.  The server
answers each request with one line once the child has ended.

The calibration loop is fixed work of the benchmark's own, builtins
only, shaped like the program's sparse polynomial products.  Its time
tells how fast the host runs Python at that moment: on a shared 2-vCPU
host it varied almost twofold from one second to the next.  While a job
or an import runs, ``Sampler`` runs one loop every SAMPLE_EVERY_S of
CPU time, and the time spent in these loops is taken out of the job's
time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

CAL_REPEATS = 3
SAMPLE_EVERY_S = 0.02


def calibrate() -> float:
    """Time of a fixed product of two sparse dict polynomials."""
    start = time.perf_counter()
    a = {(i, j): i - j + 1 for i in range(8) for j in range(8)}
    b = {(j, i): 2 * i + j - 3 for i in range(8) for j in range(8)}
    product: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    return time.perf_counter() - start


class Sampler:
    """Calibration loops on SIGPROF while the block runs; `spent` is the
    time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the job's garbage is not the loop's time
        self.samples.append(calibrate())
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def run_job(request: dict, tracer) -> None:
    import nqkit.cli

    def job() -> object:
        try:
            nqkit.cli.main.main(args=request["args"], prog_name="nqkit")
        except SystemExit as stop:
            return 0 if stop.code is None else stop.code
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
        return 0

    sampler = Sampler()
    cal_s = [calibrate() for _ in range(CAL_REPEATS)]
    raised = None
    start = time.perf_counter()
    try:
        if tracer:  # spans would count the loops as the program's time
            code = tracer.run("job", job)
        else:
            with sampler:
                code = job()
    except Exception as error:  # a traceback is a failed job, not a crash here
        code, raised = None, f"{type(error).__name__}: {error}"
    job_s = time.perf_counter() - start - sampler.spent

    record = {
        "job_s": job_s,
        "cal_s": cal_s + sampler.samples,
        "code": code,
        "raised": raised,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["spans"] = tracer.records()
        record["counts"] = dict(tracer.counts)
    with open(request["record"], "w") as handle:
        json.dump(record, handle)


def serve(trace: bool) -> None:
    import nqkit.cli  # noqa: F401  the state every job starts from

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    answer = sys.stdout
    print("ready", file=answer, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            try:
                for fd, path in ((1, request["stdout"]), (2, request["stderr"])):
                    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                    os.dup2(target, fd)
                    os.close(target)
                signal.alarm(request["timeout_s"])
                run_job(request, tracer)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": status}), file=answer, flush=True)


def main() -> None:
    if sys.argv[1] == "setup":
        sampler = Sampler()
        start = time.perf_counter()
        with sampler:
            import nqkit.cli  # noqa: F401
        import_s = time.perf_counter() - start - sampler.spent
        cal_s = sampler.samples + [calibrate() for _ in range(CAL_REPEATS)]
        print(import_s, *cal_s)
    else:
        serve(sys.argv[2] == "1")


if __name__ == "__main__":
    main()
