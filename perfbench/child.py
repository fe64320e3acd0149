"""One measured pass of a workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD INPUTS TRACED CHECK GOLDEN
    python3 perfbench/child.py --setup-only

``INPUTS`` is the pickled job list ``run.py`` wrote for this run;
``TRACED`` and ``CHECK`` are 0 or 1; ``GOLDEN`` is a JSON list of
expected job digests, or ``null``.  The process imports the program,
runs every job once in order and prints one JSON line with its timings,
job digests and failures.  A pass also times the ``speed``
probe before the first job and after every job.  A fresh process per pass keeps any
state the program might hold between calls from carrying over to the
next pass of the same inputs.  With ``--setup-only`` the process only
imports the program and prints its import time.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def run_pass(workload, jobs, tracer=None, stats=None):
    """Run every job once, in order.

    Returns (wall, [(latency, output, error)], probes), with one probe
    time before every job and one after the last; the wall time leaves
    the probes out.
    """
    import speed

    def probe():
        began = time.perf_counter()
        probes.append(speed.probe_s())
        return time.perf_counter() - began

    gc.collect()
    results, probes, probing = [], [], 0.0
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        probing += probe()
        began = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(job)
            else:
                output = tracer.run_job(index, workload.run, job)
            error = None
        except Exception as exc:  # a job that raises counts as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - began
        if tracer is not None:
            stats.add(tracer.take_spans())
        results.append((latency, output, error))
    probing += probe()
    return time.perf_counter() - start - probing, results, probes


def check_results(workload, jobs, results, oracle, golden):
    """Job digests and failure messages; oracles run only when asked."""
    import gen
    digests, failures = [], {}
    for index, (job, (_, output, error)) in enumerate(zip(jobs, results)):
        if error is None:
            digests.append(gen.digest(workload.render(job, output)))
            if oracle:
                try:
                    error = workload.check(job, output)
                except Exception as exc:  # output the oracle cannot even read
                    error = f"check failed on unreadable output: {exc!r}"
            if error is None and golden is not None and golden[index] != digests[-1]:
                error = "output differs from the golden digest"
        else:
            digests.append("raised")
        if error is not None:
            failures[index] = error
    return digests, failures


def main(argv):
    began = time.perf_counter()
    import superseq  # noqa: F401
    import superseq.cli  # noqa: F401
    import_s = time.perf_counter() - began

    # imported after the timed import, so that import_s also pays for the
    # standard modules the program pulls in
    import json
    import pickle

    if argv == ["--setup-only"]:
        print(json.dumps({"import_s": import_s}))
        return 0
    name, inputs_path, traced, oracle, golden = argv

    import tracing
    import workloads
    workload = workloads.WORKLOADS[name]
    with open(inputs_path, "rb") as handle:
        jobs = pickle.load(handle)

    tracer = stats = None
    if traced == "1":
        tracer, stats = tracing.Tracer(), tracing.LayerStats()
        tracer.install()
    try:
        wall, results, probes = run_pass(workload, jobs, tracer, stats)
    finally:
        if tracer is not None:
            tracer.uninstall()
    digests, failures = check_results(workload, jobs, results, oracle == "1",
                                      json.loads(golden))
    report = {"wall_s": wall,
              "latencies": [r[0] for r in results], "probes": probes, "digests": digests,
              "failures": failures,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if stats is not None:
        report["layers"] = stats.metrics()
        report["unpredicted_layers"] = tracing.unpredicted_layers(name, stats.layer_calls)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
