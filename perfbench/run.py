"""superseq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates one workload's inputs from the seed (``gen``, standard library
only), then measures passes over them.  Each pass runs in a fresh,
single-threaded child process (``child.py``) as a closed loop: one
caller, each job starting when the previous one finishes.  The program
is imported from ``src/`` next to this directory and receives nothing
but the generated inputs.  Passes repeat until ``--seconds`` of measured
time is spent, and at least ``MIN_PASSES`` times.

``--trace 0`` prints the end-to-end metrics.  The cores of a shared
host change speed by up to 2x within seconds, so times are scaled to the
reference speed of ``speed``, each by the probes timed right before and
after it.

* ``setup_s``: importing ``superseq`` and ``superseq.cli`` in a fresh
  process that runs no job (each job then parses its own scenario file),
  the median over ``SETUPS_PER_PASS`` such processes after every pass;
* ``wall_s``: time to run the whole job list, the sum over jobs of each
  job's median scaled latency over the passes;
* ``job_p50_s`` and ``job_p90_s``: percentiles of the scaled latencies
  of every job in every pass;
* ``peak_rss_mib``: peak resident memory of the pass process, the median
  over passes.

The unscaled times are in the report file.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing``, the tracing overhead (traced minus
untraced time of the job list, both sums of scaled job latencies) and
whether a layer predicted idle did any work.

The first pass checks every output with independent oracles
(``workloads``), on the default seed also against ``golden.json``; every
other pass must reproduce the first pass's output digests exactly.  A job
fails if it raises, exits with an unexpected code, fails a check or does
not reproduce.  The line before the result holds the environment, the
input digest, the error rate and the failures; the full report, with the
layer table, goes to ``perfbench/out/``.

``--write-golden`` records the default seed's output digests after the
oracle checks pass; run it for each workload when a change is meant to
alter program output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
CHILD = os.path.join(HERE, "child.py")

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_PASSES = 3
SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
              "peak_rss_mib": "MiB", "setup_s": "s"}

UNMEASURED = ("no hardware counters or cache misses: elimination cells, nonzero counts, "
              "matrix shapes and file bytes are computed from the data, not measured; "
              "no machine-wide tracing: spans come from wrappers in the benchmark's own "
              "files around the program's public functions")


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("density"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "cpu_model": cpu,
            "platform": platform.platform(), "commit": commit,
            "src_sha256": source.hexdigest()}


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload, inputs_path, traced, oracle, golden=None):
    proc = subprocess.run(
        [sys.executable, CHILD, workload.name, inputs_path, str(int(traced)),
         str(int(oracle)), json.dumps(golden)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload.name} pass failed to run:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_setups():
    """Import times of the program in fresh processes that run no job,
    between import probes; returns (times, probes)."""
    times, probes = [], [speed.import_probe_s()]
    for _ in range(SETUPS_PER_PASS):
        proc = subprocess.run([sys.executable, CHILD, "--setup-only"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"setup-only process failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
        probes.append(speed.import_probe_s())
    return times, probes


class Passes:
    """Runs passes over one input set and collects their failures."""

    def __init__(self, workload, inputs_path, golden):
        self.workload = workload
        self.inputs_path = inputs_path
        self.golden = golden
        self.reference = None
        self.attempted = 0
        self.failures = []

    def run(self, traced=False):
        first = self.reference is None
        result = run_child(self.workload, self.inputs_path, traced, first,
                           self.golden if first else None)
        failed = {int(k): v for k, v in result["failures"].items()}
        if first:
            self.reference = result
        else:
            for index, (a, b) in enumerate(zip(self.reference["digests"], result["digests"])):
                if index not in failed and a != b:
                    failed[index] = "output differs from the first pass"
                if index in self.reference["failures_by_index"]:
                    failed.setdefault(index, "failed in the first pass")
        result["failures_by_index"] = failed
        self.attempted += len(result["digests"])
        kind = "traced" if traced else "untraced"
        self.failures += [f"{kind} pass job {i}: {msg}" for i, msg in sorted(failed.items())]
        return result


def scaled_latencies(result):
    """A pass's job latencies, each scaled by the probes on either side of it."""
    return [speed.scale(latency, result["probes"][i:i + 2])
            for i, latency in enumerate(result["latencies"])]


def measure(passes, seconds):
    results, setups, measured = [], [], 0.0
    while True:
        results.append(passes.run())
        setups.append(run_setups())
        measured += results[-1]["wall_s"]
        if len(results) >= MIN_PASSES and measured + measured / len(results) > seconds:
            break
    scaled = [scaled_latencies(r) for r in results]
    per_job = [statistics.median(job) for job in zip(*scaled)]
    pooled = [v for latencies in scaled for v in latencies]
    metrics = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(pooled),
        "job_p90_s": statistics.quantiles(pooled, n=10, method="inclusive")[8],
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        "setup_s": statistics.median(speed.scale(t, probes[i:i + 2], speed.IMPORT_REFERENCE_S)
                                     for times, probes in setups for i, t in enumerate(times)),
    }
    report = {"passes": len(results), "jobs_per_pass": len(per_job),
              "jobs_beyond_p90": sum(1 for v in per_job if v > metrics["job_p90_s"]),
              "pass_walls_s": [r["wall_s"] for r in results],
              "job_scaled_s": per_job,
              "import_s": [t for times, _ in setups for t in times],
              "import_probe_s": [p for _, probes in setups for p in probes],
              "probe_s": [p for r in results for p in r["probes"]]}
    return metrics, report


def measure_traced(passes, seconds):
    untraced, traced, measured = [], [], 0.0
    while True:
        untraced.append(passes.run())
        traced.append(passes.run(traced=True))
        measured += untraced[-1]["wall_s"] + traced[-1]["wall_s"]
        if measured + measured / len(traced) > seconds:
            break
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = statistics.median(values) if name in tracing.TIMINGS else values[0]
    count_mismatches = sorted({name for layer in layers[1:] for name, value in layer.items()
                               if name not in tracing.TIMINGS and value != layers[0][name]})
    # at reference speed, so that the overhead is not the core's drift
    metrics["trace.wall_s"] = statistics.median(sum(scaled_latencies(r)) for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(sum(scaled_latencies(r))
                                                         for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    unpredicted = traced[0]["unpredicted_layers"]
    metrics["trace.unpredicted_layers"] = len(unpredicted)
    report = {"repetitions": len(traced), "unpredicted_layers": unpredicted,
              "counts_not_repeating": count_mismatches}
    return metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join(SRC, "superseq")):
        raise SystemExit(f"no program source under {SRC}")

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        seed = DEFAULT_SEED if args.write_golden else args.seed
        inputs, text = workload.generate(seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.pickle")
        with open(inputs_path, "wb") as handle:
            pickle.dump(inputs, handle)
        golden = load_golden()
        expected = golden.get(workload.name) if args.seed == DEFAULT_SEED else None
        passes = Passes(workload, inputs_path, None if args.write_golden else expected)
        if args.write_golden:
            passes.run()
            if passes.failures:
                raise SystemExit("not writing golden digests: " + "; ".join(passes.failures[:5]))
            golden[workload.name] = passes.reference["digests"]
            with open(GOLDEN, "w", encoding="utf-8") as handle:
                json.dump(golden, handle, indent=0, sort_keys=True)
                handle.write("\n")
            return 0
        if args.trace:
            metrics, report = measure_traced(passes, args.seconds)
            names = tracing.PER_LAYER
        else:
            metrics, report = measure(passes, args.seconds)
            names = list(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(passes.failures)
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "environment": environment(), "input_digest": gen.digest(text),
               "output_digest": gen.digest(" ".join(passes.reference["digests"])),
               "error_rate": failed / passes.attempted, "failures": passes.failures[:20]}
    full = {**summary, "why": workload.why, "unmeasured": UNMEASURED,
            "attempted": passes.attempted, "failed": failed,
            "layer_table": {"idle": tracing.PREDICTED_IDLE, "moves": tracing.PREDICTED_MOVES},
            **report, "metrics": metrics}
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": passes.attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit(name)}
                                  for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
