"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, workdir):
    workload = workloads.WORKLOADS[name]
    first = gen.digest(workload.generate(5, workdir)[1])
    assert gen.digest(workload.generate(5, workdir)[1]) == first
    assert gen.digest(workload.generate(6, workdir)[1]) != first


def test_generator_imports_no_program_or_tests():
    for module in ("gen.py", "workloads.py"):
        with open(os.path.join(BENCH, module), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = [alias.name for node in top for alias in node.names] + \
            [node.module for node in top if isinstance(node, ast.ImportFrom) and node.module]
        assert not any(n.split(".")[0] in ("superseq", "tests", "factories", "oracles")
                       for n in names), (module, names)
    probe = ("import sys, tempfile; sys.path.insert(0, sys.argv[1]); import workloads; "
             "d = tempfile.mkdtemp(); "
             "[w.generate(3, d) for w in workloads.WORKLOADS.values()]; "
             "assert not any(m.startswith('superseq') for m in sys.modules), 'superseq imported'")
    proc = subprocess.run([sys.executable, "-c", probe, BENCH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_metric_names_and_benchmark_file():
    names = list(run.END_TO_END) + tracing.PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracing.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _small_jobs(name, workdir):
    workload = workloads.WORKLOADS[name]
    jobs, _ = workload.generate(2, workdir)
    if name == "sheaf_cli":
        # every split m <= 1 file, the narrow window and the negative control
        return workload, [j for j in jobs if j.spec.m <= 1 or j.expect_code]
    return workload, jobs[:12]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_leaves_output_byte_identical(name, workdir):
    workload, jobs = _small_jobs(name, workdir)
    plain = [workload.render(job, workload.run(job)) for job in jobs]
    workload, jobs = _small_jobs(name, workdir)
    tracer, stats = tracing.Tracer(), tracing.LayerStats()
    import superseq.linalg
    original = superseq.linalg.kernel
    tracer.install()
    try:
        assert superseq.spectral.kernel is not original  # module aliases are rebound too
        traced = [workload.render(job, tracer.run_job(i, workload.run, job))
                  for i, job in enumerate(jobs)]
        stats.add(tracer.take_spans())
    finally:
        tracer.uninstall()
    assert superseq.linalg.kernel is original and superseq.spectral.kernel is original
    assert traced == plain
    metrics = stats.metrics()
    assert set(metrics) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                           "trace.unpredicted_layers"} == set(tracing.PER_LAYER)
    assert metrics["linalg.matrix_init.calls"] > 0
    assert tracing.unpredicted_layers(name, stats.layer_calls) == []


def test_checks_catch_wrong_output(workdir):
    workload, jobs = _small_jobs("sheaf_cli", workdir)
    job = next(j for j in jobs if j.kind == "cohomology")
    code, stdout, stderr = workload.run(job)
    assert workload.check(job, (code, stdout, stderr)) is None
    h0 = job.spec.closed_form()[0]
    wrong = stdout.replace(f"0,{h0},{h0}", f"0,{h0 + 1},{h0 + 1}", 1)
    assert workload.check(job, (code, wrong, stderr)) is not None
    assert workload.check(job, (1, stdout, stderr)) is not None


def test_speed_scaling():
    import speed
    assert speed.scale(2.0, [speed.REFERENCE_S]) == 2.0
    # a core running at half speed doubles both the probe and the job
    assert speed.scale(4.0, [2 * speed.REFERENCE_S] * 2) == pytest.approx(2.0)
    assert speed.scale(1.0, [0.5, 1.5], reference=1.0) == 1.0
    assert 0 < speed.probe_s() < 1
