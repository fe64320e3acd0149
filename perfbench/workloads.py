"""The benchmark workloads.

Both call the command line in-process on generated scenario files.
Every workload turns its generated inputs into a list of jobs that a
pass runs one after another: a closed loop with a single caller, each
job starting when the previous one returns.  A workload provides

* ``generate(seed, workdir)``: the jobs (standard library only), with
  the canonical text of their inputs that goes into the input digest;
* ``run(job)``: one job, the only timed region;
* ``render(job, output)``: canonical text of a job's output, hashed for
  the golden digests and the traced/untraced comparison;
* ``check(job, output)``: an independent oracle, returning a failure
  message or None.

The program is reached only through the module attribute
``superseq.cli.main`` at call time, so the traced run's rebinding sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re

import gen


class CliJob:
    """One ``superseq`` command on a generated scenario file.

    The expected exit code comes from the scenario alone: ``validate``
    exits 3 exactly when a line degree exceeds the window, ``verify``
    exits 4 exactly on the negative control with a symbol override.
    """

    def __init__(self, argv, spec):
        self.argv = argv
        self.spec = spec
        self.kind = argv[0]
        if self.kind == "validate":
            self.expect_code = 0 if spec.stable() else 3
        elif self.kind == "verify":
            self.expect_code = 4 if spec.override else 0
        else:
            self.expect_code = 0


def run_cli(argv):
    """``superseq.cli.main`` in-process with stdout and stderr captured."""
    import superseq.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = superseq.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text, header):
    lines = text.splitlines()
    start = lines.index(header) + 1
    rows = []
    for line in lines[start:]:
        if not re.fullmatch(r"-?\d+(,-?\d+)*", line):
            break
        rows.append([int(v) for v in line.split(",")])
    return rows


def check_split_output(job, stdout):
    """Closed-form checks of a split sheaf's pages and cohomology output."""
    h = job.spec.closed_form()
    if job.kind == "validate":
        if job.expect_code == 0 and not stdout.startswith("valid:"):
            return "validate did not report a valid complex"
        return None
    if job.kind == "cohomology":
        rows = {n: (dim_h, total) for n, dim_h, total in _csv_rows(stdout, "n,dim_H,sum_E_limit")}
        for n in (0, 1):
            if rows.get(n) != (h[n], h[n]):
                return f"H^{n}: (dim_H, sum E_limit) = {rows.get(n)}, closed form {h[n]}"
        return None
    pages = {}
    for r, p, q, dim in _csv_rows(stdout, "r,p,q,dim"):
        pages.setdefault(r, {})[(p, q)] = dim
    limit = pages[max(pages)]
    for n in (0, 1):
        total = sum(d for (p, q), d in limit.items() if p + q == n)
        if total != h[n]:
            return f"limit page total in degree {n} is {total}, closed form {h[n]}"
    for r in range(1, max(pages) + 1):
        if pages[r] != pages[1]:
            return f"split sheaf does not degenerate at page 1 (page {r} differs)"
    return None


class CliWorkload:
    """What the two command line workloads share: scenario files, one command per job."""

    def generate(self, seed, workdir):
        rng = gen.seed_rng(self.name, seed)
        jobs = []
        texts = []
        for index, (spec, commands) in enumerate(self.scenarios(rng)):
            path = os.path.join(workdir, f"{index}.scn")
            text = spec.text()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            texts.append(text + "commands: " + " | ".join(" ".join(c) for c in commands))
            for args in commands:
                jobs.append(CliJob([args[0], path, *args[1:]], spec))
        return jobs, "\n".join(texts)

    def run(self, job):
        return run_cli(job.argv)

    def render(self, job, output):
        code, stdout, stderr = output
        return f"{' '.join([job.argv[0], *job.argv[2:]])}\n{code}\n{stdout}\n{stderr}"


SPLIT_COMMANDS = (("validate",), ("pages", "--format", "csv"), ("cohomology", "--format", "csv"))

# The window sweeps run on one fixed model per m (rank 1|1, every odd
# coordinate of degree -1).  Windows of 16 (m = 2) and 8 (m = 3) take
# about 18 s and 32 s per file for the three commands on a 2-core x86
# machine, more than one run of the benchmark may spend; m = 2, N = 8
# takes about 4 s, which leaves too few passes per run, so the m = 2
# sweep stops at N = 5 (about 1.8 s).  N = 3 puts jobs of 0.2 to 0.5 s
# around the 90th percentile, where the job sizes would otherwise jump.
SWEEPS = ((((-1, -1), (0,), (0,)), (2, 3, 5)),
          (((-1, -1, -1), (0,), (0,)), (1,)))


def shape_rng(workload):
    """Source of the structure every seed shares: ranks, twists, windows,
    term slots and exponents.  The seed draws the coefficients and the
    order of the twists, so a pass's amount of work hardly moves with the
    seed and runs with different seeds measure the same thing."""
    return random.Random(f"{workload}:shapes")


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _split_spec(shape, rng, m, coord_range, twist_range, slack, max_even, max_odd):
    spec = gen.SheafSpec([shape.randint(*coord_range) for _ in range(m)],
                         [shape.randint(*twist_range) for _ in range(shape.randint(1, max_even))],
                         [shape.randint(*twist_range) for _ in range(shape.randint(0, max_odd))],
                         1)
    spec.window = max(1, max(spec.line_twists())) + shape.randint(0, slack)
    # relabelling odd coordinates or generators keeps the sheaf's shape
    return gen.SheafSpec(_shuffled(rng, spec.coordinate_twists), _shuffled(rng, spec.even_twists),
                         _shuffled(rng, spec.odd_twists), spec.window)


class SheafCli(CliWorkload):
    name = "sheaf_cli"
    why = ("validate, pages and cohomology on split sheaves with m = 0..3 plus verify "
           "on deformed m = 2 ones: large sparse Cech matrices, the biggest jobs")

    def scenarios(self, rng):
        shape = shape_rng(self.name)
        out = []
        for _ in range(19):
            out.append((_split_spec(shape, rng, 0, (0, 0), (-4, 4), 2, 3, 1), SPLIT_COMMANDS))
        for _ in range(8):
            out.append((_split_spec(shape, rng, 1, (-3, 1), (-2, 2), 1, 2, 1), SPLIT_COMMANDS))
        for _ in range(2):
            out.append((_split_spec(shape, rng, 2, (-2, 0), (-2, 1), 1, 2, 0), SPLIT_COMMANDS))
        for profile, windows in SWEEPS:
            for window in windows:
                out.append((gen.SheafSpec(*profile, window), SPLIT_COMMANDS))
        # too narrow: a line of degree t > N makes the window unstable
        narrow = gen.SheafSpec([shape.randint(-2, -1)], [shape.randint(3, 5)], [], 1)
        narrow.window = max(narrow.line_twists()) - shape.randint(1, 2)
        out.append((narrow, (("validate",),)))
        for _ in range(2):
            spec = gen.SheafSpec((-1, -1), (0,), (0,), 3)
            spec.cocycle = tuple(gen.random_even_cocycle(
                shape, rng, spec, shape.randint(1, 3), shape.random() < 0.3, exponents=(-1, 1)))
            out.append((spec, (("verify",),)))
        # negative control: an obstructed cocycle checked against a wrong symbol
        c = rng.choice((-2, -1, 1, 2))
        wrong = c * rng.choice((-1, 2, 3))
        spec = gen.SheafSpec((-1, -1), (0,), (0,), 2,
                             cocycle=[f"e1 -> {gen.derivation_term(c, -1, 3, 'e1')}",
                                      f"f1 -> {gen.derivation_term(c, -1, 3, 'f1')}"],
                             override=[f"e1 -> {gen.derivation_term(wrong, -1, 3, 'e1')}",
                                       f"f1 -> {gen.derivation_term(wrong, -1, 3, 'f1')}"])
        out.append((spec, (("verify",),)))
        return out

    def check(self, job, output):
        code, stdout, stderr = output
        if code != job.expect_code:
            return f"exit code {code}, expected {job.expect_code}: {stderr.strip()}"
        if job.kind == "verify":
            want = "degeneracy: PASS" if job.expect_code == 0 else "degeneracy: FAIL"
            if stdout.splitlines()[-1:] != [want]:
                return f"verify output does not end with {want!r}"
            return None
        return check_split_output(job, stdout)


ORDER_LINE = re.compile(r"order: (2|4|infinity)\n")


class CocycleOrder(CliWorkload):
    name = "cocycle_order"
    why = ("order on deformed sheaves with m = 2, 3: parsing, exp/log, symbols and the "
           "dense obstruction solve; no Cech complex or page is built")

    # (m, even rank, odd rank, module terms, jobs per pass)
    SCHEDULE = ((2, 1, 1, (1, 3), 46), (2, 2, 1, (1, 3), 46), (3, 1, 1, (1, 2), 8))

    def scenarios(self, rng):
        shape = shape_rng(self.name)
        out = []
        for m, n_even, n_odd, terms, count in self.SCHEDULE:
            for _ in range(count):
                spec = gen.SheafSpec([shape.randint(-2, 0) for _ in range(m)],
                                     [shape.randint(-1, 1) for _ in range(n_even)],
                                     [shape.randint(-1, 1) for _ in range(n_odd)], 2)
                spec.cocycle = tuple(gen.random_even_cocycle(
                    shape, rng, spec, shape.randint(*terms), shape.random() < 0.3))
                out.append((spec, (("order",),)))
        return out

    def check(self, job, output):
        code, stdout, stderr = output
        if code != job.expect_code:
            return f"exit code {code}, expected {job.expect_code}: {stderr.strip()}"
        match = ORDER_LINE.fullmatch(stdout)
        if not match:
            return f"unexpected order output {stdout!r}"
        if match.group(1) == "4" and job.spec.m < 3:
            return "order 4 needs at least three odd coordinates"
        return None


WORKLOADS = {w.name: w for w in (SheafCli(), CocycleOrder())}
