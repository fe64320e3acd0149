"""In-memory span recorder for the traced run, and the per-layer metrics.

The traced run wraps the public functions and methods of every
``superseq`` module listed in ``SPANS`` and records one span per call:
name, start, end, parent span and job id.  Module-level functions are
rebound in every ``superseq`` module that imported them under their own
name (``spectral`` calls ``kernel`` through its own binding, so patching
``linalg`` alone would miss it); methods are replaced on their class.
``uninstall`` puts every original back.  Only traced passes install it;
untraced passes run the program untouched.

Hot scalar helpers (``popcount``, ``multiply_masks``, ``vector``) and
the arithmetic of value types (``AlgebraElement``, ``SectionElement``,
quasi-operators) are left unwrapped to keep the overhead bounded: their
time counts as self time of the nearest wrapped caller.

Shapes, nonzero counts and file sizes are computed after a span closes.
The clock spans read stops while they are computed, so they do not show
up in any span's time; they do show up in the traced pass's wall time,
which is why the overhead is reported as traced minus untraced wall time.

``linalg.elim_cells`` and ``linalg.elim_nnz`` count the rows x columns
and nonzeros of every matrix entering elimination through ``rref``
(hence ``kernel``), ``Subspace.from_vectors`` and ``solve_linear``; the
one-off elimination inside ``QuotientPresentation.project`` is not
reached through a public function and is not counted.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import weakref

LAYERS = ("cli", "scenario", "supercech", "spectral", "linalg", "deformation", "grassmann")

# Layers each workload is predicted to leave idle; the traced run flags
# any of them that shows calls.
PREDICTED_IDLE = {
    "sheaf_cli": (),
    "cocycle_order": ("supercech", "spectral"),
}

# Which end-to-end metric, on which workload, a change to each layer
# should move.
PREDICTED_MOVES = {
    "cli": [("job_p50_s", "sheaf_cli")],
    "scenario": [("job_p50_s", "cocycle_order")],
    "supercech": [("wall_s", "sheaf_cli"), ("job_p90_s", "sheaf_cli")],
    "spectral": [("wall_s", "sheaf_cli")],
    "linalg": [("job_p90_s", "sheaf_cli"), ("wall_s", "cocycle_order")],
    "deformation": [("wall_s", "cocycle_order"), ("job_p90_s", "cocycle_order"),
                    ("wall_s", "sheaf_cli")],
    "grassmann": [("wall_s", "cocycle_order")],
}


def _nnz_rows(rows):
    return sum(1 for row in rows for v in row if v)


def _matrix_cells(m):
    return {"cells": m.rows * m.cols, "nnz": _nnz_rows(m.entries)}


def _from_vectors_cells(tracer, args, kwargs, result):
    vectors = args[2]
    return {"cells": len(vectors) * args[1], "nnz": _nnz_rows(vectors)}


def _rref_cells(tracer, args, kwargs, result):
    return _matrix_cells(args[0])


def _solve_cells(tracer, args, kwargs, result):
    m, rhs = args[0], args[1]
    return {"cells": m.rows * (m.cols + 1), "nnz": _nnz_rows(m.entries) + sum(1 for v in rhs if v),
            "rows": m.rows, "cols": m.cols, "solved": result is not None}


def _cech_shape(tracer, args, kwargs, result):
    real = args[0]
    d0 = real.complex.differential(0)
    return {"c0": len(real.basis0), "c1": len(real.basis1), "cells": d0.rows * d0.cols,
            "nnz": _nnz_rows(d0.entries), "truncated": real.truncated_terms}


def _exit_code(tracer, args, kwargs, result):
    return {"code": result}


def _file_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _order(tracer, args, kwargs, result):
    return {"obstructed": result[0] != math.inf}


def _basis_size(tracer, args, kwargs, result):
    return {"size": len(result)}


def _symbol_checks(tracer, args, kwargs, result):
    return {"checks": len(result.symbol_checks)}


def _page(tracer, args, kwargs, result):
    complex_, r = args[0], args[1]
    repeat = tracer.page_seen(complex_, r)
    nonzero = 0 if repeat else sum(1 for m in result.differentials.values() if not m.is_zero())
    return {"r": r, "p_max": complex_.p_max, "repeat": repeat, "dr_nonzero": nonzero}


def _listify_vectors(args):
    # Subspace.from_vectors accepts any iterable; a list can be measured
    # after the call without changing what the call sees
    return (args[0], args[1], list(args[2]), *args[3:])


# (module, class or None, attribute, span name, attributes after close, argument preparation)
SPANS = [
    ("cli", None, "main", "cli.main", _exit_code, None),
    ("cli", None, "build_parser", "cli.build_parser", None, None),
    ("cli", None, "cmd_validate", "cli.cmd_validate", None, None),
    ("cli", None, "cmd_pages", "cli.cmd_pages", None, None),
    ("cli", None, "cmd_cohomology", "cli.cmd_cohomology", None, None),
    ("cli", None, "cmd_order", "cli.cmd_order", None, None),
    ("cli", None, "cmd_verify", "cli.cmd_verify", None, None),
    ("scenario", None, "load_scenario", "scenario.load_scenario", _file_bytes, None),
    ("scenario", None, "parse_scenario", "scenario.parse_scenario", None, None),
    ("scenario", None, "parse_expression", "scenario.parse_expression", None, None),
    ("supercech", "CechRealization", "__init__", "supercech.build", _cech_shape, None),
    ("supercech", None, "cech_realization", "supercech.cech_realization", None, None),
    ("supercech", None, "build_cech_complex", "supercech.build_cech_complex", None, None),
    ("supercech", None, "build_section_space", "supercech.build_section_space", None, None),
    ("supercech", None, "retract_graded", "supercech.retract_graded", None, None),
    ("supercech", None, "stabilization_check", "supercech.stabilization_check", None, None),
    ("supercech", None, "graded_piece_cohomology", "supercech.graded_piece_cohomology",
     None, None),
    ("spectral", "FilteredComplex", "__init__", "spectral.complex_init", None, None),
    ("spectral", "FilteredComplex", "validate", "spectral.validate", None, None),
    ("spectral", "FilteredComplex", "cycles", "spectral.cycles", None, None),
    ("spectral", "FilteredComplex", "page", "spectral.page", _page, None),
    ("spectral", "FilteredComplex", "infinity_page", "spectral.infinity_page", None, None),
    ("spectral", "FilteredComplex", "cohomology", "spectral.cohomology", None, None),
    ("spectral", "FilteredComplex", "compare_graded", "spectral.compare_graded", None, None),
    ("spectral", None, "page_via_homology", "spectral.page_via_homology", None, None),
    ("linalg", "RationalMatrix", "__init__", "linalg.matrix_init", None, None),
    ("linalg", "RationalMatrix", "__matmul__", "linalg.matmul", None, None),
    ("linalg", "Subspace", "from_vectors", "linalg.from_vectors", _from_vectors_cells,
     _listify_vectors),
    ("linalg", "Subspace", "intersect", "linalg.intersect", None, None),
    ("linalg", "Subspace", "sum", "linalg.sum", None, None),
    ("linalg", None, "rref", "linalg.rref", _rref_cells, None),
    ("linalg", None, "kernel", "linalg.kernel", None, None),
    ("linalg", None, "image", "linalg.image", None, None),
    ("linalg", None, "image_of_subspace", "linalg.image_of_subspace", None, None),
    ("linalg", None, "preimage", "linalg.preimage", None, None),
    ("linalg", "QuotientPresentation", "__init__", "linalg.quotient", None, None),
    ("linalg", "QuotientPresentation", "project", "linalg.project", None, None),
    ("linalg", None, "induced_map", "linalg.induced_map", None, None),
    ("linalg", None, "solve_linear", "linalg.solve_linear", _solve_cells, None),
    ("deformation", None, "normalize_cocycle", "deformation.normalize_cocycle", _order, None),
    ("deformation", None, "cocycle_order", "deformation.cocycle_order", None, None),
    ("deformation", None, "degree_symbol", "deformation.degree_symbol", None, None),
    ("deformation", None, "exponential", "deformation.exponential", None, None),
    ("deformation", None, "logarithm", "deformation.logarithm", None, None),
    ("deformation", None, "chart_derivation_basis", "deformation.chart_derivation_basis",
     _basis_size, None),
    ("deformation", None, "verify_degeneracy", "deformation.verify_degeneracy",
     _symbol_checks, None),
    ("grassmann", "AlgebraMorphism", "apply", "grassmann.apply", None, None),
    ("grassmann", "AlgebraDerivation", "apply", "grassmann.apply", None, None),
]

# name, kind: per-span metrics are (span, "self" | "total" | "calls")
_SPAN_METRICS = [
    ("cli.main.calls", "cli.main", "calls"),
    ("scenario.load_s", "scenario.load_scenario", "total"),
    ("scenario.load_scenario.calls", "scenario.load_scenario", "calls"),
    ("supercech.build_s", "supercech.build", "total"),
    ("supercech.build.calls", "supercech.build", "calls"),
    ("supercech.stabilization_s", "supercech.stabilization_check", "total"),
    ("supercech.stabilization_check.calls", "supercech.stabilization_check", "calls"),
    ("spectral.validate_s", "spectral.validate", "total"),
    ("spectral.validate.calls", "spectral.validate", "calls"),
    ("spectral.page_s", "spectral.page", "total"),
    ("spectral.page.calls", "spectral.page", "calls"),
    ("spectral.homology_route_s", "spectral.page_via_homology", "total"),
    ("spectral.page_via_homology.calls", "spectral.page_via_homology", "calls"),
    ("spectral.cohomology_s", "spectral.cohomology", "total"),
    ("spectral.cohomology.calls", "spectral.cohomology", "calls"),
    ("spectral.compare_graded_s", "spectral.compare_graded", "total"),
    ("spectral.compare_graded.calls", "spectral.compare_graded", "calls"),
    ("linalg.matrix_init_self_s", "linalg.matrix_init", "self"),
    ("linalg.matrix_init.calls", "linalg.matrix_init", "calls"),
    ("linalg.from_vectors_self_s", "linalg.from_vectors", "self"),
    ("linalg.from_vectors.calls", "linalg.from_vectors", "calls"),
    ("linalg.kernel_self_s", "linalg.kernel", "self"),
    ("linalg.kernel.calls", "linalg.kernel", "calls"),
    ("linalg.preimage_self_s", "linalg.preimage", "self"),
    ("linalg.preimage.calls", "linalg.preimage", "calls"),
    ("linalg.intersect_self_s", "linalg.intersect", "self"),
    ("linalg.intersect.calls", "linalg.intersect", "calls"),
    ("linalg.quotient_self_s", "linalg.quotient", "self"),
    ("linalg.quotient.calls", "linalg.quotient", "calls"),
    ("linalg.project_self_s", "linalg.project", "self"),
    ("linalg.project.calls", "linalg.project", "calls"),
    ("linalg.induced_map_self_s", "linalg.induced_map", "self"),
    ("linalg.induced_map.calls", "linalg.induced_map", "calls"),
    ("linalg.solve_linear_self_s", "linalg.solve_linear", "self"),
    ("linalg.solve_linear.calls", "linalg.solve_linear", "calls"),
    ("deformation.normalize_s", "deformation.normalize_cocycle", "total"),
    ("deformation.normalize_cocycle.calls", "deformation.normalize_cocycle", "calls"),
    ("deformation.symbol_s", "deformation.degree_symbol", "total"),
    ("deformation.degree_symbol.calls", "deformation.degree_symbol", "calls"),
    ("deformation.chart_basis_s", "deformation.chart_derivation_basis", "total"),
    ("deformation.chart_derivation_basis.calls", "deformation.chart_derivation_basis", "calls"),
    ("deformation.exp_s", "deformation.exponential", "total"),
    ("deformation.exponential.calls", "deformation.exponential", "calls"),
    ("deformation.log_s", "deformation.logarithm", "total"),
    ("deformation.logarithm.calls", "deformation.logarithm", "calls"),
    ("deformation.verify_s", "deformation.verify_degeneracy", "total"),
    ("deformation.verify_degeneracy.calls", "deformation.verify_degeneracy", "calls"),
    ("deformation.symbol_check_s", "deformation.verify_degeneracy", "self"),
    ("grassmann.apply_s", "grassmann.apply", "total"),
    ("grassmann.apply.calls", "grassmann.apply", "calls"),
]

_PAGE_INDICES = range(7)

_DERIVED = (
    ["cli.exit_nonzero", "scenario.bytes",
     "supercech.c0_dim_max", "supercech.c1_dim_max", "supercech.d0_nnz",
     "supercech.d0_density", "supercech.truncated_terms",
     "spectral.limit_recheck_s", "spectral.page_repeats", "spectral.dr_nonzero"]
    + [f"spectral.page.r{r}_s" for r in _PAGE_INDICES]
    + ["linalg.elim_cells", "linalg.elim_nnz", "linalg.elim_density",
       "deformation.stages", "deformation.stages_absorbed", "deformation.stages_obstructed",
       "deformation.window_rechecks", "deformation.chart_basis_size",
       "deformation.obstruction_solve_s", "deformation.obstruction_rows_max",
       "deformation.obstruction_cols_max", "deformation.symbol_checks"]
)

_RUN_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "trace.spans", "trace.unpredicted_layers"]

PER_LAYER = ([f"{layer}.self_s" for layer in LAYERS]
             + [name for name, _, _ in _SPAN_METRICS] + _DERIVED + _RUN_METRICS)

# metrics that are timings; every other per-layer metric is a count or a
# shape and must repeat exactly between traced passes on the same inputs
TIMINGS = frozenset(name for name in PER_LAYER if name.endswith("_s"))


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id, attributes]
        self.stack = []
        self.job = 0
        self.paused = 0.0
        self._restore = []
        self._pages_seen = {}

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _wrap(self, name, fn, attributes, prepare):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            record = [name, perf() - tracer.paused, 0.0, stack[-1] if stack else -1,
                      tracer.job, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf() - tracer.paused
                stack.pop()
            if attributes is not None:
                start = perf()
                record[5] = attributes(tracer, args, kwargs, result)
                tracer.paused += perf() - start
            return result

        return functools.update_wrapper(traced, fn)

    def page_seen(self, complex_, r) -> bool:
        """Whether page r of this complex was computed before; records it."""
        key = id(complex_)
        seen = self._pages_seen.get(key)
        if seen is None:
            # forget the id when the complex dies, so a new one reusing it starts clean
            seen = self._pages_seen[key] = set()
            weakref.finalize(complex_, self._pages_seen.pop, key, None)
        repeat = r in seen
        seen.add(r)
        return repeat

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "superseq" or n.startswith("superseq.")]
        for module_name, owner, attr, span, attributes, prepare in SPANS:
            module = importlib.import_module(f"superseq.{module_name}")
            if owner is not None:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__, attributes, prepare))
                else:
                    new = self._wrap(span, raw, attributes, prepare)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original, attributes, prepare)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span; returns its result."""
        self.job = job_id
        record = ["job", self.clock(), 0.0, -1, job_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args)
        finally:
            record[2] = self.clock()
            self.stack.pop()

    def take_spans(self):
        """The spans recorded since the last call; the wrappers keep the same list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


class LayerStats:
    """Per-layer metrics of one pass, accumulated one job's spans at a time."""

    def __init__(self):
        self.per_span = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.derived = dict.fromkeys(_DERIVED, 0)
        self.d0_cells = self.elim_cells = self.elim_nnz = 0
        self.spans = 0

    def add(self, spans):
        derived = self.derived
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        normalize = {}
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            total = end - start
            stats = self.per_span.setdefault(name, [0.0, 0.0, 0])
            stats[0] += total
            stats[1] += total - child[i]
            stats[2] += 1
            layer = name.split(".", 1)[0]
            if layer in self.layer_self:
                self.layer_self[layer] += total - child[i]
                self.layer_calls[layer] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "deformation.normalize_cocycle":
                normalize.setdefault(i, {"stages": 0, "solved": 0, "unsolved": 0})
            if attrs is None:
                continue
            if name == "cli.main":
                derived["cli.exit_nonzero"] += attrs["code"] != 0
            elif name == "scenario.load_scenario":
                derived["scenario.bytes"] += attrs["bytes"]
            elif name == "supercech.build":
                derived["supercech.c0_dim_max"] = max(derived["supercech.c0_dim_max"], attrs["c0"])
                derived["supercech.c1_dim_max"] = max(derived["supercech.c1_dim_max"], attrs["c1"])
                derived["supercech.d0_nnz"] += attrs["nnz"]
                derived["supercech.truncated_terms"] += attrs["truncated"]
                self.d0_cells += attrs["cells"]
            elif name == "spectral.page":
                r = attrs["r"]
                if r in _PAGE_INDICES:
                    derived[f"spectral.page.r{r}_s"] += total
                if parent_name == "spectral.infinity_page" and r == attrs["p_max"] + 1:
                    derived["spectral.limit_recheck_s"] += total
                derived["spectral.page_repeats"] += attrs["repeat"]
                derived["spectral.dr_nonzero"] += attrs["dr_nonzero"]
            elif name in ("linalg.rref", "linalg.from_vectors", "linalg.solve_linear"):
                self.elim_cells += attrs["cells"]
                self.elim_nnz += attrs["nnz"]
            elif name == "deformation.chart_derivation_basis":
                derived["deformation.chart_basis_size"] += attrs["size"]
            elif name == "deformation.verify_degeneracy":
                derived["deformation.symbol_checks"] += attrs["checks"]
            elif name == "deformation.normalize_cocycle":
                derived["deformation.stages_obstructed"] += attrs["obstructed"]
                normalize[i]["obstructed"] = attrs["obstructed"]
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            stage = normalize.get(parent)
            if stage is None:
                continue
            if name == "deformation.degree_symbol":
                stage["stages"] += 1
            elif name == "linalg.solve_linear" and attrs is not None:
                derived["deformation.obstruction_solve_s"] += end - start
                derived["deformation.obstruction_rows_max"] = max(
                    derived["deformation.obstruction_rows_max"], attrs["rows"])
                derived["deformation.obstruction_cols_max"] = max(
                    derived["deformation.obstruction_cols_max"], attrs["cols"])
                stage["solved" if attrs["solved"] else "unsolved"] += 1
        for stage in normalize.values():
            derived["deformation.stages"] += stage["stages"]
            derived["deformation.stages_absorbed"] += stage["solved"]
            # an obstructed stage solves once more at a wider window before deciding
            derived["deformation.window_rechecks"] += max(
                0, stage["unsolved"] - stage.get("obstructed", 0))
        self.spans += len(spans)

    def metrics(self):
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        for metric, span, kind in _SPAN_METRICS:
            total, own, calls = self.per_span.get(span, (0.0, 0.0, 0))
            out[metric] = {"total": total, "self": own, "calls": calls}[kind]
        out.update(self.derived)
        out["supercech.d0_density"] = (self.derived["supercech.d0_nnz"] / self.d0_cells
                                       if self.d0_cells else 0)
        out["linalg.elim_cells"] = self.elim_cells
        out["linalg.elim_nnz"] = self.elim_nnz
        out["linalg.elim_density"] = self.elim_nnz / self.elim_cells if self.elim_cells else 0
        out["trace.spans"] = self.spans
        return out


def unpredicted_layers(workload, layer_calls):
    """Layers predicted idle on the workload that nevertheless ran."""
    return sorted(layer for layer in PREDICTED_IDLE[workload] if layer_calls[layer])
