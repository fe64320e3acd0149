"""Command line front door.

Subcommands operate on one scenario file each:

    superseq validate FILE       check invariants (and window stability)
    superseq pages FILE          print the dimension grid of every page
    superseq cohomology FILE     print cohomology and graded dimensions
    superseq order FILE          print the order of the deformation cocycle
    superseq verify FILE         check the degeneracy pattern of the pages

Exit codes: 0 success, 1 parse or usage error, 2 invariant violation,
3 window instability, 4 verification failure.  All printed numbers are
exact integers or rationals.
"""

from __future__ import annotations

import argparse
import math
import sys

from .deformation import cocycle_order, verify_degeneracy
from .scenario import Scenario, ScenarioError, load_scenario
from .spectral import FilteredComplex
from .supercech import cech_realization, stabilization_check

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_WINDOW = 3
EXIT_VERIFY = 4


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, window_override: int | None) -> Scenario:
    scenario = load_scenario(path)
    if window_override is not None:
        if scenario.mode != "super_sheaf":
            raise ScenarioError("--window-override applies only to super_sheaf scenarios")
        try:
            scenario.model = scenario.model.with_window(window_override)
        except ValueError as exc:
            raise ScenarioError(f"--window-override: {exc}") from exc
    return scenario


def _complex_of(scenario: Scenario) -> FilteredComplex:
    if scenario.mode == "raw_complex":
        return scenario.complex
    return cech_realization(scenario.model).complex


def _format_matrix(m) -> str:
    if m.rows == 0 or m.cols == 0:
        return f"(empty {m.rows}x{m.cols})"
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in m.entries) + "]"


# -- pages --------------------------------------------------------------------

def _page_table(complex_: FilteredComplex, r: int):
    page = complex_.page(r)
    p_range = range(0, complex_.p_max + 1)
    q_range = range(-complex_.p_max, complex_.n_max + 1)
    return page, p_range, q_range


def _pages_text(complex_: FilteredComplex, r_max: int) -> str:
    lines = []
    for r in range(r_max + 1):
        page, p_range, q_range = _page_table(complex_, r)
        label = f"page r={r}"
        if r == complex_.p_max:
            label += " (limit)"
        lines.append(label)
        header = "      " + "".join(f"p={p:<5}" for p in p_range)
        lines.append(header)
        for q in reversed(q_range):
            cells = "".join(f"{page.dim(p, q) or '.':<7}" for p in p_range)
            lines.append(f" q={q:<4}" + cells)
        lines.append("")
    return "\n".join(lines)


def _pages_csv(complex_: FilteredComplex, r_max: int) -> str:
    lines = ["r,p,q,dim"]
    for r in range(r_max + 1):
        page, p_range, q_range = _page_table(complex_, r)
        for p in p_range:
            for q in q_range:
                lines.append(f"{r},{p},{q},{page.dim(p, q)}")
    return "\n".join(lines) + "\n"


def _pages_latex(complex_: FilteredComplex, r_max: int) -> str:
    lines = []
    for r in range(r_max + 1):
        page, p_range, q_range = _page_table(complex_, r)
        lines.append(r"\begin{tabular}{r|" + "r" * len(p_range) + "}")
        lines.append(f"$E_{{{r}}}$ & " + " & ".join(f"$p={p}$" for p in p_range) + r" \\ \hline")
        for q in reversed(q_range):
            cells = " & ".join(str(page.dim(p, q)) for p in p_range)
            lines.append(f"$q={q}$ & " + cells + r" \\")
        lines.append(r"\end{tabular}")
        lines.append("")
    return "\n".join(lines)


# -- commands -----------------------------------------------------------------

def cmd_validate(scenario: Scenario) -> tuple[int, str]:
    lines = []
    if scenario.mode == "super_sheaf":
        try:
            complex_ = _complex_of(scenario)
        except ValueError as exc:
            return EXIT_INVALID, f"invalid cocycle: {exc}\n"
    else:
        complex_ = _complex_of(scenario)
    report = complex_.validate()
    if not report.ok:
        return EXIT_INVALID, str(report) + "\n"
    lines.append(f"valid: degrees 0..{complex_.n_max}, "
                 f"dims {' '.join(str(d) for d in complex_.dims)}, "
                 f"filtration length {complex_.p_max}")
    if scenario.mode == "super_sheaf":
        stability = stabilization_check(scenario.model)
        lines.append(str(stability))
        if not stability.stable:
            return EXIT_WINDOW, "\n".join(lines) + "\n"
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_pages(scenario: Scenario, r_max: int | None, fmt: str) -> tuple[int, str]:
    if r_max is not None and r_max < 0:
        raise ScenarioError(f"--r-max must be nonnegative, got {r_max}")
    complex_ = _complex_of(scenario)
    report = complex_.validate()
    if not report.ok:
        return EXIT_INVALID, str(report) + "\n"
    r_top = complex_.p_max if r_max is None else r_max
    renderer = {"text": _pages_text, "csv": _pages_csv, "latex": _pages_latex}[fmt]
    return EXIT_OK, renderer(complex_, r_top)


def cmd_cohomology(scenario: Scenario, fmt: str) -> tuple[int, str]:
    complex_ = _complex_of(scenario)
    report = complex_.validate()
    if not report.ok:
        return EXIT_INVALID, str(report) + "\n"
    comparison = complex_.compare_graded()
    coh = complex_.cohomology()
    if fmt == "csv":
        lines = ["n,dim_H,sum_E_limit"]
        for n in range(complex_.n_max + 1):
            total = sum(comparison.limit_dims.get((p, n - p), 0)
                        for p in range(complex_.p_max + 1))
            lines.append(f"{n},{coh.dim(n)},{total}")
        lines.append("p,n,graded_dim")
        for p in range(complex_.p_max):
            for n in range(complex_.n_max + 1):
                lines.append(f"{p},{n},{coh.graded_dim(p, n)}")
        return EXIT_OK, "\n".join(lines) + "\n"
    lines = []
    for n in range(complex_.n_max + 1):
        total = sum(comparison.limit_dims.get((p, n - p), 0)
                    for p in range(complex_.p_max + 1))
        graded = ", ".join(f"gr_{p}={coh.graded_dim(p, n)}"
                           for p in range(complex_.p_max)
                           if coh.graded_dim(p, n))
        lines.append(f"H^{n}: dim {coh.dim(n)} | sum of limit page {total}"
                     + (f" | {graded}" if graded else ""))
    lines.append("bookkeeping agrees: yes" if comparison.agree else "bookkeeping agrees: NO")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_order(scenario: Scenario) -> tuple[int, str]:
    if scenario.mode != "super_sheaf":
        raise ScenarioError("order requires a super_sheaf scenario")
    try:
        order = cocycle_order(scenario.model)
    except ValueError as exc:
        return EXIT_INVALID, f"invalid cocycle: {exc}\n"
    text = "infinity" if order == math.inf else str(order)
    return EXIT_OK, f"order: {text}\n"


def cmd_verify(scenario: Scenario) -> tuple[int, str]:
    if scenario.mode != "super_sheaf":
        raise ScenarioError("verify requires a super_sheaf scenario")
    try:
        report = verify_degeneracy(scenario.model,
                                   symbol_override=scenario.symbol_override)
    except ValueError as exc:
        return EXIT_INVALID, f"invalid cocycle: {exc}\n"
    lines = []
    order_text = "infinity" if report.order == math.inf else str(report.order)
    lines.append(f"order: {order_text}")
    for r, ok in sorted(report.vanishing.items()):
        lines.append(f"d_{r} = 0: {'PASS' if ok else 'FAIL'}")
    for check in report.symbol_checks:
        status = "PASS" if check.ok else "FAIL"
        lines.append(f"d_{order_text} = symbol action at (p={check.p}, q={check.q}): {status}")
        if not check.ok:
            lines.append(f"  page differential: {_format_matrix(check.page_matrix)}")
            lines.append(f"  symbol action:     {_format_matrix(check.cup_matrix)}")
    if not report.truncation_safe:
        lines.append("window unstable, increase N")
        return EXIT_WINDOW, "\n".join(lines) + "\n"
    lines.append("degeneracy: PASS" if report.passed else "degeneracy: FAIL")
    return (EXIT_OK if report.passed else EXIT_VERIFY), "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superseq",
        description="Spectral sequences of filtered complexes and super Cech cohomology")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="path to a scenario file")
        cmd.add_argument("--out", help="write output to this file instead of stdout")
        cmd.add_argument("--window-override", type=int, default=None,
                         help="replace the window of a super_sheaf scenario")
        return cmd

    add("validate", "check the scenario's invariants")
    pages = add("pages", "dimension grids of the pages")
    pages.add_argument("--r-max", type=int, default=None,
                       help="last page to print (default: the limit page)")
    pages.add_argument("--format", choices=("text", "csv", "latex"), default="text")
    coh = add("cohomology", "cohomology and graded dimension tables")
    coh.add_argument("--format", choices=("text", "csv"), default="text")
    add("order", "order of the deformation cocycle")
    add("verify", "verify the degeneracy pattern of the spectral sequence")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load(args.scenario, args.window_override)
        if args.command == "validate":
            code, text = cmd_validate(scenario)
        elif args.command == "pages":
            code, text = cmd_pages(scenario, args.r_max, args.format)
        elif args.command == "cohomology":
            code, text = cmd_cohomology(scenario, args.format)
        elif args.command == "order":
            code, text = cmd_order(scenario)
        else:
            code, text = cmd_verify(scenario)
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
