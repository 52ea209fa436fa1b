"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 budget or cap exceeded, 4 assertion
violation. Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import replace
from fractions import Fraction
from math import isqrt

from .cayley import (
    DEFAULT_EXACT_CAP,
    BetaReport,
    CapExceededError,
    CayleyGraph,
    check_girth_budget,
    css_check,
    scan_css,
    shortest_cycle,
)
from .heights import (
    DEFAULT_POINT_BUDGET,
    BudgetExceededError,
    check_budget,
    gap_scan,
    height,
    height_upper_bound,
    line_bound_certificates,
    line_fast_path,
    line_height_fast,
    line_height_table,
    spectrum,
)
from .modular import MAX_MODULUS, canonicalize, d_star, is_prime
from .report import FORMATS, OutputRecord, cell, render

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_VIOLATION = 4

PAPER_RANGE_PRIMES = (11, 13, 17, 19, 23, 29)

AUDIT_COLUMNS = (
    "p",
    "A",
    "d",
    "triangle_free",
    "gamma",
    "beta_upper",
    "witness_k",
    "beta_exact",
    "shortest_cycle",
    "css_margin",
)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    return values


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise, without creating it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _exact_cap() -> int:
    raw = os.environ.get("PROJHEIGHT_EXACT_CAP")
    if raw is None:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"PROJHEIGHT_EXACT_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("PROJHEIGHT_EXACT_CAP must be positive")
    return cap


def _join(values, sep: str = ":") -> str:
    return sep.join(str(v) for v in values)


def _audit_columns(reports: list[BetaReport]) -> tuple[list, ...]:
    """The AUDIT_COLUMNS values of reports, one list per column."""
    graphs = [r.graph for r in reports]
    return (
        [G.p for G in graphs],
        [_join(G.A) for G in graphs],
        [G.d for G in graphs],
        # triangle_free to shortest_cycle are report fields of the same names
        *([getattr(r, name) for r in reports] for name in AUDIT_COLUMNS[3:9]),
        [str(r.css_margin) for r in reports],
    )


def cmd_height(args: argparse.Namespace) -> OutputRecord:
    point = canonicalize(_parse_int_list(args.a), args.p)
    if point.d == 2 and point.coords[0] == 1 and point.coords[1] != 0:
        record = line_height_fast(point.coords[1], point.modulus)
        certs = dict(line_bound_certificates(point.coords[1], point.modulus))
    else:
        record = height(point, budget=args.budget)
        certs = {}
    row = {
        "p": point.p,
        "point": _join(point.coords),
        "d_star": d_star(point),
        "height": record.height,
        "argmin_k": record.argmin_k,
        "method": record.method,
        "rule": record.rule,
        "bound_average": height_upper_bound(point),
        "bound_direct": certs.get("direct"),
        "bound_complement": certs.get("complement"),
    }
    return OutputRecord(
        command="height",
        parameters={"p": args.p, "a": args.a},
        columns=tuple(row),
        values=tuple((v,) for v in row.values()),
        summary={"height": record.height, "argmin_k": record.argmin_k},
    )


def _line_methods(p: int) -> list[str]:
    """The table's method of <1, a> for a = 2..p-2, p >= 5: "formula" where line_fast_path fires.

    On [2, p-2] it fires only where a*a < p, i.e. a <= isqrt(p-1) for prime p,
    or at a = (p-1)/2, (p+1)/2 or p-2, so only those O(sqrt p) a are tested.
    """
    methods = ["brute"] * (p - 3)  # indexed by a - 2
    for a in {*range(2, isqrt(p - 1) + 1), (p - 1) // 2, (p + 1) // 2, p - 2}:
        if line_fast_path(a, p) is not None:
            methods[a - 2] = "formula"
    return methods


def cmd_table(args: argparse.Namespace) -> OutputRecord:
    if args.paper_range:
        if args.pmin is not None or args.pmax is not None:
            raise ValueError("--paper-range takes no --pmin or --pmax")
        walk = PAPER_RANGE_PRIMES
        parameters = {"paper_range": True}
    else:
        if args.pmin is None or args.pmax is None:
            raise ValueError("either --paper-range or both --pmin and --pmax are required")
        if args.pmin > args.pmax:
            raise ValueError("--pmin must not exceed --pmax")
        # a ranges over [2, p-2], empty below 5; no prime past MAX_MODULUS is a modulus
        walk = filter(is_prime, range(max(args.pmin, 5), min(args.pmax, MAX_MODULUS) + 1))
        parameters = {"pmin": args.pmin, "pmax": args.pmax}
    primes = []
    for p in walk:  # ascending, so the first prime past the budget is named, before any table
        check_budget((p - 1) ** 2, DEFAULT_POINT_BUDGET)
        primes.append(p)
    values = ([], [], [], [], [])
    for p in primes:
        # the arrays are indexed by a - 1
        heights_row, argmins = (col[1 : p - 2].tolist() for col in line_height_table(p))
        parts = ([p] * (p - 3), range(2, p - 1), heights_row, argmins, _line_methods(p))
        for column, part in zip(values, parts):
            column += part
    return OutputRecord(
        command="table",
        parameters=parameters,
        columns=("p", "a", "height", "argmin_k", "method"),
        values=values,
        summary={"rows": len(values[0]), "primes": len(primes)},
    )


def cmd_spectrum(args: argparse.Namespace) -> OutputRecord:
    sp = spectrum(args.p, args.d, budget=args.budget)
    counts = [sp.count_per_value[v] for v in sp.values]
    summary: dict[str, object] = {
        "max_height": sp.max_height,
        "distinct_values": len(sp.values),
        "gaps": ";".join(f"({lo},{hi})" for lo, hi in sp.gaps),
    }
    if args.check_bounds:
        bounds = sp.bounds_check()
        summary["bound_lower"] = bounds.lower
        summary["bound_upper"] = bounds.upper
        summary["bound_ok"] = bounds.ok
    return OutputRecord(
        command="spectrum",
        parameters={"p": args.p, "d": args.d, "check_bounds": args.check_bounds},
        columns=("p", "d", "value", "count"),
        values=([sp.p] * len(counts), [sp.d] * len(counts), list(sp.values), counts),
        summary=summary,
    )


def cmd_gaps(args: argparse.Namespace) -> OutputRecord:
    # an omitted --pmin is the least odd prime, and is never refused
    if args.pmin is not None and args.pmin > args.pmax:
        raise ValueError("--pmin must not exceed --pmax")
    pmin = 3 if args.pmin is None else args.pmin
    walk = filter(is_prime, range(min(args.pmax, MAX_MODULUS), max(pmin, 3) - 1, -1))
    # the largest prime first, so gap_scan refuses before any table is built
    reports = [gap_scan(p, args.r, args.c) for p in walk][::-1]
    return OutputRecord(
        command="gaps",
        parameters={"pmin": pmin, "pmax": args.pmax, "r": args.r, "c": str(args.c)},
        columns=("p", "r", "c", "window_lo", "window_hi", "empty", "inside"),
        values=(
            [g.p for g in reports],
            [g.r for g in reports],
            *([str(getattr(g, name)) for g in reports] for name in ("c", "lower", "upper")),
            [g.empty for g in reports],
            [_join(g.inside, ";") for g in reports],
        ),
        summary={"primes": len(reports), "windows_all_empty": all(g.empty for g in reports)},
    )


def cmd_cayley(args: argparse.Namespace) -> OutputRecord:
    graph = CayleyGraph(args.p, _parse_int_list(args.A))
    if args.girth:
        check_girth_budget(graph.p, graph.d)
    report = css_check(graph, exact=args.exact, cap=_exact_cap())
    witness = report.triangle_witness
    if args.girth:
        report = replace(report, shortest_cycle=shortest_cycle(graph))
    # the triangle witness goes after triangle_free, the fourth audit column
    audit = _audit_columns([report])
    values = audit[:4] + ([_join(witness, ";") if witness else ""],) + audit[4:]
    summary: dict[str, object] = {
        "triangle_free": report.triangle_free,
        "beta_upper": report.beta_upper,
    }
    if args.exact:
        summary["beta_exact"] = report.beta_exact
    if args.css:
        summary["violations"] = len(report.violations)
    return OutputRecord(
        command="cayley",
        parameters={
            "p": args.p,
            "A": args.A,
            "exact": args.exact,
            "css": args.css,
            "girth": args.girth,
        },
        columns=AUDIT_COLUMNS[:4] + ("witness",) + AUDIT_COLUMNS[4:],
        values=values,
        summary=summary,
    )


def cmd_scan(args: argparse.Namespace) -> OutputRecord:
    reports = scan_css(args.pmax, args.d, exact=args.exact, cap=_exact_cap(), budget=args.budget)
    return OutputRecord(
        command="scan",
        parameters={"pmax": args.pmax, "d": args.d, "exact": args.exact},
        columns=AUDIT_COLUMNS + ("critical_window", "violations"),
        values=_audit_columns(reports)
        + (
            # the critical window is p/4 < d < p/3
            [3 * args.d < r.graph.p < 4 * args.d for r in reports],
            [";".join(r.violations) for r in reports],
        ),
        summary={
            "instances": len(reports),
            "triangle_free": sum(r.triangle_free for r in reports),
            "violations": sum(len(r.violations) for r in reports),
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projheight",
        description="Heights on finite projective space and feedback arc sets of Cayley digraphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="text", help="output format")

    def add_budget(p: argparse.ArgumentParser, text: str) -> None:
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_POINT_BUDGET, help=text)

    p_height = sub.add_parser("height", help="height of one projective point")
    p_height.add_argument("-p", type=int, required=True, help="prime modulus")
    p_height.add_argument("-a", required=True, help="comma-separated coordinates")
    add_budget(
        p_height, "cells (residues k*a_i mod p) to compute; past it, exit 3 after at most this many"
    )
    add_format(p_height)
    p_height.set_defaults(func=cmd_height)

    p_table = sub.add_parser("table", help="heights of <1,a> for a in [2, p-2] per prime")
    p_table.add_argument("--pmin", type=int, help="smallest prime")
    p_table.add_argument("--pmax", type=int, help="largest prime")
    p_table.add_argument(
        "--paper-range",
        action="store_true",
        help="use the preset primes 11, 13, 17, 19, 23, 29",
    )
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_spectrum = sub.add_parser("spectrum", help="all heights achieved on P^(d-1)(F_p)")
    p_spectrum.add_argument("-p", type=int, required=True, help="prime modulus")
    p_spectrum.add_argument("-d", "--d", type=int, required=True, help="number of coordinates")
    p_spectrum.add_argument(
        "--check-bounds", action="store_true", help="compare the maximum to its closed-form window"
    )
    add_budget(p_spectrum, "point enumeration budget")
    add_format(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_gaps = sub.add_parser("gaps", help="rational window scan over line heights")
    p_gaps.add_argument("--pmin", type=int, help="smallest prime (default 3)")
    p_gaps.add_argument("--pmax", type=int, required=True, help="largest prime")
    p_gaps.add_argument("--r", type=int, default=1, help="window index r")
    p_gaps.add_argument(
        "--c", type=_parse_fraction, default=Fraction(0), help="window shrink constant (rational)"
    )
    add_format(p_gaps)
    p_gaps.set_defaults(func=cmd_gaps)

    p_cayley = sub.add_parser("cayley", help="feedback arc bounds for one Cayley digraph")
    p_cayley.add_argument("-p", type=int, required=True, help="prime modulus")
    p_cayley.add_argument("-A", required=True, help="comma-separated connection set")
    p_cayley.add_argument("--exact", action="store_true", help="compute exact beta (capped)")
    p_cayley.add_argument("--css", action="store_true", help="evaluate the CSS assertions")
    p_cayley.add_argument("--girth", action="store_true", help="report the shortest cycle length")
    add_format(p_cayley)
    p_cayley.set_defaults(func=cmd_cayley)

    p_scan = sub.add_parser("scan", help="audit all connection sets up to scalar equivalence")
    p_scan.add_argument("--pmax", type=int, required=True, help="largest prime")
    p_scan.add_argument("-d", "--d", type=int, required=True, help="connection set size")
    p_scan.add_argument("--exact", action="store_true", help="compute exact beta per instance")
    add_budget(p_scan, "running sum of C(p-1, d) over primes p; exit 3 at the first prime past it")
    p_scan.add_argument("--out", help="write the full report to this path")
    add_format(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


# Built on the first call to main, not at import, and shared by every later
# call in the process; build_parser() still returns a fresh parser.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        if out_path:
            _check_writable(out_path)
        record = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    rendered = render(record, args.format)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        for key in sorted(record.summary):
            print(f"{key}: {cell(record.summary[key])}")
        print(f"report written to {out_path}")
    else:
        sys.stdout.write(rendered)
    violations = record.summary.get("violations", 0)
    return EXIT_VIOLATION if violations else EXIT_OK
