"""The benchmark's four workloads: CLI commands with the checks for their output.

build() turns a workload name and a seed into a fixed list of commands. Every
reference answer is computed here, before any timing starts, so verifying an
output during a timed round is parsing plus comparison.

Sizes are chosen so one round of each workload takes a few seconds on one
core; "tiny" is the same mix at toy sizes for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle
from oracle import Table

NAMES = ("css-exact", "class-scan", "line-heights", "point-heights")

SIZES = {
    "full": {
        "css-exact": {"scans": [(19, 2), (17, 3)], "cayley_p": 23, "cayley_graphs": 1},
        "class-scan": {"scans": [(43, 3), (23, 4)]},
        "line-heights": {"pmax": 997},
        "point-heights": {
            "points": {2: (2**30, 2**31 - 1, 60), 3: (10**6, 2 * 10**6, 100), 4: (10**5, 2 * 10**5, 100)},
            "spectra": [(199, 3), (31, 4)],
        },
    },
    "tiny": {
        "css-exact": {"scans": [(7, 2), (7, 3)], "cayley_p": 11, "cayley_graphs": 1},
        "class-scan": {"scans": [(11, 3), (7, 4)]},
        "line-heights": {"pmax": 31},
        "point-heights": {
            "points": {2: (10**4, 10**5, 3), 3: (10**3, 10**4, 3), 4: (100, 1000, 3)},
            "spectra": [(13, 3), (7, 4)],
        },
    },
}


class CheckError(Exception):
    """An output differs from its reference answer."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    fmt: str
    items: int
    check: Callable[[Table], None]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    params: dict
    commands: tuple[Command, ...] = field(repr=False)

    @property
    def items(self) -> int:
        return sum(c.items for c in self.commands)


def build(name: str, seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"{name}:{seed}")
    params = SIZES[size][name]
    make_commands = {
        "css-exact": _css_exact,
        "class-scan": _class_scan,
        "line-heights": _line_heights,
        "point-heights": _point_heights,
    }[name]
    commands, chosen = make_commands(rng, **params)
    return Workload(name, seed, {"size": size, **params, **chosen}, tuple(commands))


def verify(command: Command, code: int, out: str) -> str | None:
    """None when the command succeeded with correct output, else what was wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        command.check(oracle.parse(command.fmt, out))
    except (CheckError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _compare_rows(table: Table, keys: tuple[str, ...], expected: list[tuple[str, ...]]) -> None:
    """The key columns of every row equal the reference, row for row."""
    got = list(zip(*(table.column(k) for k in keys)))
    if got == expected:
        return
    _expect(len(got) == len(expected), f"{len(got)} rows, expected {len(expected)}")
    g, e = next((g, e) for g, e in zip(got, expected) if g != e)
    raise CheckError(f"row {dict(zip(keys, g))} != {dict(zip(keys, e))}")


def _flag(value: bool) -> str:
    return "true" if value else "false"


# -- connection-set audits: css-exact and class-scan -------------------------

_AUDIT_KEYS = (
    "p", "A", "d", "triangle_free", "gamma", "beta_upper", "witness_k",
    "beta_exact", "shortest_cycle", "css_margin",
)


def _audit_row(p: int, A: tuple[int, ...], beta: int | None) -> tuple[str, ...]:
    """Reference key columns for one graph; beta is the frozen exact value or None."""
    upper, witness = oracle.beta_upper(A, p)
    g = oracle.gamma(A, p)
    girth = oracle.girth(A, p)
    bounds = [upper] if beta is None else [upper, beta]
    return tuple(
        str(v)
        for v in (
            p, ":".join(map(str, A)), len(A), _flag(girth > 3), g, upper, witness,
            "" if beta is None else beta, girth, oracle.css_margin(g, bounds),
        )
    )


def _frozen_beta(frozen: dict, p: int, A) -> int:
    return frozen[(len(A), p, ":".join(map(str, oracle.set_class(A, p))))]


def _check_beta_invariants(table: Table) -> None:
    """1 <= beta <= beta_upper, and 2*beta <= gamma on triangle-free graphs."""
    cols = zip(*(table.column(k) for k in ("beta_exact", "beta_upper", "gamma", "triangle_free")))
    for beta, upper, g, tf in cols:
        _expect(1 <= int(beta) <= int(upper), f"beta_exact {beta} outside [1, {upper}]")
        _expect(tf != "true" or 2 * int(beta) <= int(g), f"beta_exact {beta} > gamma/2 = {g}/2")


def _scan_command(pmax: int, d: int, exact: bool, frozen: dict | None) -> Command:
    keys = _AUDIT_KEYS + ("critical_window", "violations")
    expected = [
        _audit_row(p, A, _frozen_beta(frozen, p, A) if exact else None)
        + (_flag(4 * d > p and 3 * d < p), "")
        for p in oracle.odd_primes(pmax)
        for A in oracle.class_representatives(p, d)
    ]

    def check(table: Table) -> None:
        _compare_rows(table, keys, expected)
        if exact:
            _check_beta_invariants(table)

    argv = ["scan", "--pmax", str(pmax), "-d", str(d), "--format", "csv"]
    if exact:
        argv.insert(5, "--exact")
    return Command(tuple(argv), "csv", len(expected), check)


def _css_exact(rng, scans, cayley_p, cayley_graphs):
    """Exact beta by the subset DP: whole scans up to small p, then single graphs at cayley_p."""
    frozen = oracle.load_frozen_beta()
    commands = [_scan_command(pmax, d, True, frozen) for pmax, d in scans]
    graphs = []
    for _ in range(cayley_graphs):
        A = rng.sample(range(1, cayley_p), 2)
        graphs.append(A)
        expected = [_audit_row(cayley_p, tuple(sorted(A)), _frozen_beta(frozen, cayley_p, A))]

        def check(table: Table, expected=expected) -> None:
            _compare_rows(table, _AUDIT_KEYS, expected)
            _check_beta_invariants(table)
            _expect(table.summary.get("violations") == "0", "CSS violations reported")

        argv = ("cayley", "-p", str(cayley_p), "-A", ",".join(map(str, A)),
                "--exact", "--css", "--girth", "--format", "json")
        commands.append(Command(argv, "json", 1, check))
    return commands, {"cayley_sets": graphs}


def _class_scan(rng, scans):
    """Enumeration-bound scans without the DP; the seed sets their order."""
    commands = [_scan_command(pmax, d, False, None) for pmax, d in scans]
    rng.shuffle(commands)
    return commands, {"order": [" ".join(c.argv[1:5]) for c in commands]}


# -- line heights: table and gaps ---------------------------------------------

_GAP_WINDOWS = [(r, c) for r in (1, 2, 3) for c in ("0", "1/4", "1/2", "1", "3/2")]


def _line_heights(rng, pmax):
    """Bulk line-height tables in every format, and two seeded gap windows."""
    primes = oracle.odd_primes(pmax)
    tables = {p: oracle.line_table(p) for p in primes}
    expected = [
        (str(p), str(a), str(h), str(k))
        for p in primes
        if p >= 5
        for a, h, k in zip(range(2, p - 1), *(col[1 : p - 2].tolist() for col in tables[p]))
    ]
    summary = {"rows": str(len(expected)), "primes": str(sum(1 for p in primes if p >= 5))}

    def table_check(table: Table) -> None:
        _compare_rows(table, ("p", "a", "height", "argmin_k"), expected)
        for key, want in summary.items():
            _expect(table.summary.get(key, want) == want, f"summary {key} wrong")

    commands = []
    for fmt in ("text", "csv", "json"):
        argv = ("table", "--pmin", "3", "--pmax", str(pmax), "--format", fmt)
        commands.append(Command(argv, fmt, len(expected), table_check))

    achieved = {p: set(tables[p][0].tolist()) | {1} for p in primes}
    windows = rng.sample(_GAP_WINDOWS, 2)
    for (r, c), fmt in zip(windows, ("csv", "json")):
        expected_gaps = []
        for p in primes:
            lo, hi = Fraction(p, r + 1) + Fraction(c), Fraction(p, r) - Fraction(c)
            inside = sorted(v for v in achieved[p] if lo < v < hi)
            expected_gaps.append(
                (str(p), str(r), str(Fraction(c)), str(lo), str(hi), _flag(not inside),
                 ";".join(map(str, inside)))
            )

        def gaps_check(table: Table, expected_gaps=expected_gaps) -> None:
            keys = ("p", "r", "c", "window_lo", "window_hi", "empty", "inside")
            _compare_rows(table, keys, expected_gaps)

        argv = ("gaps", "--pmax", str(pmax), "--r", str(r), "--c", c, "--format", fmt)
        commands.append(Command(argv, fmt, sum(p + 1 for p in primes), gaps_check))
    return commands, {"gap_windows": [f"r={r},c={c}" for r, c in windows]}


# -- point heights: single points and small spectra ---------------------------


def _point_heights(rng, points, spectra):
    """Seeded single points at large p for each d, plus two whole spectra, shuffled."""
    commands = []
    for d, (lo, hi, count) in points.items():
        for _ in range(count):
            p = oracle.random_prime(rng, lo, hi)
            raw = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
            coords = oracle.canonical_point(raw, p)
            h, k = oracle.point_height(coords, p)
            expected = [(":".join(map(str, coords)), str(h), str(k))]

            def check(table: Table, expected=expected) -> None:
                _compare_rows(table, ("point", "height", "argmin_k"), expected)

            argv = ("height", "-p", str(p), "-a", ",".join(map(str, raw)), "--format", "csv")
            commands.append(Command(argv, "csv", 1, check))
    for p, d in spectra:
        counts = oracle.spectrum_counts(p, d)
        expected = [(str(v), str(counts[v])) for v in sorted(counts)]
        max_height = str(max(counts))

        def check(table: Table, expected=expected, max_height=max_height) -> None:
            _compare_rows(table, ("value", "count"), expected)
            _expect(table.summary.get("max_height") == max_height, "max_height wrong")

        argv = ("spectrum", "-p", str(p), "-d", str(d), "--format", "json")
        commands.append(Command(argv, "json", oracle.spectrum_points(p, d), check))
    rng.shuffle(commands)
    return commands, {}
