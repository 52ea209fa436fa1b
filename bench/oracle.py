"""Reference answers for the benchmark's output checks.

Everything here is written from the definitions with numpy and the standard
library; nothing imports projheight, so a wrong answer from the program cannot
also be the expected one. The one exception is exact beta, which has no cheap
independent method: its values are frozen in frozen_beta.json and backed by
the invariants checked in workloads.py.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

FROZEN_BETA = Path(__file__).with_name("frozen_beta.json")

_K_CHUNK = 1 << 16


class Table:
    """One command's output: column names, cells as the CSV shows them, and summary."""

    def __init__(self, columns: list[str], rows, summary: dict[str, str], records=None):
        self.columns = columns
        self.rows = rows  # lists of cells, or None when records holds JSON row objects
        self.records = records
        self.summary = summary

    def column(self, name: str) -> list[str]:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}")
        if self.records is not None:
            return [cell(r.get(name)) for r in self.records]
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def cell(value: object) -> str:
    """A JSON value as the CSV and text renderings show it."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def parse(fmt: str, text: str) -> Table:
    """Parse CLI output in text, csv or json form into a Table."""
    if fmt == "csv":
        if '"' in text:
            rows = list(csv.reader(io.StringIO(text)))
        else:  # nothing quoted: plain splitting reads the same cells, faster
            rows = [line.split(",") for line in text.rstrip("\n").split("\n")]
        return Table(rows[0], rows[1:], {})
    if fmt == "json":
        payload = json.loads(text)
        summary = {k: cell(v) for k, v in payload["summary"].items()}
        return Table(list(payload["columns"]), None, summary, records=payload["rows"])
    if fmt == "text":
        return _parse_text(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_text(text: str) -> Table:
    # '# ...' parameter lines, a blank line, an aligned table, a blank line,
    # then 'key: value' summary lines; either block may be absent.
    columns: list[str] = []
    rows: list[list[str]] = []
    summary: dict[str, str] = {}
    for block in text.rstrip("\n").split("\n\n"):
        if block.startswith("#"):
            continue
        lines = block.split("\n")
        if all(": " in line for line in lines):
            for line in lines:
                key, _, value = line.partition(": ")
                summary[key] = value
            continue
        header = lines[0]
        columns = header.split()
        starts = [header.index(name) for name in columns]
        bounds = list(zip(starts, starts[1:] + [None]))
        rows = [line.split() for line in lines[1:]]
        for i, row in enumerate(rows):
            if len(row) != len(columns):  # an empty cell: cut at the header's offsets
                rows[i] = [lines[i + 1][lo:hi].strip() for lo, hi in bounds]
    return Table(columns, rows, summary)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    """A prime drawn uniformly from the primes in [lo, hi]."""
    while True:
        n = rng.randint(lo, hi)
        if is_prime(n):
            return n


def odd_primes(n: int) -> list[int]:
    return [q for q in range(3, n + 1, 2) if is_prime(q)]


def canonical_point(raw: list[int], p: int) -> tuple[int, ...]:
    """Scale raw so its first nonzero coordinate is 1."""
    coords = [x % p for x in raw]
    lead = next(c for c in coords if c)
    inv = pow(lead, -1, p)
    return tuple(inv * c % p for c in coords)


def point_height(coords: tuple[int, ...], p: int) -> tuple[int, int]:
    """(height, smallest argmin k) of a canonical point, by brute force over k.

    With a leading 1 the k-th sum is at least k, so once k reaches the best
    sum found no later k can beat it; k is scanned in numpy chunks up to there.
    """
    others = np.array([c for c in coords[coords.index(1) + 1 :] if c], dtype=np.int64)
    best, best_k = None, None
    lo = 1
    while lo < p and (best is None or lo <= best):
        k = np.arange(lo, min(lo + _K_CHUNK, p), dtype=np.int64)
        sums = k.copy()
        for c in others:
            sums += k * c % p
        i = int(sums.argmin())
        if best is None or int(sums[i]) < best:
            best, best_k = int(sums[i]), int(k[i])
        lo += _K_CHUNK
    return best, best_k


def line_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights and smallest argmins of <1, a> for a = 1..p-1, by full brute force."""
    k = np.arange(1, p, dtype=np.int64)[:, None]
    a = np.arange(1, p, dtype=np.int64)[None, :]
    sums = k + k * a % p
    return sums.min(axis=0), sums.argmin(axis=0) + 1


def spectrum_counts(p: int, d: int) -> Counter:
    """Multiplicity of every height over all canonical points of P^(d-1)(F_p)."""
    counts: Counter = Counter()
    k = np.arange(1, p, dtype=np.int64)[:, None]
    for lead in range(d):
        nfree = d - 1 - lead
        free = np.array(list(itertools.product(range(p), repeat=nfree)), dtype=np.int64)
        free = free.reshape(p**nfree, nfree)
        for lo in range(0, free.shape[0], 4096):
            block = free[lo : lo + 4096]
            sums = np.broadcast_to(k, (p - 1, block.shape[0])).copy()
            for j in range(nfree):
                sums += k * block[None, :, j] % p
            counts.update(sums.min(axis=0).tolist())
    return counts


def set_class(A, p: int) -> tuple[int, ...]:
    """The least of sorted(c*A mod p) over c in F_p*."""
    return min(tuple(sorted(c * a % p for a in A)) for c in range(1, p))


def class_representatives(p: int, d: int) -> list[tuple[int, ...]]:
    """Lexicographically sorted d-subsets of F_p* that are the least of their scalar orbit."""
    if d > p - 1:
        return []
    combos = np.array(list(itertools.combinations(range(1, p), d)), dtype=np.int64)
    weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    own = combos @ weights
    least = own.copy()
    for c in range(2, p):
        np.minimum(least, np.sort(combos * c % p, axis=1) @ weights, out=least)
    return [tuple(int(x) for x in row) for row in combos[own == least]]


def beta_upper(A: tuple[int, ...], p: int) -> tuple[int, int]:
    """min over k of sum (k^-1 * a mod p), with the smallest k attaining it."""
    inv = np.array([pow(k, -1, p) for k in range(1, p)], dtype=np.int64)
    sums = (inv[:, None] * np.array(A, dtype=np.int64)[None, :] % p).sum(axis=1)
    i = int(sums.argmin())
    return int(sums[i]), i + 1


def gamma(A: tuple[int, ...], p: int) -> int:
    """Nonadjacent unordered pairs: each vertex is adjacent to the |A u -A| others."""
    reach = set(A) | {p - a for a in A}
    return p * (p - 1 - len(reach)) // 2


def girth(A: tuple[int, ...], p: int) -> int:
    """Shortest directed cycle: the least L such that some L-term sum from A is 0 mod p.

    Tracks the set of residues reachable by walks of exactly L steps as a bit
    mask, so it shares no code or method with the program's BFS.
    """
    full = (1 << p) - 1
    level = 1
    for length in range(1, p + 1):
        level = _shift_union(level, A, p, full)
        if level & 1:
            return length
    raise AssertionError("every Cayley digraph on Z/pZ has a cycle")


def _shift_union(mask: int, A: tuple[int, ...], p: int, full: int) -> int:
    out = 0
    for a in A:
        out |= ((mask << a) | (mask >> (p - a))) & full
    return out


def load_frozen_beta() -> dict[tuple[int, int, str], int]:
    """Exact beta keyed by (d, p, 'a1:a2:...') for class representatives."""
    raw = json.loads(FROZEN_BETA.read_text())
    return {
        (int(d), int(p), A): beta
        for d, by_p in raw.items()
        for p, by_set in by_p.items()
        for A, beta in by_set.items()
    }


def css_margin(gamma_value: int, bounds: list[int]) -> str:
    return str(Fraction(gamma_value, 2) - min(bounds))


def spectrum_points(p: int, d: int) -> int:
    return (p**d - 1) // (p - 1)
