"""Heights of points in finite projective space.

The height of a point <a_1, ..., a_d> over F_p is the minimum over
k = 1..p-1 of the sum of least nonnegative residues of k*a_i. This module
computes exact heights, applies the closed-form special cases known for the
projective line, enumerates height spectra, and scans rational gap windows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .modular import PrimeModulus, ProjectivePoint, as_modulus, d_star, scalar_least_rows

DEFAULT_POINT_BUDGET = 5_000_000

# 2 MiB per int64 block. On a 2-vCPU VM 2**20 (8 MiB) made the peak RSS of the
# point-heights benchmark jump between about 57 and 65 MB with allocation
# history and took spectrum(199, 3) from 0.138 to 0.148 s; 2**21 took two
# spectra from 54 to 78 MB. Line points go through the sail, not blocks.
_BLOCK_CELLS = 1 << 18
# The first block of a row group is 4096 multipliers wide (fewer if the cells
# or the bound allow fewer). Over 200 seeded d = 3 points (p in [10^6, 2*10^6],
# mean height 23,000) the bound-capped scan took 4.8 blocks per point from 1024,
# 3.1 from 4096 and 1.7 from 16384, reading 22,500, 22,800 and 23,800
# multipliers; at d = 4 (p in [10^5, 2*10^5]) 16384 read 14 % more than 4096.
_FIRST_WIDTH = 4096
# No block is narrower than 64 multipliers: a batch of more rows than
# _BLOCK_CELLS // 64 = 4096 is scanned in equal row groups of at most that many.
# On a 2-vCPU VM this took heights_of over the 809,236 orbit rows of
# spectrum(2203, 3) from 16.1 to 4.9 s (16 to 128 gave 4.8 to 4.9 s), and over
# the 39,225 of spectrum(97, 4) from 82-98 to 72-77 ms. The 6,634 rows of
# spectrum(199, 3) make two groups, which read 10 % more cells in the same
# 10-13 ms; 128 made four groups there, which read 1.05 million cells, not
# 0.64 million, in 22 ms.
_MIN_WIDTH = 64


class BudgetExceededError(Exception):
    """An enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


def check_scan_budget(rows: Iterable[tuple[Sequence[int], Sequence[int]]], p: int, budget: int) -> None:
    """Refuse a blocked scan whose costliest row counts more than budget cells.

    A row (t, x) is a point <1, t> and the same point x as given, reduced mod p,
    in any scale; zeros allowed. With n nonzero tails, U is the least sum of either
    form at k = +-1, so h <= U; the scan needs only k <= h - n, so the row counts
    n * min(U - n, p - 1) cells. A line point (n <= 1) walks the sail: 0 cells.
    All rows have m tails, so when m * (p - 1) cells fit, only the first row is read.
    """
    worst = 0
    for t, x in rows:
        if len(t) * (p - 1) <= budget:
            return
        if (n := len(t) - t.count(0)) > 1:
            sums = (1 + sum(t), sum(x))
            worst = max(worst, n * min(min(sums) - n, p * (n + 1) - max(sums) - n, p - 1))
    if worst > budget:
        raise BudgetExceededError(worst, budget)


def _odd_modulus(p: int | PrimeModulus) -> PrimeModulus:
    pm = as_modulus(p)
    if pm.p == 2:
        raise ValueError("heights require an odd prime modulus")
    return pm


@dataclass(frozen=True)
class HeightRecord:
    """An exact height together with the smallest multiplier attaining it.

    method is "formula" when a closed-form special case produced the value and
    "brute" when heights_of did; rule names the fired case.
    """

    point: ProjectivePoint
    height: int
    argmin_k: int
    method: str
    rule: str | None = None

    @property
    def p(self) -> int:
        return self.point.p


def _residue_sums(tails: np.ndarray, ks: np.ndarray, p: int) -> np.ndarray:
    """sums[i, j]: the multiplier-ks[j] sum of <1, tails[i]>; entries below p keep int64 exact."""
    sums = np.repeat(ks[None, :], len(tails), axis=0)
    term = np.empty_like(sums)
    for col in tails.T:
        np.multiply(col[:, None], ks, out=term)
        sums += np.remainder(term, p, out=term)
    return sums


def heights_of(tails: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights and smallest argmin multipliers of the points <1, t>, one row t of int64 tails each.

    A row with at most one nonzero is a line point <1, a>, and the Klein sail
    gives it in O(log p) (_sail_heights); every other row goes through the
    blocked scan (_blocked_heights). Both keep the least k on ties.
    """
    heights = np.empty(len(tails), dtype=np.int64)
    argmins = np.empty(len(tails), dtype=np.int64)
    line = np.count_nonzero(tails, axis=1) <= 1
    if line.any():
        heights[line], argmins[line] = _sail_heights(tails[line].sum(axis=1), p)
    if not line.all():
        heights[~line], argmins[~line] = _blocked_heights(tails[~line], p)
    return heights, argmins


def _sail_heights(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights and smallest argmins of the line points <1, a>, walking the Klein sail.

    The least minimizer k of k + (k*a mod p) is a record low of k*a mod p, and
    the record lows are the lattice points U + jW, j = 1..t, of successive
    phases: from U = (0, p) and the step W = (1, -(p - a)), take
    t = (y_U - 1) // |y_W| steps, so that y stays positive, then U += tW and
    W += sU with s = |y_W| // y_U, until W is horizontal. x + y is linear in j,
    so only j = 1 and j = t are tested, in increasing k, and only a strictly
    smaller sum replaces the best. There are O(log p) phases. A finished row
    takes t = 0 and stays fixed; a = 0 finishes in one phase, at (1, 0).
    """
    xu, yu = np.zeros_like(a), np.full_like(a, p)
    xw, yw = np.ones_like(a), p - a  # W = (xw, -yw)
    best, best_k = np.full_like(a, 2 * p), np.ones_like(a)
    while (live := yw > 0).any():
        t = np.floor_divide(yu - 1, yw, out=np.zeros_like(a), where=live)
        for j in (1, t):
            x = xu + j * xw
            total = x + yu - j * yw
            better = total < best
            best[better], best_k[better] = total[better], x[better]
        xu += t * xw
        yu -= t * yw
        s = yw // yu
        xw += s * xu
        yw -= s * yu
    return best, best_k


def _blocks(tails: np.ndarray, p: int, ceiling: np.ndarray):
    """Yield (rows, k, sums): the residue sums of tails[rows] at k, k + 1, ..., one block at a time.

    The k-th sum of <1, t> is at least k + (nonzeros of t), so a row is read
    only while k + nonzeros < ceiling[row]; the caller may lower ceiling
    between blocks. A block covers at most _BLOCK_CELLS cells. Its width
    starts at _FIRST_WIDTH and doubles, but the block never passes p - 1 or
    the last k that some live row still needs, ceiling - nonzeros - 1. That
    bound cap took the multipliers read per d = 3 point (200 seeded points, p
    in [10^6, 2*10^6], mean height 23,000) from 31,700 to 22,500 at the same
    first width, and per d = 4 point (p in [10^5, 2*10^5]) from 24,300 to
    16,100. More rows than _BLOCK_CELLS // _MIN_WIDTH are split into equal
    groups, each scanned from k = 1 on its own, so that no block is narrower
    than _MIN_WIDTH.
    """
    n = len(tails)
    floor = np.count_nonzero(tails, axis=1)
    groups = -(-n // max(1, _BLOCK_CELLS // _MIN_WIDTH))
    for g in range(groups):
        live = np.arange(g * n // groups, (g + 1) * n // groups)
        k, width = 1, _FIRST_WIDTH
        while k < p and len(live):
            need = int((ceiling[live] - floor[live]).max()) - k
            width = max(1, min(width, _BLOCK_CELLS // len(live), p - k, need))
            yield live, k, _residue_sums(tails[live], np.arange(k, k + width, dtype=np.int64), p)
            k, width = k + width, 2 * width
            live = live[k + floor[live] < ceiling[live]]


def _blocked_heights(tails: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """heights_of by scanning multipliers, for rows of any number of nonzeros.

    The scan walks _blocks with each row's best sum so far as its ceiling, so
    a row stops once k + (nonzeros of t) reaches its best. Only a strictly
    smaller sum replaces the best, so ties keep the least k.
    """
    heights = np.full(len(tails), p * (tails.shape[1] + 1), dtype=np.int64)
    argmins = np.ones(len(tails), dtype=np.int64)
    for live, k, sums in _blocks(tails, p, heights):
        arg = sums.argmin(axis=1)
        low = sums[np.arange(len(live)), arg]
        better = low < heights[live]
        heights[live[better]], argmins[live[better]] = low[better], k + arg[better]
    return heights, argmins


def minimizers_of(tails: np.ndarray, p: int, heights: np.ndarray) -> np.ndarray:
    """Every (row, k) whose sum is that row's height h, from heights_of(tails, p)[0].

    Only k <= h - (nonzeros of t) can attain h, so the scan walks _blocks with
    the fixed ceiling h + 1.
    """
    found = []
    for live, k, sums in _blocks(tails, p, heights + 1):
        rows, ks = np.nonzero(sums == heights[live, None])
        found.append(np.column_stack([live[rows], k + ks]))
    return np.concatenate(found)


def height(a: ProjectivePoint) -> HeightRecord:
    """Exact height of a point, with the smallest k attaining it; zero coordinates add nothing."""
    tail = [c for c in a.coords if c][1:]
    heights, argmins = heights_of(np.array([tail], dtype=np.int64), _odd_modulus(a.modulus).p)
    return HeightRecord(a, int(heights[0]), int(argmins[0]), "brute")


def height_upper_bound(a: ProjectivePoint) -> int:
    """floor(d*(a) * p / 2), an upper bound for the height of any point."""
    return d_star(a) * a.p // 2


def line_fast_path(a: int, p: int) -> tuple[int, int, str] | None:
    """Closed-form (height, argmin_k, rule) for <1, a> where one is exact.

    The cases overlap for small p but always agree where they do; the order
    below returns the smallest argmin in every overlap.
    """
    if a == 1:
        return 2, 1, "a=1"
    if a == p - 1:
        return p, 1, "a=p-1"
    if a == 2:
        return 3, 1, "a=2"
    if a == (p + 1) // 2:
        return 3, 2, "a=(p+1)/2"
    if a == (p - 1) // 2:
        return (p + 1) // 2, 1, "a=(p-1)/2"
    if a == p - 2:
        return (p + 1) // 2, (p - 1) // 2, "a=p-2"
    if a * a < p:
        return 1 + a, 1, "a^2<p"
    return None


def line_height_fast(a: int, p: int | PrimeModulus) -> HeightRecord:
    """Height of the line point <1, a>, via an exact special case when one applies.

    Falls back to height(), the Klein sail, otherwise; the result always equals
    height(<1, a>).
    """
    pm = _odd_modulus(p)
    a = a % pm.p
    if a == 0:
        raise ValueError("a must be nonzero")
    point = ProjectivePoint((1, a), pm)
    hit = line_fast_path(a, pm.p)
    if hit is None:
        return height(point)
    h, k, rule = hit
    return HeightRecord(point, h, k, "formula", rule)


def line_bound_certificates(a: int, p: int | PrimeModulus) -> list[tuple[str, int]]:
    """Upper bounds for the height of <1, a>, labeled by how they arise.

    "direct" is 1 + a. "complement" writes a = p - b and bounds by
    floor((p + (b-1)^2) / b); an integer height respects the rational bound
    iff it respects the floor.
    """
    pm = _odd_modulus(p)
    a = a % pm.p
    if a == 0:
        raise ValueError("a must be nonzero")
    b = pm.p - a
    return [
        ("direct", 1 + a),
        ("complement", (pm.p + (b - 1) ** 2) // b),
    ]


@lru_cache(maxsize=None)
def line_height_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights and smallest argmin multipliers of <1, a> for a = 1..p-1.

    Returns read-only arrays indexed by a-1, from one heights_of call, which
    walks the Klein sail of every row: O(p log p) time and O(p) memory, so no
    p is refused.
    """
    p = _odd_modulus(p).p
    heights, argmins = heights_of(np.arange(1, p, dtype=np.int64)[:, None], p)
    heights.flags.writeable = False
    argmins.flags.writeable = False
    return heights, argmins


@dataclass(frozen=True)
class HeightSpectrum:
    """All heights achieved on P^(d-1)(F_p), with multiplicities and gaps.

    gaps lists the maximal open intervals (x, y) between consecutive achieved
    values that contain at least one missing integer.
    """

    p: int
    d: int
    values: tuple[int, ...]
    max_height: int
    count_per_value: dict[int, int]
    gaps: tuple[tuple[int, int], ...]

    def bounds_check(self) -> "SpectrumBoundsReport":
        """Compare max_height against the parity-dependent closed-form window."""
        if self.d % 2 == 0:
            lower = upper = self.d * self.p // 2
        else:
            lower = (self.d - 1) * self.p // 2 + 1
            upper = (self.d * self.p - 1) // 2
        return SpectrumBoundsReport(
            p=self.p,
            d=self.d,
            max_height=self.max_height,
            lower=lower,
            upper=upper,
            ok=lower <= self.max_height <= upper,
        )


@dataclass(frozen=True)
class SpectrumBoundsReport:
    p: int
    d: int
    max_height: int
    lower: int
    upper: int
    ok: bool


def _arrangements(rows: np.ndarray) -> np.ndarray:
    """m!/prod(mult!) for each sorted row of length m: its distinct orderings.

    Adding the i-th entry (0-based) to a run of length r multiplies the count by
    (i + 1)/r; every prefix count is a multinomial, so each division is exact.
    """
    count = np.ones(len(rows), dtype=np.int64)
    run = np.ones(len(rows), dtype=np.int64)
    for i in range(1, rows.shape[1]):
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1)
        count = count * (i + 1) // run
    return count


def _orbits(p: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """One tail t per S_j orbit of the full-support points <1, t> of P^(j-1)(F_p), and orbit sizes.

    The orbit of <1, t> is every point whose coordinates are an ordering of a
    multiple c*X of X = (1, t). Its representative is the sorted X that is least
    among its multiples (scalar_least_rows). Each of the _arrangements(X)
    orderings of X is a point, met once for each c in the stabiliser of X, so
    the orbit size is _arrangements(X) over the stabiliser's order.
    """
    rests = itertools.combinations_with_replacement(range(1, p), j - 1)
    rows, stabilisers = map(np.concatenate, zip(*scalar_least_rows(p, j - 1, rests)))
    return rows[:, 1:], _arrangements(rows) // stabilisers


def spectrum(p: int | PrimeModulus, d: int, budget: int = DEFAULT_POINT_BUDGET) -> HeightSpectrum:
    """Heights of every point of P^(d-1)(F_p), with their multiplicities.

    A point with j nonzero coordinates has the height of its nonzero part, so
    the tally is the sum over j = 1..d of C(d, j) T_j, where T_j tallies the
    (p-1)^(j-1) full-support points <1, t> of P^(j-1). T_1 is one point of
    height 1, and T_2 comes from the cached line_height_table. For j >= 3 a
    permutation of the coordinates keeps the height, so heights_of evaluates
    one point per S_j orbit (_orbits), weighted by the orbit size. The budget
    counts all (p^d - 1)/(p - 1) points.
    """
    p = _odd_modulus(p).p
    if d < 2:
        raise ValueError("spectra are defined for d >= 2")
    n_points = (p**d - 1) // (p - 1)
    if n_points > budget:
        raise BudgetExceededError(n_points, budget)
    if n_points * d >= 2**63:
        raise ValueError("spectrum counts would overflow int64")
    tally = np.zeros(d * p, dtype=np.int64)  # every height is below d*p
    tally[1] = d  # T_1
    tally[: p + 1] += math.comb(d, 2) * np.bincount(line_height_table(p)[0], minlength=p + 1)
    for j in range(3, d + 1):
        tails, sizes = _orbits(p, j)
        np.add.at(tally, heights_of(tails, p)[0], math.comb(d, j) * sizes)
    values = tuple(np.flatnonzero(tally).tolist())
    gaps = tuple(
        (lo, hi) for lo, hi in zip(values, values[1:]) if hi > lo + 1
    )
    return HeightSpectrum(
        p=p,
        d=d,
        values=values,
        max_height=values[-1],
        count_per_value={v: int(tally[v]) for v in values},
        gaps=gaps,
    )


@dataclass(frozen=True)
class GapScanReport:
    """Whether the open window (p/(r+1) + c, p/r - c) misses every line height."""

    p: int
    r: int
    c: Fraction
    lower: Fraction
    upper: Fraction
    empty: bool
    inside: tuple[int, ...]


def gap_scan(
    p: int | PrimeModulus,
    r: int = 1,
    c: Fraction | int | str = 0,
    budget: int = DEFAULT_POINT_BUDGET,
) -> GapScanReport:
    """Test whether P^1(F_p) achieves any height inside the given rational window.

    The comparison is exact: an achieved height h is inside iff
    p/(r+1) + c < h < p/r - c as rationals. The achieved heights are the
    cached line table's and 1; the p + 1 points count against the budget.
    """
    pm = _odd_modulus(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if pm.p + 1 > budget:
        raise BudgetExceededError(pm.p + 1, budget)
    values = np.union1d(line_height_table(pm.p)[0], [1])
    lower = Fraction(pm.p, r + 1) + c
    upper = Fraction(pm.p, r) - c
    # for an integer v, lower < v < upper iff floor(lower) < v < ceil(upper)
    start = np.searchsorted(values, math.floor(lower), side="right")
    stop = np.searchsorted(values, math.ceil(upper), side="left")
    inside = tuple(values[start:stop].tolist())
    return GapScanReport(
        p=pm.p, r=r, c=c, lower=lower, upper=upper, empty=not inside, inside=inside
    )
