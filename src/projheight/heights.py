"""Heights of points in finite projective space.

The height of a point <a_1, ..., a_d> over F_p is the minimum over
k = 1..p-1 of the sum of least nonnegative residues of k*a_i. This module
computes exact heights, applies the closed-form special cases known for the
projective line, enumerates height spectra, and scans rational gap windows.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .modular import PrimeModulus, ProjectivePoint, as_modulus, d_star, scalar_least_rows

DEFAULT_POINT_BUDGET = 5_000_000

# 2 MiB per int64 block. On a 2-vCPU VM 2**20 (8 MiB) made the peak RSS of the
# point-heights benchmark jump between about 57 and 65 MB with allocation
# history and took spectrum(199, 3) from 0.138 to 0.148 s; 2**21 took two
# spectra from 54 to 78 MB. Line points go through the sail, not blocks. A
# lattice triangle of more points than this goes to the blocked scan.
_BLOCK_CELLS = 1 << 18
# The first block of a row group is 4096 multipliers wide (fewer if the cells
# or the bound allow fewer). heights_of scans only rows whose guessed ceiling
# is at most this width, so such a row expects its height in the first block;
# a row guessed wider takes the lattice path. The scan serves those rows
# (spectrum orbits, small p) and the rows whose lattice triangle is too large
# (zero-sum rows, which read every multiplier).
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
# A row with n nonzero tails expects one k with k + (its n residues) < B at
# B = ((n + 1)! * p^n)^(1/(n + 1)), the volume argument for n + 1 uniform
# residues. At d = 3 and p near 1.5*10^6 that is 23,800 against a mean height
# of 23,200, so the lattice path's first ceiling is 1.3 times it, which
# expects 1.3^(n + 1) solutions.
_GUESS_FACTOR = 1.3


class BudgetExceededError(Exception):
    """An enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


def check_budget(required: int, budget: int | None) -> None:
    """Refuse work of required evaluations past budget (None is no limit); the one refusal."""
    if budget is not None and required > budget:
        raise BudgetExceededError(required, budget)


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


def heights_of(
    tails: np.ndarray, p: int, ties: bool = False, budget: int | None = None
) -> tuple[np.ndarray, ...]:
    """Heights and smallest argmin multipliers of the points <1, t>, one row t of int64 tails each.

    A row with at most one nonzero is a line point <1, a>, and the Klein sail
    gives it in O(log p) (_sail_heights). A row with more nonzeros whose
    guessed ceiling (_guesses) is wider than the scan's first block goes
    through its 2-D lattice, one row at a time (_lattice_height); every other
    row goes through the blocked scan (_blocked_heights). All keep the least k
    on ties. With ties=True a third array lists every (row, k) whose sum is the
    row's height, from the pass that settles the row; a point may have about p
    of them, so only on request. A line row <1, b> with b != p - 1 has one such
    k, the sail's argmin: if k1 < k2 both attained the least k + (k*b mod p),
    then k2 - k1 = y1 - y2 = -(k2 - k1)*b mod p, so b = p - 1, where every k ties.

    budget caps each row's cells, the residues k*t_i mod p it computes: a lattice round
    or a scan block is charged before it is allocated (the sail costs none), and once
    a row's charge would pass budget, BudgetExceededError(charge, budget) is raised instead.
    """
    heights = np.empty(len(tails), dtype=np.int64)
    argmins = np.empty(len(tails), dtype=np.int64)
    found = [np.empty((0, 2), dtype=np.int64)]
    nonzeros = np.count_nonzero(tails, axis=1)
    line = nonzeros <= 1
    if line.any():
        rows, b = np.flatnonzero(line), tails[line].sum(axis=1)
        heights[rows], argmins[rows] = _sail_heights(b, p)
        if ties:
            found.append(np.column_stack([rows, argmins[rows]])[b != p - 1])
            for row in rows[b == p - 1].tolist():
                found.append(np.column_stack([np.full(p - 1, row), np.arange(1, p)]))
    if line.all() and not ties:
        return heights, argmins
    guesses = _guesses(tails, nonzeros, p)
    lattice = ~line & (guesses > _FIRST_WIDTH)
    for row in np.flatnonzero(lattice).tolist():
        heights[row], ks = _lattice_height(tails[row], p, int(guesses[row]), ties, budget)
        argmins[row] = ks[0]
        if ties:
            found.append(np.column_stack([np.full_like(ks, row), ks]))
    scan = np.flatnonzero(~(line | lattice))
    if scan.size:
        heights[scan], argmins[scan], *listed = _blocked_heights(tails[scan], p, None, ties, budget)
        if ties:
            found.append(np.column_stack([scan[listed[0][:, 0]], listed[0][:, 1]]))
    return (heights, argmins, np.concatenate(found)) if ties else (heights, argmins)


def _guesses(tails: np.ndarray, nonzeros: np.ndarray, p: int) -> np.ndarray:
    """G = min(U + 1, ceil(1.3 * ((n + 1)! * p^n)^(1/(n + 1)))) per row of n nonzeros.

    U = 1 + sum(t) is the sum at k = 1, so h < U + 1; the other term is where
    about 1.3^(n + 1) multipliers are expected below it (_GUESS_FACTOR).
    """
    expect = [
        math.ceil(_GUESS_FACTOR * math.exp((math.lgamma(n + 2) + n * math.log(p)) / (n + 1)))
        for n in range(tails.shape[1] + 1)
    ]
    return np.minimum(tails.sum(axis=1) + 2, np.array(expect, dtype=np.int64)[nonzeros])


def _lattice_height(
    tail: np.ndarray, p: int, guess: int, ties: bool, budget: int | None
) -> tuple[int, np.ndarray]:
    """Height and ascending ties of a point <1, t> with n >= 2 nonzero tails, from a 2-D lattice.

    Each of the n nonzero residues of k*t is at least 1, so a k whose sum is
    below B has k + (k*a mod p) <= B - n for the first nonzero tail a: the
    point (k, k*a mod p) of the lattice {(x, y) : y = a*x mod p} lies in the
    triangle x >= 1, y >= 0, x + y <= B - n, with x, y <= p - 1.
    _triangle_multipliers lists those k in increasing order from the first
    ceiling B = guess. Once the least sum known (at first U, the sum at k = 1)
    is below B, the triangle holds every k that attains it: it is the height,
    and the listed k with that sum are its ties, the first the least argmin.
    Otherwise the next ceiling is min(2B, known + 1): an empty or thin
    triangle (a skewed lattice) doubles B, and the round at known + 1 settles.
    A triangle of more than _BLOCK_CELLS points sends the row to the blocked
    scan below known + 1, which lists the ties only with ties=True, else the argmin.
    A round costs n cells per k it lists, and the scan goes on from their total.
    """
    tail = tail[tail != 0]
    n = len(tail)
    basis = _reduced_basis(int(tail[0]), p)
    bound, known, spent = guess, 1 + int(tail.sum()), 0
    def charge(points: int) -> None:  # a round's point count, before it is listed
        check_budget(spent + n * points, budget)
    while (ks := _triangle_multipliers(*basis, p, bound - n, charge)) is not None:
        spent += n * len(ks)
        sums = _residue_sums(tail[None, :], ks, p)[0]
        known = int(sums.min(initial=known))
        if known < bound:
            return known, ks[sums == known]
        bound = min(2 * bound, known + 1)
    got = _blocked_heights(tail[None, :], p, known + 1, ties, budget, spent)
    return int(got[0][0]), got[2][:, 1] if ties else got[1]


def _reduced_basis(a: int, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A Lagrange-reduced basis (u, v) of the lattice {(x, y) : y = a*x mod p}, with det(u, v) = p.

    From (1, a), (0, p), v loses the multiple of u nearest to its projection,
    and the two swap while v comes out shorter (Gauss-Lagrange; Cohen, A
    Course in Computational Algebraic Number Theory). Then |u| <= |v| and
    |u| <= (4p^2/3)^(1/4).
    """
    (ux, uy), (vx, vy) = (1, a), (0, p)
    while True:
        uu = ux * ux + uy * uy
        m = (2 * (ux * vx + uy * vy) + uu) // (2 * uu)
        vx, vy = vx - m * ux, vy - m * uy
        if vx * vx + vy * vy >= uu:
            break
        (ux, uy), (vx, vy) = (vx, vy), (ux, uy)
    if ux * vy - uy * vx < 0:
        vx, vy = -vx, -vy
    return (ux, uy), (vx, vy)


def _triangle_multipliers(
    u: tuple[int, int], v: tuple[int, int], p: int, top: int, charge: Callable | None = None
) -> np.ndarray | None:
    """The sorted x of the points i*u + j*v with x >= 1, y >= 0, x + y <= top and x, y <= p - 1.

    (u, v) is a basis with det(u, v) = p, so j = det(u, P) / p is linear in
    P, and the j of the triangle lie between those of its corners. On the
    line j, each half-plane alpha*x + beta*y <= gamma bounds i by an exact
    floor or ceiling division, or holds or fails for the whole line when u is
    parallel to its edge. Returns None, before expanding, when there are more
    lines or points than _BLOCK_CELLS; else charge, if given, gets the point count first.
    """
    (ux, uy), (vx, vy) = u, v
    dets = [ux * y - uy * x for x, y in ((1, 0), (top, 0), (1, top - 1))]
    js = np.arange(-(-min(dets) // p), max(dets) // p + 1, dtype=np.int64)
    if len(js) > _BLOCK_CELLS:
        return None
    edges = [(-1, 0, -1), (0, -1, 0), (1, 1, top)]
    if top >= p:  # else x + y <= top already keeps x and y below p
        edges += [(1, 0, p - 1), (0, 1, p - 1)]
    lows, highs, holds = [], [], True
    for alpha, beta, gamma in edges:
        c = alpha * ux + beta * uy
        r = gamma - js * (alpha * vx + beta * vy)
        if c > 0:
            highs.append(r // c)
        elif c < 0:
            lows.append(-(r // -c))
        else:
            holds = holds & (r >= 0)
    # the triangle is bounded, so its edges give every line a low and a high
    lo = np.maximum.reduce(lows)
    counts = np.maximum(np.minimum.reduce(highs) - lo + 1, 0) * holds
    total = int(counts.sum())
    if total > _BLOCK_CELLS:
        return None
    if charge is not None:
        charge(total)
    starts = np.cumsum(counts) - counts
    i = np.repeat(lo - starts, counts) + np.arange(total)
    x = i * ux + np.repeat(js, counts) * vx
    x.sort()
    return x


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


def _blocked_heights(
    tails: np.ndarray, p: int, ceiling=None, ties: bool = False, budget: int | None = None, spent=0
):
    """heights_of by scanning multipliers in blocks, for rows of any number of nonzeros.

    Each row's best sum so far is its ceiling. The k-th sum of <1, t> is at
    least k + (nonzeros of t), so a row is read only while k + nonzeros is
    below its best; with ties=True, while it is at most its best, since a tie
    whose residues are all 1 sits at k = h - nonzeros. Only a strictly smaller
    sum replaces the best, so argmins keep the least k; with ties=True each
    block keeps its cells equal to the best so far. A row's best first reaches
    its height at its argmin and stays there, so the kept cells below the
    argmin, of a best later beaten, are dropped. A given ceiling must exceed
    every row's height; by default U + 1, one above the sum at k = 1.

    A block covers at most _BLOCK_CELLS cells. Its width starts at _FIRST_WIDTH
    and doubles, but the block never passes p - 1 or the last k that some live
    row still needs. More rows than _BLOCK_CELLS // _MIN_WIDTH are split into
    equal groups, each scanned from k = 1 on its own, so no block is narrower
    than _MIN_WIDTH. Each live row of a group has read k - 1 multipliers, so a
    block is charged spent + (k - 1 + width)*columns before its sums.
    """
    if ceiling is None:
        ceiling = tails.sum(axis=1) + 2
    n = len(tails)
    heights = np.full(n, ceiling, dtype=np.int64)
    argmins = np.ones(n, dtype=np.int64)
    found = [np.empty((0, 2), dtype=np.int64)]
    floor = np.count_nonzero(tails, axis=1) - ties
    groups = -(-n // max(1, _BLOCK_CELLS // _MIN_WIDTH))
    for g in range(groups):
        live = np.arange(g * n // groups, (g + 1) * n // groups)
        k, width = 1, _FIRST_WIDTH
        while k < p and len(live):
            need = int((heights[live] - floor[live]).max()) - k
            width = max(1, min(width, _BLOCK_CELLS // len(live), p - k, need))
            check_budget(spent + tails.shape[1] * (k - 1 + width), budget)
            sums = _residue_sums(tails[live], np.arange(k, k + width, dtype=np.int64), p)
            arg = sums.argmin(axis=1)
            low = sums[np.arange(len(live)), arg]
            better = low < heights[live]
            heights[live[better]], argmins[live[better]] = low[better], k + arg[better]
            if ties:
                rows, ks = np.nonzero(sums == heights[live, None])
                found.append(np.column_stack([live[rows], k + ks]))
            k, width = k + width, 2 * width
            live = live[k + floor[live] < heights[live]]
    if not ties:
        return heights, argmins
    found = np.concatenate(found)
    return heights, argmins, found[found[:, 1] >= argmins[found[:, 0]]]


def height(a: ProjectivePoint, budget: int | None = None) -> HeightRecord:
    """Exact height and least argmin k of a point, under heights_of's budget; zeros add nothing."""
    tails = np.array([[c for c in a.coords if c][1:]], dtype=np.int64)
    heights, argmins = heights_of(tails, _odd_modulus(a.modulus).p, budget=budget)
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


@lru_cache(maxsize=256)  # each table is 16*p bytes; 256 hold every odd prime up to 997
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
    if (d - 1) * (p.bit_length() - 1) >= 63:  # p^(d-1) >= 2^63: overflow at any budget
        raise ValueError("spectrum counts would overflow int64")
    n_points = (p**d - 1) // (p - 1)
    check_budget(n_points, budget)
    if n_points * d >= 2**63:
        raise ValueError("spectrum counts would overflow int64")
    tally = np.zeros(d * p, dtype=np.int64)  # every height is below d*p
    tally[1] = d  # T_1
    tally[: p + 1] += math.comb(d, 2) * np.bincount(line_height_table(p)[0], minlength=p + 1)
    for j in range(3, d + 1):
        tails, sizes = _orbits(p, j)
        np.add.at(tally, heights_of(tails, p)[0], math.comb(d, j) * sizes)
    attained = np.flatnonzero(tally)
    values = tuple(attained.tolist())
    gaps = tuple(
        (lo, hi) for lo, hi in zip(values, values[1:]) if hi > lo + 1
    )
    return HeightSpectrum(
        p=p,
        d=d,
        values=values,
        max_height=values[-1],
        count_per_value=dict(zip(values, tally[attained].tolist())),
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
    p/(r+1) + c < h < p/r - c as rationals. The achieved heights are
    spectrum(p, 2).values, under its budget on the p + 1 points of P^1.
    """
    pm = _odd_modulus(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    values = spectrum(pm, 2, budget).values
    lower = Fraction(pm.p, r + 1) + c
    upper = Fraction(pm.p, r) - c
    # for an integer v, lower < v < upper iff floor(lower) < v < ceil(upper)
    start, stop = bisect_right(values, math.floor(lower)), bisect_left(values, math.ceil(upper))
    inside = values[start:stop]
    return GapScanReport(
        p=pm.p, r=r, c=c, lower=lower, upper=upper, empty=not inside, inside=inside
    )
