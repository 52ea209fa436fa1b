"""Heights of points in finite projective space.

The height of a point <a_1, ..., a_d> over F_p is the minimum over
k = 1..p-1 of the sum of least nonnegative residues of k*a_i. This module
computes exact heights, applies the closed-form special cases known for the
projective line, enumerates height spectra, scans rational gap windows, and
searches sum-free connection sets.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .modular import (
    PrimeModulus,
    ProjectivePoint,
    canonical_connection_sets,
    canonicalize,
    connection_set_residues,
    d_star,
)

DEFAULT_POINT_BUDGET = 5_000_000


class BudgetExceededError(Exception):
    """An enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


def _odd_modulus(p: int | PrimeModulus) -> PrimeModulus:
    pm = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
    if pm.p == 2:
        raise ValueError("heights require an odd prime modulus")
    return pm


@dataclass(frozen=True)
class HeightRecord:
    """An exact height together with the smallest multiplier attaining it.

    method is "formula" when a closed-form special case produced the value and
    "brute" when the full multiplier scan did; rule names the fired case.
    """

    point: ProjectivePoint
    height: int
    argmin_k: int
    method: str
    rule: str | None = None

    @property
    def p(self) -> int:
        return self.point.p


def height(a: ProjectivePoint) -> HeightRecord:
    """Exact height of a point, by scanning multipliers k = 1..p-1.

    Ties take the smallest k. A canonical point has leading coordinate 1, so
    the k-th sum is at least k + d*(a) - 1; the scan stops as soon as k alone
    rules out any improvement.
    """
    pm = _odd_modulus(a.modulus)
    p = pm.p
    nonzero = [c for c in a.coords if c]
    ds = len(nonzero)
    best = p * ds
    best_k = 1
    for k in range(1, p):
        if k + ds - 1 >= best:
            break
        s = 0
        for c in nonzero:
            s += (k * c) % p
        if s < best:
            best, best_k = s, k
    return HeightRecord(a, best, best_k, "brute")


def height_upper_bound(a: ProjectivePoint) -> int:
    """floor(d*(a) * p / 2), an upper bound for the height of any point."""
    return d_star(a) * a.p // 2


def _line_fast_path(a: int, p: int) -> tuple[int, int, str] | None:
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

    Falls back to the brute-force scan otherwise; the result always equals
    height(<1, a>).
    """
    pm = _odd_modulus(p)
    a = a % pm.p
    if a == 0:
        raise ValueError("a must be nonzero")
    point = ProjectivePoint((1, a), pm)
    hit = _line_fast_path(a, pm.p)
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

    Returns read-only arrays indexed by a-1. The kernel evaluates all
    (p-1)^2 residue sums at once, so it refuses p beyond the point budget.
    """
    pm = _odd_modulus(p)
    p = pm.p
    if (p - 1) ** 2 > DEFAULT_POINT_BUDGET:
        raise BudgetExceededError((p - 1) ** 2, DEFAULT_POINT_BUDGET)
    k = np.arange(1, p, dtype=np.int64)
    a = np.arange(1, p, dtype=np.int64)
    sums = k[:, None] + (k[:, None] * a[None, :]) % p
    heights = sums.min(axis=0)
    # argmin returns the first of equal minima, which is the smallest k
    argmins = sums.argmin(axis=0) + 1
    heights.flags.writeable = False
    argmins.flags.writeable = False
    return heights, argmins


def _bulk_heights(coords: np.ndarray, p: int) -> np.ndarray:
    """Heights of many points at once; coords has one point per row."""
    n = coords.shape[0]
    k = np.arange(1, p, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, 2_000_000 // (p - 1))
    for lo in range(0, n, chunk):
        block = coords[lo : lo + chunk]
        acc = np.zeros((p - 1, block.shape[0]), dtype=np.int64)
        for j in range(block.shape[1]):
            acc += (k[:, None] * block[:, j][None, :]) % p
        out[lo : lo + chunk] = acc.min(axis=0)
    return out


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


def spectrum(p: int | PrimeModulus, d: int, budget: int = DEFAULT_POINT_BUDGET) -> HeightSpectrum:
    """Enumerate every canonical point of P^(d-1)(F_p) and aggregate heights."""
    pm = _odd_modulus(p)
    p = pm.p
    if d < 2:
        raise ValueError("spectra are defined for d >= 2")
    n_points = (p**d - 1) // (p - 1)
    if n_points > budget:
        raise BudgetExceededError(n_points, budget)
    counts: Counter[int] = Counter()
    if d == 2 and (p - 1) ** 2 <= DEFAULT_POINT_BUDGET:
        line, _ = line_height_table(p)
        for v, c in zip(*np.unique(line, return_counts=True)):
            counts[int(v)] += int(c)
        counts[1] += 2  # the axis points <1,0> and <0,1>
    else:
        counts[1] += 1  # the point with a single trailing 1
        for lead in range(d - 1):
            nfree = d - 1 - lead
            n_block = p**nfree
            cols = np.empty((n_block, nfree + 1), dtype=np.int64)
            cols[:, 0] = 1
            idx = np.arange(n_block, dtype=np.int64)
            for j in range(nfree, 0, -1):
                cols[:, j] = idx % p
                idx //= p
            hts = _bulk_heights(cols, p)
            for v, c in zip(*np.unique(hts, return_counts=True)):
                counts[int(v)] += int(c)
    values = tuple(sorted(counts))
    gaps = tuple(
        (lo, hi) for lo, hi in zip(values, values[1:]) if hi > lo + 1
    )
    return HeightSpectrum(
        p=p,
        d=d,
        values=values,
        max_height=values[-1],
        count_per_value=dict(sorted(counts.items())),
        gaps=gaps,
    )


def spectrum_bounds_check(
    p: int | PrimeModulus, d: int, budget: int = DEFAULT_POINT_BUDGET
) -> SpectrumBoundsReport:
    """Exhaustively check the closed-form window for the maximum height."""
    return spectrum(p, d, budget).bounds_check()


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
    p/(r+1) + c < h < p/r - c as rationals.
    """
    pm = _odd_modulus(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    sp = spectrum(pm, 2, budget)
    lower = Fraction(pm.p, r + 1) + c
    upper = Fraction(pm.p, r) - c
    inside = tuple(v for v in sp.values if lower < v < upper)
    return GapScanReport(
        p=pm.p, r=r, c=c, lower=lower, upper=upper, empty=not inside, inside=inside
    )


@dataclass(frozen=True)
class SumFreeCertificate:
    """Result of checking that no small multiset of A sums to 0 mod p.

    ok is true iff no multiset of size 1..k (repetition allowed) from A sums
    to 0; otherwise witness is the first such multiset in size-then-lex order.
    """

    elements: tuple[int, ...]
    k: int
    p: int
    ok: bool
    witness: tuple[int, ...] | None


def is_k_sum_free(A: Iterable[int], k: int, p: int | PrimeModulus) -> SumFreeCertificate:
    """Check all multisets of size 1..k from A for a zero sum modulo p."""
    pm = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
    if k < 1:
        raise ValueError("k must be at least 1")
    elems = connection_set_residues(A, pm)
    for size in range(1, k + 1):
        for combo in itertools.combinations_with_replacement(elems, size):
            if sum(combo) % pm.p == 0:
                return SumFreeCertificate(elems, k, pm.p, False, combo)
    return SumFreeCertificate(elems, k, pm.p, True, None)


@dataclass(frozen=True)
class KFreeSearchReport:
    """Largest height among k-sum-free connection sets of size d.

    max_height and argmax are None when no set qualifies.
    """

    p: int
    d: int
    k: int
    max_height: int | None
    argmax: tuple[int, ...] | None
    qualifying: int
    classes: int


def max_height_k_free(
    p: int | PrimeModulus, d: int, k: int, budget: int = DEFAULT_POINT_BUDGET
) -> KFreeSearchReport:
    """Search all d-subsets of F_p* (up to scalars) that are k-sum-free.

    Returns the maximum height of <a_1, ..., a_d> over qualifying sets, with
    the first set attaining it.
    """
    pm = _odd_modulus(p)
    if d < 1:
        raise ValueError("d must be at least 1")
    total = math.comb(pm.p - 1, d)
    if total > budget:
        raise BudgetExceededError(total, budget)
    best: int | None = None
    arg: tuple[int, ...] | None = None
    qualifying = 0
    classes = 0
    for A in canonical_connection_sets(pm, d):
        classes += 1
        if not is_k_sum_free(A, k, pm).ok:
            continue
        qualifying += 1
        h = height(canonicalize(A, pm)).height
        if best is None or h > best:
            best, arg = h, A
    return KFreeSearchReport(
        p=pm.p,
        d=d,
        k=k,
        max_height=best,
        argmax=arg,
        qualifying=qualifying,
        classes=classes,
    )
