"""Exact arithmetic modulo a prime and canonical projective coordinates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Residue products k*a must stay exact in 64-bit arithmetic: for p <= 2**31 - 1
# every product of two residues is below 2**62.
MAX_MODULUS = 2**31 - 1

# scalar_least_rows tests at most this many candidate rows at once, so its
# memory grows with d (128 KiB per int64 column), not with the candidate count
_BLOCK_ROWS = 1 << 14

# Witness sets for a deterministic Miller-Rabin test: the primes to 37 are
# valid for all n < 3.3e24, and (2, 3, 5, 7) for all n < 3,215,031,751
# (Pomerance, Selfridge & Wagstaff 1980; Jaeschke 1993), which covers every
# modulus up to MAX_MODULUS in a third of the time.
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_BASES = (2, 3, 5, 7)
_SMALL_BASES_BELOW = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic primality test (strong probable prime to a fixed base set)."""
    if n < 2:
        raise ValueError("primality is tested for integers n >= 2 only")
    for q in _STRONG_BASES:
        if n % q == 0:
            return n == q
    return _strong_probable_prime(n, _SMALL_BASES if n < _SMALL_BASES_BELOW else _STRONG_BASES)


def _strong_probable_prime(n: int, bases: Sequence[int]) -> bool:
    """Whether the odd n > 2 passes the strong Fermat test to every base."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, each found by is_prime."""
    return list(filter(is_prime, range(2, n + 1)))


@dataclass(frozen=True)
class PrimeModulus:
    """A validated prime modulus p, with 2 <= p <= MAX_MODULUS."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise TypeError("modulus must be an int")
        if self.p > MAX_MODULUS:
            raise ValueError(f"modulus {self.p} exceeds MAX_MODULUS = 2**31 - 1")
        if self.p < 2 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


def as_modulus(p: int | PrimeModulus) -> PrimeModulus:
    """p itself if it is a PrimeModulus, else PrimeModulus(p), which validates it."""
    return p if isinstance(p, PrimeModulus) else PrimeModulus(p)


def mod_inverse(a: int, p: int | PrimeModulus) -> int:
    """The inverse of a modulo p, in [1, p-1]."""
    pv = as_modulus(p).p
    a = a % pv
    if a == 0:
        raise ValueError("0 has no inverse")
    return pow(a, -1, pv)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^(d-1)(F_p) stored as its canonical class representative.

    Canonical form: every coordinate is a least nonnegative residue and the
    first nonzero coordinate equals 1. Use canonicalize() to build one from an
    arbitrary representative.
    """

    coords: tuple[int, ...]
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        pv = self.modulus.p
        if not self.coords:
            raise ValueError("a projective point needs at least one coordinate")
        if any(not (0 <= c < pv) for c in self.coords):
            raise ValueError("coordinates must be residues in [0, p-1]")
        lead = next((c for c in self.coords if c), None)
        if lead is None:
            raise ValueError("a projective point needs a nonzero coordinate")
        if lead != 1:
            raise ValueError("not canonical: first nonzero coordinate must be 1")

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def d(self) -> int:
        return len(self.coords)


def canonicalize(raw: Sequence[int], p: int | PrimeModulus) -> ProjectivePoint:
    """Canonical representative of the projective class of raw.

    Reduces coordinates mod p and scales so the first nonzero coordinate is 1.
    Any two representatives of the same class yield identical results.
    """
    pm = as_modulus(p)
    coords = [x % pm.p for x in raw]
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("the zero vector has no projective class")
    if lead != 1:
        inv = mod_inverse(lead, pm)
        coords = [(inv * c) % pm.p for c in coords]
    return ProjectivePoint(tuple(coords), pm)


def d_star(a: ProjectivePoint) -> int:
    """Number of nonzero coordinates; the same for every class representative."""
    return sum(1 for c in a.coords if c)


def connection_set_residues(A: Iterable[int], p: int | PrimeModulus) -> tuple[int, ...]:
    """The residues of A modulo p, sorted; ValueError unless nonempty, distinct and nonzero."""
    pv = as_modulus(p).p
    elems = tuple(sorted(x % pv for x in A))
    if not elems or elems[0] == 0 or len(set(elems)) != len(elems):
        raise ValueError("connection set must be distinct nonzero residues")
    return elems


# m precedes rests: bench/spans.py reads a traced generator's second argument as an int
def scalar_least_rows(
    p: int, m: int, rests: Iterable[tuple[int, ...]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows X = (1,) + rest least among their scalar multiples, with their stabilisers.

    rests yields nondecreasing m-tuples over 1..p-1, with m >= 1, in
    lexicographic order. A sorted multiple c*X starts with 1 only for
    c = x_i^-1, so X is least iff X <= sorted(X / x_i) for every column i >= 1,
    compared at the first column where the two differ (a base-p row code would
    overflow int64, as p^d does at d = p - 1 for p >= 19). The stabiliser
    {c : sorted(c*X) = X} holds c = 1 and each x_i^-1 for a distinct x_i != 1
    whose image equals X. Rows are read in blocks of _BLOCK_ROWS and a row is
    dropped at its first smaller image, so memory stays flat; each block yields
    its kept rows, in order, as int64 rows of m + 1 columns, and their
    stabiliser orders.
    """
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    rests = iter(rests)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(rests, _BLOCK_ROWS)), np.int64)
        if not flat.size:
            return
        rows = np.ones((flat.size // m, m + 1), dtype=np.int64)
        rows[:, 1:] = flat.reshape(-1, m)
        stabiliser = np.ones(len(rows), dtype=np.int64)
        for i in range(1, m + 1):
            image = rows * inverse[rows[:, i, None]]
            image %= p
            image.sort(axis=1)
            first = (image != rows).argmax(axis=1)[:, None]
            mine = np.take_along_axis(rows, first, 1)[:, 0]
            theirs = np.take_along_axis(image, first, 1)[:, 0]
            stabiliser += (mine == theirs) & (rows[:, i] != rows[:, i - 1])
            keep = mine <= theirs
            rows, stabiliser = rows.compress(keep, axis=0), stabiliser.compress(keep)
        yield rows, stabiliser


def canonical_connection_sets(p: int | PrimeModulus, d: int) -> Iterator[tuple[int, ...]]:
    """Each scalar-equivalence class of d-subsets of F_p*, once, in lexicographic order.

    A set is emitted iff it is the least sorted(c*A) over c in F_p*, so the
    stream is the sorted list of class representatives, as tuples of ints. Such
    a set starts with 1, so only the C(p-2, d-1) sets (1,) + rest are tested,
    by scalar_least_rows. At d = 1 the one class is (1,).
    """
    pv = as_modulus(p).p
    if d < 1:
        raise ValueError("connection sets need d >= 1")
    if d == 1:
        yield (1,)
        return
    for rows, _ in scalar_least_rows(pv, d - 1, itertools.combinations(range(2, pv), d - 1)):
        yield from map(tuple, rows.tolist())
