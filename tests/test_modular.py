from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projheight import modular
from projheight.modular import (
    MAX_MODULUS,
    PrimeModulus,
    ProjectivePoint,
    canonical_connection_sets,
    canonicalize,
    d_star,
    is_prime,
    mod_inverse,
    primes_up_to,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_is_prime_basics():
    assert is_prime(2)
    assert is_prime(29)
    assert not is_prime(91)  # 7 * 13
    assert not is_prime(561)  # Carmichael number
    assert is_prime(2**31 - 1)
    with pytest.raises(ValueError):
        is_prime(1)


def test_is_prime_small_base_set_limit():
    # 3215031751 = 151 * 751 * 28351 is the least strong pseudoprime to the
    # bases 2, 3, 5 and 7 together, so those four decide only below it
    assert not is_prime(3215031751)
    assert modular._strong_probable_prime(3215031751, modular._SMALL_BASES)
    assert modular._SMALL_BASES == (2, 3, 5, 7) and modular._SMALL_BASES_BELOW == 3215031751
    # 25326001 = 2251 * 11251 passes the bases 2, 3 and 5; base 7 finds it
    assert not is_prime(25326001)
    assert modular._strong_probable_prime(25326001, (2, 3, 5))


def sieve(n: int) -> list[int]:
    """All primes <= n by the sieve of Eratosthenes: an oracle independent of is_prime."""
    if n < 2:
        return []
    marks = bytearray([1]) * (n + 1)
    marks[0] = marks[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if marks[q]:
            marks[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return list(itertools.compress(range(n + 1), marks))


def test_is_prime_matches_sieve_to_1e5():
    assert [n for n in range(2, 10**5 + 1) if is_prime(n)] == sieve(10**5)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(997)) == 168


def test_primes_up_to_matches_is_prime():
    primes = [q for q in range(2, 2001) if is_prime(q)]
    for n in range(2001):
        assert primes_up_to(n) == [q for q in primes if q <= n], n


def test_prime_modulus_validation():
    assert PrimeModulus(29).p == 29
    assert PrimeModulus(2).p == 2
    for bad in (0, 1, 4, 91):
        with pytest.raises(ValueError):
            PrimeModulus(bad)
    with pytest.raises(ValueError):
        PrimeModulus(MAX_MODULUS + 2)
    with pytest.raises(TypeError):
        PrimeModulus(7.0)


def test_mod_inverse_examples():
    assert mod_inverse(1, 13) == 1
    assert mod_inverse(2, 11) == 6
    assert mod_inverse(3, 7) == 5
    with pytest.raises(ValueError):
        mod_inverse(0, 7)
    with pytest.raises(ValueError):
        mod_inverse(14, 7)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**6))
def test_mod_inverse_inverts(p, a):
    if a % p == 0:
        a += 1
    inv = mod_inverse(a, p)
    assert 1 <= inv <= p - 1
    assert (a * inv) % p == 1


def test_canonicalize_examples():
    assert canonicalize((0, 3), 5).coords == (0, 1)
    assert canonicalize((3, 0), 11).coords == (1, 0)
    assert canonicalize((2, 4), 7).coords == (1, 2)
    with pytest.raises(ValueError):
        canonicalize((0, 0), 5)
    with pytest.raises(ValueError):
        canonicalize((7, 14), 7)


def test_canonicalize_idempotent_and_reduces():
    pt = canonicalize((-4, 30), 7)
    assert all(0 <= c < 7 for c in pt.coords)
    assert canonicalize(pt.coords, 7) == pt


@given(
    st.sampled_from(SMALL_PRIMES),
    st.lists(st.integers(-50, 50), min_size=2, max_size=5),
    st.integers(1, 100),
)
def test_canonicalize_constant_on_classes(p, raw, c):
    if all(x % p == 0 for x in raw):
        raw = raw[:-1] + [1]
    c = c % p or 1
    scaled = [c * x for x in raw]
    assert canonicalize(raw, p) == canonicalize(scaled, p)


def test_projective_point_rejects_non_canonical():
    with pytest.raises(ValueError):
        ProjectivePoint((2, 1), PrimeModulus(5))
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0), PrimeModulus(5))
    with pytest.raises(ValueError):
        ProjectivePoint((1, 7), PrimeModulus(5))


def test_d_star():
    assert d_star(canonicalize((1, 0), 7)) == 1
    assert d_star(canonicalize((1, 2, 3), 7)) == 3
    assert d_star(canonicalize((0, 1, 0), 7)) == 1
    # invariant under the representative used to build the point
    assert d_star(canonicalize((3, 0, 6), 7)) == d_star(canonicalize((1, 0, 2), 7))


def burnside_class_count(p: int, d: int) -> int:
    """Scalar classes of d-subsets of F_p*: by Burnside, as orbits of d-subsets
    of a cyclic group of order n = p - 1 under rotation."""
    n = p - 1
    fixed = 0
    for k in range(1, math.gcd(n, d) + 1):
        if n % k == 0 and d % k == 0:
            phi = sum(math.gcd(j, k) == 1 for j in range(1, k + 1))
            fixed += phi * math.comb(n // k, d // k)
    return fixed // n


def brute_scalar_minima(p: int, d: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every d-subset A of F_p* in lex order, with min over all c in 1..p-1 of sorted(c*A).

    Each sorted multiple is compared as a byte string of its entries (p < 256,
    and no entry is 0), whose order is the lexicographic order of the tuples;
    unlike a base-p number it cannot overflow, whatever d is.
    """
    subsets = list(itertools.combinations(range(1, p), d))
    rows = np.array(subsets, dtype=np.int64).reshape(len(subsets), d)
    best = None
    for c in range(1, p):
        multiple = np.sort(c * rows % p, axis=1).astype(np.uint8).view(f"S{d}").ravel()
        best = multiple if best is None else np.where(multiple < best, multiple, best)
    minima = [tuple(row) for row in best.view(np.uint8).reshape(len(subsets), d).tolist()]
    return subsets, minima


# Every prime p <= 31 with 1 <= d <= min(5, p-1), d = p - 2 and d = p - 1, where
# a base-p code of a row overflows int64 from p = 19 on, plus d = p, which has
# no class.
CLASS_COUNT_CASES = [
    (p, d, burnside_class_count(p, d))
    for p in primes_up_to(31)
    for d in sorted({*range(1, min(5, p - 1) + 1), p - 2, p - 1, p} - {0})
]


@pytest.mark.parametrize("p,d,count", CLASS_COUNT_CASES)
def test_canonical_connection_set_counts(p, d, count):
    minima = brute_scalar_minima(p, d)[1]
    classes = list(canonical_connection_sets(p, d))
    assert len(classes) == count
    # the representatives are exactly the distinct brute minima, in lex order
    assert classes == sorted(set(minima))
    # plain tuples of Python ints, which json.dumps accepts and numpy integers are not
    assert all(type(A) is tuple and all(type(a) is int for a in A) for A in classes)


def test_canonical_connection_sets_cover_all_subsets():
    p, d = 11, 2
    # every subset's minimum over all c in 1..p-1 is one of the representatives
    assert set(brute_scalar_minima(p, d)[1]) == set(canonical_connection_sets(p, d))
