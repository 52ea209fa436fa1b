from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projheight import heights, modular
from projheight.cayley import CayleyGraph, beta_upper, is_triangle_free
from projheight.heights import (
    BudgetExceededError,
    gap_scan,
    height,
    height_upper_bound,
    line_bound_certificates,
    line_fast_path,
    line_height_fast,
    line_height_table,
    spectrum,
)
from projheight.modular import canonical_connection_sets, canonicalize, is_prime, primes_up_to

ODD_PRIMES = tuple(p for p in primes_up_to(100) if p > 2)


def brute_height(coords, p):
    """Reference implementation: the defining minimum, no shortcuts."""
    return min(sum((k * c) % p for c in coords) for k in range(1, p))


def brute_record(coords, p):
    """(height, smallest k attaining it), by the defining minimum."""
    sums = [sum((k * c) % p for c in coords) for k in range(1, p)]
    h = min(sums)
    return h, sums.index(h) + 1


def brute_spectrum(p, d):
    """{height: count} over every canonical point <0, ..., 0, 1, t>, by the defining minimum in numpy."""
    ks = np.arange(1, p)
    counts = np.zeros(d * p, dtype=np.int64)
    for lead in range(d):
        m = d - 1 - lead
        rest = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64).reshape(p**m, m)
        for chunk in np.array_split(rest, -(-len(rest) * p * max(m, 1) // 2**21)):
            sums = ks + (chunk[:, :, None] * ks % p).sum(axis=1)
            counts += np.bincount(sums.min(axis=1), minlength=d * p)
    return {v: int(c) for v, c in enumerate(counts.tolist()) if c}


def brute_orbit(point, p):
    """The S_j orbit of a projective point: every permutation, normalized to lead with 1."""
    orbit = set()
    for perm in itertools.permutations(point):
        inv = pow(perm[0], -1, p)
        orbit.add(tuple(c * inv % p for c in perm))
    return frozenset(orbit)


def pruned_line_record(a, p):
    """(height, smallest k) of <1, a> in pure Python, stopping once k + 1 >= best.

    The k-th sum is k + (k*a mod p) >= k + 1, so no later k can do better.
    """
    best, best_k, k = p + 1, 1, 1
    while k + 1 < best:
        s = k + (k * a) % p
        if s < best:
            best, best_k = s, k
        k += 1
    return best, best_k


def brute_sums(tails, p):
    """sums[i, k - 1]: the multiplier-k sum of <1, tails[i]>, for every k = 1..p-1."""
    ks = np.arange(1, p)
    return ks + (tails[:, :, None] * ks % p).sum(axis=1)


def mixed_tails(p, seed):
    """24 seeded tails of 2 to 4 nonzeros (d = 3 to 5), shuffled among zeros to 5 places."""
    rng = random.Random(seed)
    rows = []
    for _ in range(24):
        m = rng.randrange(2, 5)
        row = [rng.randrange(1, p) for _ in range(m)] + [0] * (5 - m)
        rng.shuffle(row)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


MIXED_TAILS = {p: mixed_tails(p, p) for p in (13, 10007)}


def test_height_examples():
    assert height(canonicalize((1, 2), 11)).height == 3
    for p in (3, 7, 29):
        assert height(canonicalize((1, 0), p)).height == 1
    assert height(canonicalize((1, 10), 11)).height == 11
    rec = height(canonicalize((1, 2, 3), 7))
    assert (rec.height, rec.argmin_k, rec.method) == (6, 1, "brute")


def test_height_rejects_p2():
    with pytest.raises(ValueError):
        height(canonicalize((1, 1), 2))
    with pytest.raises(ValueError):
        line_height_fast(1, 2)
    with pytest.raises(ValueError):
        spectrum(2, 2)


def test_height_record_invariants():
    for p in (5, 11, 23):
        for coords in [(1, 2), (1, 0, 4), (1, p - 1), (1, 3, 3)]:
            pt = canonicalize(coords, p)
            rec = height(pt)
            assert sum((rec.argmin_k * c) % p for c in pt.coords) == rec.height
            assert 1 <= rec.height <= height_upper_bound(pt)
            # argmin is the smallest minimizer
            earlier = [
                k
                for k in range(1, rec.argmin_k)
                if sum((k * c) % p for c in pt.coords) == rec.height
            ]
            assert earlier == []


def test_height_upper_bound_examples():
    assert height_upper_bound(canonicalize((1, 2), 11)) == 11
    assert height_upper_bound(canonicalize((1, 0), 11)) == 5
    assert height_upper_bound(canonicalize((1, 2, 3), 7)) == 10


@given(
    st.sampled_from(ODD_PRIMES),
    st.lists(st.integers(0, 200), min_size=2, max_size=5),
    st.integers(2, 10**6),
)
def test_height_well_defined_on_classes(p, raw, c):
    if all(x % p == 0 for x in raw):
        raw = raw + [1]
    c = c % p or 1
    base = canonicalize(raw, p)
    scaled = canonicalize([c * x for x in raw], p)
    assert base == scaled
    assert height(base).height == brute_height(raw, p)


@given(st.sampled_from(ODD_PRIMES), st.permutations([1, 2, 0, 7]))
def test_height_permutation_invariant(p, perm):
    assert brute_height(perm, p) == brute_height(sorted(perm), p)
    assert height(canonicalize(perm, p)).height == brute_height(perm, p)


def test_line_height_fast_examples():
    assert line_height_fast(1, 101).height == 2
    rec = line_height_fast(6, 11)
    assert (rec.height, rec.rule) == (3, "a=(p+1)/2")
    rec = line_height_fast(9, 11)
    assert (rec.height, rec.argmin_k, rec.rule) == (6, 5, "a=p-2")
    rec = line_height_fast(7, 23)
    assert (rec.height, rec.method, rec.rule) == (8, "brute", None)
    with pytest.raises(ValueError):
        line_height_fast(0, 11)
    with pytest.raises(ValueError):
        line_height_fast(22, 11)


def test_line_height_fast_matches_brute_everywhere():
    for p in (3, 5, 7, 11, 13, 29, 97):
        hts, ams = line_height_table(p)
        for a in range(1, p):
            rec = line_height_fast(a, p)
            assert rec.height == int(hts[a - 1]), (p, a)
            assert rec.argmin_k == int(ams[a - 1]), (p, a)
            assert rec.height == brute_height((1, a), p)


def test_line_fast_path_rules_are_exhaustive_over_special_a():
    # every special position fires a formula, everything else may fall through
    p = 31
    for a, rule in [
        (1, "a=1"),
        (2, "a=2"),
        (16, "a=(p+1)/2"),
        (15, "a=(p-1)/2"),
        (29, "a=p-2"),
        (30, "a=p-1"),
        (5, "a^2<p"),
    ]:
        hit = line_fast_path(a, p)
        assert hit is not None and hit[2] == rule


@pytest.mark.parametrize("cells", [5, 64])
class TestKernelBlockEdges:
    """heights_of with tiny blocks, so every group and k-block boundary is crossed."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(heights, "_BLOCK_CELLS", cells)

    def test_line_tables(self, cells):
        for p in ODD_PRIMES:
            hts, ams = line_height_table.__wrapped__(p)
            got = list(zip(hts.tolist(), ams.tolist()))
            assert got == [brute_record((1, a), p) for a in range(1, p)], p

    def test_spectra(self, cells):
        for p in (3, 5, 7, 11, 13):
            for d in (2, 3, 4):
                counts: dict[int, int] = {}
                for lead in range(d):
                    for rest in itertools.product(range(p), repeat=d - 1 - lead):
                        h = brute_height((0,) * lead + (1,) + rest, p)
                        counts[h] = counts.get(h, 0) + 1
                assert spectrum(p, d).count_per_value == counts, (p, d)

    def test_rows_retire_at_different_k(self, cells, monkeypatch):
        p = 13
        # 0 to 3 nonzeros per row, heights from 1 to 2p; a row of equal nonzero
        # tails t reaches the bound k + nonzeros at k = 1/t, so it retires only
        # when that bound meets its best
        tails = np.array(
            [t for t in itertools.product(range(p), repeat=3) if sum(t) % 5 == 0]
            + [(a, a, a) for a in range(1, p)] + [(a, a, 0) for a in range(1, p)],
            dtype=np.int64,
        )
        groups = []
        residue_sums = heights._residue_sums

        def spy(rows, ks, q):
            if ks[0] == 1:  # each row group starts its own scan at k = 1
                groups.append([])
            groups[-1].append(len(rows))
            return residue_sums(rows, ks, q)

        monkeypatch.setattr(heights, "_residue_sums", spy)
        # groups of `cells` rows, one k per block while a group is whole
        monkeypatch.setattr(heights, "_MIN_WIDTH", 1)
        hts, ams = heights._blocked_heights(tails, p)
        want = [brute_record((1, *t), p) for t in tails.tolist()]
        assert list(zip(hts.tolist(), ams.tolist())) == want
        # every row is in one group; the live rows of a group shrink block by
        # block, in most groups to fewer than they started with, and rows with
        # tied minimizers keep the least k
        assert len(groups) > 1 and sum(live[0] for live in groups) == len(tails)
        for live in groups:
            assert live[0] <= cells and live == sorted(live, reverse=True)
        assert sum(live[-1] < live[0] for live in groups) > len(groups) // 2
        assert max(len(set(live)) for live in groups) > 3
        ties = [
            t for t, (h, _) in zip(tails.tolist(), want)
            if sum(k + sum(k * c % p for c in t) == h for k in range(1, p)) > 1
        ]
        assert len(ties) > 10

    def test_mixed_rows_and_minimizers_match_brute(self, cells):
        # 2 to 4 tails with zeros mixed in; at p = 10007 a row's bound cap lands mid-block
        for p, tails in MIXED_TAILS.items():
            hts, ams, got = heights.heights_of(tails, p, ties=True)
            sums = brute_sums(tails, p)
            assert hts.tolist() == sums.min(axis=1).tolist(), p
            assert ams.tolist() == (sums.argmin(axis=1) + 1).tolist(), p
            # every k attaining h, which lies at or below h - nonzeros
            want = sorted(zip(*np.nonzero(sums == hts[:, None])))
            assert sorted((row, k - 1) for row, k in got.tolist()) == want, p

    def test_leading_zeros_and_d1(self, cells):
        for p in (3, 7, 13, 31):
            for coords in [(1,), (0, 1), (0, 0, 1, 5), (0, 3, 0, 9, 2), (0, 0, 0, 1)]:
                rec = height(canonicalize(coords, p))
                assert (rec.height, rec.argmin_k) == brute_record(rec.point.coords, p)

    def test_line_points_at_max_modulus(self, cells):
        p = 2**31 - 1
        for a in (3, 46341, 123456789, 987654321, 1234567890):
            rec = height(canonicalize((1, a), p))
            assert (rec.height, rec.argmin_k) == pruned_line_record(a, p), a


def seeded_points(rng, d, lo, hi, count):
    """count (p, tails) of d - 1 nonzero tails, p a random prime in [lo, hi)."""
    points = []
    while len(points) < count:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            tails = np.array([[rng.randrange(1, p) for _ in range(d - 1)]], dtype=np.int64)
            points.append((p, tails))
    return points


def test_scan_stops_at_each_rows_bound(monkeypatch):
    # single d = 3 and d = 4 points at p near 10^6 and 10^5, through the scan itself
    reads = []
    residue_sums = heights._residue_sums

    def spy(rows, ks, q):
        sums = residue_sums(rows, ks, q)
        reads.append((int(ks[0]), int(ks[-1]), int(sums.min())))
        return sums

    monkeypatch.setattr(heights, "_residue_sums", spy)
    rng = random.Random(18)
    read = allowed = 0
    for d, lo in ((3, 10**6), (4, 10**5)):
        for p in [q for q in range(lo, lo + 400) if is_prime(q)][:10]:
            tails = np.array([[rng.randrange(1, p) for _ in range(d - 1)]], dtype=np.int64)
            reads.clear()
            h = int(heights._blocked_heights(tails, p)[0][0])
            assert h == brute_sums(tails, p).min(), (p, tails)
            # a block after the first ends before k + nonzeros reaches the best so far
            best = p * d
            for first, last, low in reads:
                assert first == 1 or last + d - 1 < best, (p, tails, reads)
                best = min(best, low)
            read += reads[-1][1]
            allowed += reads[0][1] + h - (d - 1)
    # together the points read no more than their first blocks plus every h - nonzeros
    assert read <= allowed


def test_single_point_settled_by_the_lattice_reads_no_scan_block(monkeypatch):
    # every scan block is read inside _blocked_heights, so no call means no block
    scans, rounds = [], []
    scan, triangle = heights._blocked_heights, heights._triangle_multipliers

    def scan_spy(*args):
        scans.append(args)
        return scan(*args)

    def round_spy(*args):
        rounds.append(args)
        return triangle(*args)

    monkeypatch.setattr(heights, "_blocked_heights", scan_spy)
    monkeypatch.setattr(heights, "_triangle_multipliers", round_spy)
    settled = 0
    for p, tails in seeded_points(random.Random(19), 3, 10**6, 10**6 + 10**4, 10):
        scans.clear()
        rounds.clear()
        got = [int(x[0]) for x in heights.heights_of(tails, p)]
        sums = brute_sums(tails, p)[0]
        assert got == [sums.min(), sums.argmin() + 1], (p, tails)
        assert rounds, (p, tails)
        if len(rounds) == 1:
            settled += 1
            assert scans == [], (p, tails)
    assert settled >= 5


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_line_minimizers_match_brute(p, monkeypatch):
    # every b in [0, p - 1] in each of three places, and the all-zero row
    tails = np.array(
        [[0, 0, 0]] + [[b if i == j else 0 for j in range(3)] for b in range(p) for i in range(3)],
        dtype=np.int64,
    )
    scanned = []
    residue_sums = heights._residue_sums

    def spy(rows, ks, q):
        scanned.extend(rows.sum(axis=1).tolist())
        return residue_sums(rows, ks, q)

    monkeypatch.setattr(heights, "_residue_sums", spy)
    hts, _, got = heights.heights_of(tails, p, ties=True)
    sums = brute_sums(tails, p)
    want = sorted(zip(*np.nonzero(sums == hts[:, None])))
    assert sorted((row, k - 1) for row, k in got.tolist()) == want
    # b = p - 1 ties at every k; every other line row has one minimizer, from the sail,
    # and no line row is scanned
    counts = np.bincount(got[:, 0], minlength=len(tails))
    assert counts.tolist() == [p - 1 if t.sum() == p - 1 else 1 for t in tails]
    assert scanned == []


def test_line_height_table_has_no_cap():
    for p, spots in ((2239, (7, 1000, 2237)), (100003, (2, 316, 4567, 50001, 77777, 100001))):
        hts, ams = line_height_table(p)
        assert len(hts) == p - 1 and int(hts[-1]) == p and int(ams[-1]) == 1
        for a in spots:
            assert (int(hts[a - 1]), int(ams[a - 1])) == pruned_line_record(a, p)


def line_oracle(p):
    """(heights, least argmins) of <1, a> for a = 0..p-1, from the full (a, k) table."""
    k = np.arange(1, p)
    sums = k + np.arange(p)[:, None] * k % p
    return sums.min(axis=1), sums.argmin(axis=1) + 1


def sail_record(a, p):
    hts, ams = heights._sail_heights(np.array([a], dtype=np.int64), p)
    return int(hts[0]), int(ams[0])


class TestSail:
    """The Klein-sail walk against the defining minimum and the blocked kernel."""

    def test_every_line_point_to_997(self):
        for p in primes_up_to(997)[1:]:
            hts, ams = heights._sail_heights(np.arange(p, dtype=np.int64), p)
            want_h, want_k = line_oracle(p)
            assert hts.tolist() == want_h.tolist() and ams.tolist() == want_k.tolist(), p

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 997, 10007])
    def test_special_a(self, p):
        # a = p - 1 ties at every k; the others are the closed-form cases
        for a in {1, 2, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2}:
            if 1 <= a <= p - 1:
                assert sail_record(a, p) == brute_record((1, a), p), (p, a)

    def test_special_a_at_max_modulus(self):
        p = 2**31 - 1
        for a in (1, 2, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2):
            assert sail_record(a, p) == line_fast_path(a, p)[:2], a

    def test_matches_blocked_kernel_near_max_modulus(self):
        rng = random.Random(7)
        points = []
        while len(points) < 200:
            p = rng.randrange(2**30 + 1, 2**31 - 1, 2)
            if is_prime(p):
                points.append((p, rng.randrange(1, p)))
        for p, a in points:
            tails = np.array([[a]], dtype=np.int64)
            got = heights.heights_of(tails, p)
            want = heights._blocked_heights(tails, p)
            assert [x.tolist() for x in got] == [x.tolist() for x in want], (p, a)

    def test_zero_tails(self):
        for p in (3, 5, 7, 31):
            for tails in (np.zeros((2, 0), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)):
                hts, ams = heights.heights_of(tails, p)
                assert hts.tolist() == [1] * len(tails) and ams.tolist() == [1] * len(tails)
            counts: dict[int, int] = {1: 1}  # <0, 1>
            for t in range(p):
                h = brute_height((1, t), p)
                counts[h] = counts.get(h, 0) + 1
            assert spectrum(p, 2).count_per_value == counts, p

    def test_rows_are_routed_by_nonzeros(self):
        p = 31
        tails = np.array([[0, 5], [3, 0], [0, 0], [2, 7], [30, 0], [1, 30]], dtype=np.int64)
        got = heights.heights_of(tails, p)
        want = heights._blocked_heights(tails, p)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]


def brute_records(tails, p):
    """[heights, least argmins] of the rows <1, t>, by the defining minimum."""
    sums = brute_sums(tails, p)
    return [sums.min(axis=1).tolist(), (sums.argmin(axis=1) + 1).tolist()]


def brute_ties(tails, p):
    """Every (row, k) whose sum is that row's height, by the defining minimum, sorted."""
    sums = brute_sums(tails, p)
    rows, ks = np.nonzero(sums == sums.min(axis=1, keepdims=True))
    return list(zip(rows.tolist(), (ks + 1).tolist()))


def kernel_ties(tails, p):
    """heights_of's ties for the rows <1, t>, sorted; its heights and argmins must match brute."""
    hts, ams, pairs = heights.heights_of(tails, p, ties=True)
    assert [hts.tolist(), ams.tolist()] == brute_records(tails, p)
    return sorted(map(tuple, pairs.tolist()))


def kernel_records(tails, p):
    """[heights, argmins] of the rows <1, t>, from heights_of."""
    return [x.tolist() for x in heights.heights_of(tails, p)]


def triangle_oracle(a, p, top):
    """Every k in 1..p-1 with k + (k*a mod p) <= top, ascending."""
    return [k for k in range(1, p) if k + k * a % p <= top]


class TestLattice:
    """The 2-D lattice path of rows with two or more nonzeros, against brute minima and the scan."""

    @pytest.fixture
    def routed(self, monkeypatch):
        """The rows that heights_of sends through _lattice_height, in order."""
        rows = []
        lattice_height = heights._lattice_height

        def spy(tail, *args):
            rows.append(tail.tolist())
            return lattice_height(tail, *args)

        monkeypatch.setattr(heights, "_lattice_height", spy)
        return rows

    @pytest.fixture
    def forced(self, monkeypatch, routed):
        # every guess exceeds 0, so every row with two or more nonzeros takes the path
        monkeypatch.setattr(heights, "_FIRST_WIDTH", 0)
        return routed

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 10007, 2**31 - 1])
    def test_reduced_basis(self, p):
        rng = random.Random(p)
        for a in range(1, p) if p < 100 else [1, 2, p - 1, p - 2, *rng.sample(range(1, p), 200)]:
            (ux, uy), (vx, vy) = heights._reduced_basis(a, p)
            assert (uy - a * ux) % p == 0 and (vy - a * vx) % p == 0, (p, a)
            assert ux * vy - uy * vx == p, (p, a)
            uu, vv, uv = ux * ux + uy * uy, vx * vx + vy * vy, ux * vx + uy * vy
            # Lagrange-reduced, so |u| is within the Hermite bound (4p^2/3)^(1/4)
            assert uu <= vv and 2 * abs(uv) <= uu and 3 * uu * uu <= 4 * p * p, (p, a)

    def test_triangle_lists_every_multiplier(self):
        for p in (3, 5, 7, 11, 13, 31):
            for a in range(1, p):
                basis = heights._reduced_basis(a, p)
                # tops from an empty triangle to one past every x, y <= p - 1
                for top in range(-1, 2 * p + 1):
                    got = heights._triangle_multipliers(*basis, p, top)
                    assert got.tolist() == triangle_oracle(a, p, top), (p, a, top)
        rng = random.Random(3)
        for a in rng.sample(range(1, 10007), 20):
            basis = heights._reduced_basis(a, 10007)
            for top in (2, 150, 3000, 10006, 10007, 15000, 20013):
                got = heights._triangle_multipliers(*basis, 10007, top)
                assert got.tolist() == triangle_oracle(a, 10007, top), (a, top)

    def test_triangle_refuses_past_the_cells(self, monkeypatch):
        monkeypatch.setattr(heights, "_BLOCK_CELLS", 8)
        refused = 0
        for a in range(1, 31):
            for top in range(1, 62):
                got = heights._triangle_multipliers(*heights._reduced_basis(a, 31), 31, top)
                want = triangle_oracle(a, 31, top)
                if got is None:
                    refused += 1
                    assert len(want) > 8, (a, top)
                else:
                    assert got.tolist() == want, (a, top)
        assert refused > 100

    def test_every_plane_orbit_to_31(self, forced):
        ties = 0
        for p in primes_up_to(31)[1:]:
            tails = heights._orbits(p, 3)[0]
            forced.clear()
            assert kernel_records(tails, p) == brute_records(tails, p), p
            assert len(forced) == len(tails), p
            sums = brute_sums(tails, p)
            ties += int(((sums == sums.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
        assert ties >= 30

    @pytest.mark.parametrize("p", [13, 101, 401, 10007])
    def test_seeded_rows_with_zeros(self, p, forced):
        # 2 to 4 nonzeros among 5 places (d = 3 to 5)
        for seed in range(3):
            tails = mixed_tails(p, 100 * p + seed)
            assert kernel_records(tails, p) == brute_records(tails, p)
        assert len(forced) == 72

    @pytest.mark.parametrize("cells", [16, 1 << 18])
    @pytest.mark.parametrize("p", [11, 31, 101, 1009])
    def test_zero_sum_rows(self, p, cells, forced, monkeypatch):
        # h >= p, so a second round's triangle may pass x = p - 1 or y = p - 1,
        # where only the clip keeps k below p; with 16 cells most rows fall back
        monkeypatch.setattr(heights, "_BLOCK_CELLS", cells)
        tails = np.array(
            [[2, p - 3, 0], [1, p - 2, 0], [1, 1, p - 2], [3, 5, p - 8], [5, p - 5, 7]]
            + [[p - 1, p - 1, 2]],
            dtype=np.int64,
        )
        got = kernel_records(tails, p)
        assert got == brute_records(tails, p)
        assert all(h >= p for h in got[0][:5])

    def test_ties_keep_the_least_k(self, forced):
        rng = random.Random(23)
        for p in (31, 101, 199):
            rows = [[rng.randrange(1, p) for _ in range(rng.randrange(2, 4))] for _ in range(3000)]
            tails = np.array([r + [0] * (3 - len(r)) for r in rows], dtype=np.int64)
            sums = brute_sums(tails, p)
            tied = tails[(sums == sums.min(axis=1, keepdims=True)).sum(axis=1) > 1]
            assert len(tied) > 15, p
            assert kernel_records(tied, p) == brute_records(tied, p), p

    def test_small_cells_fall_back_to_the_scan(self, forced, monkeypatch):
        monkeypatch.setattr(heights, "_BLOCK_CELLS", 16)
        ceilings = []
        blocked_heights = heights._blocked_heights

        def spy(tails, p, ceiling=None, *args):
            ceilings.append(ceiling)
            return blocked_heights(tails, p, ceiling, *args)

        monkeypatch.setattr(heights, "_blocked_heights", spy)
        for p in (101, 10007):
            tails = mixed_tails(p, p + 1)
            assert kernel_records(tails, p) == brute_records(tails, p), p
        # each row that fell back was scanned below a known upper bound of its height
        assert len(ceilings) > 10 and None not in ceilings

    def test_matches_the_scan_unforced(self, routed):
        rng = random.Random(24)
        points = (
            seeded_points(rng, 3, 10**6, 2 * 10**6, 150)
            + seeded_points(rng, 4, 10**5, 2 * 10**5, 150)
            + seeded_points(rng, 3, 2**31 - 10**6, 2**31 - 1, 8)
        )
        for p, tails in points:
            got = heights.heights_of(tails, p)
            want = heights._blocked_heights(tails, p)
            assert [x.tolist() for x in got] == [x.tolist() for x in want], (p, tails)
        # every one of these guesses past the first block, so all took the path
        assert len(routed) == len(points)

    def test_empty_triangle_doubles_the_ceiling(self, routed, monkeypatch):
        # a = 2000000 is about 2p/3, a skewed lattice: the first triangle is empty,
        # and doubling its ceiling, not jumping to U + 1, keeps the row off the scan
        def no_scan(*args, **kwargs):
            raise AssertionError("the row fell back to the blocked scan")

        rounds = []
        triangle = heights._triangle_multipliers

        def spy(u, v, p, top, *charge):
            got = triangle(u, v, p, top, *charge)
            rounds.append(None if got is None else len(got))
            return got

        monkeypatch.setattr(heights, "_blocked_heights", no_scan)
        monkeypatch.setattr(heights, "_triangle_multipliers", spy)
        rec = height(canonicalize((1, 2000000, 2500000), 3000017))
        assert (rec.height, rec.argmin_k) == (176584, 176467)
        assert routed == [[2000000, 2500000]]
        assert rounds[0] == 0 and None not in rounds
        # after a listed round that does not settle, the ceiling still doubles
        # (below the least sum + 1), so the third round lists 4,142 points, not 115,303
        assert rounds == [0, 324, 4142]

    def test_zero_sum_rounds_stay_within_the_cells(self, routed, monkeypatch):
        # {1, 2, p - 3} sums to 0: h = p, so the ceiling doubles until a triangle
        # would hold more than the cells (one at h + 1 holds about p/3 points)
        rounds = []
        triangle = heights._triangle_multipliers

        def spy(u, v, p, top, *charge):
            got = triangle(u, v, p, top, *charge)
            rounds.append((top, None if got is None else len(got)))
            return got

        monkeypatch.setattr(heights, "_triangle_multipliers", spy)
        p = 1000003
        assert beta_upper(CayleyGraph(p, (1, 2, p - 3))) == (p, 1)
        assert routed == [[2, p - 3]]
        assert all(n is None or n <= heights._BLOCK_CELLS for _, n in rounds)
        # every round but the last is listed, and the last is refused and truly over the cells
        *listed, (top, last) = rounds
        assert listed and None not in [n for _, n in listed] and last is None
        k = np.arange(1, p)
        assert np.count_nonzero(k + 2 * k % p <= top) > heights._BLOCK_CELLS


class TestTies:
    """heights_of(..., ties=True) lists every tied minimizer, on every path, in the pass that settles the row."""

    # the lattice path (and, with 16 cells, its fall-back to the scan) or the scan
    # alone, in wide blocks or (one cell) one row and one k per block
    PATHS = [(0, 1 << 18), (0, 16), (1 << 62, 1 << 18), (1 << 62, 1)]

    @pytest.fixture(params=PATHS, ids=["lattice", "lattice-to-scan", "scan", "scan-by-k"])
    def path(self, request, monkeypatch):
        width, cells = request.param
        monkeypatch.setattr(heights, "_FIRST_WIDTH", width)
        monkeypatch.setattr(heights, "_BLOCK_CELLS", cells)

    def test_every_plane_orbit_to_31(self, path):
        tied = 0
        for p in primes_up_to(31)[1:]:
            tails = heights._orbits(p, 3)[0]
            want = brute_ties(tails, p)
            assert kernel_ties(tails, p) == want, p
            tied += len(want) - len(tails)
        assert tied >= 30

    def test_ties_whose_residues_are_all_one(self, path):
        # <1, 2, 2> at p = 5 ties at k = 1 and k = 3 = h - n, where k*2 = 1;
        # so does <1, m, m> for m = (p - 1)/2 at k = 1 and k = p - 2
        for p in primes_up_to(31)[2:]:
            m = (p - 1) // 2
            tails = np.array([[m, m]], dtype=np.int64)
            got = kernel_ties(tails, p)
            assert got == brute_ties(tails, p) and (0, p - 2) in got, p
        assert kernel_ties(np.array([[2, 2]], dtype=np.int64), 5) == [(0, 1), (0, 3)]

    def test_zero_sum_rows_at_1009(self, path):
        p = 1009
        # the first five points <1, t> sum to 0; the next two only have a zero-sum subset
        tails = np.array(
            [[2, p - 3, 0], [1, p - 2, 0], [1, 1, p - 3], [3, 5, p - 9], [5, p - 6, 0]]
            + [[1, 1, p - 2], [5, p - 5, 7], [1, 2, 3]],
            dtype=np.int64,
        )
        want = brute_ties(tails, p)
        assert kernel_ties(tails, p) == want
        # each sum of a zero-sum point is a multiple of p, so hundreds of multipliers tie
        assert np.bincount([row for row, _ in want])[:5].min() > 100


def test_beta_upper_settled_in_lattice_round_one_reads_no_scan_block(monkeypatch):
    # the witness comes from the round that settles the height; no block is rescanned
    # every scan block is read inside _blocked_heights, so no call means no block
    scans, rounds = [], []
    scan, triangle = heights._blocked_heights, heights._triangle_multipliers

    def scan_spy(*args):
        scans.append(args)
        return scan(*args)

    def round_spy(*args):
        rounds.append(args)
        return triangle(*args)

    monkeypatch.setattr(heights, "_blocked_heights", scan_spy)
    monkeypatch.setattr(heights, "_triangle_multipliers", round_spy)
    settled = 0
    for p, tails in seeded_points(random.Random(26), 3, 10**6, 10**6 + 10**4, 10):
        A = tuple(sorted({1, *tails[0].tolist()}))
        if len(A) < 3 or any(p - a in A for a in A):
            continue
        scans.clear()
        rounds.clear()
        got = beta_upper(CayleyGraph(p, A))
        sums = brute_sums(np.array([A[1:]], dtype=np.int64), p)[0]
        h = int(sums.min())
        # ordering k = v^-1 for each tied v
        assert got == (h, min(pow(int(v), -1, p) for v in np.flatnonzero(sums == h) + 1)), (p, A)
        if len(rounds) == 1:
            settled += 1
            assert scans == [], (p, A)
    assert settled >= 5


def test_line_bound_certificates():
    certs = dict(line_bound_certificates(5, 11))
    assert certs["direct"] == 6
    certs = dict(line_bound_certificates(20, 23))
    assert certs["complement"] == 9  # floor((23 + 4) / 3), and h(<1,20>) = 9 exactly
    assert height(canonicalize((1, 20), 23)).height == 9
    for p in (5, 13, 31):
        assert dict(line_bound_certificates(p - 1, p))["complement"] == p


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**6))
def test_line_bounds_dominate_height(p, a):
    a = a % p or 1
    h = brute_height((1, a), p)
    for label, bound in line_bound_certificates(a, p):
        assert h <= bound, (p, a, label)


def test_line_height_table_read_only_and_consistent():
    hts, ams = line_height_table(13)
    assert not hts.flags.writeable and not ams.flags.writeable
    for a in range(1, 13):
        assert int(hts[a - 1]) == brute_height((1, a), 13)
        k = int(ams[a - 1])
        assert (k + (k * a) % 13) == int(hts[a - 1])


def test_spectrum_small_cases():
    sp = spectrum(5, 2)
    assert sp.values == (1, 2, 3, 5)
    assert sp.max_height == 5
    assert sp.count_per_value == {1: 2, 2: 1, 3: 2, 5: 1}
    assert sp.gaps == ((3, 5),)

    sp = spectrum(11, 2)
    assert sp.max_height == 11
    assert sp.gaps == ((6, 11),)
    assert sum(sp.count_per_value.values()) == 12  # (11^2 - 1) / 10 points

    sp = spectrum(3, 3)
    assert sp.max_height == 4
    assert sum(sp.count_per_value.values()) == 13


def test_spectrum_count_matches_point_count():
    for p, d in [(3, 2), (7, 2), (5, 3), (7, 3), (3, 4), (5, 4)]:
        sp = spectrum(p, d)
        assert sum(sp.count_per_value.values()) == (p**d - 1) // (p - 1)
        assert 1 in sp.values
        assert sp.max_height == max(sp.values)


def test_spectrum_d3_matches_pointwise_heights():
    p, d = 7, 3
    counts: dict[int, int] = {}
    for lead in range(d):
        for rest in itertools.product(range(p), repeat=d - 1 - lead):
            coords = (0,) * lead + (1,) + rest
            h = brute_height(coords, p)
            counts[h] = counts.get(h, 0) + 1
    assert spectrum(p, d).count_per_value == counts


@pytest.mark.parametrize("p,j", [(3, 3), (3, 6), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4), (13, 3)])
def test_orbits_one_representative_per_orbit(p, j):
    tails, sizes = heights._orbits(p, j)
    assert int(sizes.sum()) == (p - 1) ** (j - 1)
    orbits = {brute_orbit((1, *t), p) for t in itertools.product(range(1, p), repeat=j - 1)}
    got = [brute_orbit((1, *t), p) for t in tails.tolist()]
    assert set(got) == orbits and len(got) == len(orbits)
    assert [len(o) for o in got] == sizes.tolist()


@pytest.mark.parametrize("p", [31, 199])
def test_orbit_sizes_sum_to_full_support_points(p):
    for j in (3, 4) if p == 31 else (3,):
        assert int(heights._orbits(p, j)[1].sum()) == (p - 1) ** (j - 1)


@pytest.mark.parametrize("p", [p for p in primes_up_to(13) if p > 2])
def test_orbits_agree_with_connection_set_classes(p):
    # both callers of scalar_least_rows: a strictly increasing orbit
    # representative (1, *t) is a connection-set class, and every class is one
    for j in (3, 4):
        rows = [(1, *t) for t in heights._orbits(p, j)[0].tolist()]
        increasing = [X for X in rows if all(a < b for a, b in zip(X, X[1:]))]
        assert increasing == list(canonical_connection_sets(p, j))


@pytest.mark.parametrize("block_rows", [5, 1])
def test_block_size_does_not_change_results(monkeypatch, block_rows):
    set_cases = [
        (p, d) for p in primes_up_to(19) for d in sorted({1, 2, 3, p - 2, p - 1}) if d >= 1
    ]
    spectrum_cases = [(13, 3), (7, 4), (5, 5)]
    classes = {case: list(canonical_connection_sets(*case)) for case in set_cases}
    tallies = {case: spectrum(*case).count_per_value for case in spectrum_cases}
    monkeypatch.setattr(modular, "_BLOCK_ROWS", block_rows)
    for case in set_cases:
        assert list(canonical_connection_sets(*case)) == classes[case], case
    for case in spectrum_cases:
        assert spectrum(*case).count_per_value == tallies[case], case


def test_spectrum_matches_brute_tally():
    for p in (3, 5, 7, 11, 13):
        for d in range(2, 7):
            if (p**d - 1) // (p - 1) <= 40_000:
                assert spectrum(p, d).count_per_value == brute_spectrum(p, d), (p, d)


@pytest.mark.parametrize("p,d", [(199, 3), (31, 4)])
def test_benchmark_spectra_match_brute_tally(p, d):
    assert spectrum(p, d).count_per_value == brute_spectrum(p, d)


def test_spectrum_large_d_counts_every_point():
    # 36 sorted tails stand for the 2^35 full-support points of P^35(F_3)
    sp = spectrum(3, 36, budget=10**18)
    assert sum(sp.count_per_value.values()) == (3**36 - 1) // 2
    assert sp.bounds_check().ok
    with pytest.raises(ValueError, match="overflow"):
        spectrum(3, 41, budget=10**30)


def test_spectrum_budget(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the budget check")

    for name in ("_orbits", "heights_of", "line_height_table"):
        monkeypatch.setattr(heights, name, no_work)
    with pytest.raises(BudgetExceededError) as info:
        spectrum(5, 3, budget=10)
    assert info.value.required == 31
    with pytest.raises(ValueError):
        spectrum(7, 1)


def unmetered_or_refused(tails, p, ties, budget):
    """heights_of under budget: its arrays when they match the unmetered call, else the refusal."""
    want = heights.heights_of(tails, p, ties=ties)
    try:
        got = heights.heights_of(tails, p, ties=ties, budget=budget)
    except BudgetExceededError as exc:
        assert exc.budget == budget and exc.required > budget
        return exc
    assert [x.tolist() for x in got] == [x.tolist() for x in want]
    return got


def test_meter_edges():
    # U = 102 at k = 1, so the first block reads 2 tails * (p - 1) = 200 cells
    tails = np.array([[50, 51]], dtype=np.int64)
    assert heights.heights_of(tails, 101, budget=200)[0].tolist() == [102]
    with pytest.raises(BudgetExceededError) as info:
        heights.heights_of(tails, 101, budget=199)
    assert (info.value.required, info.value.budget) == (200, 199)
    # the scan reads below U + 1 = 7 only: 2 tails * 4 multipliers
    assert heights.heights_of(np.array([[2, 3]], dtype=np.int64), 101, budget=8)[0].tolist() == [6]
    # a line point walks the sail and costs no cells; h(<1, a>) = 1 + a for a^2 < p
    for t, h in (((), 1), ((0,), 1), ((5,), 6), ((0, 7, 0), 8)):
        got = heights.heights_of(np.array([t], dtype=np.int64).reshape(1, -1), 2**31 - 1, budget=0)
        assert got[0].tolist() == [h], t
    # a block charges every live row its width times all columns, zeros included:
    # U = 102 and 4 need 100 and 2 multipliers, so one block of 100 costs 3 * 100
    rows = np.array([[50, 51, 0], [1, 2, 0]], dtype=np.int64)
    with pytest.raises(BudgetExceededError) as info:
        heights.heights_of(rows, 101, budget=299)
    assert (info.value.required, info.value.budget) == (300, 299)


def test_meter_charges_each_row_alone():
    # every orbit row of P^3(F_29) has 3 tails, so a full scan is 3 * 28 cells a row;
    # the batch reads 3 * 28 cells for each of its rows, far past that in total
    tails = heights._orbits(29, 4)[0]
    assert len(tails) > 100
    assert not isinstance(unmetered_or_refused(tails, 29, False, 84), BudgetExceededError)
    assert not isinstance(unmetered_or_refused(tails, 29, True, 84), BudgetExceededError)
    with pytest.raises(BudgetExceededError) as info:
        heights.heights_of(tails, 29, budget=83)
    assert info.value.required == 84


@given(
    st.sampled_from([p for p in ODD_PRIMES if p <= 43]),
    st.lists(st.lists(st.integers(0, 42), min_size=4, max_size=4), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 4 * 43),
)
def test_scan_count_bounds_the_scan(p, rows, ties, budget):
    # the meter either returns exactly the unmetered result or refuses with
    # required > budget; at p <= 43 every row is scanned, and a full scan of
    # n * (p - 1) cells always suffices, so no refusal asks for more
    tails = np.array(rows, dtype=np.int64) % p
    n = tails.shape[1]
    got = unmetered_or_refused(tails, p, ties, budget)
    if isinstance(got, BudgetExceededError):
        assert budget < got.required <= n * (p - 1)
    assert not isinstance(unmetered_or_refused(tails, p, ties, n * (p - 1)), BudgetExceededError)


def test_seeded_points_near_2_31_fit_the_default_budget():
    # the lattice settles a d = 3 point at p = 2^31 - 1 in a few thousand cells,
    # which the scan's static price (about 4.3 * 10^9) used to refuse
    rng = random.Random(27)
    p = 2**31 - 1
    tails = np.array([[rng.randrange(1, p) for _ in range(2)] for _ in range(50)], dtype=np.int64)
    for ties in (False, True):
        got = heights.heights_of(tails, p, ties=ties, budget=heights.DEFAULT_POINT_BUDGET)
        want = heights.heights_of(tails, p, ties=ties)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]


def test_meter_allocates_nothing_past_the_budget(monkeypatch):
    # each lattice round is charged before its triangle is listed, each scan block
    # before its sums, so the refused allocation never happens
    cells, rounds = [], []
    residue_sums, triangle = heights._residue_sums, heights._triangle_multipliers

    def sums_spy(rows, ks, q):
        cells.append(rows.shape[1] * len(ks))
        return residue_sums(rows, ks, q)

    def round_spy(*args):
        rounds.append("asked")  # stays if the round is refused
        got = triangle(*args)
        rounds[-1] = None if got is None else len(got)
        return got

    monkeypatch.setattr(heights, "_residue_sums", sums_spy)
    monkeypatch.setattr(heights, "_triangle_multipliers", round_spy)
    p = 2**31 - 1
    point = canonicalize((1, 1234567891, 987654321), p)
    # its first round lists 3,601 points, 2 cells each
    with pytest.raises(BudgetExceededError) as info:
        height(point, budget=1000)
    assert cells == [] and rounds == ["asked"] and info.value.required > 1000
    rounds.clear()
    # the same round, listed once the budget holds it, settles the point
    assert height(point, budget=info.value.required).height == 605169
    assert rounds == [info.value.required // 2]
    # a zero-sum point (h = p) lists rounds until a triangle passes the block
    # cells, then scans blocks (2 * (p - 1) cells in all) until the next would pass
    cells.clear()
    rounds.clear()
    p = 1000003
    with pytest.raises(BudgetExceededError) as info:
        height(canonicalize((1, 2, p - 3), p), budget=10**6)
    assert sum(cells) <= 10**6 < info.value.required
    *listed, last = rounds
    assert listed and None not in listed and last is None
    assert 2 * sum(listed) < sum(cells)


def test_spectrum_bounds_check():
    rep = spectrum(7, 2).bounds_check()
    assert (rep.max_height, rep.lower, rep.upper, rep.ok) == (7, 7, 7, True)
    rep = spectrum(5, 4).bounds_check()
    assert (rep.max_height, rep.ok) == (10, True)
    rep = spectrum(7, 3).bounds_check()
    assert (rep.lower, rep.upper) == (8, 10)
    assert rep.max_height == 8 and rep.ok


def test_gap_scan_windows():
    assert gap_scan(29, 1, Fraction(1, 2)).empty
    assert gap_scan(11, 1, Fraction(1, 2)).empty
    rep = gap_scan(11, 1, 0)
    assert not rep.empty and rep.inside == (6,)
    rep = gap_scan(13, 2, 0)
    assert not rep.empty and rep.inside == (5,)
    assert gap_scan(13, 2, "1/2").inside == (5,)
    assert gap_scan(13, 2, 1).empty
    with pytest.raises(ValueError):
        gap_scan(11, 0)
    with pytest.raises(ValueError):
        gap_scan(11, 1, -1)
    with pytest.raises(BudgetExceededError) as info:
        gap_scan(11, budget=11)
    assert info.value.required == 12


def test_check_budget_edges():
    heights.check_budget(10, 10)
    heights.check_budget(10**30, None)
    with pytest.raises(BudgetExceededError) as info:
        heights.check_budget(11, 10)
    assert (info.value.required, info.value.budget) == (11, 10)
    assert str(info.value) == "enumeration needs 11 evaluations, budget is 10"


def test_gap_scan_matches_brute_line_heights():
    # the heights of P^1: 1 at <0, 1>, and by definition min_k (k + k*a mod p) at <1, a>
    for p in (q for q in primes_up_to(101) if q > 2):
        values = {1} | {min(k + k * a % p for k in range(1, p)) for a in range(1, p)}
        for r in (1, 2, 3):
            for c in (0, Fraction(1, 2), 1):
                lo, hi = Fraction(p, r + 1) + c, Fraction(p, r) - c
                want = tuple(sorted(v for v in values if lo < v < hi))
                assert gap_scan(p, r, c).inside == want, (p, r, c)


def test_gap_scan_exact_rational_window():
    rep = gap_scan(11, 1, Fraction(1, 2))
    assert rep.lower == Fraction(6) and rep.upper == Fraction(21, 2)
    # 6 is achieved but sits exactly on the (closed) lower endpoint
    assert 6 in spectrum(11, 2).values


def test_gap_scan_matches_rational_comparisons():
    # the integer window floor(lo) < v < ceil(hi) against the defining Fraction test
    for p in (q for q in primes_up_to(997) if q > 2):
        values = set(line_height_table(p)[0].tolist()) | {1}
        for r in (1, 2, 3):
            for c in (0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), Fraction(7, 3)):
                lo, hi = Fraction(p, r + 1) + c, Fraction(p, r) - c
                want = tuple(sorted(v for v in values if lo < v < hi))
                assert gap_scan(p, r, c).inside == want, (p, r, c)


def test_is_k_sum_free():
    # The 3-sum-free test of a connection set is cayley.is_triangle_free: it
    # returns the first zero-sum multiset of 2 or 3 elements, or None.
    assert is_triangle_free(CayleyGraph(7, (1, 2))) is None
    assert is_triangle_free(CayleyGraph(7, (1, 6))) == (1, 6)
    assert is_triangle_free(CayleyGraph(7, (1, 3))) == (1, 3, 3)
    assert is_triangle_free(CayleyGraph(11, (1, 5))) == (1, 5, 5)
    with pytest.raises(ValueError):
        CayleyGraph(7, (0, 1))
    with pytest.raises(ValueError):
        CayleyGraph(7, (1, 8))
