"""Tests for Cayley digraphs, feedback arc sets, and the CSS audit."""

import heapq
import itertools
import json
import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

from projheight.cayley import (
    DEFAULT_EXACT_CAP,
    DP_CEILING,
    BetaReport,
    CapExceededError,
    CayleyGraph,
    CyclePacking,
    beta_exact,
    beta_upper,
    check_girth_budget,
    css_check,
    cycle_packing,
    deletion_set,
    edges,
    gamma,
    is_acyclic,
    is_triangle_free,
    packing_settles,
    scan_css,
    shortest_cycle,
)
from projheight.cli import EXIT_OK, main
from projheight.heights import BudgetExceededError, height
from projheight.modular import (
    canonical_connection_sets,
    canonicalize,
    mod_inverse,
    primes_up_to,
)

ROOT = Path(__file__).resolve().parent.parent

SMALL = [
    (p, A)
    for p in (3, 5, 7, 11, 13)
    for d in (1, 2, 3)
    if d < p
    for A in canonical_connection_sets(p, d)
]


def gamma_direct(G):
    """gamma by direct pair counting; the reference for the closed form."""
    p = G.p
    adjacent = {(min(u, v), max(u, v)) for u, v in edges(G) if u != v}
    return p * (p - 1) // 2 - len(adjacent)


def perm_beta(edge_list):
    """Minimum backward-edge count over all vertex orderings, by brute force."""
    es = set(edge_list)
    verts = sorted({w for e in es for w in e})
    best = len(es)
    for perm in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(perm)}
        back = sum(1 for u, v in es if pos[v] <= pos[u])
        best = min(best, back)
    return best


def brute_upper(A, p):
    """(min over k of sum_a (k^-1 * a mod p), the smallest k attaining it), over every k."""
    sums = [sum((pow(k, -1, p) * a) % p for a in A) for k in range(1, p)]
    best = min(sums)
    return best, sums.index(best) + 1


def bfs_girth(A, p):
    """Girth by a breadth-first search from 0 over all p vertices, then closing a
    cycle through each -a; the reference for the early-exit search."""
    dist = [-1] * p
    dist[0] = 0
    queue = [0]
    for x in queue:
        for a in A:
            y = (x + a) % p
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return 1 + min(dist[(p - a) % p] for a in A)


def fraction_cycle_packing(G, target):
    """cycle_packing by column generation with a simplex in Fractions; the reference.

    The same method as the integer solver, with every tableau entry a
    Fraction: rows are divided by the pivot, and the duals are -cost[:d].
    """
    p, d = G.p, G.d
    rows = [[Fraction(int(r == k)) for k in range(d)] + [Fraction(1)] for r in range(d)]
    cost = [Fraction(0)] * d
    basis = list(range(d))
    vectors = []

    def add(c):
        for row in rows:
            row.insert(-1, sum((ci * row[k] for k, ci in enumerate(c)), Fraction(0)))
        cost.append(1 + sum(ci * cost[k] for k, ci in enumerate(c)))
        vectors.append(c)

    def value():
        return sum((rows[r][-1] for r in range(d) if basis[r] >= d), Fraction(0))

    def solve():
        while p * value() <= target - 1:
            j = next((j for j, rc in enumerate(cost) if rc > 0), None)
            if j is None:
                return
            _, _, r = min(
                (row[-1] / row[j], basis[r], r) for r, row in enumerate(rows) if row[j] > 0
            )
            pivot = rows[r][j]
            rows[r] = [v / pivot for v in rows[r]]
            for i, row in enumerate(rows):
                if i != r and row[j]:
                    rows[i] = [u - row[j] * v for u, v in zip(row, rows[r])]
            cost[:] = [u - cost[j] * v for u, v in zip(cost, rows[r])]
            basis[r] = j

    for i in range(d):
        add(tuple(p if k == i else 0 for k in range(d)))
    while True:
        solve()
        if p * value() > target - 1:
            held = [(vectors[b - d], row[-1]) for b, row in zip(basis, rows) if b >= d and row[-1]]
            return CyclePacking(tuple(c for c, _ in held), tuple(y for _, y in held))
        weight, c = fraction_cheapest_closed_walk(G, [-x for x in cost[:d]])
        if weight >= 1:
            return None
        add(c)


def fraction_cheapest_closed_walk(G, x):
    """The least Fraction weight of a closed walk through 0, by Dijkstra, with its step counts."""
    p, A = G.p, G.A
    dist = {0: Fraction(0)}
    step = {}
    heap = [(Fraction(0), 0)]
    best = None
    while heap:
        w, v = heapq.heappop(heap)
        if best is not None and w >= best[0]:
            break
        if w > dist[v]:
            continue
        for i, a in enumerate(A):
            u, nw = (v + a) % p, w + x[i]
            if u == 0:
                if best is None or nw < best[0]:
                    best = (nw, v, i)
            elif u not in dist or nw < dist[u]:
                dist[u], step[u] = nw, (v, i)
                heapq.heappush(heap, (nw, u))
    weight, v, i = best
    counts = [0] * G.d
    counts[i] += 1
    while v:
        v, i = step[v]
        counts[i] += 1
    return weight, tuple(counts)


def frozen_classes():
    """(p, A, beta) of every class in bench/frozen_beta.json."""
    frozen = json.loads((ROOT / "bench" / "frozen_beta.json").read_text(encoding="utf-8"))
    return [
        (int(p), tuple(int(a) for a in key.split(":")), beta)
        for by_p in frozen.values()
        for p, by_set in by_p.items()
        for key, beta in by_set.items()
    ]


def sumset_girth(A, p):
    """Smallest L >= 1 with some length-L multiset from A summing to 0 mod p."""
    reach = {0}
    for length in range(1, p + 1):
        reach = {(s + a) % p for s in reach for a in A}
        if 0 in reach:
            return length
    raise AssertionError("a Cayley digraph always has a cycle")


class TestCayleyGraph:
    def test_normalizes_and_sorts(self):
        G = CayleyGraph(7, [9, 1])
        assert G.A == (1, 2)
        assert G.p == 7 and G.d == 2

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            CayleyGraph(7, [])
        with pytest.raises(ValueError):
            CayleyGraph(7, [7])
        with pytest.raises(ValueError):
            CayleyGraph(7, [1, 8])
        with pytest.raises(ValueError):
            CayleyGraph(6, [1])

    def test_frozen(self):
        G = CayleyGraph(5, [1, 2])
        with pytest.raises(FrozenInstanceError):
            G.A = (1,)


class TestEdges:
    def test_directed_cycle(self):
        G = CayleyGraph(3, [1])
        assert edges(G) == [(0, 1), (1, 2), (2, 0)]

    @pytest.mark.parametrize("p,A", [(5, (1, 2)), (7, (1, 3)), (11, (2, 5, 6))])
    def test_out_degree_is_d(self, p, A):
        G = CayleyGraph(p, A)
        es = edges(G)
        assert len(es) == p * len(A)
        for x in range(p):
            assert sum(1 for u, _ in es if u == x) == len(A)


class TestTriangleFree:
    def test_examples(self):
        assert is_triangle_free(CayleyGraph(7, [1, 2])) is None
        assert is_triangle_free(CayleyGraph(7, [1, 6])) == (1, 6)
        assert is_triangle_free(CayleyGraph(5, [1, 2])) == (1, 2, 2)

    def test_agrees_with_girth(self):
        # dual route: arithmetic witness vs breadth-first search
        for p, A in SMALL:
            G = CayleyGraph(p, A)
            witness = is_triangle_free(G)
            assert (witness is None) == (shortest_cycle(G) > 3), (p, A)
            if witness is not None:
                assert 2 <= len(witness) <= 3
                assert all(a in G.A for a in witness)
                assert sum(witness) % p == 0

    def test_matches_exhaustive_definition(self):
        # the witness is the first zero-sum multiset of size 1..3 in size-then-lex order
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice((5, 7, 11, 13))
            d = rng.randint(1, min(4, p - 1))
            A = tuple(sorted(rng.sample(range(1, p), d)))
            witnesses = [
                combo
                for size in range(1, 4)
                for combo in itertools.combinations_with_replacement(A, size)
                if sum(combo) % p == 0
            ]
            assert is_triangle_free(CayleyGraph(p, A)) == (witnesses[0] if witnesses else None)


class TestGamma:
    @pytest.mark.parametrize(
        "p,A,expected",
        [
            (7, (1, 2), 7),
            (5, (1, 2), 0),
            (11, (1, 2, 3), 22),
            (11, (1, 7), 33),
            (7, (1, 6), 14),
        ],
    )
    def test_examples(self, p, A, expected):
        assert gamma(CayleyGraph(p, A)) == expected

    def test_formula_matches_direct_count(self):
        for p, A in SMALL:
            G = CayleyGraph(p, A)
            assert gamma(G) == gamma_direct(G), (p, A)

    def test_digon_sets_need_no_edge_list(self, monkeypatch):
        def no_edges(G):
            raise AssertionError("gamma built the edge list")

        monkeypatch.setattr("projheight.cayley.edges", no_edges)
        # A u -A = {1, p-1}, so every vertex has two neighbours
        for p in (7, 1000003):
            assert gamma(CayleyGraph(p, [1, p - 1])) == p * (p - 3) // 2


class TestIsAcyclic:
    def test_examples(self):
        assert is_acyclic([])
        assert is_acyclic([(0, 1), (1, 2), (0, 2)])
        assert not is_acyclic([(0, 1), (1, 2), (2, 0)])
        assert not is_acyclic([(0, 0)])
        assert is_acyclic([("a", "b"), ("c", "b")])

    def test_cayley_graph_never_acyclic(self):
        for p, A in SMALL[:20]:
            assert not is_acyclic(edges(CayleyGraph(p, A)))


class TestDeletionSet:
    def test_example(self):
        ds = deletion_set(CayleyGraph(7, [1, 2]), 1)
        assert ds.edges == frozenset({(5, 0), (6, 0), (6, 1)})
        assert ds.size == 3

    def test_k_out_of_range(self):
        G = CayleyGraph(7, [1, 2])
        with pytest.raises(ValueError):
            deletion_set(G, 0)
        with pytest.raises(ValueError):
            deletion_set(G, 7)

    def test_size_closed_form_and_acyclic(self):
        for p, A in [(7, (1, 2)), (11, (1, 7)), (13, (2, 5, 6)), (5, (1, 2, 3, 4))]:
            G = CayleyGraph(p, A)
            all_edges = set(edges(G))
            for k in range(1, p):
                ds = deletion_set(G, k)
                u = mod_inverse(k, p)
                assert ds.size == sum((u * a) % p for a in A)
                assert ds.edges <= all_edges
                assert is_acyclic(all_edges - ds.edges), (p, A, k)

    def test_height_argmin_gives_minimum_deletion_set(self):
        for p, A in [(11, (1, 7)), (13, (3, 4)), (7, (1, 2, 4))]:
            G = CayleyGraph(p, A)
            rec = height(canonicalize(A, p))
            sizes = [deletion_set(G, k).size for k in range(1, p)]
            assert min(sizes) == rec.height
            # argmin_k minimizes for the canonical representative c*A; undo c
            # before inverting to land on the matching ordering
            c = mod_inverse(A[0], p)
            k_orig = rec.argmin_k * c % p
            assert deletion_set(G, mod_inverse(k_orig, p)).size == rec.height


class TestBetaUpper:
    def test_example(self):
        assert beta_upper(CayleyGraph(11, [1, 7])) == (5, 6)

    def test_equals_height(self):
        for p, A in SMALL:
            G = CayleyGraph(p, A)
            value, k = beta_upper(G)
            assert value == height(canonicalize(A, p)).height, (p, A)
            assert deletion_set(G, k).size == value

    def test_witness_is_smallest(self):
        G = CayleyGraph(11, [1, 7])
        value, k = beta_upper(G)
        for k2 in range(1, k):
            assert deletion_set(G, k2).size > value

    def test_matches_brute_on_every_small_set(self):
        for p in (3, 5, 7, 11, 13):
            for d in range(1, min(4, p - 1) + 1):
                for A in itertools.combinations(range(1, p), d):
                    assert beta_upper(CayleyGraph(p, A)) == brute_upper(A, p), (p, A)

    @pytest.mark.parametrize("p", [5, 13, 101, 1009])
    def test_tie_heavy_sets(self, p):
        # {a, p-a} costs p for every ordering; so does {1, p-1}; and d = 1 ties nowhere
        for A in [(1, p - 1), (2, p - 2), (3, p - 3), (p - 1,), (3,), (1, 2, p - 1)]:
            assert beta_upper(CayleyGraph(p, A)) == brute_upper(A, p), (p, A)

    def test_samples_at_1009(self):
        rng = random.Random(1009)
        for _ in range(40):
            A = tuple(sorted(rng.sample(range(1, 1009), rng.randint(2, 5))))
            assert beta_upper(CayleyGraph(1009, A)) == brute_upper(A, 1009), A

    def test_digon_sets_match_brute(self):
        checked = 0
        for p in (3, 5, 7, 11, 13, 17):
            for d in range(2, min(5, p - 1) + 1):
                for A in itertools.combinations(range(1, p), d):
                    if any(p - a in A for a in A):
                        assert beta_upper(CayleyGraph(p, A)) == brute_upper(A, p), (p, A)
                        checked += 1
        assert checked == 4756

    def test_digon_pairs_need_no_kernel(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the height kernel ran on a set of digons")

        monkeypatch.setattr("projheight.cayley.heights_of", no_kernel)
        for p in (5, 1000003):
            assert beta_upper(CayleyGraph(p, [1, p - 1])) == (p, 1)
            assert beta_upper(CayleyGraph(p, [1, 2, p - 2, p - 1])) == (2 * p, 1)

    def test_zero_sum_sets_within_the_scan_budget(self):
        # a zero-sum subset keeps h >= p; here the lattice rounds and a scan of
        # 2 * (p - 1) cells fit the default budget
        assert beta_upper(CayleyGraph(1000003, (1, 2, 1000000))) == (1000003, 1)
        assert beta_upper(CayleyGraph(101, (1, 2, 7, 98))) == (102, 7)

    def test_line_points_have_one_minimizer(self):
        # k + (k*b mod p) ties only at b = p-1, a digon, which beta_upper drops
        for p in primes_up_to(200)[1:]:
            for b in range(p - 1):
                sums = [k + k * b % p for k in range(1, p)]
                assert sums.count(min(sums)) == 1, (p, b)

    @pytest.mark.parametrize("A", [(1, 2, 1006), (3, 5, 1001), (1, 2, 3, 1003)])
    def test_zero_sum_witness_among_many_ties(self, A):
        # A sums to 0 mod 1009, so h >= p and hundreds of multipliers tie
        assert beta_upper(CayleyGraph(1009, A)) == brute_upper(A, 1009)

    def test_line_witness_needs_no_rescan(self, monkeypatch):
        def no_rescan(*args, **kwargs):
            raise AssertionError("a line point was scanned")

        # after digons are dropped every set below is a line point
        monkeypatch.setattr("projheight.heights._residue_sums", no_rescan)
        assert beta_upper(CayleyGraph(2**31 - 1, (1, 2**30 - 1))) == (2**30, 1)
        for p in (13, 101):
            for A in [(3,), (1, 2), (2, 7), (1, 2, p - 2), (3, 4, p - 3)]:
                assert beta_upper(CayleyGraph(p, A)) == brute_upper(A, p), (p, A)


class TestBetaExact:
    def test_base_cases(self):
        assert beta_exact([]) == 0
        assert beta_exact([(0, 1), (1, 2), (0, 2)]) == 0
        assert beta_exact([(i, (i + 1) % 5) for i in range(5)]) == 1
        assert beta_exact([(0, 0)]) == 1
        assert beta_exact([(0, 0), (1, 2)]) == 1

    @pytest.mark.parametrize(
        "p,A,expected",
        [
            (5, (1, 2), 3),
            (7, (1, 2), 3),
            (7, (1, 3), 4),
            (5, (1,), 1),
        ],
    )
    def test_cayley_values(self, p, A, expected):
        assert beta_exact(edges(CayleyGraph(p, A))) == expected

    def test_matches_permutation_oracle_on_random_digraphs(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 6)
            pairs = [(u, v) for u in range(n) for v in range(n)]
            es = rng.sample(pairs, rng.randint(0, len(pairs) // 2))
            assert beta_exact(es) == perm_beta(es), es

    def test_matches_permutation_oracle_on_cayley(self):
        for p, A in [(5, (1, 2)), (5, (1, 4)), (7, (1, 2))]:
            es = edges(CayleyGraph(p, A))
            assert beta_exact(es) == perm_beta(es)

    def test_at_most_beta_upper(self):
        for p, A in SMALL:
            if p > 13:
                continue
            G = CayleyGraph(p, A)
            assert beta_exact(edges(G)) <= beta_upper(G)[0], (p, A)

    def test_scalar_isomorphism_invariance(self):
        G = CayleyGraph(7, [1, 2])
        value = beta_exact(edges(G))
        for c in range(1, 7):
            H = CayleyGraph(7, [(c * a) % 7 for a in G.A])
            assert beta_exact(edges(H)) == value

    def test_arbitrary_labels(self):
        assert beta_exact([("x", "y"), ("y", "z"), ("z", "x")]) == 1

    def test_labels_need_not_be_comparable(self):
        assert beta_exact([(0, "a"), ("a", 0)]) == 1
        # a 2-cycle and a triangle share the arc 0 -> "a"; the loop adds one
        es = [(0, "a"), ("a", 0), ("a", (1, 2)), ((1, 2), 0), (None, None), (None, 0)]
        assert beta_exact(es) == 2

    def test_vertex_zero_first(self):
        # some optimal order starts at 0: its d in-edges go backward, so
        # beta(G) = d + beta(G - 0), the reduction css_check's DP relies on
        cases = [(p, A) for p, A in SMALL if len(A) <= 3]
        cases += [(7, (1, 6)), (11, (1, 3, 10)), (13, (1, 5, 8, 12))]
        cases += [(17, (1, 4, 10)), (17, (1, 8, 10))]
        for p, A in cases:
            G = CayleyGraph(p, A)
            rest = [(u, v) for u, v in edges(G) if u and v]
            assert G.d + beta_exact(rest) == beta_exact(edges(G)), (p, A)

    def test_cap(self):
        path = [(i, i + 1) for i in range(30)]
        with pytest.raises(CapExceededError) as info:
            beta_exact(path, cap=24)
        assert info.value.size == 31 and info.value.cap == 24
        # caps beyond the implementation ceiling do not buy extra room
        with pytest.raises(CapExceededError):
            beta_exact(path, cap=100)
        assert beta_exact(path[:10], cap=11) == 0


# classes with p <= 19 and d <= 3, or p <= 13 and d = 4
PACKING_CLASSES = [
    (p, A)
    for p in (3, 5, 7, 11, 13, 17, 19)
    for d in (1, 2, 3, 4)
    if d < p and (d < 4 or p <= 13)
    for A in canonical_connection_sets(p, d)
]

# where the averaged LP optimum stays at or below beta_upper - 1
PACKING_GAPS = {
    (11, (1, 2, 5, 7)),
    (13, (1, 3, 4, 11)),
    (13, (1, 4, 5, 11)),
    (17, (1, 4, 10)),
    (17, (1, 8, 10)),
    (19, (1, 6, 8)),
    (19, (1, 6, 14)),
    (19, (1, 8, 17)),
}


class TestCyclePacking:
    def test_settled_classes_agree_with_dp(self):
        gaps = set()
        for p, A in PACKING_CLASSES:
            G = CayleyGraph(p, A)
            upper = beta_upper(G)[0]
            packing = cycle_packing(G, upper)
            if packing is None:
                gaps.add((p, A))
                continue
            assert packing_settles(G, packing, upper), (p, A)
            assert beta_exact(edges(G)) == upper, (p, A)
        assert gaps == PACKING_GAPS

    def test_gaps_fall_back_to_dp(self):
        # beta = h with a loose LP, and beta < h
        assert css_check(CayleyGraph(17, (1, 4, 10)), exact=True).beta_exact == 13
        assert css_check(CayleyGraph(17, (1, 8, 10)), exact=True).beta_exact == 13

    def test_settled_classes_agree_with_frozen_values(self):
        settled = 0
        for p, A, beta in frozen_classes():
            G = CayleyGraph(p, A)
            upper = beta_upper(G)[0]
            assert beta <= upper, (p, A)
            packing = cycle_packing(G, upper)
            if packing is not None:
                assert packing_settles(G, packing, upper), (p, A)
                assert beta == upper, (p, A)
                settled += 1
        assert settled == 157

    def test_integer_simplex_matches_fraction_reference(self):
        # Bland's rule and Dijkstra's order are invariant under scaling by D > 0
        cases = PACKING_CLASSES + [(p, A) for p, A, _ in frozen_classes()]
        for p, A in cases:
            G = CayleyGraph(p, A)
            upper = beta_upper(G)[0]
            assert cycle_packing(G, upper) == fraction_cycle_packing(G, upper), (p, A)

    @pytest.mark.parametrize(
        "p,A", [(23, (3, 5)), (13, (1, 5)), (17, (1, 2, 8)), (11, (1, 3, 4, 5))]
    )
    def test_checker_rejects_mutations(self, p, A):
        G = CayleyGraph(p, A)
        upper = beta_upper(G)[0]
        packing = cycle_packing(G, upper)
        assert packing_settles(G, packing, upper)
        vectors, weights = packing.vectors, packing.weights
        # one vector one step short of closing: its loads only fall
        c = vectors[0]
        i = next(i for i, ci in enumerate(c) if ci)
        short = tuple(ci - (k == i) for k, ci in enumerate(c))
        assert not packing_settles(G, replace(packing, vectors=(short,) + vectors[1:]), upper)
        # one weight raised until an orbit carries more than 1
        load = sum(y * v[i] for v, y in zip(vectors, weights))
        raised = weights[0] + (1 - load) / c[i] + Fraction(1, 10**9)
        assert not packing_settles(G, replace(packing, weights=(raised,) + weights[1:]), upper)
        # a zero weight, or a zero vector
        unweighted = (Fraction(0),) + weights[1:]
        assert not packing_settles(G, replace(packing, weights=unweighted), upper)
        zero = (0,) * G.d
        assert not packing_settles(G, replace(packing, vectors=(zero,) + vectors[1:]), upper)
        # the packing never proves more than beta_upper
        assert not packing_settles(G, packing, upper + 1)

    def test_unchecked_packing_is_not_used(self, monkeypatch):
        # (17, {1, 8, 10}) has beta 13 < beta_upper 14; a packing claiming 14
        # with a walk that does not close must send css_check to the DP
        G = CayleyGraph(17, (1, 8, 10))
        bogus = CyclePacking(vectors=((1, 0, 0),), weights=(Fraction(1),))
        monkeypatch.setattr("projheight.cayley.cycle_packing", lambda G, target: bogus)
        assert not packing_settles(G, bogus, 14)
        assert css_check(G, exact=True).beta_exact == 13

    def test_cayley_command_needs_no_dp(self, capsys, monkeypatch):
        def no_dp(*args, **kwargs):
            raise AssertionError("the subset DP ran on a settled graph")

        monkeypatch.setattr("projheight.cayley.beta_exact", no_dp)
        for fmt in ("text", "csv", "json"):
            code = main(["cayley", "-p", "23", "-A", "3,5", "--exact", "--format", fmt])
            captured = capsys.readouterr()
            assert code == EXIT_OK and captured.err == ""
            golden = ROOT / "tests" / "golden" / f"cayley_p23.{fmt}"
            assert captured.out == golden.read_text(encoding="utf-8")


class TestShortestCycle:
    @pytest.mark.parametrize(
        "p,A,expected",
        [
            (7, (1,), 7),
            (7, (1, 6), 2),
            (5, (1, 2), 3),
            (11, (1, 7), 4),
            (7, (1, 2), 4),
            (1009, (1, 2, 3), 337),
            (1009, (1, 5, 1004), 2),
            (101, (3, 7, 50, 51), 2),
            (13, (1, 5, 8, 12), 2),
            (1009, (5,), 1009),
        ],
    )
    def test_examples(self, p, A, expected):
        assert shortest_cycle(CayleyGraph(p, A)) == bfs_girth(A, p) == expected

    def test_agrees_with_sumset_oracle(self):
        for p, A in SMALL:
            assert shortest_cycle(CayleyGraph(p, A)) == sumset_girth(A, p), (p, A)

    def test_pairs_match_bfs(self):
        for p in primes_up_to(61):
            for A in itertools.combinations(range(1, p), 2):
                assert shortest_cycle(CayleyGraph(p, A)) == bfs_girth(A, p), (p, A)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_classes_match_bfs(self, d):
        for p in primes_up_to(31):
            for A in canonical_connection_sets(p, d):
                assert shortest_cycle(CayleyGraph(p, A)) == bfs_girth(A, p), (p, A)

    def test_cli_girth_at_large_p(self, capsys):
        code = main(["cayley", "-p", "1000003", "-A", "1,5000,77777", "--girth", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"][0]["shortest_cycle"] == 79
        assert bfs_girth((1, 5000, 77777), 1000003) == 79

    @pytest.mark.parametrize("p,A", [(2000003, (1, 2, 3))])
    def test_budget_checked_before_the_search(self, p, A, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the girth search ran before the budget check")

        monkeypatch.setattr("projheight.cayley._bfs_girth", no_search)
        with pytest.raises(BudgetExceededError) as info:
            shortest_cycle(CayleyGraph(p, A))
        assert info.value.required == p * len(A)

    @pytest.mark.parametrize("p,A", [(5000011, (1,)), (2147483647, (5,))])
    def test_one_step_set_needs_no_search(self, p, A, monkeypatch):
        # one step a first returns to 0 after p steps, so d = 1 is answered at
        # any p, past the girth budget, and check_girth_budget lets it through
        def no_search(*args, **kwargs):
            raise AssertionError("the girth search ran at d = 1")

        monkeypatch.setattr("projheight.cayley._bfs_girth", no_search)
        check_girth_budget(p, 1)
        assert shortest_cycle(CayleyGraph(p, A)) == p

    def test_one_step_sets_match_bfs(self):
        for p in primes_up_to(61):
            for a in range(1, p):
                assert shortest_cycle(CayleyGraph(p, (a,))) == bfs_girth((a,), p) == p, (p, a)

    def test_pairs_take_the_sail_past_the_budget(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the girth search ran at d = 2")

        monkeypatch.setattr("projheight.cayley._bfs_girth", no_search)
        p = 2147483647
        # c_1 + 5*c_2 = p with c_2 as large as it goes: 2 steps of 1, p // 5 of 5
        assert shortest_cycle(CayleyGraph(p, (1, 5))) == p // 5 + p % 5 == 429496731

    def test_girth_windows(self):
        # enough generators force short cycles
        for p, A in SMALL:
            d = len(A)
            g = shortest_cycle(CayleyGraph(p, A))
            if 2 * d > p:
                assert g <= 2
            if 3 * d > p:
                assert g <= 3
            if 4 * d > p:
                assert g <= 4


class TestCssCheck:
    def test_triangle_free_line(self):
        rep = css_check(CayleyGraph(7, [1, 2]), exact=True)
        assert isinstance(rep, BetaReport)
        assert rep.triangle_free
        assert rep.gamma == 7
        assert rep.beta_upper == 3 and rep.beta_exact == 3
        assert rep.css_margin == Fraction(1, 2)
        assert rep.violations == ()

    def test_without_exact(self):
        rep = css_check(CayleyGraph(11, [1, 7]))
        assert rep.triangle_free
        assert rep.beta_exact is None
        assert rep.beta_upper == 5 and rep.witness_k == 6
        assert rep.css_margin == Fraction(33, 2) - 5
        assert rep.violations == ()

    def test_tournament_not_asserted(self):
        # gamma = 0 here, so the inequality cannot hold; the report stays
        # informational because the graph is not triangle-free
        rep = css_check(CayleyGraph(5, [1, 2]), exact=True)
        assert not rep.triangle_free
        assert rep.gamma == 0 and rep.beta_exact == 3
        assert rep.css_margin == Fraction(-3)
        assert rep.violations == ()

    def test_margin_uses_best_bound(self):
        loose = css_check(CayleyGraph(11, [1, 7]))
        tight = css_check(CayleyGraph(11, [1, 7]), exact=True)
        assert tight.beta_exact is not None
        assert tight.css_margin >= loose.css_margin


class TestScanCss:
    def test_small_scan(self):
        rows = scan_css(7, 2)
        assert len(rows) == 6
        assert sum(r.triangle_free for r in rows) == 1
        assert all(r.violations == () for r in rows)
        assert [r.graph.p for r in rows] == sorted(r.graph.p for r in rows)

    def test_rows_consistent(self):
        rows = scan_css(11, 2, exact=True)
        assert len(rows) == 11
        for row in rows:
            assert row.violations == ()
            G = row.graph
            assert row.triangle_free == (row.shortest_cycle > 3)
            assert (row.beta_upper, row.witness_k) == beta_upper(G)
            assert row.gamma == gamma(G)
            assert row.beta_exact == beta_exact(edges(G))
            assert row.beta_exact <= row.beta_upper

    def test_batched_bounds_match_single_graph(self):
        # d = 1 leaves empty tails; d = p - 1 ties every multiplier
        for d in (1, 3, 4, 6, 12):
            for row in scan_css(13, d):
                assert (row.beta_upper, row.witness_k) == beta_upper(row.graph)
                assert (row.beta_upper, row.witness_k) == brute_upper(row.graph.A, row.graph.p)

    def test_rows_match_css_check(self):
        # each prime's batch against the batch of one; p = 17, d = 3 holds both DP gap classes
        cases = [(13, d, False) for d in (1, 3, 4, 6, 12)]
        cases += [(19, 2, True), (17, 3, True), (23, 4, False)]
        for p_max, d, exact in cases:
            for row in scan_css(p_max, d, exact=exact):
                G = row.graph
                assert row == replace(css_check(G, exact), shortest_cycle=shortest_cycle(G))

    def test_triangle_freeness_read_from_the_girth(self, monkeypatch):
        real = is_triangle_free
        girths = []

        def counting(G):
            girths.append(shortest_cycle(G))
            return real(G)

        monkeypatch.setattr("projheight.cayley.is_triangle_free", counting)
        for d in (1, 2, 3, 4):
            for row in scan_css(19, d):
                assert row.triangle_witness == real(row.graph), row.graph
        # only graphs with a 2- or 3-cycle are searched for a zero-sum multiset
        assert girths and max(girths) <= 3

    def test_empty_range(self):
        assert scan_css(2, 2) == ()

    def test_exact_cap_checked_before_any_work(self, monkeypatch):
        def no_dp(*args, **kwargs):
            raise AssertionError("beta_exact ran before the cap check")

        monkeypatch.setattr("projheight.cayley.beta_exact", no_dp)
        with pytest.raises(CapExceededError) as info:
            scan_css(29, 2, exact=True)
        assert info.value.size == 29 and info.value.cap == DEFAULT_EXACT_CAP
        with pytest.raises(CapExceededError) as info:
            scan_css(31, 2, exact=True, cap=100)
        assert info.value.size == 31 and info.value.cap == 30
        # primes with no d-subset have no graph to refuse
        assert scan_css(7, 7, exact=True, cap=5) == ()

    def test_gap_past_dp_ceiling_refused_before_any_dp(self, monkeypatch):
        def no_dp(*args, **kwargs):
            raise AssertionError("the subset DP ran before the p = 29 packings were settled")

        monkeypatch.setattr("projheight.cayley.beta_exact", no_dp)
        with pytest.raises(CapExceededError) as info:
            scan_css(29, 3, exact=True, cap=29)
        assert info.value.size == 29 and info.value.cap == DP_CEILING
        # every d = 2 class up to p = 29 settles by its packing
        assert len(scan_css(29, 2, exact=True, cap=29)) == 59

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as info:
            scan_css(23, 3, budget=10)
        assert info.value.required == sum(
            math.comb(p - 1, 3) for p in (3, 5, 7, 11, 13, 17, 19, 23)
        )
