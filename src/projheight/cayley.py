"""Cayley digraphs on Z/pZ and their minimum feedback arc sets.

A connection set A of d distinct nonzero residues defines the digraph with an
edge x -> x+a for every vertex x and every a in A. Multiplication orderings of
the vertices yield small feedback arc sets whose minimum size equals the
height of <a_1, ..., a_d>; a rotation-averaged cycle packing, or failing that
an exact subset DP, settles small instances, and scan_css audits the
inequality beta <= gamma/2 on triangle-free graphs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .heights import DEFAULT_POINT_BUDGET, check_budget, heights_of
from .modular import (
    PrimeModulus,
    as_modulus,
    canonical_connection_sets,
    connection_set_residues,
    mod_inverse,
    primes_up_to,
)

DEFAULT_EXACT_CAP = 24
# exact audits stop at 30 vertices; past DP_CEILING only a packing settles beta
EXACT_CEILING = 30
# the subset DP peaks at about 21 bytes per subset (the int32 table and layer
# order, plus one layer's temporaries): 1.4 GB at 2^26 subsets, 11 GB at 2^29
DP_CEILING = 26

Edge = tuple[Hashable, Hashable]


class CapExceededError(Exception):
    """An exact computation was asked for more vertices than its cap allows."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"graph has {size} vertices, exact cap is {cap}")
        self.size = size
        self.cap = cap


def _check_exact_cap(sizes: Iterable[int], cap: int) -> None:
    """Refuse the first graph of sizes vertices past min(cap, EXACT_CEILING)."""
    limit = min(cap, EXACT_CEILING)
    for size in sizes:
        if size > limit:
            raise CapExceededError(size, limit)


@dataclass(frozen=True)
class CayleyGraph:
    """Digraph on Z/pZ with an edge x -> x+a for every a in the connection set."""

    modulus: PrimeModulus
    A: tuple[int, ...]

    def __init__(self, p: int | PrimeModulus, A: Iterable[int]):
        object.__setattr__(self, "modulus", as_modulus(p))
        object.__setattr__(self, "A", connection_set_residues(A, self.modulus))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def d(self) -> int:
        return len(self.A)


def edges(G: CayleyGraph) -> list[tuple[int, int]]:
    """All d*p edges (x, (x+a) mod p), sorted."""
    p = G.p
    return sorted((x, (x + a) % p) for x in range(p) for a in G.A)


def is_triangle_free(G: CayleyGraph) -> tuple[int, ...] | None:
    """The first zero-sum multiset of 2 or 3 elements of A, or None if G is triangle-free.

    A directed cycle of length 2 or 3 is such a multiset of steps; multisets
    are tried in size-then-lexicographic order. A holds nonzero residues, so
    G has no loops.
    """
    p, A = G.p, G.A
    for size in (2, 3):
        for combo in itertools.combinations_with_replacement(A, size):
            if sum(combo) % p == 0:
                return combo
    return None


def gamma(G: CayleyGraph) -> int:
    """Number of unordered nonadjacent vertex pairs.

    x and y are adjacent iff y - x lies in A or -A, so each vertex has
    |A u -A| neighbours and gamma = p(p-1-|A u -A|)/2, digons included.
    """
    p = G.p
    return p * (p - 1 - len(set(G.A) | {p - a for a in G.A})) // 2


def is_acyclic(edge_list: Iterable[Edge]) -> bool:
    """True iff the digraph on the labels appearing in edge_list has no cycle.

    Peels vertices of outdegree 0 repeatedly; the graph is acyclic iff
    everything peels.
    """
    eset = set(edge_list)
    outdeg: dict[Hashable, int] = {}
    preds: dict[Hashable, list[Hashable]] = {}
    for u, v in eset:
        outdeg[u] = outdeg.get(u, 0) + 1
        outdeg.setdefault(v, 0)
        preds.setdefault(v, []).append(u)
        preds.setdefault(u, [])
    stack = [v for v, deg in outdeg.items() if deg == 0]
    removed = 0
    while stack:
        v = stack.pop()
        removed += 1
        for u in preds[v]:
            outdeg[u] -= 1
            if outdeg[u] == 0:
                stack.append(u)
    return removed == len(outdeg)


@dataclass(frozen=True)
class DeletionSet:
    """Backward edges of the vertex ordering 0, k, 2k, ..., (p-1)k."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)


def deletion_set(G: CayleyGraph, k: int) -> DeletionSet:
    """The edges that go backward in the ordering by multiples of k.

    With u = k^-1 and r_j = (u * a_j) mod p, the edge from position i along
    a_j goes backward exactly when i >= p - r_j, giving r_j backward edges per
    a_j, sum_j r_j in total. Removing them leaves an acyclic digraph.
    """
    p = G.p
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in [1, {p - 1}]")
    u = mod_inverse(k, G.modulus)
    out = set()
    for a in G.A:
        r = (u * a) % p
        for i in range(p - r, p):
            x = (k * i) % p
            out.add((x, (x + a) % p))
    return DeletionSet(frozenset(out))


def beta_upper(G: CayleyGraph) -> tuple[int, int]:
    """Minimum deletion-set size over all multiplier orderings, with its witness.

    Ordering k has sum_a (k^-1 * a mod p) backward edges: the sum of the
    canonical point <A/a_1> at multiplier v = a_1 * k^-1. So the value is its
    height h, and the witness, the smallest k attaining it, is the least
    a_1 * v^-1 mod p over the tied minimizers v, which heights_of(ties=True)
    lists in the pass that finds h: a line point's one from the sail in
    O(log p), a lattice point's from its last triangle, a scanned one's in O(h*d).
    """
    return _upper_bounds(G.modulus, [G.A])[0]


def _upper_bounds(pm: PrimeModulus, sets: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """beta_upper of each connection set in sets, all of one size, in one kernel call.

    A digon {a, p-a} in A adds exactly p at every multiplier, so it is dropped
    first: h(A) = p*#digons + h(rest), with the rest's witness, or 1 when the
    rest is empty. The dropped places in the tails are left as zeros.
    """
    p = pm.p
    A = np.array(sets, dtype=np.int64)
    paired = ((A[:, :, None] + A[:, None, :]) == p).any(axis=2) & (2 * A != p)
    # each rest in order, then a zero for every dropped element
    order = np.argsort(paired, axis=1, kind="stable")
    rest = np.take_along_axis(np.where(paired, 0, A), order, axis=1)
    heights = p * paired.sum(axis=1) // 2
    witness = np.where(rest[:, 0] == 0, 1, p)
    live = np.flatnonzero(rest[:, 0])
    if live.size:
        lead = rest[live, 0]
        tails = rest[live, 1:] * np.array([pow(a, -1, p) for a in lead.tolist()])[:, None] % p
        rest_heights, _, minimizers = heights_of(tails, p, ties=True, budget=DEFAULT_POINT_BUDGET)
        heights[live] += rest_heights
        row, v = minimizers.T
        inverse = map(pow, v.tolist(), itertools.repeat(-1), itertools.repeat(p))
        np.minimum.at(witness, live[row], lead[row] * np.fromiter(inverse, np.int64, len(v)) % p)
    return list(zip(heights.tolist(), witness.tolist()))


@dataclass(frozen=True)
class CyclePacking:
    """Weights y_c on zero-sum step vectors c: a rotation-averaged cycle packing.

    A vector c counts the steps of a closed walk through 0, c_i steps along
    a_i with sum_i c_i*a_i = 0 mod p. Its p rotations load every arc of orbit i
    exactly c_i times, and every feedback arc set meets each rotated walk;
    packing_settles turns this into beta >= ceil(p * sum_c y_c).
    """

    vectors: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]


def packing_settles(G: CayleyGraph, packing: CyclePacking, target: int) -> bool:
    """True iff packing proves beta(G) >= target, checked in exact arithmetic.

    Every vector must be a nonzero, nonnegative, zero-sum step count with a
    positive weight; the load sum_c y_c*c_i on every orbit i must be at most 1;
    and p * sum_c y_c must exceed target - 1. A feedback arc set F meets every
    rotated walk, so summing over walks and rotations gives
    p * sum_c y_c <= sum_i load_i * |F_i| <= |F|, and beta >= target.
    """
    p, d = G.p, G.d
    if len(packing.vectors) != len(packing.weights):
        return False
    load = [Fraction(0)] * d
    for c, y in zip(packing.vectors, packing.weights):
        if len(c) != d or y <= 0 or min(c) < 0 or not any(c):
            return False
        if sum(ci * a for ci, a in zip(c, G.A)) % p:
            return False
        for i, ci in enumerate(c):
            load[i] += y * ci
    return max(load) <= 1 and p * sum(packing.weights) > target - 1


def cycle_packing(G: CayleyGraph, target: int) -> CyclePacking | None:
    """A cycle packing worth more than target - 1, or None if the LP stops short.

    Column generation on max sum_c y_c subject to sum_c y_c*c <= 1, y >= 0,
    starting from the vectors p*e_i. Each restricted LP is solved by a simplex
    with Bland's rule on d rows, in integers: the tableau is kept times one
    common denominator D, the basis determinant, and a pivot on P = row_r[j]
    replaces every other row by (P*row - row[j]*row_r) // D, an exact division,
    then sets D = P (Edmonds-Bareiss). Its duals D*x price a new column, the
    cheapest closed walk through 0 under arc weights x. The search stops with
    a packing as soon as p * sum y > target - 1, and with None once no walk
    weighs less than 1, when the LP optimum is reached.
    """
    p, d = G.p, G.d
    # rows[r]: D times the coefficients of the d slacks, then of each vector,
    # then the right-hand side; the slack coefficients hold D times the basis
    # inverse. cost[j] is D times the reduced cost of variable j, and the
    # scaled duals are D*x_k = -cost[k].
    rows = [[int(r == k) for k in range(d)] + [1] for r in range(d)]
    cost = [0] * d
    basis = list(range(d))
    vectors: list[tuple[int, ...]] = []
    D = 1
    new = [tuple(p if k == i else 0 for k in range(d)) for i in range(d)]
    while True:
        for c in new:
            for row in rows:
                row.insert(-1, sum(ci * row[k] for k, ci in enumerate(c)))
            cost.append(D + sum(ci * cost[k] for k, ci in enumerate(c)))
            vectors.append(c)
        while True:
            held = [(vectors[b - d], row[-1]) for b, row in zip(basis, rows) if b >= d and row[-1]]
            if p * sum(y for _, y in held) > (target - 1) * D:
                weights = tuple(Fraction(y, D) for _, y in held)
                return CyclePacking(tuple(c for c, _ in held), weights)
            j = next((j for j, rc in enumerate(cost) if rc > 0), None)
            if j is None:
                break
            # Bland: the least ratio rhs/row[j], ties to the least basic variable
            r = -1
            for i, row in enumerate(rows):
                if row[j] > 0 and (
                    r < 0 or (row[-1] * rows[r][j], basis[i]) < (rows[r][-1] * row[j], basis[r])
                ):
                    r = i
            pivot = rows[r]
            P = pivot[j]
            for i, row in enumerate(rows):
                if i != r:
                    f = row[j]
                    rows[i] = [(P * u - f * v) // D for u, v in zip(row, pivot)]
            f = cost[j]
            cost[:] = [(P * u - f * v) // D for u, v in zip(cost, pivot)]
            basis[r], D = j, P
        weight, c = _cheapest_closed_walk(G, [-x for x in cost[:d]])
        if weight >= D:
            return None
        new = [c]


def _cheapest_closed_walk(G: CayleyGraph, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The least weight of a nonempty closed walk through 0, with its step counts.

    Step a_i weighs x_i >= 0; Dijkstra from 0, closing through each a_i.
    """
    p, A = G.p, G.A
    dist = {0: 0}
    step: dict[int, tuple[int, int]] = {}
    heap = [(0, 0)]
    best: tuple[int, int, int] | None = None
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


@lru_cache(maxsize=2)
def _popcount_layers(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsets of an m-element set grouped by popcount, with layer offsets."""
    idx = np.arange(1 << m, dtype=np.int32)
    pc = np.bitwise_count(idx)
    order = np.argsort(pc, kind="stable").astype(np.int32)
    counts = np.bincount(pc, minlength=m + 1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return order, offsets


def beta_exact(edge_list: Iterable[Edge], cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact minimum feedback arc set size of the digraph given by edge_list.

    A digraph is acyclic iff some linear order has no backward edge, so beta
    equals |E| minus the maximum forward-edge count over all orders. That
    maximum satisfies best(S) = max over v in S of best(S - v) plus the number
    of edges into v from S - v, a DP over vertex subsets evaluated here one
    popcount layer at a time. Time O(m * 2^m); refuses past min(cap, DP_CEILING) vertices.
    """
    simple: set[Edge] = set()
    loops: set[Edge] = set()
    for u, v in edge_list:
        (loops if u == v else simple).add((u, v))
    # labels are numbered as first seen: they need not be comparable
    seen = {w: i for i, w in enumerate(dict.fromkeys(w for e in (*simple, *loops) for w in e))}
    m = len(seen)
    limit = min(cap, DP_CEILING)
    if m > limit:
        raise CapExceededError(m, limit)
    if not simple:
        return len(loops)
    pred = [0] * m
    for u, v in simple:
        pred[seen[v]] |= 1 << seen[u]
    order, offsets = _popcount_layers(m)
    best = np.zeros(1 << m, dtype=np.int32)
    for c in range(1, m + 1):
        layer = order[offsets[c] : offsets[c + 1]]
        vals = np.zeros(layer.size, dtype=np.int32)
        for v in range(m):
            pv = pred[v]
            sel = (layer >> v) & 1 == 1
            sub = layer[sel] ^ (1 << v)
            cand = best[sub] + np.bitwise_count(np.int32(pv) & sub)
            merged = vals[sel]
            np.maximum(merged, cand, out=merged)
            vals[sel] = merged
        best[layer] = vals
    return len(simple) - int(best[(1 << m) - 1]) + len(loops)


def shortest_cycle(G: CayleyGraph) -> int:
    """Length of the shortest directed cycle.

    At d = 1 it is p. At d = 2 a cycle takes c_1 steps along a_1 and c_2 along
    a_2 with c_1 = c_2*(p - b) mod p, b = a_2/a_1, so the girth is
    min(p, h(<1, p - b>)), which is h(<1, p - b>) <= 1 + p - b, from the sail in
    O(log p). Otherwise vertex-transitivity makes one source enough: breadth-first
    search from 0, which stops at the first arc back to 0, once check_girth_budget
    allows it.
    """
    return _shortest_cycles(G.modulus, [G.A])[0]


def _shortest_cycles(pm: PrimeModulus, sets: Sequence[tuple[int, ...]]) -> list[int]:
    """shortest_cycle of each connection set in sets, all of one size.

    At d = 1 every girth is p, and d = 2 takes one kernel call. Larger sizes meet
    check_girth_budget first, then run one BFS each over an O(p) distance list.
    """
    p, d = pm.p, len(sets[0])
    if d == 1:
        return [p] * len(sets)
    check_girth_budget(p, d)
    if d == 2:
        tails = [[p - b * pow(a, -1, p) % p] for a, b in sets]
        return heights_of(np.array(tails, dtype=np.int64), p)[0].tolist()
    return [_bfs_girth(A, p) for A in sets]


def check_girth_budget(p: int, d: int) -> None:
    """Refuse a BFS of p*d arcs past the default budget; d <= 2 needs no search."""
    if d > 2:
        check_budget(p * d, DEFAULT_POINT_BUDGET)


def _bfs_girth(A: tuple[int, ...], p: int) -> int:
    # vertices leave the queue in nondecreasing distance, so the first arc back
    # to 0 closes a shortest cycle; before it, a distance of 0 means unreached
    dist = [0] * p
    queue = [0]
    for x in queue:
        for a in A:
            y = (x + a) % p
            if y == 0:
                return dist[x] + 1
            if not dist[y]:
                dist[y] = dist[x] + 1
                queue.append(y)


@dataclass(frozen=True)
class BetaReport:
    """Feedback arc set bounds and CSS assertion outcomes for one graph.

    triangle_witness is is_triangle_free's zero-sum multiset, None when there is none;
    css_margin is gamma/2 minus the best available beta bound; violations
    lists any failed assertion (expected empty). shortest_cycle is the girth when
    scan_css or `cayley --girth` measured it; every field is set when it is built.
    """

    graph: CayleyGraph
    triangle_witness: tuple[int, ...] | None
    gamma: int
    beta_upper: int
    witness_k: int
    beta_exact: int | None
    css_margin: Fraction
    violations: tuple[str, ...]
    shortest_cycle: int | None = None

    @property
    def triangle_free(self) -> bool:
        return self.triangle_witness is None


def css_check(G: CayleyGraph, exact: bool = False, cap: int = DEFAULT_EXACT_CAP) -> BetaReport:
    """Populate a BetaReport and evaluate the CSS assertions that apply.

    Triangle-free graphs with d = 2 and p >= 7 must satisfy the chain
    beta_upper <= (p-1)/2 <= gamma/2; a triangle-free graph with an exact beta
    must satisfy beta_exact <= gamma/2. Failures are recorded, not raised.

    With exact, a graph past the cap is refused before any work. Then
    beta_exact = beta_upper when cycle_packing finds a packing that
    packing_settles accepts: beta_upper >= beta >= ceil(p * sum y) >=
    beta_upper. Only when the packing leaves a gap does the subset DP run,
    and a graph past min(cap, DP_CEILING) vertices is refused first. Every
    rotation is an automorphism, so some optimal order puts 0 first; its d
    in-edges go backward and its out-edges forward, so beta = d + beta(G - 0),
    a DP on p - 1 vertices. This is the batch of one; scan_css audits a whole
    prime in one batch.
    """
    if exact:
        _check_exact_cap([G.p], cap)
    return next(_audit(G.modulus, [G], [None], exact, cap))


def _audit(
    pm: PrimeModulus, graphs: Sequence[CayleyGraph], girths: Sequence, exact: bool, cap: int
) -> Iterator[BetaReport]:
    """css_check's report of each graph on pm, built once, with girths[i] as its girth."""
    uppers = _upper_bounds(pm, [G.A for G in graphs])
    limit = min(cap, DP_CEILING)
    for G, (upper, witness_k), girth in zip(graphs, uppers, girths):
        # A holds no 0, so a girth above 3 leaves no zero-sum multiset of 2 or 3 elements
        triangle = None if girth is not None and girth > 3 else is_triangle_free(G)
        g = gamma(G)
        exact_beta = None
        if exact:
            packing = cycle_packing(G, upper)
            if packing is not None and packing_settles(G, packing, upper):
                exact_beta = upper
            elif G.p > limit:
                raise CapExceededError(G.p, limit)
            else:
                exact_beta = G.d + beta_exact([(u, v) for u, v in edges(G) if u and v], cap=cap)
        violations: list[str] = []
        if triangle is None:
            if G.d == 2 and G.p >= 7:
                if 2 * upper > G.p - 1:
                    violations.append("beta_upper > (p-1)/2")
                if G.p - 1 > g:
                    violations.append("(p-1)/2 > gamma/2")
            if exact_beta is not None and 2 * exact_beta > g:
                violations.append("beta_exact > gamma/2")
        yield BetaReport(
            graph=G,
            triangle_witness=triangle,
            gamma=g,
            beta_upper=upper,
            witness_k=witness_k,
            beta_exact=exact_beta,
            css_margin=Fraction(g, 2) - (upper if exact_beta is None else exact_beta),
            violations=tuple(violations),
            shortest_cycle=girth,
        )


def scan_css(
    p_max: int,
    d: int,
    exact: bool = False,
    cap: int = DEFAULT_EXACT_CAP,
    budget: int = DEFAULT_POINT_BUDGET,
) -> tuple[BetaReport, ...]:
    """One BetaReport per size-d connection set on every odd prime p <= p_max.

    Sets are enumerated up to scalar equivalence (A and cA are isomorphic via
    x -> cx). Each prime is one css_check batch with its girths, each row built
    once. The budget counts all C(p-1, d) d-subsets per prime, up to p - 1 per class,
    as each class is audited in O(p*d); only C(p-2, d-1) of them are tested. With
    exact, the first prime past the cap is refused before any work. Primes are
    audited from the largest down, so those past min(cap, DP_CEILING), where
    only a packing settles beta, come first and a packing gap there is refused
    before any DP runs; the rows are returned in ascending p.
    """
    if d < 1:
        raise ValueError("connection sets need d >= 1")
    primes = [p for p in primes_up_to(p_max) if p > 2]
    check_budget(sum(math.comb(p - 1, d) for p in primes), budget)
    if exact:
        # each class graph has p vertices, and primes p <= d have no class
        _check_exact_cap([p for p in primes if p > d], cap)
    batches = []
    for p in reversed(primes):
        pm = PrimeModulus(p)
        graphs = [CayleyGraph(pm, A) for A in canonical_connection_sets(pm, d)]
        if graphs:
            girths = _shortest_cycles(pm, [G.A for G in graphs])
            batches.append(list(_audit(pm, graphs, girths, exact, cap)))
    return tuple(row for batch in reversed(batches) for row in batch)
