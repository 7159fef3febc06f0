"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  The heavy
machinery is shared:

* exhaustive_sweep(): every labeled graph on 1..7 vertices,
  comparing the structural decision against independent brute-force
  cycle enumeration, checking decomposition soundness, and recording
  the max edge count per singleton cycle length.
* bound_search(8) (in brute.py): exhaustive confirmation of the edge
  bounds at n = 8, by a pruned DFS that visits every 8-vertex graph
  with at most one cycle length.  The same search drives
  acceptance_n8.py, which checks decide on every graph it visits and
  on every extension it prunes; at about 5 minutes that runs as a CI
  step of its own, outside tier-1.
"""

import random
from functools import lru_cache
from itertools import combinations

from equicycle import (
    Acyclic,
    AllCyclesEqual,
    BookParams,
    DistinctLengths,
    book,
    certify_distinct,
    complete,
    complete_bipartite,
    cycle_spectrum,
    decide,
    decompose,
    extremal,
    max_edges,
    max_edges_any_r,
    subdivide,
)
from equicycle.graph import Graph

from brute import bound_search, brute_cycle_lengths


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {tag}: {desc}{suffix}")


def _decomposition_violations(g, decomp):
    """Criterion 8 checks: edges partition into bridges plus exactly one
    block; pairwise block intersections are empty or one cut vertex."""
    violations = []
    block_edges = [e for b in decomp.cycle_blocks for e in b.edges]
    if len(block_edges) != len(set(block_edges)):
        violations.append("edge in two blocks")
    # read against the adjacency, not g.edges, which is derived on first
    # read: a set of pairs u < v, each an edge of g, as many as g has
    # edges, is exactly g's edge set
    parts = set(block_edges) | set(decomp.bridges)
    adj = g.adjacency
    if len(parts) != g.edge_count or not all(u < v and v in adj[u] for u, v in parts):
        violations.append("edge partition does not cover edge set")
    if len(block_edges) + len(decomp.bridges) != g.edge_count:
        violations.append("edge partition sizes disagree")
    cuts = set(decomp.cut_vertices)
    for b1, b2 in combinations(decomp.cycle_blocks, 2):
        shared = set(b1.vertices) & set(b2.vertices)
        if len(shared) > 1:
            violations.append("blocks share two vertices")
        elif shared and shared.pop() not in cuts:
            violations.append("block intersection is not a cut vertex")
    return violations


@lru_cache(maxsize=None)
def exhaustive_sweep():
    """Single pass over all labeled graphs on <= 7 vertices, connected
    or not.

    Returns (graph_count, mismatches, violations, maxima) where maxima
    maps n -> {r: max edges over graphs with spectrum {r}}.
    """
    mismatches = []
    violations = []
    maxima = {}
    total = 0
    for n in range(1, 8):
        edge_pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ne = len(edge_pool)
        best = {}
        for mask in range(1 << ne):
            adj = [0] * n
            edges = []
            for i in range(ne):
                if mask >> i & 1:
                    u, v = edge_pool[i]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    edges.append((u, v))
            total += 1
            lengths = brute_cycle_lengths(n, adj, cap=2)
            g = Graph(n, edges)
            decomp = decompose(g)
            bad = _decomposition_violations(g, decomp)
            if bad:
                violations.append((n, mask, bad))
            d = decide(g)
            if not lengths:
                ok = isinstance(d, Acyclic)
            elif len(lengths) == 1:
                r = next(iter(lengths))
                ok = isinstance(d, AllCyclesEqual) and d.r == r
                if len(edges) > best.get(r, 0):
                    best[r] = len(edges)
            else:
                ok = isinstance(d, DistinctLengths)
            if not ok:
                mismatches.append((n, mask))
        maxima[n] = best
    return total, mismatches, violations, maxima


@lru_cache(maxsize=None)
def kuratowski_fuzz():
    """500 random subdivision vectors over each of K5 and K3,3.

    Vectors alternate between dense (entries 0..3) and sparse (0..1)
    draws so a fair share stays inside the oracle budget for the
    confirming enumeration.
    """
    rng = random.Random(20240817)
    results = []
    for base in (complete(5), complete_bipartite(3, 3)):
        base_edges = list(base.edges)
        for trial in range(500):
            hi = 3 if trial % 2 == 0 else 1
            vec = [rng.randint(0, hi) for _ in base_edges]
            g = base
            for e, t in zip(base_edges, vec):
                g = subdivide(g, e, t)
            results.append((base.vertex_count, tuple(vec), g))
    return results


def test_criterion_1_oracle_equivalence():
    total, mismatches, _, _ = exhaustive_sweep()
    ok = not mismatches
    _report(
        1,
        "decision agrees with brute force on all graphs <= 7 vertices",
        ok,
        f"{total} graphs, {len(mismatches)} mismatches",
    )
    assert ok, mismatches[:10]


def test_criterion_2_example_without_r():
    cert = certify_distinct(16, 29, None)
    ok = cert.verdict == "must_contain_distinct_lengths" and cert.cited_bound == 28
    _report(2, "16 vertices, 29 edges certified distinct via bound 28", ok)
    assert ok


def test_criterion_3_example_with_r():
    cert = certify_distinct(16, 22, 6)
    ok = cert.verdict == "must_contain_distinct_lengths" and cert.cited_bound == 21
    _report(3, "16 vertices, 22 edges, 6-cycle certified distinct via bound 21", ok)
    assert ok


def test_criterion_4_sharpness():
    failures = []
    checked = 0
    for r in range(3, 11):
        for n in range(r, 31):
            checked += 1
            g = extremal(n, r)
            rep = max_edges(n, r)
            d = decide(g)
            if (
                g.vertex_count != n
                or g.edge_count != rep.bound
                or not isinstance(d, AllCyclesEqual)
                or d.r != r
            ):
                failures.append((n, r, "structure"))
                continue
            for block in decompose(g).cycle_blocks:
                if len(block.vertices) > 14:
                    continue
                sub, _ = block.to_graph()
                if cycle_spectrum(sub).lengths != (r,):
                    failures.append((n, r, "spectrum"))
    ok = not failures
    _report(4, "extremal graphs attain every bound, 3 <= r <= 10, n <= 30",
            ok, f"{checked} pairs")
    assert ok, failures[:10]


def test_criterion_5_kuratowski_fuzz():
    rejected = 0
    confirmed = 0
    failures = []
    for base_n, vec, g in kuratowski_fuzz():
        d = decide(g)
        if isinstance(d, DistinctLengths):
            rejected += 1
        else:
            failures.append((base_n, vec, type(d).__name__))
            continue
        if g.vertex_count <= 14:
            if len(cycle_spectrum(g).lengths) >= 2:
                confirmed += 1
            else:
                failures.append((base_n, vec, "oracle singleton"))
    ok = not failures and rejected == 1000
    _report(5, "all 1000 subdivided Kuratowski graphs rejected",
            ok, f"{confirmed} oracle-confirmed within budget")
    assert ok, failures[:10]
    assert confirmed > 0  # the oracle clause must not be vacuous


def test_criterion_6_book_counts():
    failures = []
    for k in range(2, 7):
        for p in range(1, 7):
            b = book(BookParams(k, 2 * k, p))
            if b.vertex_count != (k - 1) * (p + 1) + 2 or b.edge_count != k * (p + 1):
                failures.append((k, p))
    ok = not failures
    _report(6, "book vertex/edge counts exact for 2 <= k <= 6, 1 <= p <= 6", ok)
    assert ok, failures


def test_criterion_7_bound_confirmation():
    _, _, _, maxima = exhaustive_sweep()
    failures = []
    for n in (5, 6, 7):
        for r in range(3, n + 1):
            found = maxima[n].get(r)
            if found != max_edges(n, r).bound:
                failures.append((n, r, found))
    best8 = bound_search(8)
    for r in range(3, 9):
        if best8.get(r) != max_edges(8, r).bound:
            failures.append((8, r, best8.get(r)))
    ok = not failures
    _report(7, "brute-force maxima over all graphs equal the bounds for n = 5..8", ok)
    assert ok, failures


def test_criterion_8_decomposition_soundness():
    _, _, violations, _ = exhaustive_sweep()
    fuzz_violations = []
    for base_n, vec, g in kuratowski_fuzz():
        bad = _decomposition_violations(g, decompose(g))
        if bad:
            fuzz_violations.append((base_n, vec, bad))
    ok = not violations and not fuzz_violations
    _report(8, "edge partition and block intersections sound on all graphs <= 7 vertices"
               " and on the fuzz graphs", ok)
    assert ok, (violations[:5], fuzz_violations[:5])


def test_criterion_9_monotonicity():
    failures = []
    for n in range(4, 61):
        for parity in (0, 1):
            rs = [r for r in range(3, n + 1) if r % 2 == parity]
            bounds = [max_edges(n, r).bound for r in rs]
            if bounds != sorted(bounds, reverse=True):
                failures.append((n, parity, "not non-increasing"))
        overall = max(max_edges(n, r).bound for r in range(3, n + 1))
        if overall != max_edges_any_r(n).bound:
            failures.append((n, "max", overall))
    ok = not failures
    _report(9, "bounds non-increasing in r and dominated by 2n-4 for n <= 60", ok)
    assert ok, failures
