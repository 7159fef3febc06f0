from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from equicycle import (
    AllCyclesEqual,
    BadRangeError,
    book,
    build,
    certify_distinct,
    certify_graph,
    cycle,
    decide,
    extremal,
    max_edges,
    max_edges_any_r,
    path,
    wedge,
)

from brute import graph_cycle_lengths
from structured import structured_graphs


def test_max_edges_examples():
    assert max_edges(16, 6).bound == 21
    assert max_edges(4, 3).bound == 4
    assert max_edges(7, 4).bound == 10
    assert max_edges(6, 3).bound == 7


def test_max_edges_extremal_params():
    rep = max_edges(16, 6)
    assert (rep.p, rep.c) == (6, 0)
    rep = max_edges(16, 3)
    assert (rep.p, rep.c) == (7, 1)
    assert rep.c == 16 - 1 - rep.p * 2


def test_max_edges_any_r():
    assert max_edges_any_r(16).bound == 28
    assert max_edges_any_r(4).bound == 4
    assert max_edges_any_r(5).bound == 6


def test_bad_ranges():
    with pytest.raises(BadRangeError):
        max_edges(10, 2)
    with pytest.raises(BadRangeError, match="^no cycle of length 4 fits in 3 vertices$"):
        max_edges(3, 4)
    with pytest.raises(BadRangeError, match="^no cycle of length 6 fits in 5 vertices$"):
        max_edges(5, 6)
    with pytest.raises(BadRangeError):
        max_edges_any_r(3)
    with pytest.raises(BadRangeError):
        certify_distinct(16, -1)


def test_extremal_examples():
    g = extremal(16, 6)
    assert g.vertex_count == 16 and g.edge_count == 21
    g = extremal(16, 3)
    assert g.vertex_count == 16 and g.edge_count == 22
    assert extremal(7, 4) == book(2, 4, 4)
    # n = r degenerates to the plain cycle (book with a single page)
    assert extremal(6, 6) == book(3, 6, 1)
    assert graph_cycle_lengths(extremal(6, 6)) == {6}


def test_extremal_sharpness_sample():
    for r in range(3, 9):
        for n in range(r, 20, 3):
            if r % 2 == 0 and n < 4:
                continue
            g = extremal(n, r)
            rep = max_edges(n, r)
            assert g.vertex_count == n
            assert g.edge_count == rep.bound
            d = decide(g)
            assert isinstance(d, AllCyclesEqual) and d.r == r
            if n <= 12:
                assert graph_cycle_lengths(g) == {r}


def test_bound_monotone_in_r():
    for n in range(4, 61):
        even = [max_edges(n, r).bound for r in range(4, n + 1, 2)]
        odd = [max_edges(n, r).bound for r in range(3, n + 1, 2)]
        assert even == sorted(even, reverse=True)
        assert odd == sorted(odd, reverse=True)
        best = max(
            max_edges(n, r).bound
            for r in range(3, n + 1)
            if not (r % 2 == 0 and n < 4)
        )
        assert best == 2 * n - 4 == max_edges(n, 4).bound


def test_two_book_wedge_inequality():
    # wedging two books never beats the single big book on the same
    # number of vertices
    for r in (4, 6, 8):
        half = r // 2
        for a in range(1, 6):
            for b in range(1, 6):
                w = wedge(book(half, r, a), book(half, r, b))
                n = w.vertex_count
                p = ((half - 1) * (a + b + 1) + 1) // (half - 1)
                c = n - 2 - (half - 1) * (p + 1)
                assert c >= 0
                dominant = wedge(book(half, r, p), path(c))
                assert dominant.vertex_count == n
                assert w.edge_count <= dominant.edge_count


def test_smaller_book_with_longer_tail_inequality():
    for r in (4, 6, 8):
        half = r // 2
        for p in range(2, 6):
            for p_small in range(1, p + 1):
                for c in range(0, 4):
                    c_big = (half - 1) * (p - p_small) + c
                    big = wedge(book(half, r, p), path(c))
                    small = wedge(book(half, r, p_small), path(c_big))
                    assert big.vertex_count == small.vertex_count
                    assert small.edge_count <= big.edge_count


def test_certify_examples():
    cert = certify_distinct(16, 29)
    assert cert.verdict == "must_contain_distinct_lengths"
    assert cert.cited_bound == 28
    cert = certify_distinct(16, 22, 6)
    assert cert.verdict == "must_contain_distinct_lengths"
    assert cert.cited_bound == 21
    assert certify_distinct(16, 28).verdict == "inconclusive"


def test_certify_odd_r_small_n():
    # with odd r supplied the bound applies from n = 3
    cert = certify_distinct(3, 4, 3)
    assert cert.cited_bound == 3


def test_certify_graph_checks_premises():
    g = extremal(10, 4)
    cert = certify_graph(g, 4)
    assert cert.verdict == "inconclusive"
    with pytest.raises(BadRangeError):
        certify_graph(g, 6)  # no 6-cycle present
    # the bounds need no connectivity: two disjoint triangles are certified
    disconnected = build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cert = certify_graph(disconnected)
    assert cert.premises == ("simple graph",)
    assert (cert.verdict, cert.cited_bound) == ("inconclusive", 8)
    assert certify_graph(disconnected, 3).premises == ("simple graph", "has a cycle of length 3")


def test_certify_graph_reads_r_cycle_premise_from_decide():
    # a 40-vertex book, far past the exhaustive oracle's default limit
    g = extremal(40, 6)
    assert certify_graph(g, 6).cited_bound == g.edge_count
    with pytest.raises(BadRangeError, match="no cycle of length 4"):
        certify_graph(g, 4)
    with pytest.raises(BadRangeError, match="no cycle of length 3"):
        certify_graph(path(4), 3)
    # a rejected graph is not searched for the r-cycle: it already has two
    # cycle lengths, so the certificate's conclusion holds without one
    h = wedge(cycle(3), cycle(4))
    assert 5 not in graph_cycle_lengths(h)
    assert certify_graph(h, 5).verdict == "must_contain_distinct_lengths"


def test_certify_graph_certifies_every_small_graph():
    # without r, every graph, connected or not, gets the arithmetic
    # certificate of its vertex and edge counts
    for n in (4, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert certify_graph(g) == certify_distinct(n, g.edge_count)


@st.composite
def disjoint_unions(draw):
    """2-3 structured graphs side by side, up to 3 isolated vertices,
    and the vertex ids shuffled."""
    edges, n = [], 0
    for part in draw(st.lists(structured_graphs(), min_size=2, max_size=3)):
        edges.extend((u + n, v + n) for u, v in part.edges)
        n += part.vertex_count
    n += draw(st.integers(0, 3))
    perm = draw(st.permutations(range(n)))
    return build(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(disjoint_unions())
def test_bounds_hold_on_disconnected_graphs(g):
    # wedging the components together keeps m and the cycle lengths and
    # lowers n, so a disconnected graph lies strictly below both bounds
    n = g.vertex_count
    assert certify_graph(g).premises == ("simple graph",)
    d = decide(g)
    if isinstance(d, AllCyclesEqual):
        assert certify_graph(g, d.r).verdict == "inconclusive"
        assert g.edge_count < max_edges(n, d.r).bound
        assert g.edge_count < 2 * n - 4  # n >= 6: each part has a cycle


def test_certify_graph_without_r():
    g = extremal(10, 4)
    assert certify_graph(g).cited_bound == 16
