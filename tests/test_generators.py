import random

import pytest

from equicycle import (
    BadParamsError,
    TooSmallError,
    book,
    build,
    complete,
    complete_bipartite,
    cycle,
    path,
    wedge,
)

from brute import based_at, connected_components, graph_cycle_lengths


def test_cycle():
    c = cycle(3)
    assert c.vertex_count == 3 and c.edge_count == 3
    assert graph_cycle_lengths(cycle(5)) == {5}
    with pytest.raises(TooSmallError):
        cycle(2)


def test_path():
    p = path(2)
    assert p.vertex_count == 3 and p.edge_count == 2
    p0 = path(0)
    assert p0.vertex_count == 1 and p0.edge_count == 0
    assert path(4).edge_count == 4


def test_complete():
    assert complete(5).edge_count == 10
    k1 = complete(1)
    assert k1.vertex_count == 1 and k1.edge_count == 0
    with pytest.raises(TooSmallError):
        complete(0)


def test_complete_bipartite():
    assert complete_bipartite(3, 3).edge_count == 9
    with pytest.raises(TooSmallError):
        complete_bipartite(0, 3)


def test_book_small_cases():
    b = book(1, 3, 2)  # two triangles sharing an edge
    assert b.vertex_count == 4 and b.edge_count == 5
    b = book(2, 4, 4)
    assert b.vertex_count == 7 and b.edge_count == 10
    assert book(2, 4, 1) == cycle(4)


def test_book_counts_general():
    # |V| = (n+1) + p(L-n-1), |E| = n + p(L-n)
    for n, L, p in [(1, 3, 3), (2, 5, 2), (3, 6, 4), (1, 4, 5)]:
        b = book(n, L, p)
        assert b.vertex_count == (n + 1) + p * (L - n - 1)
        assert b.edge_count == n + p * (L - n)


def test_book_equal_cycle_counts():
    # B(k, 2k, p): (k-1)(p+1)+2 vertices, k(p+1) edges
    for k in range(2, 7):
        for p in range(1, 7):
            b = book(k, 2 * k, p)
            assert b.vertex_count == (k - 1) * (p + 1) + 2
            assert b.edge_count == k * (p + 1)


def test_book_spectrum_is_singleton():
    for k in (2, 3):
        for p in (2, 3):
            assert graph_cycle_lengths(book(k, 2 * k, p)) == {2 * k}


def test_book_bad_params():
    with pytest.raises(BadParamsError):
        book(2, 3, 2)  # spine longer than L-2
    with pytest.raises(BadParamsError):
        book(1, 3, 1)  # p=1 needs L=2n
    with pytest.raises(BadParamsError):
        book(0, 3, 2)
    with pytest.raises(BadParamsError):
        book(1, 2, 2)


def test_wedge_bowtie():
    w = wedge(cycle(3), cycle(3))
    assert w.vertex_count == 5 and w.edge_count == 6
    assert graph_cycle_lengths(w) == {3}


def test_wedge_single_summand_identity():
    assert wedge(cycle(3)) == cycle(3)


def test_wedge_with_path():
    w = wedge(cycle(3), path(1))
    assert w.vertex_count == 4 and w.edge_count == 4


def test_wedge_counts_random_summands():
    rng = random.Random(7)
    pool = [cycle(3), cycle(5), path(2), book(2, 4, 2), complete(4)]
    for _ in range(20):
        summands = tuple(rng.choice(pool) for _ in range(rng.randint(2, 6)))
        w = wedge(*summands)
        s = len(summands)
        assert w.vertex_count == sum(g.vertex_count for g in summands) - (s - 1)
        assert w.edge_count == sum(g.edge_count for g in summands)
        assert len(connected_components(w)) == 1


def test_wedge_counts_invariant_under_base_choice():
    rng = random.Random(11)
    summands = (cycle(4), book(2, 4, 3), path(3))
    reference = wedge(*summands)
    for _ in range(10):
        bases = tuple(rng.randrange(g.vertex_count) for g in summands)
        w = wedge(*(based_at(g, b) for g, b in zip(summands, bases)))
        assert w.vertex_count == reference.vertex_count
        assert w.edge_count == reference.edge_count
        assert graph_cycle_lengths(w) == graph_cycle_lengths(reference) == {4}


def test_wedge_validation():
    with pytest.raises(BadParamsError):
        wedge()
    with pytest.raises(BadParamsError, match="^base vertex 0 invalid for"):
        wedge(cycle(3), build(0, []))
