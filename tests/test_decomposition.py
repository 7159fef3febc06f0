import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from equicycle import (
    book,
    build,
    cycle,
    cycle_spectrum,
    decide,
    decompose,
    path,
    wedge,
)

from equicycle.decomposition import chain_decomposition
from equicycle.graph import Graph

from brute import (
    based_at,
    block_graph,
    blockwise_spectrum_check,
    connected_components,
    ear_decomposition_edges,
    edge_on_some_cycle,
    random_connected_edges,
    reference_blocks,
    reference_chains,
    reference_classify,
)
from structured import structured_graphs


def paper_display_graph():
    """Three 4-cycles in a row joined at corners, a bridge, then a
    triangle."""
    edges = [
        (0, 1), (1, 2), (2, 3), (0, 3),
        (3, 4), (4, 5), (5, 6), (3, 6),
        (6, 7), (7, 8), (8, 9), (6, 9),
        (9, 10),
        (10, 11), (11, 12), (10, 12),
    ]
    return build(13, edges)


def test_bridges_tree():
    assert len(decompose(path(4)).bridges) == 4


def test_bridges_cycle():
    assert decompose(cycle(5)).bridges == ()


def test_bridges_wedge():
    g = wedge(cycle(3), path(2))
    bridges = decompose(g).bridges
    assert set(bridges) == {e for e in g.edges if not edge_on_some_cycle(g, e)}
    assert len(bridges) == 2


def test_bridges_match_cycle_membership_random():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(2, 11)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 5)))
        expected = {e for e in g.edges if not edge_on_some_cycle(g, e)}
        assert set(decompose(g).bridges) == expected


def test_decompose_bowtie():
    d = decompose(wedge(cycle(3), cycle(3)))
    assert d.bridges == ()
    assert d.cut_vertices == (0,)
    assert len(d.cycle_blocks) == 2
    for b in d.cycle_blocks:
        assert len(b.vertices) == 3 and len(b.edges) == 3


def test_decompose_paper_display_graph():
    g = paper_display_graph()
    d = decompose(g)
    assert len(d.bridges) == 1
    assert len(d.cycle_blocks) == 4
    union = set()
    for b in d.cycle_blocks:
        union.update(cycle_spectrum(block_graph(b)).lengths)
    assert union == {3, 4}
    assert blockwise_spectrum_check(g)


def test_decompose_single_block():
    g = book(2, 4, 3)
    d = decompose(g)
    assert d.bridges == () and d.cut_vertices == ()
    assert len(d.cycle_blocks) == 1
    b = d.cycle_blocks[0]
    assert b.vertices == tuple(range(g.vertex_count))
    assert set(b.edges) == set(g.edges)


def test_blocks_ordered_by_least_vertex():
    g = paper_display_graph()
    d = decompose(g)
    firsts = [b.vertices[0] for b in d.cycle_blocks]
    assert firsts == sorted(firsts)


def _check_invariants(g, d):
    for b in d.cycle_blocks:
        assert b.vertices == tuple(sorted({x for e in b.edges for x in e}))
        assert b.edges == tuple(sorted(set(b.edges)))
        assert all(u < v for u, v in b.edges)
    assert d.bridges == tuple(sorted(set(d.bridges)))
    assert all(u < v for u, v in d.bridges)
    block_edges = [e for b in d.cycle_blocks for e in b.edges]
    assert len(block_edges) == len(set(block_edges))
    assert set(block_edges) | set(d.bridges) == set(g.edges)
    assert len(block_edges) + len(d.bridges) == g.edge_count
    for b1, b2 in combinations(d.cycle_blocks, 2):
        shared = set(b1.vertices) & set(b2.vertices)
        assert len(shared) <= 1
        if shared:
            assert shared.pop() in d.cut_vertices


def test_edge_partition_and_block_intersections():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 14)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 8)))
        _check_invariants(g, decompose(g))


@settings(max_examples=300, deadline=None)
@given(structured_graphs())
def test_blocks_and_bridges_partition_edges_of_structured_graphs(g):
    _check_invariants(g, decompose(g))


def test_cut_vertex_definition():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(3, 10)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 5)))
        cuts = set(decompose(g).cut_vertices)
        base = len(connected_components(g))
        for v in range(n):
            rest = [e for e in g.edges if v not in e]
            # one fewer vertex; count components among remaining vertices
            comp = connected_components(build(n, rest))
            parts = sum(1 for c in comp if c != [v])
            assert (parts > base) == (v in cuts)


def test_blockwise_spectrum_random():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(3, 12)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 5)))
        assert blockwise_spectrum_check(g)


def test_disconnected_input_decomposes_per_component():
    g = build(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (4, 7)])
    d = decompose(g)
    assert len(d.cycle_blocks) == 2
    assert d.cycle_blocks[0].vertices == (0, 1, 2)
    assert d.cycle_blocks[1].vertices == (4, 5, 6, 7)


def assert_matches_reference(g):
    """chain_decomposition(g) is reference_chains(g), the two-scan pass,
    chain order included; decompose(g) is reference_blocks(g),
    Hopcroft-Tarjan's, blocks in the same order; the pass's rows have
    those blocks' least vertices, decide's shapes are reference_classify's
    shapes and reasons, and each row's chains are an ear decomposition
    of its block's edges.  True when two blocks share their least
    vertex."""
    records = chain_decomposition(g)
    assert records == reference_chains(g)
    expected = reference_blocks(g)
    assert decompose(g) == expected
    count, parent, _, _, rows = records
    shapes = getattr(decide(g), "shapes", ())
    assert count == expected.component_count and len(rows) == len(shapes) == len(expected.cycle_blocks)
    for (least, *_, chains), shape, block in zip(rows, shapes, expected.cycle_blocks):
        assert least == block.vertices[0]
        assert repr(shape) == repr(reference_classify(block))
        assert ear_decomposition_edges(parent, chains) == block.edges
    leasts = [least for least, *_ in rows]
    return len(set(leasts)) < len(leasts)


def test_chain_decomposition_matches_hopcroft_tarjan_on_small_graphs():
    # every labelled graph on <= 6 vertices; relabelling maps them onto
    # themselves, so each vertex of each graph is once the search's root
    ties = 0
    for n in range(1, 7):
        pool = list(combinations(range(n), 2))
        for mask in range(1 << len(pool)):
            ties += assert_matches_reference(
                Graph(n, [e for i, e in enumerate(pool) if mask >> i & 1]))
    assert ties == 211  # graphs where blocks share their least vertex


@settings(max_examples=200, deadline=None)
@given(structured_graphs())
def test_chain_decomposition_matches_hopcroft_tarjan_from_every_root(g):
    for root in range(g.vertex_count):
        assert_matches_reference(based_at(g, root))
